// E4 — Li et al. [60] vs Pannen et al. [44]: HD-map storage.
// Paper: conventional HD maps cost ~10 MB/mile (200 GB / 20,000 miles);
// the compact vector map reaches ~100 KB/mile (300 KB / 3 miles) — a
// two-order-of-magnitude reduction — while preserving navigation.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench/bench_util.h"
#include "common/units.h"
#include "core/serialization.h"
#include "core/tile_store.h"
#include "planning/route_planner.h"
#include "service/map_service.h"
#include "sim/road_network_generator.h"
#include "storage/snapshot_store.h"

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
  std::printf("  conventional map tiled: %zu tiles, %.1f MB total\n\n",
              store.NumTiles(), store.TotalBytes() / 1e6);

  // --- Tile-serving hot path: parallel Build, cached LoadRegion. ---
  size_t nthreads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("  tile-serving hot path (%zu hardware threads):\n", nthreads);

  // Build scaling: element assignment is sequential and deterministic,
  // per-tile serialization fans out.
  constexpr int kBuildReps = 5;
  auto time_build = [&](size_t threads) {
    TileStore s(TileStore::Options{.tile_size_m = 256.0});
    bench::Timer t;
    for (int i = 0; i < kBuildReps; ++i) {
      if (!s.Build(map, threads).ok()) return -1.0;
    }
    return t.Seconds() / kBuildReps;
  };
  double build_1 = time_build(1);
  double build_n = time_build(nthreads);
  if (build_1 < 0.0 || build_n < 0.0) return 1;
  std::printf("    Build: %.1f ms @1 thread, %.1f ms @%zu threads (%.2fx)\n",
              build_1 * 1e3, build_n * 1e3, nthreads, build_1 / build_n);

  // Determinism gate: identical v3 tile bytes regardless of thread count.
  TileStore s1(TileStore::Options{.tile_size_m = 256.0});
  TileStore sn(TileStore::Options{.tile_size_m = 256.0});
  if (!s1.Build(map, 1).ok() || !sn.Build(map, nthreads).ok()) return 1;
  bool deterministic = s1.RawTilesCopy() == sn.RawTilesCopy();
  std::printf("    v3 Build bytes 1 vs %zu threads: %s\n", nthreads,
              deterministic ? "identical" : "DIFFER");

  // Repeated LoadRegion over hot tiles: first pass deserializes and fills
  // the LRU cache, later passes are served from it.
  TileStore serving(TileStore::Options{.tile_size_m = 256.0});
  if (!serving.Build(map, nthreads).ok()) return 1;
  Aabb hot_box = map.BoundingBox();
  constexpr int kRegionReps = 10;
  bench::Timer cold_timer;
  auto cold = serving.LoadRegion(hot_box);
  if (!cold.ok()) return 1;
  double cold_s = cold_timer.Seconds();
  bench::Timer hot_timer;
  for (int i = 0; i < kRegionReps; ++i) {
    if (!serving.LoadRegion(hot_box).ok()) return 1;
  }
  double hot_s = hot_timer.Seconds() / kRegionReps;
  TileStoreStats stats = serving.stats();
  std::printf(
      "    LoadRegion: %.1f ms cold, %.1f ms hot (%.2fx); "
      "cache %zu hits / %zu misses\n\n",
      cold_s * 1e3, hot_s * 1e3, cold_s / hot_s, stats.cache_hits,
      stats.cache_misses);

  // --- Zero-copy views vs full decode, over the same tiles. ---
  std::printf("  tile views (offset tables read in place) vs full decode:\n");
  auto in_box = serving.TilesInBox(hot_box);
  if (!in_box.ok()) return 1;

  // Cold "region to first geometry": how long from untouched bytes to
  // geometry in hand, across every tile in the region. LoadTile validates
  // each tile and then materializes it in full; GetTileView validates the
  // offset tables and reads the first centerline point in place. Fresh
  // store copies each rep keep every cache cold.
  constexpr int kColdReps = 5;
  double sink = 0.0;  // Defeats dead-code elimination.
  bench::Timer decode_cold_timer;
  for (int rep = 0; rep < kColdReps; ++rep) {
    TileStore cold_store = serving;
    for (const TileId& id : *in_box) {
      auto tile = cold_store.LoadTile(id);
      if (!tile.ok()) return 1;
      if (!tile->lanelets().empty()) {
        sink += tile->lanelets().begin()->second.centerline.front().x;
      }
    }
  }
  double decode_cold_s = decode_cold_timer.Seconds() / kColdReps;
  bench::Timer view_cold_timer;
  for (int rep = 0; rep < kColdReps; ++rep) {
    TileStore cold_store = serving;
    for (const TileId& id : *in_box) {
      auto view = cold_store.GetTileView(id);
      if (!view.ok()) return 1;
      if (view->view.num_lanelets() > 0) {
        sink += view->view.lanelet(0).centerline().front().x;
      }
    }
  }
  double view_cold_s = view_cold_timer.Seconds() / kColdReps;
  double view_speedup = view_cold_s > 0.0 ? decode_cold_s / view_cold_s : 0.0;
  std::printf(
      "    cold region to first geometry: LoadTile %.2f ms, GetTileView "
      "%.3f ms (%.1fx)\n",
      decode_cold_s * 1e3, view_cold_s * 1e3, view_speedup);

  // Bytes served verbatim: the network GetTile path ships the pinned
  // frame bytes untouched (CRC travels inside), vs validating and
  // materializing per request. Throughput over every tile in the region.
  constexpr int kServeReps = 20;
  size_t verbatim_bytes = 0;
  bench::Timer verbatim_timer;
  for (int rep = 0; rep < kServeReps; ++rep) {
    for (const TileId& id : *in_box) {
      auto bytes = serving.RawTileBytes(id);
      if (!bytes.ok()) return 1;
      verbatim_bytes += bytes->size();
      sink += static_cast<double>(bytes->data()[0]);
    }
  }
  double verbatim_s = verbatim_timer.Seconds();
  TileStore decode_store = serving;  // Cold copy: every LoadTile misses.
  size_t decoded_bytes = 0;
  bench::Timer decode_timer;
  for (const TileId& id : *in_box) {
    auto bytes = decode_store.RawTileBytes(id);
    if (!bytes.ok()) return 1;
    decoded_bytes += bytes->size();
    if (!decode_store.LoadTile(id).ok()) return 1;
  }
  double decode_s = decode_timer.Seconds();
  std::printf(
      "    bytes served verbatim: %.1f GB/s pinned (%zu tiles/rep); "
      "decode path %.3f GB/s  (sink %.1f)\n\n",
      verbatim_bytes / 1e9 / verbatim_s, in_box->size(),
      decoded_bytes / 1e9 / decode_s, sink);

  // --- Durability: checkpoint write, cold recovery, WAL ack overhead. ---
  namespace fsys = std::filesystem;
  fsys::path data_root =
      fsys::temp_directory_path() / "hdmap_bench_e4_storage";
  fsys::remove_all(data_root);
  std::printf("  durability (checkpoint + patch WAL):\n");

  // Checkpoint write: persist the serving store's tiles (temp dir, fsync,
  // atomic rename). fsync dominates real deployments; both modes print.
  double ckpt_mb = serving.TotalBytes() / 1e6;
  double ckpt_fsync_s = 0.0, ckpt_nosync_s = 0.0;
  {
    SnapshotStore store({.data_dir = (data_root / "fsync").string(),
                         .fsync = FsyncMode::kAlways});
    bench::Timer t;
    if (!store.WriteCheckpoint(serving, 1, 0).ok()) return 1;
    ckpt_fsync_s = t.Seconds();
  }
  SnapshotStore ckpt_store({.data_dir = (data_root / "nosync").string(),
                            .fsync = FsyncMode::kNever});
  {
    bench::Timer t;
    if (!ckpt_store.WriteCheckpoint(serving, 1, 0).ok()) return 1;
    ckpt_nosync_s = t.Seconds();
  }
  std::printf(
      "    checkpoint write (%.1f MB, %zu tiles): %.1f ms fsync, "
      "%.1f ms no-fsync\n",
      ckpt_mb, serving.NumTiles(), ckpt_fsync_s * 1e3, ckpt_nosync_s * 1e3);

  // Cold recovery: newest-valid scan + full per-tile validation + stitch.
  size_t skipped = 0;
  bench::Timer rec_timer;
  auto recovered = ckpt_store.LoadNewestValid(
      TileStore::Options{.tile_size_m = 256.0}, &skipped);
  if (!recovered.ok()) return 1;
  double rec_s = rec_timer.Seconds();
  bool recovery_identical = recovered->tiles.RawTilesCopy() ==
                            serving.RawTilesCopy();
  std::printf("    cold recovery (validate + stitch): %.1f ms, bytes %s\n",
              rec_s * 1e3, recovery_identical ? "identical" : "DIFFER");

  // WAL ack overhead on StagePatch: what durability costs the writer per
  // acknowledged patch, before any publish.
  MapPatch wal_patch;
  wal_patch.moved_landmarks.push_back(
      {map.landmarks().begin()->first, {1.0, 2.0, 3.0}});
  constexpr int kStageReps = 50;
  auto time_stage = [&](const std::string& dir, FsyncMode mode) {
    MapService::Options sopt;
    sopt.tile_store.tile_size_m = 256.0;
    sopt.durability.data_dir = dir;
    sopt.durability.fsync = mode;
    MapService service(sopt);
    if (!service.Init(map).ok()) return -1.0;
    bench::Timer t;
    for (int i = 0; i < kStageReps; ++i) {
      if (!service.StagePatch(wal_patch).ok()) return -1.0;
    }
    return t.Seconds() / kStageReps;
  };
  double stage_plain = time_stage("", FsyncMode::kNever);
  double stage_wal = time_stage((data_root / "svc_nosync").string(),
                                FsyncMode::kNever);
  double stage_wal_fsync = time_stage((data_root / "svc_fsync").string(),
                                      FsyncMode::kAlways);
  if (stage_plain < 0.0 || stage_wal < 0.0 || stage_wal_fsync < 0.0) {
    return 1;
  }
  std::printf(
      "    StagePatch ack: %.1f us bare, %.1f us +WAL, %.1f us +WAL+fsync\n",
      stage_plain * 1e6, stage_wal * 1e6, stage_wal_fsync * 1e6);
  fsys::remove_all(data_root);

  // Determinism is a correctness guarantee and gates the exit code; the
  // speedup ratio is timing-dependent (flaky on loaded or low-core
  // machines), so it only warns.
  if (cold_s / hot_s < 2.0) {
    std::printf("  WARNING: hot LoadRegion speedup below 2x target\n");
  }
  // Both sides pay the same frame CRC, so the view's edge is the skipped
  // Materialize alone.
  if (view_speedup < 2.0) {
    std::printf(
        "  WARNING: view cold-to-first-geometry speedup below 2x target\n");
  }
  if (!deterministic) {
    std::printf("  FAIL: v3 tile bytes differ across thread counts\n");
  }
  if (!recovery_identical) {
    std::printf("  FAIL: recovered checkpoint bytes differ from source\n");
  }
  return routed && deterministic && recovery_identical ? 0 : 1;
}

}  // namespace
}  // namespace hdmap

int main() { return hdmap::Run(); }
