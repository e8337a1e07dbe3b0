#ifndef HDMAP_BENCHMARK_REPLAYS_H_
#define HDMAP_BENCHMARK_REPLAYS_H_

// Layer replays: after a traced window, the benchmark times direct calls
// into each layer's public functions over the workload's own seeded
// inputs. Every workload runs every replay, so each per-layer metric is
// measured on every workload (on its own world and inputs).

#include <string>
#include <vector>

#include "core/hd_map.h"
#include "core/map_patch.h"
#include "core/tile_store.h"
#include "geometry/aabb.h"
#include "harness.h"
#include "service/map_service.h"

namespace hdmap::bench {

struct ReplayInputs {
  /// The serving service, after the measured window.
  const MapService* service = nullptr;
  /// The world the workload was set up with (ids the patches refer to).
  const HdMap* world = nullptr;
  std::vector<TileId> tiles;
  std::vector<Aabb> boxes;
  /// Each patch is replayed as one publish.
  std::vector<MapPatch> patches;
  /// Reply payloads sampled during the window.
  std::vector<std::string> payloads;
  /// Scratch directory for the durable replays (removed afterwards).
  std::string tmp_dir;
};

/// Adds every replay metric to `report`. Returns false with `*error` set
/// when a replayed call fails.
bool RunReplays(const ReplayInputs& in, Report* report, std::string* error);

}  // namespace hdmap::bench

#endif  // HDMAP_BENCHMARK_REPLAYS_H_
