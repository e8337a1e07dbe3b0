#include "service/map_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "core/serialization.h"
#include "tests/test_worlds.h"

namespace hdmap {
namespace {

ElementId FirstLandmarkId(const HdMap& map) {
  EXPECT_FALSE(map.landmarks().empty());
  return map.landmarks().begin()->first;
}

MapService::Options SmallTileOptions() {
  MapService::Options opt;
  opt.tile_store.tile_size_m = 100.0;
  return opt;
}

TEST(MapServiceTest, ReadersFailBeforeInit) {
  MapService service;
  EXPECT_EQ(service.version(), 0u);
  EXPECT_EQ(service.snapshot(), nullptr);
  EXPECT_EQ(service.GetRegion(Aabb{{0, 0}, {10, 10}}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.MatchToLane({0, 0}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Route(1, 2).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Publish().code(), StatusCode::kFailedPrecondition);
}

TEST(MapServiceTest, InitServesAllEndpoints) {
  MapService service(SmallTileOptions());
  HdMap world = StraightRoad(500.0);
  size_t num_landmarks = world.landmarks().size();
  ASSERT_TRUE(service.Init(std::move(world)).ok());
  EXPECT_EQ(service.version(), 1u);
  ASSERT_NE(service.snapshot(), nullptr);

  auto region = service.GetRegion(service.snapshot()->map.BoundingBox());
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->landmarks().size(), num_landmarks);

  auto tile = service.GetTile(service.snapshot()->tiles.TileAt({10, 0}));
  ASSERT_TRUE(tile.ok());
  EXPECT_GT(tile->NumElements(), 0u);

  auto match = service.MatchToLane({50.0, -1.75});
  ASSERT_TRUE(match.ok());

  ElementId lane = match->lanelet_id;
  auto route = service.Route(lane, lane);
  EXPECT_TRUE(route.ok());

  EXPECT_GE(service.SnapshotAgeSeconds(), 0.0);
}

TEST(MapServiceTest, GetTileViewServesAndPinsAcrossPublish) {
  MapService service(SmallTileOptions());
  EXPECT_EQ(service.GetTileView(TileId{0, 0}).status().code(),
            StatusCode::kFailedPrecondition);  // Before Init.
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());

  TileId id = service.snapshot()->tiles.TileAt({10, 0});
  auto view = service.GetTileView(id);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->version, 1u);
  EXPECT_GT(view->tile.view.NumElements(), 0u);
  size_t lanelets_before = view->tile.view.num_lanelets();

  // Publish a new version: the held view keeps serving the old bytes
  // (the pin outlives the snapshot it came from), while a fresh call
  // reports the new version.
  ElementId sign = FirstLandmarkId(service.snapshot()->map);
  MapPatch patch;
  patch.moved_landmarks.push_back(
      {sign, service.snapshot()->map.FindLandmark(sign)->position +
                 Vec3{1.0, 0.0, 0.0}});
  service.StagePatch(patch);
  ASSERT_TRUE(service.Publish().ok());

  EXPECT_EQ(view->tile.view.num_lanelets(), lanelets_before);
  ASSERT_TRUE(view->tile.view.Materialize().ok());
  auto fresh = service.GetTileView(id);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->version, 2u);

  // View and decode agree on content (same post-publish version).
  auto tile = service.GetTile(id);
  ASSERT_TRUE(tile.ok());
  auto materialized = fresh->tile.view.Materialize();
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(SerializeMap(*materialized), SerializeMap(*tile));
}

TEST(MapServiceTest, HeldSnapshotIsIsolatedFromPublish) {
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());

  std::shared_ptr<const MapSnapshot> before = service.snapshot();
  ElementId sign = FirstLandmarkId(before->map);
  Vec3 old_pos = before->map.FindLandmark(sign)->position;
  Vec3 new_pos = old_pos + Vec3{1.0, 1.0, 0.0};

  MapPatch patch;
  patch.moved_landmarks.push_back({sign, new_pos});
  service.StagePatch(patch);
  EXPECT_EQ(service.NumStagedPatches(), 1u);
  ASSERT_TRUE(service.Publish().ok());
  EXPECT_EQ(service.NumStagedPatches(), 0u);

  // The pre-publish snapshot shows zero effects of the patch, in both the
  // stitched map and the serialized tiles it serves.
  EXPECT_EQ(before->version, 1u);
  EXPECT_EQ(before->map.FindLandmark(sign)->position, old_pos);
  auto old_region = before->tiles.LoadRegion(before->map.BoundingBox());
  ASSERT_TRUE(old_region.ok());
  EXPECT_EQ(old_region->FindLandmark(sign)->position, old_pos);

  // Post-publish readers see all of it.
  std::shared_ptr<const MapSnapshot> after = service.snapshot();
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(after->map.FindLandmark(sign)->position, new_pos);
  auto new_region = service.GetRegion(after->map.BoundingBox());
  ASSERT_TRUE(new_region.ok());
  EXPECT_EQ(new_region->FindLandmark(sign)->position, new_pos);
}

TEST(MapServiceTest, ConcurrentReadersSeeWholeVersionsAcrossPublishes) {
  // Readers loop GetRegion over tiles that every publish rewrites. Each
  // region must hold all markers at one z (never stitched from two
  // versions), that z must be the version GetRegion reports, and it
  // must never fall below the reader's previous reply (no rollback).
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(VersionMarkerRoad()).ok());

  constexpr int kReaders = 3;
  constexpr uint64_t kPublishes = 100;
  std::atomic<bool> stop{false};
  std::atomic<int> readers_started{0};
  std::atomic<uint64_t> reads{0}, torn{0}, mislabeled{0}, rollbacks{0},
      errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t served = 0;
        Result<HdMap> region =
            service.GetRegion(kVersionMarkerBox, nullptr, &served);
        if (first) {
          readers_started.fetch_add(1);
          first = false;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        if (!region.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        uint64_t version = MarkerVersion(*region);
        if (version == 0) torn.fetch_add(1, std::memory_order_relaxed);
        if (version != served) {
          mislabeled.fetch_add(1, std::memory_order_relaxed);
        }
        if (served < last) rollbacks.fetch_add(1, std::memory_order_relaxed);
        last = served;
      }
    });
  }
  // Publish only once every reader is inside its loop, and stop on the
  // publish count, not on wall time.
  while (readers_started.load() < kReaders) std::this_thread::yield();
  for (uint64_t v = 2; v <= kPublishes + 1; ++v) {
    Status published = service.ApplyPatch(VersionMarkerPatch(v));
    EXPECT_TRUE(published.ok()) << published.ToString();
    if (!published.ok()) break;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(service.version(), kPublishes + 1);
  EXPECT_GE(reads.load(), static_cast<uint64_t>(kReaders));
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(mislabeled.load(), 0u);
  EXPECT_EQ(rollbacks.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  auto final_region = service.GetRegion(kVersionMarkerBox);
  ASSERT_TRUE(final_region.ok());
  EXPECT_EQ(MarkerVersion(*final_region), kPublishes + 1);
}

TEST(MapServiceTest, CowTilesMatchFullRebuild) {
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());
  auto before = service.snapshot();

  MapPatch patch;
  ElementId sign = FirstLandmarkId(before->map);
  // Move a landmark across tiles and add one in untouched space.
  patch.moved_landmarks.push_back(
      {sign, before->map.FindLandmark(sign)->position + Vec3{150, 0, 0}});
  Landmark fresh;
  fresh.id = 99001;
  fresh.position = {321.0, 2.0, 1.0};
  patch.added_landmarks.push_back(fresh);
  ASSERT_TRUE(service.ApplyPatch(patch).ok());

  auto after = service.snapshot();
  // Copy-on-write must be indistinguishable from a from-scratch build of
  // the patched map: byte-identical tiles under the same options.
  TileStore full(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(full.Build(after->map).ok());
  EXPECT_EQ(after->tiles.RawTilesCopy(), full.RawTilesCopy());
  // And the previous snapshot's store was left byte-identical to its own
  // full build.
  TileStore old_full(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(old_full.Build(before->map).ok());
  EXPECT_EQ(before->tiles.RawTilesCopy(), old_full.RawTilesCopy());
}

TEST(MapServiceTest, CowTilesMatchFullRebuildOnRelationalPatch) {
  HdMap world = StraightRoad(500.0);
  ElementId lane_id = world.lanelets().begin()->first;
  RegulatoryElement reg;
  reg.id = 77001;
  reg.type = RegulatoryType::kSpeedLimit;
  reg.speed_limit_mps = 8.0;
  reg.lanelet_ids = {lane_id};
  ASSERT_TRUE(world.AddRegulatoryElement(reg).ok());
  world.FindMutableLanelet(lane_id)->regulatory_ids.push_back(reg.id);

  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(std::move(world)).ok());
  auto before = service.snapshot();

  // Shorten the regulated lanelet and tighten its speed limit in one
  // patch: both changes ripple through every tile the lanelet occupies.
  Lanelet shorter = *before->map.FindLanelet(lane_id);
  std::vector<Vec2> pts(shorter.centerline.points().begin(),
                        shorter.centerline.points().end() - 2);
  shorter.centerline = LineString(std::move(pts));
  reg.speed_limit_mps = 6.0;

  MapPatch patch;
  patch.updated_lanelets.push_back(shorter);
  patch.updated_regulatory_elements.push_back(reg);
  ASSERT_TRUE(service.ApplyPatch(patch).ok());

  auto after = service.snapshot();
  EXPECT_NEAR(after->map.EffectiveSpeedLimit(lane_id), 6.0, 1e-9);
  TileStore full(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(full.Build(after->map).ok());
  EXPECT_EQ(after->tiles.RawTilesCopy(), full.RawTilesCopy());
}

TEST(MapServiceTest, PublishIsAllOrNothing) {
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());
  auto before = service.snapshot();
  ElementId sign = FirstLandmarkId(before->map);
  Vec3 old_pos = before->map.FindLandmark(sign)->position;

  MapPatch good;
  good.moved_landmarks.push_back({sign, old_pos + Vec3{1, 0, 0}});
  MapPatch bad;
  bad.removed_landmarks.push_back(987654);  // No such landmark.
  service.StagePatch(good);
  service.StagePatch(bad);

  EXPECT_EQ(service.Publish().code(), StatusCode::kNotFound);
  // Nothing published, no version consumed, queue intact.
  EXPECT_EQ(service.version(), 1u);
  EXPECT_EQ(service.snapshot()->map.FindLandmark(sign)->position, old_pos);
  EXPECT_EQ(service.NumStagedPatches(), 2u);
  service.DiscardStagedPatches();
  EXPECT_EQ(service.NumStagedPatches(), 0u);
  // An empty publish is a no-op, not a version bump.
  EXPECT_TRUE(service.Publish().ok());
  EXPECT_EQ(service.version(), 1u);
}

TEST(MapServiceTest, RoutingGraphSharedWhenTopologyUntouched) {
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());
  auto v1 = service.snapshot();

  MapPatch landmarks_only;
  ElementId sign = FirstLandmarkId(v1->map);
  landmarks_only.moved_landmarks.push_back(
      {sign, v1->map.FindLandmark(sign)->position + Vec3{0.5, 0, 0}});
  ASSERT_TRUE(service.ApplyPatch(landmarks_only).ok());
  auto v2 = service.snapshot();
  EXPECT_EQ(v2->routing, v1->routing);  // Shared, not rebuilt.

  MapPatch topology;
  topology.removed_lanelets.push_back(v1->map.lanelets().begin()->first);
  ASSERT_TRUE(service.ApplyPatch(topology).ok());
  auto v3 = service.snapshot();
  EXPECT_NE(v3->routing, v2->routing);  // Rebuilt for the new topology.
}

TEST(MapServiceTest, MetricsFlowThroughRegistry) {
  MetricsRegistry registry;
  MapService::Options opt = SmallTileOptions();
  opt.metrics = &registry;
  MapService service(opt);
  EXPECT_EQ(&service.metrics(), &registry);

  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());
  Aabb box = service.snapshot()->map.BoundingBox();
  ASSERT_TRUE(service.GetRegion(box).ok());
  ASSERT_TRUE(service.GetRegion(box).ok());
  (void)service.MatchToLane({1e9, 1e9});  // An error.

  MapPatch patch;
  ElementId sign = FirstLandmarkId(service.snapshot()->map);
  patch.moved_landmarks.push_back(
      {sign, service.snapshot()->map.FindLandmark(sign)->position});
  ASSERT_TRUE(service.ApplyPatch(patch).ok());

  EXPECT_GE(registry.GetCounter("map_service.requests")->value(), 3u);
  EXPECT_GE(registry.GetCounter("map_service.errors")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("map_service.patches_published")->value(),
            1u);
  EXPECT_EQ(registry.GetGauge("map_service.snapshot_version")->value(), 2.0);
  EXPECT_EQ(registry.GetLatency("map_service.get_region")->count(), 2u);
  EXPECT_EQ(registry.GetLatency("map_service.publish")->count(), 1u);
  // The snapshot's tile cache exports through the same registry: the two
  // identical region loads give the second one cache hits.
  EXPECT_GT(registry.GetCounter("tile_store.cache_hits")->value(), 0u);
}

TEST(MapServiceTest, ReInitKeepsVersionMonotonic) {
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
  ASSERT_TRUE(service.Init(StraightRoad(400.0)).ok());
  EXPECT_EQ(service.version(), 2u);
}

TEST(MapServiceTest, PatchSurvivesSerializationIntoPublish) {
  // The fleet-side flow: a patch arrives on the wire, is decoded, and
  // published as one version.
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());
  ElementId sign = FirstLandmarkId(service.snapshot()->map);
  MapPatch patch;
  patch.removed_landmarks.push_back(sign);

  auto decoded = DeserializePatch(SerializePatch(patch));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(service.ApplyPatch(*std::move(decoded)).ok());
  EXPECT_EQ(service.snapshot()->map.FindLandmark(sign), nullptr);
}

TEST(MapServiceFaultTest, InjectedPublishFaultLeavesServiceIntact) {
  FaultInjector faults(7);
  faults.AddPolicy({MapService::kPublishFaultSite, FaultKind::kFailStatus,
                    1.0, StatusCode::kInternal});
  MapService::Options opt = SmallTileOptions();
  opt.fault_injector = &faults;
  MapService service(opt);
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());
  auto before = service.snapshot();
  ElementId sign = FirstLandmarkId(before->map);
  Vec3 old_pos = before->map.FindLandmark(sign)->position;

  MapPatch patch;
  patch.moved_landmarks.push_back({sign, old_pos + Vec3{1, 0, 0}});
  service.StagePatch(patch);

  // The injected failure aborts the publish after the expensive work;
  // nothing rolls forward.
  EXPECT_EQ(service.Publish().code(), StatusCode::kInternal);
  EXPECT_EQ(service.version(), 1u);
  EXPECT_EQ(service.snapshot(), before);
  EXPECT_EQ(service.NumStagedPatches(), 1u);
  // Old snapshot keeps serving reads throughout.
  EXPECT_TRUE(service.GetRegion(before->map.BoundingBox()).ok());

  // Fault lifted: the same staged patch publishes cleanly.
  faults.ClearPolicies();
  ASSERT_TRUE(service.Publish().ok());
  EXPECT_EQ(service.version(), 2u);
  EXPECT_EQ(service.NumStagedPatches(), 0u);
  EXPECT_EQ(service.snapshot()->map.FindLandmark(sign)->position,
            (old_pos + Vec3{1, 0, 0}));
}

TEST(MapServiceFaultTest, DegradedRegionsCountAndDriveHealth) {
  FaultInjector faults(21);
  MapService::Options opt = SmallTileOptions();
  opt.fault_injector = &faults;
  MapService service(opt);
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());
  Aabb world_box = service.snapshot()->map.BoundingBox();
  EXPECT_EQ(service.Health(), ServiceHealth::kServing);

  // Corrupt every tile load from here on.
  faults.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 1.0});
  RegionReport report;
  auto region = service.GetRegion(world_box, &report);
  // Partial mode: the request still succeeds, served around the holes.
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_FALSE(report.corrupt_tiles.empty());
  EXPECT_EQ(service.metrics().GetCounter("map_service.regions_degraded")
                ->value(),
            1u);
  EXPECT_EQ(service.metrics().GetCounter("map_service.errors")->value(), 0u);
  EXPECT_EQ(service.Health(), ServiceHealth::kDegraded);

  // A degraded region observed without a caller-supplied report still
  // counts.
  ASSERT_TRUE(service.GetRegion(world_box).ok());
  EXPECT_EQ(service.metrics().GetCounter("map_service.regions_degraded")
                ->value(),
            2u);

  // Single-tile loads surface the data loss as a per-code error.
  auto tile = service.GetTile(service.snapshot()->tiles.TileAt({10, 0}));
  ASSERT_FALSE(tile.ok());
  EXPECT_EQ(tile.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(
      service.metrics().GetCounter("map_service.errors{DATA_LOSS}")->value(),
      1u);
  EXPECT_EQ(service.metrics().GetCounter("map_service.errors")->value(), 1u);

  // A successful publish swaps in freshly built tiles and re-baselines
  // health back to serving.
  faults.ClearPolicies();
  ElementId sign = FirstLandmarkId(service.snapshot()->map);
  MapPatch patch;
  patch.moved_landmarks.push_back(
      {sign,
       service.snapshot()->map.FindLandmark(sign)->position + Vec3{1, 0, 0}});
  ASSERT_TRUE(service.ApplyPatch(patch).ok());
  EXPECT_EQ(service.Health(), ServiceHealth::kServing);
  ASSERT_TRUE(service.GetRegion(world_box, &report).ok());
  EXPECT_TRUE(report.corrupt_tiles.empty());
  EXPECT_EQ(service.Health(), ServiceHealth::kServing);
}

TEST(MapServiceFaultTest, StrictReadsFailInsteadOfDegrading) {
  FaultInjector faults(33);
  faults.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 1.0});
  MapService::Options opt = SmallTileOptions();
  opt.fault_injector = &faults;
  opt.strict_reads = true;
  MapService service(opt);
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());

  auto region = service.GetRegion(service.snapshot()->map.BoundingBox());
  ASSERT_FALSE(region.ok());
  EXPECT_EQ(region.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(
      service.metrics().GetCounter("map_service.errors{DATA_LOSS}")->value(),
      1u);
  EXPECT_EQ(service.metrics().GetCounter("map_service.regions_degraded")
                ->value(),
            0u);
  EXPECT_EQ(service.Health(), ServiceHealth::kDegraded);
}

// --- Durability & recovery ---

namespace fs = std::filesystem;

class ScopedDataDir {
 public:
  explicit ScopedDataDir(const std::string& tag) {
    path_ = fs::path(::testing::TempDir()) /
            ("hdmap_service_durability_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedDataDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

MapService::Options DurableOptions(const std::string& data_dir) {
  MapService::Options opt;
  opt.tile_store.tile_size_m = 100.0;
  opt.durability.data_dir = data_dir;
  // Tests hammer many tiny checkpoints; skipping fsync keeps them fast
  // without changing any code path under test.
  opt.durability.fsync = FsyncMode::kNever;
  return opt;
}

size_t CountCheckpoints(const std::string& data_dir) {
  fs::path root = fs::path(data_dir) / "checkpoints";
  if (!fs::exists(root)) return 0;
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("v", 0) == 0) {
      ++n;
    }
  }
  return n;
}

TEST(MapServiceDurabilityTest, NonDurableServiceTouchesNoDisk) {
  MapService service(SmallTileOptions());
  EXPECT_FALSE(service.durable());
  ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
  MapPatch patch;
  patch.moved_landmarks.push_back(
      {FirstLandmarkId(service.snapshot()->map), {1, 2, 3}});
  EXPECT_TRUE(service.StagePatch(patch).ok());
  EXPECT_TRUE(service.Publish().ok());
}

TEST(MapServiceDurabilityTest, InitBootstrapsCheckpointAndEmptyWal) {
  ScopedDataDir dir("bootstrap");
  MapService service(DurableOptions(dir.str()));
  EXPECT_TRUE(service.durable());
  ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
  EXPECT_EQ(CountCheckpoints(dir.str()), 1u);
  // Nothing staged yet, so the rewritten WAL is empty.
  EXPECT_EQ(
      service.metrics().GetGauge("wal.size_bytes")->value(), 0.0);
}

TEST(MapServiceDurabilityTest, RestartRecoversPublishedState) {
  ScopedDataDir dir("restart");
  ElementId sign = 0;
  Vec3 new_pos;
  std::map<uint64_t, std::string> published_bytes;
  {
    MapService service(DurableOptions(dir.str()));
    ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
    sign = FirstLandmarkId(service.snapshot()->map);
    new_pos =
        service.snapshot()->map.FindLandmark(sign)->position + Vec3{5, 0, 0};
    MapPatch patch;
    patch.moved_landmarks.push_back({sign, new_pos});
    ASSERT_TRUE(service.ApplyPatch(patch).ok());
    EXPECT_EQ(service.version(), 2u);
    published_bytes = service.snapshot()->tiles.RawTilesCopy();
  }  // "Crash": the service goes away, only the data_dir survives.

  MapService revived(DurableOptions(dir.str()));
  // The bootstrap map is ignored: durable state outranks it.
  ASSERT_TRUE(revived.Init(StraightRoad(100.0)).ok());
  EXPECT_EQ(revived.version(), 2u);
  EXPECT_EQ(revived.snapshot()->map.FindLandmark(sign)->position, new_pos);
  // Byte-exact: recovery re-serves exactly the published tiles.
  EXPECT_EQ(revived.snapshot()->tiles.RawTilesCopy(), published_bytes);
  // A clean recovery is not a degradation.
  EXPECT_EQ(revived.Health(), ServiceHealth::kServing);
  EXPECT_EQ(revived.metrics().GetCounter("storage.recoveries")->value(), 1u);
  // Age is continuous across the restart (back-dated from the persisted
  // wall-clock stamp), not reset to zero-at-boot.
  EXPECT_GE(revived.SnapshotAgeSeconds(), 0.0);
  // And it keeps serving + publishing.
  ASSERT_TRUE(
      revived.GetRegion(revived.snapshot()->map.BoundingBox()).ok());
  MapPatch more;
  more.moved_landmarks.push_back({sign, new_pos + Vec3{1, 0, 0}});
  ASSERT_TRUE(revived.ApplyPatch(more).ok());
  EXPECT_EQ(revived.version(), 3u);
}

TEST(MapServiceDurabilityTest, AckedUnpublishedPatchSurvivesRestart) {
  ScopedDataDir dir("staged");
  ElementId sign = 0;
  Vec3 new_pos;
  {
    MapService service(DurableOptions(dir.str()));
    ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
    sign = FirstLandmarkId(service.snapshot()->map);
    new_pos =
        service.snapshot()->map.FindLandmark(sign)->position + Vec3{2, 2, 0};
    MapPatch patch;
    patch.moved_landmarks.push_back({sign, new_pos});
    // Acked (WAL-fsynced) but never published.
    ASSERT_TRUE(service.StagePatch(patch).ok());
  }

  MapService revived(DurableOptions(dir.str()));
  ASSERT_TRUE(revived.Init(HdMap()).ok());
  // The replayed patch folds into one recovered publish past v1.
  EXPECT_EQ(revived.version(), 2u);
  EXPECT_EQ(revived.snapshot()->map.FindLandmark(sign)->position, new_pos);
  EXPECT_EQ(revived.metrics().GetCounter("wal.replayed_records")->value(),
            1u);
  // Recovery re-checkpointed, so a second restart replays nothing and
  // lands on the same state (recovery is idempotent).
  auto recovered_bytes = revived.snapshot()->tiles.RawTilesCopy();
  MapService again(DurableOptions(dir.str()));
  ASSERT_TRUE(again.Init(HdMap()).ok());
  EXPECT_EQ(again.version(), 2u);
  EXPECT_EQ(again.snapshot()->tiles.RawTilesCopy(), recovered_bytes);
  EXPECT_EQ(again.metrics().GetCounter("wal.replayed_records")->value(), 0u);
}

TEST(MapServiceDurabilityTest, UncheckpointedPublishSurvivesViaWal) {
  ScopedDataDir dir("wal_only");
  ElementId sign = 0;
  Vec3 final_pos;
  {
    MapService::Options opt = DurableOptions(dir.str());
    // Effectively "never checkpoint after bootstrap": every publish
    // survives through the WAL alone.
    opt.durability.checkpoint_every_n_publishes = 1000;
    MapService service(opt);
    ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
    sign = FirstLandmarkId(service.snapshot()->map);
    Vec3 pos = service.snapshot()->map.FindLandmark(sign)->position;
    for (int i = 0; i < 3; ++i) {
      pos = pos + Vec3{1, 0, 0};
      MapPatch patch;
      patch.moved_landmarks.push_back({sign, pos});
      ASSERT_TRUE(service.ApplyPatch(patch).ok());
    }
    final_pos = pos;
    EXPECT_EQ(service.version(), 4u);
    EXPECT_EQ(CountCheckpoints(dir.str()), 1u);  // Only the bootstrap.
  }

  MapService revived(DurableOptions(dir.str()));
  ASSERT_TRUE(revived.Init(HdMap()).ok());
  EXPECT_EQ(revived.snapshot()->map.FindLandmark(sign)->position, final_pos);
  EXPECT_EQ(revived.metrics().GetCounter("wal.replayed_records")->value(),
            3u);
  EXPECT_GE(revived.version(), 4u);
}

TEST(MapServiceDurabilityTest, CheckpointEveryNSkipsIntermediatePublishes) {
  ScopedDataDir dir("every_n");
  MapService::Options opt = DurableOptions(dir.str());
  opt.durability.checkpoint_every_n_publishes = 2;
  opt.durability.retention = 10;
  MapService service(opt);
  ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
  EXPECT_EQ(CountCheckpoints(dir.str()), 1u);
  ElementId sign = FirstLandmarkId(service.snapshot()->map);

  MapPatch patch;
  patch.moved_landmarks.push_back(
      {sign, service.snapshot()->map.FindLandmark(sign)->position});
  ASSERT_TRUE(service.ApplyPatch(patch).ok());   // Publish 1: no checkpoint.
  EXPECT_EQ(CountCheckpoints(dir.str()), 1u);
  EXPECT_GT(service.metrics().GetGauge("wal.size_bytes")->value(), 0.0);
  ASSERT_TRUE(service.ApplyPatch(patch).ok());   // Publish 2: checkpoint.
  EXPECT_EQ(CountCheckpoints(dir.str()), 2u);
  EXPECT_EQ(service.metrics().GetGauge("wal.size_bytes")->value(), 0.0);
}

TEST(MapServiceDurabilityTest, TornNewestCheckpointFallsBackDegraded) {
  ScopedDataDir dir("fallback");
  {
    MapService service(DurableOptions(dir.str()));
    ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
    MapPatch patch;
    ElementId sign = FirstLandmarkId(service.snapshot()->map);
    patch.moved_landmarks.push_back(
        {sign,
         service.snapshot()->map.FindLandmark(sign)->position + Vec3{9, 0, 0}});
    ASSERT_TRUE(service.ApplyPatch(patch).ok());  // Checkpoint v2.
  }
  // Tear the newest checkpoint's manifest (the zero-padded version in the
  // directory name sorts lexically).
  fs::path newest;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir.str()) / "checkpoints")) {
    if (newest.empty() || entry.path().filename() > newest.filename()) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  fs::path v2_manifest = newest / "manifest.bin";
  ASSERT_TRUE(fs::exists(v2_manifest));
  fs::resize_file(v2_manifest, fs::file_size(v2_manifest) / 2);

  MapService revived(DurableOptions(dir.str()));
  ASSERT_TRUE(revived.Init(HdMap()).ok());
  // Fell back to the bootstrap checkpoint and said so.
  EXPECT_EQ(revived.version(), 1u);
  EXPECT_EQ(revived.Health(), ServiceHealth::kDegraded);
  EXPECT_EQ(
      revived.metrics().GetCounter("storage.checkpoints_invalid")->value(),
      1u);
  EXPECT_GE(
      revived.metrics().GetCounter("map_service.errors{DATA_LOSS}")->value(),
      1u);
  // Degraded, but serving: a fresh publish clears the flag.
  MapPatch patch;
  ElementId sign = FirstLandmarkId(revived.snapshot()->map);
  patch.moved_landmarks.push_back(
      {sign, revived.snapshot()->map.FindLandmark(sign)->position});
  ASSERT_TRUE(revived.ApplyPatch(patch).ok());
  EXPECT_EQ(revived.Health(), ServiceHealth::kServing);
}

TEST(MapServiceDurabilityTest, TotalCheckpointLossFallsBackToBootstrapMap) {
  ScopedDataDir dir("total_loss");
  {
    MapService service(DurableOptions(dir.str()));
    ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
  }
  // Destroy every checkpoint's manifest.
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir.str()) / "checkpoints")) {
    fs::remove(entry.path() / "manifest.bin");
  }
  MapService revived(DurableOptions(dir.str()));
  ASSERT_TRUE(revived.Init(StraightRoad(150.0)).ok());
  // Served from the bootstrap map, flagged degraded, and re-persisted.
  EXPECT_EQ(revived.version(), 1u);
  EXPECT_EQ(revived.Health(), ServiceHealth::kDegraded);
  MapService again(DurableOptions(dir.str()));
  ASSERT_TRUE(again.Init(HdMap()).ok());
  EXPECT_EQ(again.snapshot()->map.lanelets().size(),
            revived.snapshot()->map.lanelets().size());
}

TEST(MapServiceDurabilityTest, TotalLossPreservesOrphanedWalRecords) {
  ScopedDataDir dir("total_loss_wal");
  {
    MapService service(DurableOptions(dir.str()));
    ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
    MapPatch patch;
    ElementId sign = FirstLandmarkId(service.snapshot()->map);
    patch.moved_landmarks.push_back(
        {sign, service.snapshot()->map.FindLandmark(sign)->position});
    // Acked (WAL-fsynced) but never published nor checkpointed.
    ASSERT_TRUE(service.StagePatch(patch).ok());
  }
  // Destroy every checkpoint: the WAL record's base state is gone.
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir.str()) / "checkpoints")) {
    fs::remove(entry.path() / "manifest.bin");
  }

  MapService revived(DurableOptions(dir.str()));
  ASSERT_TRUE(revived.Init(StraightRoad(150.0)).ok());
  EXPECT_EQ(revived.version(), 1u);
  EXPECT_EQ(revived.Health(), ServiceHealth::kDegraded);
  // The orphaned record is counted on top of the checkpoint loss, not
  // silently folded into a single event...
  EXPECT_GE(
      revived.metrics().GetCounter("map_service.errors{DATA_LOSS}")->value(),
      2u);
  // ...and its bytes are set aside for salvage, not erased by the
  // bootstrap checkpoint's WAL trim.
  EXPECT_TRUE(fs::exists(fs::path(dir.str()) / "wal" / "patches.wal.lost"));
  EXPECT_EQ(revived.metrics().GetGauge("wal.size_bytes")->value(), 0.0);
  EXPECT_EQ(CountCheckpoints(dir.str()), 1u);  // Bootstrap re-persisted.
}

TEST(MapServiceDurabilityTest, UnappliableWalRecordLeavesNoPartialState) {
  ScopedDataDir dir("wal_half_apply");
  constexpr ElementId kGhost = 987654;  // Never existed in any version.
  constexpr ElementId kExtra = 777777;
  {
    MapService service(DurableOptions(dir.str()));
    ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
    // One record whose adds succeed but whose move then fails: replay
    // must apply all of it or none of it.
    MapPatch patch;
    Landmark extra;
    extra.id = kExtra;
    extra.position = {5.0, -4.0, 1.0};
    patch.added_landmarks.push_back(extra);
    patch.moved_landmarks.push_back({kGhost, {1, 2, 3}});
    ASSERT_TRUE(service.StagePatch(patch).ok());
  }

  MapService revived(DurableOptions(dir.str()));
  ASSERT_TRUE(revived.Init(HdMap()).ok());
  // The record was skipped whole: the added landmark from its first half
  // must not have leaked into the served snapshot.
  EXPECT_EQ(revived.snapshot()->map.FindLandmark(kExtra), nullptr);
  EXPECT_EQ(revived.version(), 1u);
  EXPECT_EQ(
      revived.metrics().GetCounter("wal.replay_apply_failures")->value(), 1u);
  EXPECT_EQ(revived.Health(), ServiceHealth::kDegraded);
}

TEST(MapServiceDurabilityTest, WalAppendFailureRejectsTheAck) {
  ScopedDataDir dir("wal_fail");
  FaultInjector faults(3);
  MapService::Options opt = DurableOptions(dir.str());
  opt.fault_injector = &faults;
  MapService service(opt);
  ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());

  faults.AddPolicy({PatchWal::kAppendFaultSite, FaultKind::kFailStatus, 1.0,
                    StatusCode::kInternal});
  MapPatch patch;
  patch.moved_landmarks.push_back(
      {FirstLandmarkId(service.snapshot()->map), {1, 2, 3}});
  EXPECT_EQ(service.StagePatch(patch).code(), StatusCode::kInternal);
  // Not acked => not staged: the caller knows to retry.
  EXPECT_EQ(service.NumStagedPatches(), 0u);
  faults.ClearPolicies();
  EXPECT_TRUE(service.StagePatch(patch).ok());
  EXPECT_EQ(service.NumStagedPatches(), 1u);
}

TEST(MapServiceDurabilityTest, TornWalRecordIsSkippedAndCounted) {
  ScopedDataDir dir("wal_torn");
  ElementId sign = 0;
  {
    FaultInjector faults(11);
    MapService::Options opt = DurableOptions(dir.str());
    opt.fault_injector = &faults;
    MapService service(opt);
    ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
    sign = FirstLandmarkId(service.snapshot()->map);
    MapPatch good;
    good.moved_landmarks.push_back(
        {sign, service.snapshot()->map.FindLandmark(sign)->position});
    ASSERT_TRUE(service.StagePatch(good).ok());
    // The second acked record is scribbled on its way to disk.
    faults.AddPolicy({PatchWal::kAppendFaultSite, FaultKind::kTornWrite,
                      1.0});
    ASSERT_TRUE(service.StagePatch(good).ok());
  }

  MapService revived(DurableOptions(dir.str()));
  ASSERT_TRUE(revived.Init(HdMap()).ok());
  EXPECT_EQ(revived.metrics().GetCounter("wal.replayed_records")->value(),
            1u);
  EXPECT_GE(revived.metrics().GetCounter("wal.replay_skipped")->value(), 1u);
  EXPECT_EQ(revived.Health(), ServiceHealth::kDegraded);
}

// --- Observability: structured events + request tracing ---

/// Enables the process-global trace recorder for one test and restores
/// the disabled default on exit (other tests assume tracing off).
class ScopedGlobalTracing {
 public:
  explicit ScopedGlobalTracing(const TraceRecorder::Options& opts) {
    TraceRecorder::Global().Configure(opts);
  }
  ~ScopedGlobalTracing() {
    TraceRecorder::Global().Configure(TraceRecorder::Options{});
  }
};

TEST(MapServiceObservabilityTest, RecentEventsExplainEveryDegradedRegion) {
  TraceRecorder::Options trace_opts;
  trace_opts.enabled = true;
  trace_opts.sample_every_n = 0;  // Only error/slow spans record.
  ScopedGlobalTracing tracing(trace_opts);

  FaultInjector faults(21);
  MapService::Options opt = SmallTileOptions();
  opt.fault_injector = &faults;
  MapService service(opt);
  ASSERT_TRUE(service.Init(StraightRoad(500.0)).ok());
  Aabb world_box = service.snapshot()->map.BoundingBox();
  uint64_t events_before = service.event_log().total_appended();

  faults.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 1.0});
  ASSERT_TRUE(service.GetRegion(world_box).ok());
  ASSERT_TRUE(service.GetRegion(world_box).ok());
  EXPECT_EQ(
      service.metrics().GetCounter("map_service.regions_degraded")->value(),
      2u);

  // One QUARANTINED_TILE event per regions_degraded increment, newest
  // first, each carrying the trace id of the request that observed it.
  std::vector<EventLog::Event> events = service.RecentEvents();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(service.event_log().total_appended() - events_before, 2u);
  EXPECT_GT(events[0].seq, events[1].seq);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(events[i].type, EventLog::Type::kQuarantinedTile);
    EXPECT_EQ(events[i].code, StatusCode::kDataLoss);
    EXPECT_NE(events[i].trace_id, 0u);
    EXPECT_NE(events[i].detail.find("corrupt tile"), std::string::npos)
        << events[i].detail;
  }

  // Each event's trace id joins back to a recorded get_region root span
  // (forced into the ring by its DATA_LOSS status despite sampling off).
  std::set<uint64_t> root_traces;
  for (const TraceEvent& e : TraceRecorder::Global().Snapshot()) {
    if (std::string(e.name) == "map_service.get_region") {
      EXPECT_EQ(e.status, StatusCode::kDataLoss);
      root_traces.insert(e.trace_id);
    }
  }
  EXPECT_EQ(root_traces.count(events[0].trace_id), 1u);
  EXPECT_EQ(root_traces.count(events[1].trace_id), 1u);
}

TEST(MapServiceObservabilityTest, SlowRequestsLeaveAnEvent) {
  MapService::Options opt = SmallTileOptions();
  opt.slow_request_threshold_s = 1e-9;  // Everything is "slow".
  MapService service(opt);
  ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
  ASSERT_TRUE(service.GetRegion(service.snapshot()->map.BoundingBox()).ok());
  std::vector<EventLog::Event> events = service.RecentEvents();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].type, EventLog::Type::kSlowRequest);
  EXPECT_NE(events[0].detail.find("map_service.get_region"),
            std::string::npos)
      << events[0].detail;
  EXPECT_NE(events[0].detail.find("threshold"), std::string::npos);
}

TEST(MapServiceObservabilityTest, InjectedPublishFaultIsLogged) {
  FaultInjector faults(7);
  faults.AddPolicy({MapService::kPublishFaultSite, FaultKind::kFailStatus,
                    1.0, StatusCode::kInternal});
  MapService::Options opt = SmallTileOptions();
  opt.fault_injector = &faults;
  MapService service(opt);
  ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
  MapPatch patch;
  patch.moved_landmarks.push_back(
      {FirstLandmarkId(service.snapshot()->map), {1, 2, 3}});
  service.StagePatch(patch);
  EXPECT_EQ(service.Publish().code(), StatusCode::kInternal);
  std::vector<EventLog::Event> events = service.RecentEvents();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].type, EventLog::Type::kInjectedFault);
  EXPECT_EQ(events[0].code, StatusCode::kInternal);
  EXPECT_NE(events[0].detail.find("map_service.publish"), std::string::npos);
}

TEST(MapServiceObservabilityTest, EventsOrderDegradeThenRecoverAcrossRestart) {
  ScopedDataDir dir("events_order");
  {
    MapService service(DurableOptions(dir.str()));
    ASSERT_TRUE(service.Init(StraightRoad(300.0)).ok());
    MapPatch patch;
    ElementId sign = FirstLandmarkId(service.snapshot()->map);
    patch.moved_landmarks.push_back(
        {sign,
         service.snapshot()->map.FindLandmark(sign)->position + Vec3{9, 0, 0}});
    ASSERT_TRUE(service.ApplyPatch(patch).ok());  // Checkpoint v2.
  }
  // Tear the newest checkpoint's manifest so recovery falls back to v1.
  fs::path newest;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir.str()) / "checkpoints")) {
    if (newest.empty() || entry.path().filename() > newest.filename()) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  fs::path manifest = newest / "manifest.bin";
  fs::resize_file(manifest, fs::file_size(manifest) / 2);

  FaultInjector faults(5);
  MapService::Options opt = DurableOptions(dir.str());
  opt.fault_injector = &faults;
  MapService revived(opt);
  ASSERT_TRUE(revived.Init(HdMap()).ok());
  EXPECT_EQ(revived.Health(), ServiceHealth::kDegraded);

  // Recovery already logged its story; now degrade a read on top.
  faults.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 1.0});
  ASSERT_TRUE(
      revived.GetRegion(revived.snapshot()->map.BoundingBox()).ok());

  // Newest first: the degraded read, then the recovery summary, then the
  // checkpoint fallback that preceded it — seq strictly descending.
  std::vector<EventLog::Event> events = revived.RecentEvents();
  ASSERT_GE(events.size(), 3u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i].seq, events[i - 1].seq);
  }
  EXPECT_EQ(events[0].type, EventLog::Type::kQuarantinedTile);
  EXPECT_EQ(events[1].type, EventLog::Type::kRecoverySummary);
  EXPECT_EQ(events[2].type, EventLog::Type::kCheckpointFallback);
  EXPECT_NE(events[1].detail.find("recovered version"), std::string::npos)
      << events[1].detail;
  EXPECT_NE(events[2].detail.find("checkpoint"), std::string::npos);
}

}  // namespace
}  // namespace hdmap
