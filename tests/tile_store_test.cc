#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/serialization.h"
#include "core/tile_store.h"
#include "sim/road_network_generator.h"

namespace hdmap {
namespace {

HdMap SmallTown(uint64_t seed = 11) {
  Rng rng(seed);
  TownOptions opt;
  opt.grid_rows = 2;
  opt.grid_cols = 3;
  opt.block_size = 120.0;
  auto town = GenerateTown(opt, rng);
  EXPECT_TRUE(town.ok()) << town.status().ToString();
  return std::move(town).value();
}

/// Two lanelets in tiles far apart (tile size 100: tile (0,0) and (5,0)),
/// plus one regulatory element referencing both.
HdMap TwoTileWorldWithSharedRegElement() {
  HdMap map;
  Lanelet a;
  a.id = 1;
  a.centerline = LineString({{10, 10}, {20, 10}});
  a.regulatory_ids = {900};
  Lanelet b;
  b.id = 2;
  b.centerline = LineString({{510, 10}, {520, 10}});
  b.regulatory_ids = {900};
  EXPECT_TRUE(map.AddLanelet(a).ok());
  EXPECT_TRUE(map.AddLanelet(b).ok());
  RegulatoryElement reg;
  reg.id = 900;
  reg.type = RegulatoryType::kSpeedLimit;
  reg.speed_limit_mps = 8.0;
  reg.lanelet_ids = {1, 2};
  EXPECT_TRUE(map.AddRegulatoryElement(reg).ok());
  return map;
}

TEST(TileStoreRegressionTest, RegulatoryElementRidesWithEveryLanelet) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  ASSERT_GE(store.NumTiles(), 2u);

  // The element must be present in the tile of each referenced lanelet,
  // not just the first one's.
  for (const Vec2& anchor : {Vec2{15, 10}, Vec2{515, 10}}) {
    auto tile = store.LoadTile(store.TileAt(anchor));
    ASSERT_TRUE(tile.ok()) << tile.status().ToString();
    EXPECT_NE(tile->FindRegulatoryElement(900), nullptr)
        << "element missing from tile at (" << anchor.x << "," << anchor.y
        << ")";
  }

  // A region covering only the *second* lanelet still sees the element
  // (this was silently lost before the fix).
  auto region_b = store.LoadRegion(Aabb({500, 0}, {530, 20}));
  ASSERT_TRUE(region_b.ok());
  EXPECT_NE(region_b->FindLanelet(2), nullptr);
  EXPECT_NE(region_b->FindRegulatoryElement(900), nullptr);

  auto region_a = store.LoadRegion(Aabb({0, 0}, {30, 20}));
  ASSERT_TRUE(region_a.ok());
  EXPECT_NE(region_a->FindRegulatoryElement(900), nullptr);
}

TEST(TileStoreRegressionTest, PartialRegionReportsUnresolvedRegRefs) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());

  // Region covering only lanelet 2: the element is kept, and its dangling
  // reference to lanelet 1 is reported instead of silently ignored.
  RegionReport report;
  auto region = store.LoadRegion(Aabb({500, 0}, {530, 20}), &report);
  ASSERT_TRUE(region.ok());
  ASSERT_EQ(report.unresolved_regulatory_refs.size(), 1u);
  EXPECT_EQ(report.unresolved_regulatory_refs[0].first, 900u);
  EXPECT_EQ(report.unresolved_regulatory_refs[0].second, 1u);

  // The full region resolves everything.
  auto full = store.LoadRegion(map.BoundingBox(), &report);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(report.unresolved_regulatory_refs.empty());
}

TEST(TileStoreTest, BuildOutputIsIdenticalAcrossThreadCounts) {
  HdMap map = SmallTown();
  TileStore serial(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(serial.Build(map, 1).ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    TileStore parallel(TileStore::Options{.tile_size_m = 128.0});
    ASSERT_TRUE(parallel.Build(map, threads).ok());
    ASSERT_EQ(parallel.NumTiles(), serial.NumTiles());
    EXPECT_EQ(parallel.RawTilesCopy(), serial.RawTilesCopy())
        << "tile bytes differ with " << threads << " threads";
  }
}

TEST(TileStoreTest, ParallelRegionLoadMatchesSerial) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  Aabb box = map.BoundingBox();
  auto serial = store.LoadRegion(box, nullptr, 1);
  auto parallel = store.LoadRegion(box, nullptr, 8);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(SerializeMap(*serial), SerializeMap(*parallel));
}

TEST(TileStoreTest, CacheHitsOnRepeatedLoads) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  ASSERT_GT(store.NumTiles(), 1u);

  auto present = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(present.ok());
  ASSERT_FALSE(present->empty());
  TileId tile = present->front();
  ASSERT_TRUE(store.LoadTile(tile).ok());
  TileStoreStats stats = store.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);

  ASSERT_TRUE(store.LoadTile(tile).ok());
  stats = store.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);

  // A whole-map region load deserializes each remaining tile once...
  ASSERT_TRUE(store.LoadRegion(map.BoundingBox()).ok());
  stats = store.stats();
  EXPECT_EQ(stats.cache_misses, store.NumTiles());
  // ...and a repeat is served fully from cache.
  ASSERT_TRUE(store.LoadRegion(map.BoundingBox()).ok());
  TileStoreStats hot = store.stats();
  EXPECT_EQ(hot.cache_misses, stats.cache_misses);
  EXPECT_EQ(hot.cache_hits, stats.cache_hits + store.NumTiles());
}

TEST(TileStoreTest, PutTileInvalidatesCacheEntry) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId tile = store.TileAt({15, 10});
  ASSERT_TRUE(store.LoadTile(tile).ok());  // Warm the cache.

  HdMap replacement;
  Lanelet moved;
  moved.id = 77;
  moved.centerline = LineString({{12, 12}, {18, 12}});
  ASSERT_TRUE(replacement.AddLanelet(moved).ok());
  store.PutTile(tile, replacement);

  auto reloaded = store.LoadTile(tile);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_NE(reloaded->FindLanelet(77), nullptr);  // Fresh bytes, not cache.
  EXPECT_EQ(reloaded->FindLanelet(1), nullptr);
}

TEST(TileStoreTest, CacheEvictsLeastRecentlyUsed) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0, .cache_capacity = 2});
  ASSERT_TRUE(store.Build(map).ok());
  ASSERT_GE(store.NumTiles(), 3u);

  ASSERT_TRUE(store.LoadRegion(map.BoundingBox()).ok());
  TileStoreStats stats = store.stats();
  EXPECT_GT(stats.cache_evictions, 0u);

  store.ResetStats();
  stats = store.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_evictions, 0u);
}

TEST(TileStoreTest, HugeQueryBoxIsRejected) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());

  Aabb degenerate({-1e9, -1e9}, {1e9, 1e9});
  auto tiles = store.TilesInBox(degenerate);
  EXPECT_EQ(tiles.status().code(), StatusCode::kInvalidArgument);
  auto region = store.LoadRegion(degenerate);
  EXPECT_EQ(region.status().code(), StatusCode::kInvalidArgument);

  // Sane boxes still work.
  auto ok_tiles = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(ok_tiles.ok());
  EXPECT_EQ(ok_tiles->size(), store.NumTiles());
}

TEST(TileStoreTest, ExtremeQueryBoxesAreRejectedNotOverflowed) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 1.0});
  ASSERT_TRUE(store.Build(map).ok());

  // Per-axis spans near 2^32: the old span product overflowed int64 and
  // could wrap past the guard into a 2^64-iteration loop.
  Aabb full_range({-2e9, -2e9}, {2e9, 2e9});
  EXPECT_EQ(store.TilesInBox(full_range).status().code(),
            StatusCode::kInvalidArgument);

  // Coordinates whose tile index exceeds int32: the old code cast them
  // to int32 (UB) before any guard ran.
  Aabb far_away({1e18, 0.0}, {1e18 + 1.0, 1.0});
  EXPECT_EQ(store.TilesInBox(far_away).status().code(),
            StatusCode::kInvalidArgument);

  Aabb nan_box({std::numeric_limits<double>::quiet_NaN(), 0.0}, {1.0, 1.0});
  EXPECT_EQ(store.TilesInBox(nan_box).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TileStoreTest, DisabledCacheCountsNoMisses) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0, .cache_capacity = 0});
  ASSERT_TRUE(store.Build(map).ok());

  ASSERT_TRUE(store.LoadRegion(map.BoundingBox()).ok());
  ASSERT_TRUE(store.LoadRegion(map.BoundingBox()).ok());
  TileStoreStats stats = store.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_evictions, 0u);
}

TEST(TileStoreTest, BuildRejectsDegenerateElementBox) {
  HdMap map;
  Lanelet huge;
  huge.id = 1;
  // A bad sensor fix: one endpoint flies off by thousands of kilometers,
  // covering billions of tiles.
  huge.centerline = LineString({{0, 0}, {5e7, 5e7}});
  ASSERT_TRUE(map.AddLanelet(huge).ok());
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  Status s = store.Build(map);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.NumTiles(), 0u);
}

// The pre-Options scalar constructor is gone; Options is the only way to
// configure a store, and its fields cover what the scalars used to.
TEST(TileStoreTest, OptionsConstructorConfiguresStore) {
  TileStore store(
      TileStore::Options{.tile_size_m = 128.0, .cache_capacity = 4});
  EXPECT_EQ(store.tile_size(), 128.0);
  EXPECT_EQ(store.cache_capacity(), 4u);
  HdMap map = SmallTown();
  ASSERT_TRUE(store.Build(map).ok());
  EXPECT_GT(store.NumTiles(), 0u);
}

TEST(TileStoreTest, CopyKeepsBytesDropsCache) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  auto present = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(present.ok());
  ASSERT_TRUE(store.LoadTile(present->front()).ok());  // Warm one entry.

  TileStore copy = store;
  EXPECT_EQ(copy.RawTilesCopy(), store.RawTilesCopy());
  EXPECT_EQ(copy.tile_size(), store.tile_size());
  TileStoreStats stats = copy.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  // The copy's cache starts cold: the first load is a miss, not a hit.
  ASSERT_TRUE(copy.LoadTile(present->front()).ok());
  EXPECT_EQ(copy.stats().cache_misses, 1u);
}

TEST(TileStoreTest, RebuildTilesMatchesFullBuild) {
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());

  // Mutate the map: move every landmark by a small offset.
  HdMap changed = map;
  std::vector<std::pair<ElementId, Vec3>> moves;
  for (const auto& [id, lm] : changed.landmarks()) {
    moves.push_back({id, lm.position + Vec3{1, 1, 0}});
  }
  std::vector<TileId> touched;
  for (const auto& [id, pos] : moves) {
    const Landmark* lm = changed.FindLandmark(id);
    touched.push_back(store.TileAt(lm->position.xy()));
    touched.push_back(store.TileAt(pos.xy()));
    ASSERT_TRUE(changed.MoveLandmark(id, pos).ok());
  }

  ASSERT_TRUE(store.RebuildTiles(changed, touched).ok());
  TileStore full(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(full.Build(changed).ok());
  EXPECT_EQ(store.RawTilesCopy(), full.RawTilesCopy());
}

TEST(TileStoreTest, TileCoverageIncludesAbsentTiles) {
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  // Empty store: coverage still enumerates the tiling, TilesInBox doesn't.
  Aabb box{{-50, -50}, {49, 49}};
  auto coverage = store.TileCoverage(box);
  ASSERT_TRUE(coverage.ok());
  EXPECT_EQ(coverage->size(), 4u);
  auto present = store.TilesInBox(box);
  ASSERT_TRUE(present.ok());
  EXPECT_TRUE(present->empty());
}

TEST(TileStoreTest, CacheCountersExportThroughRegistry) {
  MetricsRegistry registry;
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{
      .tile_size_m = 128.0, .cache_capacity = 256, .metrics = &registry});
  ASSERT_TRUE(store.Build(map).ok());
  auto present = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(present.ok());
  ASSERT_TRUE(store.LoadTile(present->front()).ok());
  ASSERT_TRUE(store.LoadTile(present->front()).ok());
  EXPECT_EQ(registry.GetCounter("tile_store.cache_misses")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("tile_store.cache_hits")->value(), 1u);
}

/// Flips one payload byte of tile `id` in place via the raw-ingestion
/// path, so the frame CRC no longer matches.
void CorruptTile(TileStore* store, const TileId& id) {
  auto bytes = store->RawTileBytes(id);
  ASSERT_TRUE(bytes.ok());
  std::string bad(bytes->view());
  ASSERT_GT(bad.size(), 20u);
  bad[20] ^= 0x01;
  store->PutRawTile(id, std::move(bad));
}

TEST(TileStoreCorruptionTest, PartialModeStitchesAroundCorruptTile) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId bad_tile = store.TileAt({15, 10});  // Lanelet 1's tile.
  CorruptTile(&store, bad_tile);

  Aabb both({0, 0}, {530, 20});
  RegionReport report;
  auto region = store.LoadRegion(both, &report);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  // The surviving tile's content is served...
  EXPECT_NE(region->FindLanelet(2), nullptr);
  // ...the corrupt tile's is not, and the hole is reported.
  EXPECT_EQ(region->FindLanelet(1), nullptr);
  ASSERT_EQ(report.corrupt_tiles.size(), 1u);
  EXPECT_EQ(report.corrupt_tiles[0], bad_tile);
  EXPECT_EQ(store.NumQuarantined(), 1u);

  // Strict mode refuses the same region outright.
  auto strict = store.LoadRegion(both, nullptr, 0, RegionReadMode::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);
}

TEST(TileStoreCorruptionTest, QuarantineFailsFastAndNeverCaches) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId bad_tile = store.TileAt({15, 10});
  CorruptTile(&store, bad_tile);

  auto first = store.LoadTile(bad_tile);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.NumQuarantined(), 1u);
  // The second load fails fast off the quarantine set (no re-decode) and
  // never lands in the cache: still zero hits.
  store.ResetStats();
  auto second = store.LoadTile(bad_tile);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.stats().cache_hits, 0u);
}

TEST(TileStoreCorruptionTest, ReplacingBytesClearsQuarantine) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId bad_tile = store.TileAt({15, 10});
  std::string good_bytes = store.RawTilesCopy().at(bad_tile.Morton());
  CorruptTile(&store, bad_tile);
  ASSERT_FALSE(store.LoadTile(bad_tile).ok());
  ASSERT_EQ(store.NumQuarantined(), 1u);

  // PutRawTile with intact bytes lifts the quarantine...
  store.PutRawTile(bad_tile, good_bytes);
  EXPECT_EQ(store.NumQuarantined(), 0u);
  auto reloaded = store.LoadTile(bad_tile);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_NE(reloaded->FindLanelet(1), nullptr);

  // ...and so does a full rebuild after re-corrupting.
  CorruptTile(&store, bad_tile);
  ASSERT_FALSE(store.LoadTile(bad_tile).ok());
  ASSERT_EQ(store.NumQuarantined(), 1u);
  ASSERT_TRUE(store.Build(map).ok());
  EXPECT_EQ(store.NumQuarantined(), 0u);
  EXPECT_TRUE(store.LoadTile(bad_tile).ok());
}

TEST(TileStoreCorruptionTest, FaultInjectorCorruptsLoadsDeterministically) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  FaultInjector faults(1234);
  faults.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 1.0});
  TileStore store(TileStore::Options{.tile_size_m = 100.0,
                                     .cache_capacity = 0,
                                     .fault_injector = &faults});
  ASSERT_TRUE(store.Build(map).ok());
  TileId id = store.TileAt({15, 10});

  auto load = store.LoadTile(id);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kDataLoss);
  EXPECT_GE(faults.InjectedCount(TileStore::kLoadFaultSite), 1u);
  EXPECT_EQ(store.NumQuarantined(), 1u);

  // Same seed, fresh store: the identical blob makes the identical
  // decision (content-hash determinism, independent of call order).
  FaultInjector faults2(1234);
  faults2.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 1.0});
  TileStore store2(TileStore::Options{.tile_size_m = 100.0,
                                      .cache_capacity = 0,
                                      .fault_injector = &faults2});
  ASSERT_TRUE(store2.Build(map).ok());
  EXPECT_FALSE(store2.LoadTile(id).ok());

  // Probability 0: injector wired but inert.
  FaultInjector quiet(1234);
  quiet.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip, 0.0});
  TileStore store3(TileStore::Options{.tile_size_m = 100.0,
                                      .cache_capacity = 0,
                                      .fault_injector = &quiet});
  ASSERT_TRUE(store3.Build(map).ok());
  EXPECT_TRUE(store3.LoadTile(id).ok());
  EXPECT_EQ(quiet.TotalInjected(), 0u);
}

TEST(TileStoreCorruptionTest, PutRawTileIngestsWireBytes) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore source(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(source.Build(map).ok());

  // Ship two tiles' bytes to a second store over the "wire".
  TileStore sink(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(sink.Build(HdMap{}).ok());
  TileId t1 = source.TileAt({15, 10});
  TileId t2 = source.TileAt({515, 10});
  sink.PutRawTile(t1, source.RawTilesCopy().at(t1.Morton()));
  sink.PutRawTile(t2, source.RawTilesCopy().at(t2.Morton()));
  EXPECT_EQ(sink.NumTiles(), 2u);
  auto region = sink.LoadRegion(Aabb({0, 0}, {530, 20}));
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_NE(region->FindLanelet(1), nullptr);
  EXPECT_NE(region->FindLanelet(2), nullptr);
}

// --- Span-based view API ---

TEST(TileStoreViewTest, GetTileViewServesElementsInPlace) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());

  auto view = store.GetTileView(store.TileAt({15, 10}));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto lane = view->view.FindLanelet(1);
  ASSERT_TRUE(lane.has_value());
  EXPECT_EQ(lane->centerline().front(), (Vec2{10, 10}));
  EXPECT_EQ(lane->regulatory_ids().ToVector(),
            (std::vector<ElementId>{900}));
  EXPECT_FALSE(view->view.FindLanelet(2).has_value());  // Other tile.
  EXPECT_EQ(view->view.num_regulatory_elements(), 1u);

  // Unknown tiles are kNotFound, exactly like LoadTile.
  EXPECT_EQ(store.GetTileView(TileId{99, 99}).status().code(),
            StatusCode::kNotFound);
}

TEST(TileStoreViewTest, ViewPinsBytesAcrossReplaceAndDestruction) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  auto store = std::make_unique<TileStore>(
      TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store->Build(map).ok());
  TileId id = store->TileAt({15, 10});

  auto pinned = store->GetTileView(id);
  ASSERT_TRUE(pinned.ok());

  // Replace the tile with an empty map's encoding, then free the store
  // entirely: the held view must keep reading the ORIGINAL bytes
  // (generation pinning — readers never synchronize with writers).
  store->PutRawTile(id, EncodeTileV3(HdMap{}));
  auto fresh = store->GetTileView(id);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->view.NumElements(), 0u);
  store.reset();

  auto lane = pinned->view.FindLanelet(1);
  ASSERT_TRUE(lane.has_value());
  EXPECT_EQ(lane->centerline().back(), (Vec2{20, 10}));
  auto materialized = pinned->view.Materialize();
  ASSERT_TRUE(materialized.ok());
  EXPECT_NE(materialized->FindRegulatoryElement(900), nullptr);
}

TEST(TileStoreViewTest, CorruptTileQuarantinesOnViewPath) {
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId id = store.TileAt({15, 10});
  std::string good = store.RawTilesCopy().at(id.Morton());
  CorruptTile(&store, id);

  auto view = store.GetTileView(id);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.NumQuarantined(), 1u);
  // Fail-fast off the quarantine set, same contract as LoadTile.
  EXPECT_EQ(store.GetTileView(id).status().code(), StatusCode::kDataLoss);

  // Repair lifts the quarantine for the view path too.
  store.PutRawTile(id, good);
  EXPECT_EQ(store.NumQuarantined(), 0u);
  auto repaired = store.GetTileView(id);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_TRUE(repaired->view.FindLanelet(1).has_value());
}

TEST(TileStoreViewTest, FramedNonTileBlobIsQuarantinedNotServed) {
  // A CRC-valid frame whose payload is not a v3 tile (here a full-map
  // SerializeMap blob) is as unservable as a corrupt one: both read
  // paths report kDataLoss and share one quarantine entry.
  HdMap map = TwoTileWorldWithSharedRegElement();
  TileStore store(TileStore::Options{.tile_size_m = 100.0});
  ASSERT_TRUE(store.Build(map).ok());
  TileId id = store.TileAt({15, 10});
  store.PutRawTile(id, SerializeMap(map));

  EXPECT_EQ(store.LoadTile(id).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.GetTileView(id).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.NumQuarantined(), 1u);

  store.PutTile(id, map);
  EXPECT_EQ(store.NumQuarantined(), 0u);
  auto view = store.GetTileView(id);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->view.FindLanelet(1).has_value());
  EXPECT_TRUE(store.LoadTile(id).ok());
}

TEST(TileStoreConcurrencyTest, ConcurrentViewersRaceReplacesSafely) {
  // GetTileView readers race a writer alternating corrupt and pristine
  // bytes for the same tile. Under TSan this proves the view cache and
  // pin handoff are race-free; in any build it checks that (a) a held
  // view never goes bad mid-read and (b) no stale quarantine or cached
  // view outlives the final repair.
  HdMap map = SmallTown();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  auto in_box = store.TilesInBox(map.BoundingBox());
  ASSERT_TRUE(in_box.ok());
  TileId victim = (*in_box)[in_box->size() / 2];
  std::string pristine = store.RawTilesCopy().at(victim.Morton());
  std::string corrupt = pristine;
  corrupt[corrupt.size() / 2] ^= 0x40;

  constexpr int kReaders = 4;
  constexpr int kWriterRounds = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &victim, &stop, &bad_reads] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto view = store.GetTileView(victim);
        if (!view.ok()) continue;  // Lost the race to corrupt bytes: fine.
        // A view that validated must stay fully readable even while the
        // writer keeps replacing the store's bytes underneath.
        auto materialized = view->view.Materialize();
        if (!materialized.ok()) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < kWriterRounds; ++i) {
    store.PutRawTile(victim, i % 2 == 0 ? corrupt : pristine);
  }
  store.PutRawTile(victim, pristine);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0);

  auto final_view = store.GetTileView(victim);
  ASSERT_TRUE(final_view.ok()) << final_view.status().ToString();
  EXPECT_EQ(store.NumQuarantined(), 0u);
}

TEST(TileStoreConcurrencyTest, PutRawTileRacesReadersSafely) {
  // The ingestion scenario: one thread repeatedly replaces a tile's bytes
  // (alternating corrupt and pristine payloads, as when re-fetching a
  // quarantined tile from a peer) while reader threads stitch regions
  // spanning it. Run under TSan this is the proof that per-tile Put is
  // safe against concurrent loads; in any build it checks the
  // generation guard — a reader that raced the old bytes must never leave
  // a stale quarantine verdict over the repaired payload.
  HdMap map = SmallTown();
  Aabb box = map.BoundingBox();
  TileStore store(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(store.Build(map).ok());
  auto in_box = store.TilesInBox(box);
  ASSERT_TRUE(in_box.ok());
  ASSERT_GT(in_box->size(), 1u);
  TileId victim = (*in_box)[in_box->size() / 2];
  std::string pristine = store.RawTilesCopy().at(victim.Morton());
  std::string corrupt = pristine;
  corrupt[corrupt.size() / 2] ^= 0x40;  // Breaks the frame CRC.

  constexpr int kReaders = 4;
  constexpr int kWriterRounds = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &box, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Partial mode must always succeed: the racing tile is at worst
        // skipped, never fatal.
        if (!store.LoadRegion(box).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < kWriterRounds; ++i) {
    store.PutRawTile(victim, i % 2 == 0 ? corrupt : pristine);
  }
  // Final repair, then let readers observe it.
  store.PutRawTile(victim, pristine);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // No stale verdict survived the last Put: a strict read of the whole
  // box decodes every tile, including the repaired one.
  auto strict =
      store.LoadRegion(box, nullptr, 0, RegionReadMode::kStrict);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(store.NumQuarantined(), 0u);
}

}  // namespace
}  // namespace hdmap
