// Unit tests for the durability layer: SnapshotStore checkpoints (atomic
// write, validation at load, fallback, retention) and the PatchWal
// (append/replay, torn tails, corrupt records, reset).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "core/serialization.h"
#include "core/tile_store.h"
#include "storage/fs_util.h"
#include "storage/patch_wal.h"
#include "storage/snapshot_store.h"
#include "tests/test_worlds.h"

namespace hdmap {
namespace {

namespace fs = std::filesystem;

/// A fresh empty directory under the test temp root, removed on scope
/// exit. Each test gets its own so runs never see each other's state.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    path_ = fs::path(::testing::TempDir()) /
            ("hdmap_storage_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

TileStore BuildTiles(const HdMap& map, double tile_size = 100.0) {
  TileStore store(TileStore::Options{.tile_size_m = tile_size});
  EXPECT_TRUE(store.Build(map).ok());
  return store;
}

MapPatch MovePatch(ElementId id, const Vec3& to) {
  MapPatch patch;
  patch.moved_landmarks.push_back({id, to});
  return patch;
}

/// Flips one byte in the middle of `file`.
void CorruptFile(const fs::path& file) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << file;
  f.seekg(0, std::ios::end);
  auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 0);
  f.seekg(size / 2);
  char c = 0;
  f.read(&c, 1);
  f.seekp(size / 2);
  c = static_cast<char>(c ^ 0x5a);
  f.write(&c, 1);
}

void TruncateFile(const fs::path& file, uint64_t drop_bytes) {
  auto size = fs::file_size(file);
  ASSERT_GT(size, drop_bytes);
  fs::resize_file(file, size - drop_bytes);
}

// --- SnapshotStore ---

TEST(SnapshotStoreTest, WriteAndLoadRoundtrip) {
  ScopedTempDir dir("roundtrip");
  HdMap world = StraightRoad(500.0);
  TileStore tiles = BuildTiles(world);

  SnapshotStore store({.data_dir = dir.str(), .fsync = FsyncMode::kNever});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 7, 123456789).ok());
  EXPECT_EQ(store.ListCheckpoints(), std::vector<uint64_t>{7});

  auto rec = store.LoadCheckpoint(7, TileStore::Options{});
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->version, 7u);
  EXPECT_EQ(rec->published_unix_ms, 123456789);
  // Bit-exact restore: the recovered store serves the same bytes, with
  // the tile size coming from the manifest, not the caller's options.
  EXPECT_EQ(rec->tiles.tile_size(), tiles.tile_size());
  EXPECT_EQ(rec->tiles.RawTilesCopy(), tiles.RawTilesCopy());
  // And the stitched map is query-able.
  EXPECT_EQ(rec->map.landmarks().size(), world.landmarks().size());
  EXPECT_EQ(rec->map.lanelets().size(), world.lanelets().size());
}

TEST(SnapshotStoreTest, CheckpointBytesAreDeterministic) {
  HdMap world = StraightRoad(400.0);
  TileStore tiles = BuildTiles(world);

  auto checkpoint_bytes = [&](const std::string& root) {
    SnapshotStore store({.data_dir = root, .fsync = FsyncMode::kNever});
    EXPECT_TRUE(store.WriteCheckpoint(tiles, 3, 42).ok());
    std::map<std::string, std::string> files;
    for (const auto& entry :
         fs::recursive_directory_iterator(store.CheckpointDir(3))) {
      if (!entry.is_regular_file()) continue;
      auto bytes = ReadFileRaw(entry.path().string());
      EXPECT_TRUE(bytes.ok());
      files[entry.path().filename().string()] = std::move(bytes).value();
    }
    return files;
  };

  ScopedTempDir a("determinism_a");
  ScopedTempDir b("determinism_b");
  auto files_a = checkpoint_bytes(a.str());
  auto files_b = checkpoint_bytes(b.str());
  ASSERT_GT(files_a.size(), 1u);  // Tiles + manifest.
  EXPECT_EQ(files_a, files_b);
}

TEST(SnapshotStoreTest, RetentionKeepsNewestK) {
  ScopedTempDir dir("retention");
  TileStore tiles = BuildTiles(StraightRoad(300.0));
  SnapshotStore store(
      {.data_dir = dir.str(), .fsync = FsyncMode::kNever, .retention = 2});
  for (uint64_t v = 1; v <= 4; ++v) {
    ASSERT_TRUE(store.WriteCheckpoint(tiles, v, 1000 + v).ok());
  }
  EXPECT_EQ(store.ListCheckpoints(), (std::vector<uint64_t>{3, 4}));
}

TEST(SnapshotStoreTest, TornManifestFallsBackToOlderCheckpoint) {
  ScopedTempDir dir("torn_manifest");
  HdMap world = StraightRoad(300.0);
  TileStore tiles = BuildTiles(world);
  MetricsRegistry metrics;
  SnapshotStore store({.data_dir = dir.str(),
                       .fsync = FsyncMode::kNever,
                       .metrics = &metrics});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 1, 10).ok());
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 2, 20).ok());
  TruncateFile(fs::path(store.CheckpointDir(2)) / "manifest.bin", 8);

  size_t skipped = 0;
  auto rec = store.LoadNewestValid(TileStore::Options{}, &skipped);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(metrics.GetCounter("storage.checkpoints_invalid")->value(), 1u);
}

TEST(SnapshotStoreTest, CorruptOrMissingTileInvalidatesCheckpoint) {
  ScopedTempDir dir("bad_tile");
  TileStore tiles = BuildTiles(StraightRoad(300.0));
  SnapshotStore store(
      {.data_dir = dir.str(), .fsync = FsyncMode::kNever, .retention = 3});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 1, 10).ok());
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 2, 20).ok());
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 3, 30).ok());

  // v3: flip a byte inside a tile payload (frame CRC catches it).
  // v2: delete a tile file outright (manifest inventory catches it).
  fs::path first_tile;
  for (const auto& entry : fs::directory_iterator(store.CheckpointDir(3))) {
    if (entry.path().extension() == ".tile") {
      first_tile = entry.path();
      break;
    }
  }
  ASSERT_FALSE(first_tile.empty());
  CorruptFile(first_tile);
  for (const auto& entry : fs::directory_iterator(store.CheckpointDir(2))) {
    if (entry.path().extension() == ".tile") {
      fs::remove(entry.path());
      break;
    }
  }

  size_t skipped = 0;
  auto rec = store.LoadNewestValid(TileStore::Options{}, &skipped);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(skipped, 2u);
}

TEST(SnapshotStoreTest, NoValidCheckpointIsNotFound) {
  ScopedTempDir dir("none_valid");
  SnapshotStore store({.data_dir = dir.str(), .fsync = FsyncMode::kNever});
  size_t skipped = 0;
  EXPECT_EQ(store.LoadNewestValid(TileStore::Options{}, &skipped)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, TmpLeftoverFromCrashedWriteIsIgnoredAndSwept) {
  ScopedTempDir dir("tmp_sweep");
  TileStore tiles = BuildTiles(StraightRoad(300.0));
  SnapshotStore store({.data_dir = dir.str(), .fsync = FsyncMode::kNever});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 1, 10).ok());

  // Simulate a crash mid-checkpoint: a .tmp sibling left behind.
  fs::path leftover =
      fs::path(dir.str()) / "checkpoints" / ".tmp-v00000000000000000002";
  fs::create_directories(leftover);
  ASSERT_TRUE(
      WriteFileRaw((leftover / "junk").string(), "x", FsyncMode::kNever)
          .ok());

  EXPECT_EQ(store.ListCheckpoints(), std::vector<uint64_t>{1});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 2, 20).ok());
  EXPECT_FALSE(fs::exists(leftover));  // Next write sweeps the leftover.
}

TEST(SnapshotStoreTest, InjectedTornManifestDetectedAtLoad) {
  ScopedTempDir dir("fault_manifest");
  TileStore tiles = BuildTiles(StraightRoad(300.0));
  FaultInjector faults(99);
  SnapshotStore store({.data_dir = dir.str(),
                       .fsync = FsyncMode::kNever,
                       .retention = 2,
                       .fault_injector = &faults});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 1, 10).ok());
  faults.AddPolicy({SnapshotStore::kManifestFaultSite, FaultKind::kTornWrite,
                    1.0});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 2, 20).ok());
  EXPECT_GE(faults.InjectedCount(SnapshotStore::kManifestFaultSite), 1u);

  size_t skipped = 0;
  auto rec = store.LoadNewestValid(TileStore::Options{}, &skipped);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(skipped, 1u);
}

TEST(SnapshotStoreTest, WriteFailureLeavesPreviousStateServable) {
  ScopedTempDir dir("fail_write");
  TileStore tiles = BuildTiles(StraightRoad(300.0));
  FaultInjector faults(5);
  SnapshotStore store({.data_dir = dir.str(),
                       .fsync = FsyncMode::kNever,
                       .fault_injector = &faults});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 1, 10).ok());
  faults.AddPolicy({SnapshotStore::kWriteFaultSite, FaultKind::kFailStatus,
                    1.0, StatusCode::kInternal});
  EXPECT_FALSE(store.WriteCheckpoint(tiles, 2, 20).ok());
  EXPECT_EQ(store.ListCheckpoints(), std::vector<uint64_t>{1});
  size_t skipped = 0;
  auto rec = store.LoadNewestValid(TileStore::Options{}, &skipped);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(skipped, 0u);
}

// --- Mmap checkpoint read path ---

TEST(SnapshotStoreTest, OpenMappedServesViewsZeroCopy) {
  ScopedTempDir dir("mmap_open");
  HdMap world = StraightRoad(500.0);
  TileStore tiles = BuildTiles(world, 100.0);
  SnapshotStore store({.data_dir = dir.str(), .fsync = FsyncMode::kNever});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 7, 123).ok());

  auto mapped = store.OpenMapped(7);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->version, 7u);
  EXPECT_EQ(mapped->published_unix_ms, 123);
  EXPECT_EQ(mapped->tile_size_m, tiles.tile_size());
  ASSERT_EQ(mapped->tiles.size(), tiles.NumTiles());

  // Every mapped tile is byte-identical to the store's and serves views.
  size_t lanelets_seen = 0;
  for (const auto& [morton, bytes] : mapped->tiles) {
    EXPECT_EQ(std::string(bytes.view()),
              tiles.RawTilesCopy().at(morton));
    auto view = mapped->View(morton);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    lanelets_seen += view->view.num_lanelets();
  }
  // A lanelet rides in every tile it overlaps, so the per-tile sum is a
  // lower-bounded over-count.
  EXPECT_GE(lanelets_seen, world.lanelets().size());
  EXPECT_EQ(mapped->View(0xDEAD).status().code(), StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, OpenMappedDetectsCorruptionAtOpen) {
  ScopedTempDir dir("mmap_corrupt");
  TileStore tiles = BuildTiles(StraightRoad(300.0));
  SnapshotStore store({.data_dir = dir.str(), .fsync = FsyncMode::kNever});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 1, 10).ok());
  for (const auto& entry : fs::directory_iterator(store.CheckpointDir(1))) {
    if (entry.path().extension() == ".tile") {
      CorruptFile(entry.path());
      break;
    }
  }
  // The once-per-generation CRC pass runs at open, so corruption is
  // caught here — views later skip the checksum (FrameChecksum::kTrust).
  EXPECT_EQ(store.OpenMapped(1).status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotStoreTest, MappedViewsSurviveRetentionDelete) {
  ScopedTempDir dir("mmap_retention");
  HdMap world = StraightRoad(500.0);
  TileStore tiles = BuildTiles(world, 100.0);
  SnapshotStore store(
      {.data_dir = dir.str(), .fsync = FsyncMode::kNever, .retention = 1});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 1, 10).ok());

  auto mapped = store.OpenMapped(1);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_FALSE(mapped->tiles.empty());
  uint64_t first = mapped->tiles.begin()->first;
  auto held = mapped->View(first);
  ASSERT_TRUE(held.ok());

  // Two more checkpoints: retention=1 unlinks v1's directory from disk
  // while `mapped` still pins its pages.
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 2, 20).ok());
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 3, 30).ok());
  ASSERT_FALSE(fs::exists(store.CheckpointDir(1)));
  ASSERT_FALSE(fs::exists(store.CheckpointDir(2)));

  // POSIX keeps unlinked-but-mapped pages alive: the held view and the
  // whole generation stay readable after the delete.
  auto materialized = held->view.Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  size_t lanelets_seen = 0;
  for (const auto& [morton, bytes] : mapped->tiles) {
    auto view = mapped->View(morton);
    ASSERT_TRUE(view.ok());
    lanelets_seen += view->view.num_lanelets();
  }
  EXPECT_GE(lanelets_seen, world.lanelets().size());
}

TEST(SnapshotStoreTest, OpenMappedFramedNonTileBlobFailsView) {
  ScopedTempDir dir("mmap_non_tile");
  HdMap world = StraightRoad(300.0);
  TileStore tiles = BuildTiles(world, 100.0);
  TileId id = tiles.AllTiles().front();
  tiles.PutRawTile(id, SerializeMap(world));
  SnapshotStore store({.data_dir = dir.str(), .fsync = FsyncMode::kNever});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 1, 10).ok());

  // The generation opens (the frame CRC is intact), but a payload that
  // is not a v3 tile is never served as one.
  auto mapped = store.OpenMapped(1);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->View(id.Morton()).status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotStoreConcurrencyTest, ConcurrentMappedReadersSurviveSwaps) {
  // Readers walk a pinned checkpoint generation while the writer keeps
  // publishing new checkpoints and retention keeps deleting old ones —
  // including the generation being read. Under TSan this is the proof
  // that the mmap read path needs no reader/writer synchronization
  // (generation pinning); in any build it verifies reads stay valid
  // through swap + unlink.
  ScopedTempDir dir("mmap_concurrent");
  HdMap world = StraightRoad(400.0);
  TileStore tiles = BuildTiles(world, 100.0);
  SnapshotStore store(
      {.data_dir = dir.str(), .fsync = FsyncMode::kNever, .retention = 1});
  ASSERT_TRUE(store.WriteCheckpoint(tiles, 1, 10).ok());
  auto mapped = store.OpenMapped(1);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&mapped, &bad_reads, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const auto& [morton, bytes] : mapped->tiles) {
          auto view = mapped->View(morton);
          if (!view.ok() || !view->view.Materialize().ok()) {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (uint64_t v = 2; v <= 8; ++v) {
    ASSERT_TRUE(store.WriteCheckpoint(tiles, v, 10 * v).ok());
  }
  EXPECT_FALSE(fs::exists(store.CheckpointDir(1)));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0);
}

// --- PatchWal ---

TEST(PatchWalTest, AppendReplayRoundtripInOrder) {
  ScopedTempDir dir("wal_roundtrip");
  PatchWal wal({.path = dir.str() + "/patches.wal",
                .fsync = FsyncMode::kNever});
  std::vector<MapPatch> patches;
  for (int i = 0; i < 3; ++i) {
    MapPatch p = MovePatch(100 + i, {1.0 * i, 2.0, 3.0});
    ASSERT_TRUE(wal.Append(p, 10 + i).ok());
    patches.push_back(std::move(p));
  }
  EXPECT_GT(wal.SizeBytes(), 0u);

  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->skipped_records, 0u);
  ASSERT_EQ(replay->records.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(replay->records[i].version_hint, 10u + i);
    // Wire-format equality is patch equality.
    EXPECT_EQ(SerializePatch(replay->records[i].patch),
              SerializePatch(patches[i]));
  }
}

TEST(PatchWalTest, MissingFileReplaysEmpty) {
  ScopedTempDir dir("wal_missing");
  PatchWal wal({.path = dir.str() + "/nope/patches.wal"});
  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->skipped_records, 0u);
  EXPECT_EQ(wal.SizeBytes(), 0u);
}

TEST(PatchWalTest, TornTailKeepsIntactPrefix) {
  ScopedTempDir dir("wal_torn");
  std::string path = dir.str() + "/patches.wal";
  PatchWal wal({.path = path, .fsync = FsyncMode::kNever});
  ASSERT_TRUE(wal.Append(MovePatch(1, {1, 1, 1}), 1).ok());
  ASSERT_TRUE(wal.Append(MovePatch(2, {2, 2, 2}), 2).ok());
  TruncateFile(path, 5);  // Crash mid-append of record 2.

  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].version_hint, 1u);
  EXPECT_EQ(replay->skipped_records, 1u);
}

TEST(PatchWalTest, CorruptMiddleRecordIsSkippedNotFatal) {
  ScopedTempDir dir("wal_corrupt_mid");
  std::string path = dir.str() + "/patches.wal";
  PatchWal wal({.path = path, .fsync = FsyncMode::kNever});
  ASSERT_TRUE(wal.Append(MovePatch(1, {1, 1, 1}), 1).ok());
  uint64_t first_end = wal.SizeBytes();
  ASSERT_TRUE(wal.Append(MovePatch(2, {2, 2, 2}), 2).ok());
  ASSERT_TRUE(wal.Append(MovePatch(3, {3, 3, 3}), 3).ok());

  // Flip a byte inside record 2's payload (past its 20-byte header), so
  // the record header still carries a trustworthy length to resync with.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(first_end) + 24);
    char c = 0x7f;
    f.write(&c, 1);
  }

  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0].version_hint, 1u);
  EXPECT_EQ(replay->records[1].version_hint, 3u);
  EXPECT_EQ(replay->skipped_records, 1u);
}

TEST(PatchWalTest, ResetTruncatesAndLogStaysUsable) {
  ScopedTempDir dir("wal_reset");
  MetricsRegistry metrics;
  PatchWal wal({.path = dir.str() + "/patches.wal",
                .fsync = FsyncMode::kNever,
                .metrics = &metrics});
  ASSERT_TRUE(wal.Append(MovePatch(1, {1, 1, 1}), 1).ok());
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.SizeBytes(), 0u);
  EXPECT_EQ(metrics.GetGauge("wal.size_bytes")->value(), 0.0);

  auto empty = wal.Replay();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());

  // The log keeps working after a reset.
  ASSERT_TRUE(wal.Append(MovePatch(2, {2, 2, 2}), 5).ok());
  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].version_hint, 5u);
}

TEST(PatchWalTest, RewriteReplacesLogAtomically) {
  ScopedTempDir dir("wal_rewrite");
  std::string path = dir.str() + "/patches.wal";
  MetricsRegistry metrics;
  PatchWal wal({.path = path,
                .fsync = FsyncMode::kNever,
                .metrics = &metrics});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.Append(MovePatch(1 + i, {1.0 * i, 0, 0}), 1 + i).ok());
  }

  std::vector<MapPatch> still_staged = {MovePatch(9, {9, 9, 9})};
  ASSERT_TRUE(wal.Rewrite(still_staged, 7).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // No temp-file leftover.
  EXPECT_EQ(metrics.GetGauge("wal.size_bytes")->value(),
            static_cast<double>(wal.SizeBytes()));

  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->skipped_records, 0u);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].version_hint, 7u);
  EXPECT_EQ(SerializePatch(replay->records[0].patch),
            SerializePatch(still_staged[0]));

  // The log keeps working after a rewrite (appends land after the
  // rewritten content).
  ASSERT_TRUE(wal.Append(MovePatch(2, {2, 2, 2}), 8).ok());
  auto replay2 = wal.Replay();
  ASSERT_TRUE(replay2.ok());
  ASSERT_EQ(replay2->records.size(), 2u);
  EXPECT_EQ(replay2->records[1].version_hint, 8u);
}

TEST(PatchWalTest, ConcurrentAppendsGroupCommitDurableBeforeAck) {
  ScopedTempDir dir("wal_group_commit");
  PatchWal wal({.path = dir.str() + "/patches.wal",
                .fsync = FsyncMode::kAlways});

  // N stagers hammer Append concurrently. Group commit means a follower's
  // record can be fsynced by another thread's batch, but every ack must
  // still imply the record is on disk and replayable.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::atomic<int> acked{0};
  std::vector<std::thread> stagers;
  stagers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    stagers.emplace_back([&wal, &acked, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t hint = static_cast<uint64_t>(t) * 1000 + i;
        ElementId id = static_cast<ElementId>(hint + 1);
        if (wal.Append(MovePatch(id, {1.0 * t, 1.0 * i, 0}), hint).ok()) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& s : stagers) s.join();
  EXPECT_EQ(acked.load(), kThreads * kPerThread);

  // All acked records replay intact — no interleaved/torn writes.
  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->skipped_records, 0u);
  ASSERT_EQ(replay->records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  std::set<uint64_t> hints;
  for (const auto& rec : replay->records) {
    hints.insert(rec.version_hint);
    // Payload matches the hint it was written with: record bodies never
    // mixed across concurrent appenders.
    EXPECT_EQ(SerializePatch(rec.patch),
              SerializePatch(MovePatch(
                  static_cast<ElementId>(rec.version_hint + 1),
                  {1.0 * (rec.version_hint / 1000),
                   1.0 * (rec.version_hint % 1000), 0})));
  }
  EXPECT_EQ(hints.size(), static_cast<size_t>(kThreads * kPerThread));

  // Group commit actually batched: never more fsyncs than appends, and at
  // least one batch happened.
  EXPECT_GE(wal.FsyncBatches(), 1u);
  EXPECT_LE(wal.FsyncBatches(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(PatchWalTest, FailedRewriteLeavesOldLogIntact) {
  ScopedTempDir dir("wal_rewrite_fail");
  FaultInjector faults(17);
  PatchWal wal({.path = dir.str() + "/patches.wal",
                .fsync = FsyncMode::kNever,
                .fault_injector = &faults});
  ASSERT_TRUE(wal.Append(MovePatch(1, {1, 1, 1}), 1).ok());
  ASSERT_TRUE(wal.Append(MovePatch(2, {2, 2, 2}), 2).ok());

  faults.AddPolicy({PatchWal::kAppendFaultSite, FaultKind::kFailStatus, 1.0,
                    StatusCode::kInternal});
  EXPECT_EQ(wal.Rewrite({MovePatch(3, {3, 3, 3})}, 5).code(),
            StatusCode::kInternal);
  faults.ClearPolicies();

  // The failed trim lost nothing: both old records still replay.
  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->skipped_records, 0u);
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0].version_hint, 1u);
  EXPECT_EQ(replay->records[1].version_hint, 2u);
}

TEST(PatchWalTest, ArchiveSetsLogAsideAndLogRestartsEmpty) {
  ScopedTempDir dir("wal_archive");
  std::string path = dir.str() + "/patches.wal";
  PatchWal wal({.path = path, .fsync = FsyncMode::kNever});
  ASSERT_TRUE(wal.Append(MovePatch(1, {1, 1, 1}), 4).ok());
  ASSERT_TRUE(wal.Archive().ok());

  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".lost"));
  // The set-aside bytes are a readable log: salvage can replay them.
  PatchWal lost({.path = path + ".lost", .fsync = FsyncMode::kNever});
  auto salvage = lost.Replay();
  ASSERT_TRUE(salvage.ok());
  ASSERT_EQ(salvage->records.size(), 1u);
  EXPECT_EQ(salvage->records[0].version_hint, 4u);

  // The live log restarts empty and usable.
  auto empty = wal.Replay();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());
  ASSERT_TRUE(wal.Append(MovePatch(2, {2, 2, 2}), 5).ok());
  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
}

TEST(PatchWalTest, InjectedTornAppendAcksButReplaySkips) {
  ScopedTempDir dir("wal_fault");
  MetricsRegistry metrics;
  FaultInjector faults(123);
  faults.BindMetrics(&metrics);
  PatchWal wal({.path = dir.str() + "/patches.wal",
                .fsync = FsyncMode::kNever,
                .metrics = &metrics,
                .fault_injector = &faults});
  faults.AddPolicy({PatchWal::kAppendFaultSite, FaultKind::kTornWrite, 1.0});
  // A torn append models bytes scribbled on their way to disk: the write
  // itself still acks.
  ASSERT_TRUE(wal.Append(MovePatch(1, {1, 1, 1}), 1).ok());
  EXPECT_GE(faults.InjectedCount(PatchWal::kAppendFaultSite), 1u);
  EXPECT_GE(
      metrics.GetGauge("fault_injector.injected{wal.append}")->value(), 1.0);
  faults.ClearPolicies();

  auto replay = wal.Replay();
  ASSERT_TRUE(replay.ok());
  EXPECT_GE(replay->skipped_records, 1u);
  EXPECT_EQ(metrics.GetCounter("wal.replay_skipped")->value(),
            replay->skipped_records);
}

TEST(PatchWalTest, FailStatusAppendDoesNotAck) {
  ScopedTempDir dir("wal_fail");
  FaultInjector faults(7);
  faults.AddPolicy({PatchWal::kAppendFaultSite, FaultKind::kFailStatus, 1.0,
                    StatusCode::kInternal});
  PatchWal wal({.path = dir.str() + "/patches.wal",
                .fsync = FsyncMode::kNever,
                .fault_injector = &faults});
  EXPECT_EQ(wal.Append(MovePatch(1, {1, 1, 1}), 1).code(),
            StatusCode::kInternal);
  EXPECT_EQ(wal.SizeBytes(), 0u);
}

}  // namespace
}  // namespace hdmap
