#ifndef HDMAP_STORAGE_SNAPSHOT_STORE_H_
#define HDMAP_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "core/hd_map.h"
#include "core/tile_store.h"
#include "storage/fs_util.h"

namespace hdmap {

/// One checkpoint loaded back from disk and fully validated: every tile
/// decoded through its wire frame and stitched into a query-able map.
/// The TileStore's blobs are mmap-backed (zero-copy recovery), so
/// TileStore::GetTileView serves in-place views of the mapped pages,
/// checking each tile's CRC once. The pages stay valid even if the
/// checkpoint directory is retention-deleted later (see MmapFile).
struct RecoveredSnapshot {
  uint64_t version = 0;
  /// Wall-clock publish stamp persisted in the manifest (survives
  /// restarts, unlike the in-process steady-clock publish time).
  int64_t published_unix_ms = 0;
  TileStore tiles;
  HdMap map;  ///< Stitched from `tiles`; indexes not yet built.
};

/// Persists published map versions as checkpoint directories:
///
///   <data_dir>/checkpoints/v<version>/
///     <morton>.tile   one wire-framed blob per tile (CRC inside frame)
///     manifest.bin    framed manifest: version, wall-clock stamp,
///                     tile size, per-tile (morton, x, y, byte length)
///
/// Crash safety: a checkpoint is written into a `.tmp-...` sibling, every
/// file fsynced (per FsyncMode), then atomically renamed into place and
/// the parent directory fsynced. A crash at any point leaves either the
/// complete previous state or a `.tmp` leftover that the next write
/// sweeps away — never a half-visible checkpoint. Corruption that lands
/// anyway (torn manifest, scribbled or missing tile file) is detected at
/// load time: the manifest frame CRC, per-tile recorded lengths, and each
/// tile's own frame CRC must all agree before a checkpoint is served.
///
/// Determinism: the bytes written for a given (tiles, version, stamp) are
/// identical regardless of thread count or platform — tile blobs are the
/// TileStore's deterministic serialization and the manifest iterates them
/// in Morton order.
///
/// Thread safety: none. Callers (MapService) serialize checkpoint writes
/// behind their publish lock.
class SnapshotStore {
 public:
  struct Options {
    /// Root of the on-disk layout; created on first write.
    std::string data_dir;
    FsyncMode fsync = FsyncMode::kAlways;
    /// Keep the newest K checkpoints; older ones are removed after each
    /// successful write. Minimum 1 (the just-written checkpoint).
    size_t retention = 2;
    /// Optional export of checkpoint counters/latency ("storage.*").
    /// Must outlive the store.
    MetricsRegistry* metrics = nullptr;
    /// Optional fault seam (sites below). Must outlive the store.
    FaultInjector* fault_injector = nullptr;
  };

  /// Data-plane faults here corrupt tile bytes as they are written;
  /// kFailStatus fails the whole checkpoint before anything is written.
  static constexpr const char* kWriteFaultSite = "snapshot_store.write";
  /// Data-plane faults here corrupt the manifest bytes as written.
  static constexpr const char* kManifestFaultSite = "snapshot_store.manifest";

  explicit SnapshotStore(Options options);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Persists `tiles` as checkpoint `version` (temp dir + fsync + atomic
  /// rename), then applies retention. On failure the previous on-disk
  /// state is untouched.
  Status WriteCheckpoint(const TileStore& tiles, uint64_t version,
                         int64_t published_unix_ms);

  /// Checkpoint versions present on disk (valid or not), ascending.
  std::vector<uint64_t> ListCheckpoints() const;

  /// Loads and fully validates one checkpoint: manifest frame, per-tile
  /// recorded lengths, and every tile's own frame/decode must pass.
  /// kDataLoss on any mismatch. `tile_options` seeds the returned
  /// TileStore's serving knobs (cache size, metrics, fault injector); the
  /// tile size always comes from the manifest.
  Result<RecoveredSnapshot> LoadCheckpoint(
      uint64_t version, const TileStore::Options& tile_options) const;

  /// Walks checkpoints newest-first and returns the first that validates,
  /// counting the newer-but-invalid ones into `*checkpoints_skipped`
  /// (and the "storage.checkpoints_invalid" counter). kNotFound when no
  /// valid checkpoint exists.
  Result<RecoveredSnapshot> LoadNewestValid(
      const TileStore::Options& tile_options,
      size_t* checkpoints_skipped) const;

  std::string CheckpointDir(uint64_t version) const;

  const Options& options() const { return options_; }

 private:
  std::string CheckpointsRoot() const;
  /// Removes checkpoints beyond Options::retention and any `.tmp`
  /// leftovers from crashed writes. Best-effort.
  void ApplyRetention() const;

  Options options_;
  Counter* writes_ = nullptr;
  Counter* write_failures_ = nullptr;
  Counter* tiles_written_ = nullptr;
  Counter* invalid_at_load_ = nullptr;
  Gauge* last_bytes_ = nullptr;
  LatencyHistogram* lat_write_ = nullptr;
};

}  // namespace hdmap

#endif  // HDMAP_STORAGE_SNAPSHOT_STORE_H_
