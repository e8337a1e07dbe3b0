#ifndef HDMAP_SERVICE_MAP_SERVICE_H_
#define HDMAP_SERVICE_MAP_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/hd_map.h"
#include "core/map_patch.h"
#include "core/routing_graph.h"
#include "core/tile_store.h"
#include "planning/route_planner.h"
#include "storage/patch_wal.h"
#include "storage/snapshot_store.h"

namespace hdmap {

/// One immutable published version of the map: the unit a fleet consumes.
/// Everything inside is fully built before the snapshot becomes visible
/// (spatial indexes warm, routing graph materialized), so any number of
/// threads may query it concurrently through const access with no
/// synchronization. Snapshots are only ever handed out as
/// std::shared_ptr<const MapSnapshot>; a reader holding one keeps its
/// version alive no matter how many newer versions publish.
struct MapSnapshot {
  /// Monotonic publish sequence number, starting at 1 for the initial map.
  uint64_t version = 0;
  /// Steady-clock publish instant: the basis for in-process age math
  /// (SnapshotAgeSeconds), immune to wall-clock steps. Meaningless across
  /// restarts — a recovered snapshot back-dates it from
  /// `published_unix_ms` so age stays continuous.
  std::chrono::steady_clock::time_point publish_time;
  /// Wall-clock publish stamp (Unix epoch, milliseconds). Persisted in
  /// the checkpoint manifest, so it is the one publish time that survives
  /// a restart.
  int64_t published_unix_ms = 0;
  /// The stitched, query-ready map (indexes pre-built; see
  /// HdMap::BuildIndexes).
  HdMap map;
  /// The map split into serialized tiles (the distribution format).
  TileStore tiles;
  /// Shared with the previous snapshot when a publish did not touch the
  /// relational layer (lanelets/regulatory elements) — landmark- and
  /// marking-level patches reuse the graph instead of rebuilding it.
  std::shared_ptr<const RoutingGraph> routing;
};

/// A zero-copy tile view stamped with the snapshot version it was read
/// from (the version a client caches or advertises for deltas).
struct VersionedTileView {
  uint64_t version = 0;
  PinnedTileView tile;
};

/// Coarse serving-health signal derived from the error-code counters.
enum class ServiceHealth {
  /// No data-loss events observed since the current snapshot published.
  kServing,
  /// At least one corrupt tile was served around (degraded region) or
  /// surfaced as a kDataLoss reader error since the current snapshot
  /// published. Clears on the next successful Publish/Init — the only
  /// paths that can replace the corrupt bytes.
  kDegraded,
};

/// "SERVING" / "DEGRADED" — the wire spelling kStats responses and the
/// ClusterInspector's cluster view use.
std::string_view ServiceHealthToString(ServiceHealth health);

/// The serving front door of the map ecosystem (the workload of Pannen et
/// al. [44] / Qi et al. [47]: fleets read regions and patches land
/// concurrently). One writer stages MapPatches and publishes; any number
/// of reader threads query, each request served against exactly one
/// version:
///
///   readers                 writer
///   -------                 ------
///   GetRegion / GetTile     StagePatch (cheap, any thread)
///   MatchToLane / Route     Publish: copy map, apply patches,
///   snapshot()                re-derive only the touched tiles
///                             (copy-on-write; untouched tiles keep
///                             their serialized bytes), rebuild what
///                             depends on the change, then swap one
///                             atomic pointer
///
/// Thread safety: all reader endpoints and StagePatch may be called
/// concurrently from any thread. Publish/ApplyPatch/Init are serialized
/// internally (multiple writers queue on a mutex). A reader never blocks
/// on a publish and never observes a partially applied patch set: it
/// either sees the whole previous version or the whole new one.
///
/// Observability: every endpoint records latency into a MetricsRegistry
/// ("map_service.*" latency histograms, request/error counters,
/// snapshot version/age gauges), and the tile cache exports its counters
/// ("tile_store.cache_*") through the same registry.
class MapService {
 public:
  /// Construction knobs (same pattern as TileStore::Options: new knobs
  /// land here, signatures don't churn).
  struct Options {
    /// Tiling of the published snapshots. When `tile_store.metrics` is
    /// null it is wired to the service registry automatically.
    TileStore::Options tile_store;
    /// Seconds added per lane-change edge in the routing graph.
    double lane_change_penalty_s = 2.0;
    /// Threads for publish-side tile (re)serialization; 0 = hardware
    /// concurrency.
    size_t publish_threads = 0;
    /// Threads one GetRegion stitch may use. Default 1: region requests
    /// already run on many reader threads, so per-request fan-out would
    /// oversubscribe the serving host.
    size_t read_threads = 1;
    /// External metrics registry; null means the service owns one
    /// (accessible via metrics()). Must outlive the service when set.
    MetricsRegistry* metrics = nullptr;
    /// Fault-injection seam for tests/benches (must outlive the service;
    /// null disables). Publish consults site "map_service.publish"; it is
    /// also wired into `tile_store.fault_injector` (site
    /// "tile_store.load") unless that is already set.
    FaultInjector* fault_injector = nullptr;
    /// When true, GetRegion fails whole requests with kDataLoss instead
    /// of serving degraded regions (RegionReadMode::kStrict). Default off:
    /// one corrupt tile should not take down a whole region read.
    bool strict_reads = false;
    /// Reader requests slower than this (seconds) land in the event log
    /// as kSlowRequest records; <= 0 disables slow-request events.
    double slow_request_threshold_s = 0.25;
    /// Capacity of the structured event ring served by RecentEvents().
    size_t event_log_capacity = 256;
    /// How many recent publishes keep their applied patches (serialized)
    /// for PatchesSince — the delta chain a network edge serves to
    /// clients asking "I have version V, send what changed". 0 disables
    /// history (every conditional fetch beyond NOT_MODIFIED goes full).
    size_t publish_history = 32;

    /// Crash-safe durability. Disabled (empty data_dir) by default, with
    /// zero overhead on the serving hot path when disabled.
    struct Durability {
      /// Root directory for checkpoints and the patch WAL; empty turns
      /// the durability layer off entirely.
      std::string data_dir;
      /// fsync policy for checkpoint files and WAL appends.
      FsyncMode fsync = FsyncMode::kAlways;
      /// Write a snapshot checkpoint every N successful publishes (1 =
      /// every publish). Publishes between checkpoints survive crashes
      /// through the WAL alone.
      uint32_t checkpoint_every_n_publishes = 1;
      /// Checkpoint versions kept on disk; older ones are pruned after
      /// each checkpoint. The extras are the fallbacks recovery degrades
      /// to when the newest checkpoint is torn or corrupt.
      size_t retention = 2;
    };
    Durability durability;
  };

  /// FaultInjector site name instrumenting Publish.
  static constexpr const char* kPublishFaultSite = "map_service.publish";

  MapService() : MapService(Options{}) {}
  explicit MapService(Options options);

  MapService(const MapService&) = delete;
  MapService& operator=(const MapService&) = delete;

  /// Publishes `initial_map` as version 1. Every reader endpoint fails
  /// with kFailedPrecondition until this succeeds. Re-initializing an
  /// already-serving service replaces the map wholesale (full tile build)
  /// and keeps the version sequence monotonic.
  ///
  /// With durability enabled and existing state under data_dir, Init
  /// recovers from disk instead (see RecoverLocked) and `initial_map` is
  /// ignored: the durable map outranks the bootstrap map after a restart.
  /// A fresh data_dir is bootstrapped by checkpointing `initial_map` as
  /// version 1 before Init returns. If durable state exists but no
  /// checkpoint validates (total loss), Init falls back to bootstrapping
  /// from `initial_map` and records the loss (Health() == kDegraded);
  /// WAL records orphaned by the loss (their base state is gone) are
  /// each counted as a kDataLoss event and the log is set aside as
  /// `patches.wal.lost` for offline salvage instead of being erased.
  Status Init(HdMap initial_map);

  /// True when Options::durability.data_dir is set.
  bool durable() const { return snapshot_store_ != nullptr; }

  /// Installs a snapshot shipped from a replication leader (the
  /// follower-side catch-up path): the given serialized tiles replace
  /// the served state wholesale at exactly `version`, with the staged
  /// queue and delta history cleared (they described state this install
  /// discards). Every tile must pass its frame CRC and decode (strict
  /// stitch) before anything becomes visible — a corrupt shipment is
  /// rejected with kDataLoss and the previous snapshot keeps serving.
  /// `tile_size_m` must match this service's tiling (byte-identity with
  /// the leader is meaningless across tilings). With durability enabled
  /// the installed snapshot is checkpointed and the WAL trimmed, so a
  /// restarted follower recovers to it.
  Status InstallReplicatedSnapshot(
      uint64_t version, int64_t published_unix_ms, double tile_size_m,
      std::vector<std::pair<TileId, std::string>> tiles);

  // --- Writer side ---

  /// Queues a patch for the next Publish. Cheap and callable from any
  /// thread; nothing becomes visible to readers until Publish. With
  /// durability enabled the patch is appended to the write-ahead log and
  /// fsynced *before* it is queued — an OK return means the patch
  /// survives a crash. On a WAL append failure the patch is not staged.
  /// Concurrent StagePatch calls commit as a group: the WAL batches
  /// records sharing one fsync (PatchWal group commit), so K concurrent
  /// acks cost ~1 fsync rather than K serialized ones.
  Status StagePatch(MapPatch patch);

  /// Patches staged and not yet published.
  size_t NumStagedPatches() const;

  /// Drops all staged patches (e.g. after a failed Publish whose patches
  /// the caller chooses to abandon).
  void DiscardStagedPatches();

  /// Applies every staged patch to a copy of the current snapshot and
  /// publishes the result as one new version with a single atomic pointer
  /// swap. Copy-on-write: only tiles whose content the patches touched
  /// are re-serialized; every other tile keeps its bytes. All-or-nothing:
  /// on any failure (unknown id in a patch, degenerate geometry) nothing
  /// is published, no version is consumed, and the staged queue is left
  /// intact for inspection. A Publish with nothing staged is a no-op.
  ///
  /// With durability enabled, every Nth successful publish (N =
  /// checkpoint_every_n_publishes) also writes a checkpoint and then
  /// rewrites the WAL down to the still-unpublished staged patches. A
  /// checkpoint failure never fails the publish — the new version serves
  /// from memory, the WAL keeps its records, and
  /// "storage.checkpoint_failures" counts the miss.
  Status Publish();

  /// StagePatch + Publish in one call.
  Status ApplyPatch(MapPatch patch);

  // --- Reader side (all safe from any thread, lock-free pointer load) ---

  /// The current snapshot. Hold the pointer to keep reading one
  /// consistent version across multiple queries; re-call to observe
  /// newer versions. Null before Init.
  std::shared_ptr<const MapSnapshot> snapshot() const;

  /// Version of the current snapshot; 0 before Init.
  uint64_t version() const;

  /// Seconds since the current snapshot was published (0 before Init).
  /// Also refreshes the "map_service.snapshot_age_seconds" gauge. Age is
  /// continuous across restarts: recovery back-dates the steady-clock
  /// publish instant from the persisted wall-clock stamp
  /// (MapSnapshot::published_unix_ms, also exported as the
  /// "map_service.published_unix_ms" gauge).
  double SnapshotAgeSeconds() const;

  /// Serving health, derived from the per-code error counters
  /// ("map_service.errors{CODE}") and the degraded-region counter:
  /// kDegraded once any data-loss event lands on the current snapshot,
  /// kServing again after the next successful publish. kServing before
  /// Init (nothing corrupt has been served).
  ServiceHealth Health() const;

  /// Loads and stitches every tile intersecting `box` from the current
  /// snapshot (see TileStore::LoadRegion). By default a tile that fails
  /// checksum/decode is skipped and reported (via `report` and the
  /// "map_service.regions_degraded" counter) instead of failing the
  /// request; Options::strict_reads opts out.
  Result<HdMap> GetRegion(const Aabb& box,
                          RegionReport* report = nullptr) const;

  /// One tile of the current snapshot (see TileStore::LoadTile).
  Result<HdMap> GetTile(const TileId& id) const;

  /// Zero-copy read of one tile of the current snapshot (see
  /// TileStore::GetTileView): in-place accessors over the tile's framed
  /// v3 bytes, no decode. The view pins its bytes, so it stays valid
  /// across snapshot swaps and store teardown — a caller may hold it for
  /// as long as it reads, with no coordination against publishes.
  /// `version` reports the snapshot the view came from.
  /// kFailedPrecondition before Init.
  Result<VersionedTileView> GetTileView(const TileId& id) const;

  /// Lane-level match against the current snapshot's stitched map.
  Result<LaneMatch> MatchToLane(const Vec2& position,
                                double max_distance = 10.0) const;

  /// Lane-level route on the current snapshot's routing graph.
  Result<::hdmap::Route> Route(
      ElementId from, ElementId to,
      RouteAlgorithm algorithm = RouteAlgorithm::kAStar) const;

  /// The serialized patches (framed SerializePatch payloads, in apply
  /// order) that transform snapshot version `from_version` into the
  /// current version — the delta a client holding `from_version` applies
  /// instead of refetching whole regions. Empty when `from_version` is
  /// already current. kNotFound when the retained history
  /// (Options::publish_history publishes; cleared by Init, whose
  /// rebuilds break the delta chain) no longer reaches back that far, or
  /// when `from_version` is ahead of the server — callers fall back to a
  /// full fetch. kFailedPrecondition before Init. On success
  /// `reached_version` (when non-null) receives the version the chain
  /// transforms `from_version` into — the version a publish-racing caller
  /// must advertise with the delta, which may trail version() by the time
  /// this returns.
  Result<std::vector<std::string>> PatchesSince(
      uint64_t from_version, uint64_t* reached_version = nullptr) const;

  /// The newest structured events, newest first: why Health() is
  /// degraded, which requests were slow, what a recovery skipped — each
  /// record carries the trace id of the request that observed it, so a
  /// metric increment joins back to its flame graph. See EventLog::Type
  /// for the record taxonomy.
  std::vector<EventLog::Event> RecentEvents(size_t max_n = 64) const {
    return events_.Recent(max_n);
  }

  /// The event ring itself (e.g. for total_appended()).
  const EventLog& event_log() const { return events_; }

  /// The registry all service and tile-cache metrics land in (the
  /// external one when Options::metrics was set, else the internal one).
  MetricsRegistry& metrics() const { return *metrics_; }

  const Options& options() const { return options_; }

 private:
  /// Tiles whose serialized content `patch` changes, evaluated against
  /// `map` in its pre-patch state (old positions/geometry come from the
  /// map, new ones from the patch itself).
  Result<std::vector<TileId>> TouchedTiles(const MapPatch& patch,
                                           const HdMap& map,
                                           const TileStore& tiles) const;

  /// Swaps in a fully built snapshot and updates version/age gauges.
  /// Also re-baselines Health(): data-loss events before this publish no
  /// longer count as degradation.
  void Install(std::shared_ptr<const MapSnapshot> snap);

  /// Init's recovery step; caller holds publish_mu_. Restores serving
  /// state from Options::durability.data_dir: loads the newest checkpoint
  /// that validates end-to-end (torn or corrupt newer ones are skipped,
  /// counted in "storage.checkpoints_invalid" and the kDataLoss error
  /// counter), replays every intact WAL record past it (torn/corrupt tail
  /// records are skipped and counted in "wal.replay_skipped"), and
  /// resumes serving at the recovered version. When anything was
  /// skipped, Health() reports kDegraded until the next successful
  /// Publish. When WAL records were replayed, the recovered state is
  /// immediately re-checkpointed so the next crash is covered. kNotFound
  /// when no valid checkpoint exists; kFailedPrecondition when
  /// durability is disabled.
  Status RecoverLocked();

  /// Checkpoints `snap` and, on success, atomically rewrites the WAL
  /// down to the still-staged (unpublished) patches (temp-file + rename:
  /// a failed or interrupted trim leaves the old log intact). Caller
  /// holds publish_mu_.
  Status CheckpointLocked(const MapSnapshot& snap);

  /// Bumps the total error counter plus the per-code one
  /// ("map_service.errors{CODE}").
  void RecordError(StatusCode code) const;

  /// Closes out one reader request: annotates the span with `code` and
  /// emits a kSlowRequest event when the elapsed time crossed
  /// Options::slow_request_threshold_s.
  void FinishRequest(TraceSpan& span, const char* endpoint,
                     std::chrono::steady_clock::time_point start,
                     StatusCode code) const;

  /// Sum of the counters Health() watches (data-loss errors + degraded
  /// regions served).
  uint64_t DegradationEvents() const;

  Options options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // Null when external.
  MetricsRegistry* metrics_ = nullptr;

  // Hot-path instruments, resolved once at construction.
  LatencyHistogram* lat_get_region_ = nullptr;
  LatencyHistogram* lat_get_tile_ = nullptr;
  LatencyHistogram* lat_match_ = nullptr;
  LatencyHistogram* lat_route_ = nullptr;
  LatencyHistogram* lat_publish_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* errors_ = nullptr;
  // Per-code breakdown of errors_, indexed by StatusCode; entry 0 (kOk)
  // stays unused.
  std::array<Counter*, 9> errors_by_code_{};
  // GetRegion calls that succeeded by skipping corrupt tiles.
  Counter* regions_degraded_ = nullptr;
  Counter* patches_published_ = nullptr;
  Counter* changes_published_ = nullptr;
  Gauge* version_gauge_ = nullptr;
  Gauge* age_gauge_ = nullptr;
  Gauge* staged_gauge_ = nullptr;

  // The one pointer readers touch. libstdc++'s atomic<shared_ptr> may
  // guard the refcount bump with a spinlock pool, but readers never wait
  // on the writer's publish work — the swap itself is a pointer store.
  std::atomic<std::shared_ptr<const MapSnapshot>> snapshot_;

  // Stage-vs-trim fence. StagePatch holds it shared for its whole
  // [WAL append -> queue push] window (concurrent stagers proceed in
  // parallel, which is what lets the WAL group-commit their fsyncs);
  // CheckpointLocked holds it exclusive across the WAL trim, so a trim
  // can never run between a patch's WAL append and its queue insertion —
  // the window where the record is durable but invisible to the trim's
  // staged_ snapshot, and would otherwise be erased while acked.
  mutable std::shared_mutex stage_flow_mu_;
  mutable std::mutex staged_mu_;  // Guards staged_ (the queue itself).
  std::vector<MapPatch> staged_;

  // Recent publishes' applied patches (serialized), newest at the back:
  // the delta chain behind PatchesSince. Entry for version v holds the
  // patches that turned v-1 into v. Guarded by history_mu_; bounded by
  // Options::publish_history.
  mutable std::mutex history_mu_;
  struct PublishRecord {
    uint64_t version = 0;
    std::vector<std::string> patches;
  };
  std::deque<PublishRecord> history_;

  // Serializes Init/Publish (one writer at a time).
  std::mutex publish_mu_;

  // Durability layer; both null when Options::durability.data_dir is
  // empty. WAL appends ride under staged_mu_ (append order == queue
  // order); checkpoint writes ride under publish_mu_.
  std::unique_ptr<SnapshotStore> snapshot_store_;
  std::unique_ptr<PatchWal> wal_;
  // Publishes since the last successful checkpoint; guarded by
  // publish_mu_.
  uint32_t publishes_since_checkpoint_ = 0;

  // Recovery/durability instruments (null when metrics registry absent —
  // never: the service always has a registry; resolved at construction).
  Counter* recoveries_ = nullptr;
  Counter* wal_replayed_ = nullptr;
  Counter* wal_replay_apply_failures_ = nullptr;
  LatencyHistogram* lat_recover_ = nullptr;
  Gauge* published_unix_ms_gauge_ = nullptr;

  // Structured event ring behind RecentEvents(). mutable: const reader
  // endpoints append degradation/slow-request records.
  mutable EventLog events_;

  // DegradationEvents() as of the last Install; Health() compares the
  // live counters against it.
  std::atomic<uint64_t> health_baseline_{0};
  FaultInjector* faults_ = nullptr;  // Aliases options_.fault_injector.
};

}  // namespace hdmap

#endif  // HDMAP_SERVICE_MAP_SERVICE_H_
