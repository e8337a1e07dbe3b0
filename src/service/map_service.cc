#include "service/map_service.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "core/serialization.h"

namespace hdmap {

namespace {

/// "tile (3,-1) tile (4,-1) ... (+2 more)" — bounded tile list for event
/// detail strings.
std::string FormatTileList(const std::vector<TileId>& tiles) {
  constexpr size_t kMaxListed = 4;
  std::string out;
  char buf[48];
  for (size_t i = 0; i < tiles.size() && i < kMaxListed; ++i) {
    std::snprintf(buf, sizeof(buf), "%stile (%d,%d)", i == 0 ? "" : " ",
                  tiles[i].x, tiles[i].y);
    out += buf;
  }
  if (tiles.size() > kMaxListed) {
    std::snprintf(buf, sizeof(buf), " (+%zu more)", tiles.size() - kMaxListed);
    out += buf;
  }
  return out;
}

int64_t WallClockUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Steady-clock publish instant consistent with a wall-clock stamp taken
/// (possibly a process lifetime) earlier: recovery back-dates the
/// in-process age math so SnapshotAgeSeconds stays continuous across the
/// restart.
std::chrono::steady_clock::time_point BackdatedPublishTime(
    int64_t published_unix_ms) {
  int64_t age_ms = std::max<int64_t>(0, WallClockUnixMs() - published_unix_ms);
  return std::chrono::steady_clock::now() - std::chrono::milliseconds(age_ms);
}

}  // namespace

MapService::MapService(Options options) : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  // Snapshots' tile caches export through the service registry unless the
  // caller routed them elsewhere.
  if (options_.tile_store.metrics == nullptr) {
    options_.tile_store.metrics = metrics_;
  }
  // Likewise the fault seam: one injector covers both the publish site and
  // the tile-load site unless the caller split them.
  faults_ = options_.fault_injector;
  if (options_.tile_store.fault_injector == nullptr) {
    options_.tile_store.fault_injector = faults_;
  }
  // Per-site injected counts export through the service registry, so
  // benches read injected-vs-detected from one place.
  if (faults_ != nullptr) faults_->BindMetrics(metrics_);
  if (!options_.durability.data_dir.empty()) {
    SnapshotStore::Options store_opts;
    store_opts.data_dir = options_.durability.data_dir;
    store_opts.fsync = options_.durability.fsync;
    store_opts.retention = options_.durability.retention;
    store_opts.metrics = metrics_;
    store_opts.fault_injector = faults_;
    snapshot_store_ = std::make_unique<SnapshotStore>(store_opts);
    PatchWal::Options wal_opts;
    wal_opts.path = options_.durability.data_dir + "/wal/patches.wal";
    wal_opts.fsync = options_.durability.fsync;
    wal_opts.metrics = metrics_;
    wal_opts.fault_injector = faults_;
    wal_ = std::make_unique<PatchWal>(wal_opts);
  }
  lat_get_region_ = metrics_->GetLatency("map_service.get_region");
  lat_get_tile_ = metrics_->GetLatency("map_service.get_tile");
  lat_match_ = metrics_->GetLatency("map_service.match_to_lane");
  lat_route_ = metrics_->GetLatency("map_service.route");
  lat_publish_ = metrics_->GetLatency("map_service.publish");
  requests_ = metrics_->GetCounter("map_service.requests");
  errors_ = metrics_->GetCounter("map_service.errors");
  for (size_t i = 1; i < errors_by_code_.size(); ++i) {
    errors_by_code_[i] = metrics_->GetCounter(
        "map_service.errors{" +
        std::string(StatusCodeToString(static_cast<StatusCode>(i))) + "}");
  }
  regions_degraded_ = metrics_->GetCounter("map_service.regions_degraded");
  patches_published_ = metrics_->GetCounter("map_service.patches_published");
  changes_published_ = metrics_->GetCounter("map_service.changes_published");
  version_gauge_ = metrics_->GetGauge("map_service.snapshot_version");
  age_gauge_ = metrics_->GetGauge("map_service.snapshot_age_seconds");
  staged_gauge_ = metrics_->GetGauge("map_service.staged_patches");
  recoveries_ = metrics_->GetCounter("storage.recoveries");
  wal_replayed_ = metrics_->GetCounter("wal.replayed_records");
  wal_replay_apply_failures_ =
      metrics_->GetCounter("wal.replay_apply_failures");
  lat_recover_ = metrics_->GetLatency("storage.recover");
  published_unix_ms_gauge_ =
      metrics_->GetGauge("map_service.published_unix_ms");

  metrics_->SetHelp("map_service.requests",
                    "Reader requests received across all endpoints");
  metrics_->SetHelp("map_service.errors",
                    "Requests and writer operations that returned non-OK");
  metrics_->SetHelp("map_service.regions_degraded",
                    "GetRegion calls served around corrupt tiles");
  metrics_->SetHelp("map_service.get_region",
                    "GetRegion end-to-end request latency");
  metrics_->SetHelp("map_service.publish", "Publish (copy-on-write) latency");
  metrics_->SetHelp("map_service.snapshot_age_seconds",
                    "Seconds since the serving snapshot published");
  metrics_->SetHelp("tile_store.cache_hits",
                    "Decoded-tile cache hits on the serving snapshot");
  metrics_->SetHelp("wal.appends", "Durable patch write-ahead-log appends");
  metrics_->SetHelp("storage.checkpoint_write",
                    "Full snapshot checkpoint write latency");
}

Status MapService::Init(HdMap initial_map) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  TraceSpan span("map_service.init", TraceSpan::kRoot);
  // Existing durable state outranks the bootstrap map: a restarted
  // service resumes where the fleet left it rather than regressing to a
  // caller-provided (possibly stale) map.
  bool durable_state_lost = false;
  if (durable() && !snapshot_store_->ListCheckpoints().empty()) {
    Status recovered = RecoverLocked();
    // kNotFound means checkpoints exist but none validates: the durable
    // state is beyond recovery, so fall through and bootstrap fresh from
    // `initial_map` rather than refusing to serve at all. The loss is
    // recorded after Install so Health() reports kDegraded.
    if (recovered.code() != StatusCode::kNotFound) return recovered;
    durable_state_lost = true;
  }
  auto snap = std::make_shared<MapSnapshot>();
  snap->tiles = TileStore(options_.tile_store);
  HDMAP_RETURN_IF_ERROR(
      snap->tiles.Build(initial_map, options_.publish_threads));
  snap->map = std::move(initial_map);
  snap->map.BuildIndexes();
  snap->routing =
      std::make_shared<const RoutingGraph>(RoutingGraph::Build(snap->map));
  auto old = snapshot();
  snap->version = old == nullptr ? 1 : old->version + 1;
  snap->publish_time = std::chrono::steady_clock::now();
  snap->published_unix_ms = WallClockUnixMs();
  Install(snap);
  {
    // A wholesale re-init is not patch-reachable from any prior version:
    // the delta chain restarts here.
    std::lock_guard<std::mutex> lock(history_mu_);
    history_.clear();
  }
  bool wal_unreadable = false;
  if (durable_state_lost) {
    span.SetStatus(StatusCode::kDataLoss);
    RecordError(StatusCode::kDataLoss);
    events_.Append(EventLog::Type::kCheckpointFallback, span.trace_id(),
                   "no checkpoint validated; bootstrapped from initial map",
                   StatusCode::kDataLoss);
    // The WAL may still hold intact acked records, but they were staged
    // against state lost with the checkpoints and cannot apply to the
    // bootstrap map. Count each one as lost and set the bytes aside
    // (patches.wal.lost) for offline salvage, rather than letting the
    // bootstrap checkpoint's WAL trim erase them silently.
    auto orphaned = wal_->Replay();
    if (orphaned.ok()) {
      size_t lost = orphaned->records.size() + orphaned->skipped_records;
      for (size_t i = 0; i < lost; ++i) RecordError(StatusCode::kDataLoss);
      if (lost > 0) {
        events_.Append(EventLog::Type::kWalDataLoss, span.trace_id(),
                       std::to_string(lost) +
                           " WAL record(s) orphaned by checkpoint loss; "
                           "archived as patches.wal.lost",
                       StatusCode::kDataLoss);
        Status archived = wal_->Archive();
        if (!archived.ok()) {
          // Could not set the records aside; keep the file as-is (and
          // skip the bootstrap checkpoint whose trim would replace it).
          RecordError(archived.code());
          wal_unreadable = true;
        }
      }
    } else {
      // The WAL file itself was unreadable (an I/O error, not content
      // damage). Leave it in place — a retry after the fault clears may
      // still recover it — which also rules out the bootstrap
      // checkpoint, whose WAL trim would replace the file.
      RecordError(orphaned.status().code());
      wal_unreadable = true;
    }
  }
  if (durable() && !wal_unreadable) {
    // Bootstrap checkpoint: a crash right after Init already recovers.
    Status ck = CheckpointLocked(*snap);
    if (ck.ok()) publishes_since_checkpoint_ = 0;
  }
  return Status::Ok();
}

Status MapService::InstallReplicatedSnapshot(
    uint64_t version, int64_t published_unix_ms, double tile_size_m,
    std::vector<std::pair<TileId, std::string>> tiles) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  TraceSpan span("map_service.install_replicated", TraceSpan::kRoot);
  if (tile_size_m != options_.tile_store.tile_size_m) {
    span.SetStatus(StatusCode::kInvalidArgument);
    RecordError(StatusCode::kInvalidArgument);
    return Status::InvalidArgument(
        "shipped snapshot tiling " + std::to_string(tile_size_m) +
        "m does not match this service's " +
        std::to_string(options_.tile_store.tile_size_m) + "m");
  }
  auto snap = std::make_shared<MapSnapshot>();
  snap->tiles = TileStore(options_.tile_store);
  for (auto& [id, bytes] : tiles) {
    snap->tiles.PutRawTile(id, std::move(bytes));
  }
  // Strict whole-map stitch: every shipped tile must validate before any
  // of this state serves. On failure nothing is installed — the previous
  // snapshot (however stale) beats a corrupt one.
  auto stitched = snap->tiles.LoadAll(options_.publish_threads);
  if (!stitched.ok()) {
    span.SetStatus(stitched.status().code());
    RecordError(stitched.status().code());
    return stitched.status();
  }
  snap->map = *std::move(stitched);
  snap->map.BuildIndexes();
  snap->routing =
      std::make_shared<const RoutingGraph>(RoutingGraph::Build(snap->map));
  snap->version = version;
  snap->published_unix_ms = published_unix_ms;
  snap->publish_time = BackdatedPublishTime(published_unix_ms);
  Install(snap);
  DiscardStagedPatches();
  {
    // The install is not patch-reachable from any locally served
    // version: the delta chain restarts here.
    std::lock_guard<std::mutex> lock(history_mu_);
    history_.clear();
  }
  events_.Append(EventLog::Type::kReplicaCatchUp, span.trace_id(),
                 "installed replicated snapshot version " +
                     std::to_string(version) + " (" +
                     std::to_string(snap->tiles.NumTiles()) + " tiles)");
  if (durable()) {
    // Cover the install across a crash; the trim also drops WAL records
    // for the staged patches discarded above. Failure is non-fatal — the
    // snapshot serves from memory either way.
    Status ck = CheckpointLocked(*snap);
    if (ck.ok()) publishes_since_checkpoint_ = 0;
  }
  return Status::Ok();
}

Status MapService::StagePatch(MapPatch patch) {
  TraceSpan span("map_service.stage_patch", TraceSpan::kRoot);
  // Shared: concurrent stagers overlap (their WAL appends group-commit
  // under one fsync); only the checkpoint trim excludes them.
  std::shared_lock<std::shared_mutex> flow_lock(stage_flow_mu_);
  if (wal_ != nullptr) {
    // Write-ahead: the patch is only acknowledged (and only enters the
    // staged queue) once its WAL record is durable. Deliberately outside
    // staged_mu_ — holding the queue lock across the fsync would
    // serialize every concurrent ack behind ~one fsync each.
    Status appended = wal_->Append(patch, version());
    if (!appended.ok()) {
      span.SetStatus(appended.code());
      RecordError(appended.code());
      return appended;
    }
  }
  std::lock_guard<std::mutex> lock(staged_mu_);
  staged_.push_back(std::move(patch));
  staged_gauge_->Set(static_cast<double>(staged_.size()));
  return Status::Ok();
}

size_t MapService::NumStagedPatches() const {
  std::lock_guard<std::mutex> lock(staged_mu_);
  return staged_.size();
}

void MapService::DiscardStagedPatches() {
  std::lock_guard<std::mutex> lock(staged_mu_);
  staged_.clear();
  staged_gauge_->Set(0.0);
}

Result<std::vector<TileId>> MapService::TouchedTiles(
    const MapPatch& patch, const HdMap& map, const TileStore& tiles) const {
  std::vector<Aabb> boxes;
  // A missing id yields no box here; ApplyPatch fails on it later and the
  // publish aborts before the touched set is ever used.
  auto old_landmark_box = [&](ElementId id) {
    const Landmark* lm = map.FindLandmark(id);
    if (lm != nullptr) boxes.push_back(Aabb::FromPoint(lm->position.xy()));
  };
  auto lanelet_box = [&](ElementId id) {
    const Lanelet* ll = map.FindLanelet(id);
    if (ll != nullptr) boxes.push_back(ll->centerline.BoundingBox());
  };
  // A regulatory element is serialized into every tile of every lanelet
  // it references, so changing one touches all those lanelets' tiles.
  auto regulatory_boxes = [&](const RegulatoryElement& reg) {
    for (ElementId ll_id : reg.lanelet_ids) lanelet_box(ll_id);
  };

  for (const Landmark& lm : patch.added_landmarks) {
    boxes.push_back(Aabb::FromPoint(lm.position.xy()));
  }
  for (ElementId id : patch.removed_landmarks) old_landmark_box(id);
  for (const MapPatch::Move& mv : patch.moved_landmarks) {
    old_landmark_box(mv.id);
    boxes.push_back(Aabb::FromPoint(mv.new_position.xy()));
  }
  for (const LineFeature& lf : patch.updated_line_features) {
    const LineFeature* old = map.FindLineFeature(lf.id);
    if (old != nullptr) boxes.push_back(old->geometry.BoundingBox());
    boxes.push_back(lf.geometry.BoundingBox());
  }
  for (const Lanelet& ll : patch.updated_lanelets) {
    lanelet_box(ll.id);
    boxes.push_back(ll.centerline.BoundingBox());
  }
  for (ElementId id : patch.removed_lanelets) lanelet_box(id);
  for (const RegulatoryElement& reg : patch.updated_regulatory_elements) {
    const RegulatoryElement* old = map.FindRegulatoryElement(reg.id);
    if (old != nullptr) regulatory_boxes(*old);
    regulatory_boxes(reg);
  }
  for (ElementId id : patch.removed_regulatory_elements) {
    const RegulatoryElement* old = map.FindRegulatoryElement(id);
    if (old != nullptr) regulatory_boxes(*old);
  }

  std::map<uint64_t, TileId> touched;
  for (const Aabb& box : boxes) {
    auto coverage = tiles.TileCoverage(box);
    if (!coverage.ok()) {
      return Status::InvalidArgument("patch " + coverage.status().message());
    }
    for (const TileId& t : *coverage) touched.emplace(t.Morton(), t);
  }
  std::vector<TileId> out;
  out.reserve(touched.size());
  for (const auto& [key, t] : touched) {
    (void)key;
    out.push_back(t);
  }
  return out;
}

Status MapService::Publish() {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  TraceSpan span("map_service.publish", TraceSpan::kRoot);
  auto old = snapshot();
  if (old == nullptr) {
    span.SetStatus(StatusCode::kFailedPrecondition);
    return Status::FailedPrecondition("MapService::Init has not run");
  }
  std::vector<MapPatch> staged;
  {
    // Copied, not moved: a failed publish leaves the queue intact.
    std::lock_guard<std::mutex> lock(staged_mu_);
    staged = staged_;
  }
  if (staged.empty()) return Status::Ok();
  ScopedTimer publish_timer(lat_publish_);

  // Apply every staged patch to a private copy, accumulating the touched
  // tiles per patch against the state that patch actually sees (a later
  // patch may move what an earlier one added).
  HdMap new_map = old->map;
  std::map<uint64_t, TileId> touched;
  bool relational_changed = false;
  size_t num_changes = 0;
  for (const MapPatch& patch : staged) {
    HDMAP_ASSIGN_OR_RETURN(std::vector<TileId> patch_tiles,
                           TouchedTiles(patch, new_map, old->tiles));
    for (const TileId& t : patch_tiles) touched.emplace(t.Morton(), t);
    HDMAP_RETURN_IF_ERROR(hdmap::ApplyPatch(patch, &new_map));
    relational_changed = relational_changed ||
                         !patch.updated_lanelets.empty() ||
                         !patch.removed_lanelets.empty() ||
                         !patch.updated_regulatory_elements.empty() ||
                         !patch.removed_regulatory_elements.empty();
    num_changes += patch.NumChanges();
  }

  auto snap = std::make_shared<MapSnapshot>();
  // Copy-on-write: the copy shares no cache with the served store, and
  // only the touched tiles get re-serialized from the patched map.
  snap->tiles = old->tiles;
  std::vector<TileId> touched_list;
  touched_list.reserve(touched.size());
  for (const auto& [key, t] : touched) {
    (void)key;
    touched_list.push_back(t);
  }
  HDMAP_RETURN_IF_ERROR(snap->tiles.RebuildTiles(new_map, touched_list,
                                                 options_.publish_threads));
  // Fault seam: an injected failure here aborts like any real publish
  // error — the previous snapshot keeps serving and the staged queue
  // stays intact.
  if (faults_ != nullptr) {
    Status injected = faults_->MaybeFail(kPublishFaultSite);
    if (!injected.ok()) {
      // MaybeFail only ever fails by injecting, so this is known-synthetic.
      span.SetStatus(injected.code());
      events_.Append(EventLog::Type::kInjectedFault, span.trace_id(),
                     std::string("publish aborted by injected fault at ") +
                         kPublishFaultSite,
                     injected.code());
      return injected;
    }
  }
  snap->map = std::move(new_map);
  snap->map.BuildIndexes();
  // Landmark/marking-level patches don't alter lane topology or rules, so
  // the routing graph is shared with the previous version.
  snap->routing =
      relational_changed
          ? std::make_shared<const RoutingGraph>(RoutingGraph::Build(snap->map))
          : old->routing;
  snap->version = old->version + 1;
  snap->publish_time = std::chrono::steady_clock::now();
  snap->published_unix_ms = WallClockUnixMs();
  Install(snap);

  {
    // Remove exactly the patches that went out; anything staged while the
    // publish ran stays queued for the next one.
    std::lock_guard<std::mutex> lock(staged_mu_);
    staged_.erase(staged_.begin(),
                  staged_.begin() + static_cast<ptrdiff_t>(staged.size()));
    staged_gauge_->Set(static_cast<double>(staged_.size()));
  }
  patches_published_->Increment(staged.size());
  changes_published_->Increment(num_changes);

  if (options_.publish_history > 0) {
    // Retain this publish's patches (serialized once, shared by every
    // later delta response) so clients at version-1 can catch up with a
    // patch stream instead of a full refetch.
    PublishRecord record;
    record.version = snap->version;
    record.patches.reserve(staged.size());
    for (const MapPatch& patch : staged) {
      record.patches.push_back(SerializePatch(patch));
    }
    std::lock_guard<std::mutex> lock(history_mu_);
    history_.push_back(std::move(record));
    while (history_.size() > options_.publish_history) history_.pop_front();
  }

  if (durable()) {
    ++publishes_since_checkpoint_;
    if (publishes_since_checkpoint_ >=
        options_.durability.checkpoint_every_n_publishes) {
      // A checkpoint failure does not fail the publish: the new version
      // serves from memory and the WAL still covers every acked patch
      // since the last checkpoint that did land.
      Status ck = CheckpointLocked(*snap);
      if (ck.ok()) publishes_since_checkpoint_ = 0;
    }
  }
  return Status::Ok();
}

Status MapService::ApplyPatch(MapPatch patch) {
  HDMAP_RETURN_IF_ERROR(StagePatch(std::move(patch)));
  return Publish();
}

Status MapService::CheckpointLocked(const MapSnapshot& snap) {
  Status written = snapshot_store_->WriteCheckpoint(snap.tiles, snap.version,
                                                    snap.published_unix_ms);
  if (!written.ok()) {
    RecordError(written.code());
    return written;
  }
  // The checkpoint now covers every record the WAL held for published
  // patches; atomically rewrite it down to the patches still waiting in
  // the queue (staged during or after this publish), so nothing acked is
  // ever outside (checkpoint ∪ WAL). The rewrite lands via temp-file +
  // rename: a crash or I/O error mid-trim leaves the old log — a
  // superset of what is needed — instead of losing acked records.
  //
  // Exclusive fence vs StagePatch: a stager between its WAL append and
  // its queue push has a durable record this trim's staged_ snapshot
  // cannot see; trimming then would erase an acked patch. Holding
  // stage_flow_mu_ exclusive waits those stagers out (and also satisfies
  // PatchWal's requirement that Rewrite never race an Append).
  std::unique_lock<std::shared_mutex> flow_lock(stage_flow_mu_);
  std::lock_guard<std::mutex> lock(staged_mu_);
  Status rewritten = wal_->Rewrite(staged_, snap.version);
  if (!rewritten.ok()) {
    RecordError(rewritten.code());
    return rewritten;
  }
  return Status::Ok();
}

Status MapService::RecoverLocked() {
  if (!durable()) {
    return Status::FailedPrecondition(
        "MapService durability is disabled (empty data_dir)");
  }
  // Child span: nests under Init's root, so a cold recovery
  // renders as one flame graph (checkpoint load, WAL replay, rebuild).
  TraceSpan span("storage.recover");
  ScopedTimer timer(lat_recover_);
  size_t checkpoints_skipped = 0;
  HDMAP_ASSIGN_OR_RETURN(
      RecoveredSnapshot recovered,
      snapshot_store_->LoadNewestValid(options_.tile_store,
                                       &checkpoints_skipped));

  // Replay the WAL tail past the checkpoint. Records are tolerated
  // failures two ways: torn/corrupt records are skipped by Replay
  // itself, and an intact record whose patch no longer applies (it
  // depended on state lost with a newer, now-corrupt checkpoint) is
  // skipped here.
  size_t wal_skipped = 0;
  size_t applied = 0;
  uint64_t max_hint = 0;
  HdMap map = std::move(recovered.map);
  auto replay = wal_->Replay();
  bool wal_readable = replay.ok();
  if (wal_readable) {
    wal_skipped = replay->skipped_records;
    for (PatchWal::ReplayedRecord& record : replay->records) {
      // All-or-nothing per record: a patch staged against state lost
      // with a skipped newer checkpoint may fail partway through
      // ApplyPatch, so it is applied to a scratch copy — either the
      // whole record lands or none of it does, never a half-applied
      // combination that no version ever served.
      HdMap trial = map;
      Status patched = hdmap::ApplyPatch(record.patch, &trial);
      if (!patched.ok()) {
        ++wal_skipped;
        wal_replay_apply_failures_->Increment();
        continue;
      }
      map = std::move(trial);
      ++applied;
      max_hint = std::max(max_hint, record.version_hint);
    }
  } else {
    // An unreadable WAL (I/O error, not content damage) degrades to
    // checkpoint-only recovery.
    ++wal_skipped;
  }

  auto snap = std::make_shared<MapSnapshot>();
  if (applied == 0) {
    // Bit-exact restore of the checkpoint, warm tiles included.
    snap->tiles = std::move(recovered.tiles);
    snap->version = recovered.version;
    snap->published_unix_ms = recovered.published_unix_ms;
  } else {
    // Replayed patches fold into one recovered publish. A full rebuild
    // equals the incremental path byte-for-byte (RebuildTiles
    // postcondition) without needing per-patch touched-tile bookkeeping
    // against a moving map.
    snap->tiles = std::move(recovered.tiles);  // Keeps manifest tile size.
    HDMAP_RETURN_IF_ERROR(snap->tiles.Build(map, options_.publish_threads));
    snap->version = std::max(recovered.version, max_hint) + 1;
    snap->published_unix_ms = WallClockUnixMs();
  }
  snap->publish_time = BackdatedPublishTime(snap->published_unix_ms);
  snap->map = std::move(map);
  snap->map.BuildIndexes();
  snap->routing =
      std::make_shared<const RoutingGraph>(RoutingGraph::Build(snap->map));
  Install(snap);
  {
    // The recovered version was rebuilt from disk; clients holding
    // pre-crash versions cannot be patched across the restart boundary.
    std::lock_guard<std::mutex> lock(history_mu_);
    history_.clear();
  }
  recoveries_->Increment();
  wal_replayed_->Increment(applied);

  // Degradation accounting lands *after* Install re-baselined Health, so
  // a recovery that skipped anything serves kDegraded until the next
  // clean publish replaces the survivors' bytes.
  for (size_t i = 0; i < checkpoints_skipped + wal_skipped; ++i) {
    RecordError(StatusCode::kDataLoss);
  }
  if (checkpoints_skipped > 0) {
    events_.Append(EventLog::Type::kCheckpointFallback, span.trace_id(),
                   "fell back past " + std::to_string(checkpoints_skipped) +
                       " invalid checkpoint(s)",
                   StatusCode::kDataLoss);
  }
  if (wal_skipped > 0) {
    events_.Append(EventLog::Type::kWalDataLoss, span.trace_id(),
                   std::to_string(wal_skipped) +
                       " WAL record(s) skipped during replay" +
                       (wal_readable ? "" : " (log unreadable)"),
                   StatusCode::kDataLoss);
  }
  if (checkpoints_skipped + wal_skipped > 0) {
    span.SetStatus(StatusCode::kDataLoss);
  }
  events_.Append(EventLog::Type::kRecoverySummary, span.trace_id(),
                 "recovered version " + std::to_string(snap->version) +
                     ": replayed " + std::to_string(applied) +
                     " WAL record(s), skipped " +
                     std::to_string(checkpoints_skipped) +
                     " checkpoint(s) and " + std::to_string(wal_skipped) +
                     " WAL record(s)");

  // Re-protect: fold the replayed WAL into a checkpoint of the recovered
  // state, so the next crash replays nothing. Failure is non-fatal — the
  // old checkpoint plus the existing WAL still cover everything. Skipped
  // when the WAL was unreadable (a transient I/O error, not content
  // damage): the checkpoint's WAL trim would destroy records a retry
  // might still recover.
  if (wal_readable && (applied > 0 || wal_skipped > 0)) {
    Status ck = CheckpointLocked(*snap);
    if (ck.ok()) publishes_since_checkpoint_ = 0;
  }
  return Status::Ok();
}

void MapService::Install(std::shared_ptr<const MapSnapshot> snap) {
  version_gauge_->Set(static_cast<double>(snap->version));
  age_gauge_->Set(0.0);
  published_unix_ms_gauge_->Set(static_cast<double>(snap->published_unix_ms));
  snapshot_.store(std::move(snap));
  // The new snapshot carries freshly (re)built tiles, so prior data-loss
  // events say nothing about it: re-baseline Health to kServing.
  health_baseline_.store(DegradationEvents(), std::memory_order_relaxed);
}

void MapService::RecordError(StatusCode code) const {
  errors_->Increment();
  auto i = static_cast<size_t>(code);
  if (i > 0 && i < errors_by_code_.size()) errors_by_code_[i]->Increment();
}

void MapService::FinishRequest(TraceSpan& span, const char* endpoint,
                               std::chrono::steady_clock::time_point start,
                               StatusCode code) const {
  span.SetStatus(code);
  if (options_.slow_request_threshold_s <= 0.0) return;
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (elapsed <= options_.slow_request_threshold_s) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), " took %.1f ms (threshold %.1f ms)",
                elapsed * 1e3, options_.slow_request_threshold_s * 1e3);
  events_.Append(EventLog::Type::kSlowRequest, span.trace_id(),
                 std::string(endpoint) + buf, code);
}

uint64_t MapService::DegradationEvents() const {
  return errors_by_code_[static_cast<size_t>(StatusCode::kDataLoss)]->value() +
         regions_degraded_->value();
}

ServiceHealth MapService::Health() const {
  return DegradationEvents() >
                 health_baseline_.load(std::memory_order_relaxed)
             ? ServiceHealth::kDegraded
             : ServiceHealth::kServing;
}

std::string_view ServiceHealthToString(ServiceHealth health) {
  switch (health) {
    case ServiceHealth::kServing:
      return "SERVING";
    case ServiceHealth::kDegraded:
      return "DEGRADED";
  }
  return "UNKNOWN";
}

Result<std::vector<std::string>> MapService::PatchesSince(
    uint64_t from_version, uint64_t* reached_version) const {
  auto snap = snapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition("MapService::Init has not run");
  }
  uint64_t current = snap->version;
  if (reached_version != nullptr) *reached_version = current;
  if (from_version > current) {
    return Status::NotFound("client version " + std::to_string(from_version) +
                            " is ahead of served version " +
                            std::to_string(current));
  }
  if (from_version == current) return std::vector<std::string>{};
  std::lock_guard<std::mutex> lock(history_mu_);
  // The chain must cover every version in (from_version, current]
  // contiguously; Init clears it, publishes append, so any gap
  // means "history does not reach back that far".
  std::vector<std::string> out;
  uint64_t next_needed = from_version + 1;
  for (const PublishRecord& record : history_) {
    if (record.version < next_needed) continue;
    if (record.version > next_needed) break;  // Gap: chain broken.
    for (const std::string& patch : record.patches) out.push_back(patch);
    ++next_needed;
    // A publish may land between the snapshot read above and the history
    // walk; stop at `current` so the delta matches the version the caller
    // was told it would reach.
    if (next_needed > current) break;
  }
  if (next_needed <= current) {
    return Status::NotFound(
        "publish history no longer reaches back to version " +
        std::to_string(from_version));
  }
  return out;
}

std::shared_ptr<const MapSnapshot> MapService::snapshot() const {
  return snapshot_.load();
}

uint64_t MapService::version() const {
  auto snap = snapshot();
  return snap == nullptr ? 0 : snap->version;
}

double MapService::SnapshotAgeSeconds() const {
  auto snap = snapshot();
  if (snap == nullptr) return 0.0;
  double age = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - snap->publish_time)
                   .count();
  age_gauge_->Set(age);
  return age;
}

Result<HdMap> MapService::GetRegion(const Aabb& box, RegionReport* report,
                                    uint64_t* served_version) const {
  requests_->Increment();
  TraceSpan span("map_service.get_region", TraceSpan::kRoot);
  auto start = std::chrono::steady_clock::now();
  ScopedTimer timer(lat_get_region_);
  auto snap = snapshot();
  if (snap == nullptr) {
    RecordError(StatusCode::kFailedPrecondition);
    FinishRequest(span, "map_service.get_region", start,
                  StatusCode::kFailedPrecondition);
    return Status::FailedPrecondition("MapService::Init has not run");
  }
  if (served_version != nullptr) *served_version = snap->version;
  // Degradation is observed through the report even when the caller
  // didn't ask for one.
  RegionReport local_report;
  RegionReport* rep = report != nullptr ? report : &local_report;
  auto region = snap->tiles.LoadRegion(
      box, rep, options_.read_threads,
      options_.strict_reads ? RegionReadMode::kStrict
                            : RegionReadMode::kAllowPartial);
  StatusCode code = StatusCode::kOk;
  if (!region.ok()) {
    code = region.status().code();
    RecordError(code);
  } else if (!rep->corrupt_tiles.empty()) {
    // Served, but with holes: not an error, yet Health() must see it. The
    // span is annotated kDataLoss (forcing it into the trace ring even in
    // unsampled traces) and the event explains the matching
    // regions_degraded increment with this request's trace id.
    regions_degraded_->Increment();
    code = StatusCode::kDataLoss;
    events_.Append(EventLog::Type::kQuarantinedTile, span.trace_id(),
                   "get_region served degraded around " +
                       std::to_string(rep->corrupt_tiles.size()) +
                       " corrupt tile(s): " +
                       FormatTileList(rep->corrupt_tiles),
                   StatusCode::kDataLoss);
  }
  FinishRequest(span, "map_service.get_region", start, code);
  return region;
}

Result<HdMap> MapService::GetTile(const TileId& id) const {
  requests_->Increment();
  TraceSpan span("map_service.get_tile", TraceSpan::kRoot);
  auto start = std::chrono::steady_clock::now();
  ScopedTimer timer(lat_get_tile_);
  auto snap = snapshot();
  if (snap == nullptr) {
    RecordError(StatusCode::kFailedPrecondition);
    FinishRequest(span, "map_service.get_tile", start,
                  StatusCode::kFailedPrecondition);
    return Status::FailedPrecondition("MapService::Init has not run");
  }
  auto tile = snap->tiles.LoadTile(id);
  if (!tile.ok()) RecordError(tile.status().code());
  FinishRequest(span, "map_service.get_tile", start,
                tile.ok() ? StatusCode::kOk : tile.status().code());
  return tile;
}

Result<VersionedTileView> MapService::GetTileView(const TileId& id) const {
  requests_->Increment();
  TraceSpan span("map_service.get_tile_view", TraceSpan::kRoot);
  auto start = std::chrono::steady_clock::now();
  ScopedTimer timer(lat_get_tile_);
  auto snap = snapshot();
  if (snap == nullptr) {
    RecordError(StatusCode::kFailedPrecondition);
    FinishRequest(span, "map_service.get_tile_view", start,
                  StatusCode::kFailedPrecondition);
    return Status::FailedPrecondition("MapService::Init has not run");
  }
  // The view pins the tile bytes itself, so it remains valid even after
  // `snap` dies with this frame and a later publish drops the store.
  auto view = snap->tiles.GetTileView(id);
  StatusCode code = view.ok() ? StatusCode::kOk : view.status().code();
  if (!view.ok()) RecordError(code);
  FinishRequest(span, "map_service.get_tile_view", start, code);
  if (!view.ok()) return view.status();
  return VersionedTileView{snap->version, *std::move(view)};
}

Result<LaneMatch> MapService::MatchToLane(const Vec2& position,
                                          double max_distance) const {
  requests_->Increment();
  TraceSpan span("map_service.match_to_lane", TraceSpan::kRoot);
  auto start = std::chrono::steady_clock::now();
  ScopedTimer timer(lat_match_);
  auto snap = snapshot();
  if (snap == nullptr) {
    RecordError(StatusCode::kFailedPrecondition);
    FinishRequest(span, "map_service.match_to_lane", start,
                  StatusCode::kFailedPrecondition);
    return Status::FailedPrecondition("MapService::Init has not run");
  }
  auto match = snap->map.MatchToLane(position, max_distance);
  if (!match.ok()) RecordError(match.status().code());
  FinishRequest(span, "map_service.match_to_lane", start,
                match.ok() ? StatusCode::kOk : match.status().code());
  return match;
}

Result<Route> MapService::Route(ElementId from, ElementId to,
                                RouteAlgorithm algorithm) const {
  requests_->Increment();
  TraceSpan span("map_service.route", TraceSpan::kRoot);
  auto start = std::chrono::steady_clock::now();
  ScopedTimer timer(lat_route_);
  auto snap = snapshot();
  if (snap == nullptr) {
    RecordError(StatusCode::kFailedPrecondition);
    FinishRequest(span, "map_service.route", start,
                  StatusCode::kFailedPrecondition);
    return Status::FailedPrecondition("MapService::Init has not run");
  }
  auto route = PlanRoute(*snap->routing, from, to, algorithm);
  if (!route.ok()) RecordError(route.status().code());
  FinishRequest(span, "map_service.route", start,
                route.ok() ? StatusCode::kOk : route.status().code());
  return route;
}

}  // namespace hdmap
