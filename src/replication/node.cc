#include "replication/node.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/serialization.h"

namespace hdmap {

ReplicationNode::ReplicationNode(Options options)
    : opts_(std::move(options)),
      service_(opts_.service),
      log_(opts_.log_capacity),
      events_(128),
      replica_([this] {
        Replica::Options ro;
        ro.service = &service_;
        ro.log = &log_;
        ro.term = &term_;
        ro.faults = opts_.faults;
        ro.metrics = &service_.metrics();
        ro.on_higher_term = [this](uint64_t new_term) { StepDown(new_term); };
        ro.on_publish_applied = [this](uint64_t seq) {
          std::lock_guard<std::mutex> lock(write_mu_);
          last_publish_seq_ = seq;
          log_.TrimToCapacity(last_publish_seq_ + 1);
        };
        ro.on_catchup_installed = [this](uint64_t resume_seq) {
          std::lock_guard<std::mutex> lock(write_mu_);
          last_publish_seq_ = resume_seq;
          resync_needed_.store(false);
        };
        ro.consume_resync = [this] { return resync_needed_.exchange(false); };
        return ro;
      }()) {
  ack_wait_ = service_.metrics().GetLatency("replication.ack_wait");
  service_.metrics().SetHelp(
      "replication.ack_wait",
      "Time the leader write path blocked in the semi-synchronous ack gate");
}

ReplicationNode::~ReplicationNode() {
  Halt();
}

TileServer::Options ReplicationNode::ServerOptions() {
  TileServer::Options server_options = opts_.server;
  server_options.replication = &replica_;
  if (server_options.fault_injector == nullptr) {
    server_options.fault_injector = opts_.faults;
  }
  // kStats introspection: label the node, expose replication progress,
  // and merge the node's failover events into the served event list.
  if (server_options.stats_label.empty()) {
    server_options.stats_label = "node-" + std::to_string(opts_.node_id);
  }
  server_options.replication_status_json = [this](JsonWriter& out) {
    ReplicationStatusJson(out);
  };
  server_options.extra_events = [this](size_t n) { return events_.Recent(n); };
  return server_options;
}

Status ReplicationNode::Start(const HdMap& initial_map) {
  HDMAP_RETURN_IF_ERROR(service_.Init(initial_map));
  server_ = std::make_unique<TileServer>(service_, ServerOptions());
  HDMAP_RETURN_IF_ERROR(server_->Start());
  opts_.server.port = server_->port();  // keep the resolved port on restart
  role_.store(Role::kFollower);
  replica_.ResetContact();
  alive_.store(true);
  return Status::Ok();
}

void ReplicationNode::Halt() {
  alive_.store(false);
  // Stop the server before taking write_mu_: a worker applying a publish
  // marker re-enters the node (on_publish_applied takes write_mu_), so
  // holding it across Stop() would deadlock the drain.
  if (server_ != nullptr) server_->Stop();
  std::shared_ptr<WalShipper> shipper;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    shipper = std::move(shipper_);
    role_.store(Role::kFollower);
  }
  if (shipper != nullptr) {
    shipper->RequestStop();
    shipper->Join();
  }
}

Status ReplicationNode::Restart() {
  if (alive_.load()) return Status::Ok();
  server_ = std::make_unique<TileServer>(service_, ServerOptions());
  HDMAP_RETURN_IF_ERROR(server_->Start());
  opts_.server.port = server_->port();
  role_.store(Role::kFollower);
  // A restarted node cannot prove its history still matches the current
  // leader's (it may have been a leader with never-replicated writes),
  // so it rejoins via catch-up snapshot instead of trusting its log
  // position — the in-process analogue of pg_rewind.
  resync_needed_.store(true);
  replica_.ResetContact();
  events_.Append(EventLog::Type::kReplicaCatchUp, 0,
                 "node " + std::to_string(opts_.node_id) +
                     " restarted as follower; resync scheduled");
  alive_.store(true);
  return Status::Ok();
}

void ReplicationNode::BecomeLeader(
    uint64_t term, const std::vector<WalShipper::FollowerInfo>& followers) {
  std::shared_ptr<WalShipper> old;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    old = std::move(shipper_);
    if (old != nullptr) old->RequestStop();

    // Fencing state moves forward only.
    uint64_t observed = term_.load();
    while (observed < term && !term_.compare_exchange_weak(observed, term)) {
    }
    leader_term_ = term;
    role_.store(Role::kLeader);

    WalShipper::Options so;
    so.log = &log_;
    so.term = &term_;
    so.catchup_source = [this] { return BuildCatchUpPayload(); };
    so.on_stale_term = [this](uint64_t new_term) { StepDown(new_term); };
    so.partitioned = [this] { return partitioned_.load(); };
    so.metrics = &service_.metrics();
    so.faults = opts_.faults;
    so.trace = opts_.server.trace;
    so.heartbeat_interval_ms = opts_.heartbeat_interval_ms;
    so.io_timeout_ms = opts_.io_timeout_ms;
    shipper_ = std::make_shared<WalShipper>(so);
    for (const WalShipper::FollowerInfo& follower : followers) {
      shipper_->AddFollower(follower);
    }
  }
  // Join the deposed shipper outside write_mu_: one of its sessions may
  // be inside StepDown (which takes write_mu_) right now.
  if (old != nullptr) old->Join();
  events_.Append(EventLog::Type::kFailoverComplete, 0,
                 "node " + std::to_string(opts_.node_id) +
                     " is leader for term " + std::to_string(term));
}

void ReplicationNode::StepDown(uint64_t term) {
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    uint64_t observed = term_.load();
    while (observed < term && !term_.compare_exchange_weak(observed, term)) {
    }
    if (role_.load() != Role::kLeader || term <= leader_term_) return;
    role_.store(Role::kFollower);
    if (shipper_ != nullptr) shipper_->RequestStop();
    // Local writes from the deposed reign may never have replicated; the
    // next leader repairs us wholesale by snapshot.
    resync_needed_.store(true);
  }
  events_.Append(EventLog::Type::kFailoverDetected, 0,
                 "node " + std::to_string(opts_.node_id) +
                     " deposed: observed term " + std::to_string(term));
}

void ReplicationNode::FenceTerm(uint64_t term) {
  replica_.FenceTerm(term);
}

void ReplicationNode::AddFollower(const WalShipper::FollowerInfo& follower) {
  std::shared_ptr<WalShipper> shipper;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    shipper = shipper_;
  }
  if (shipper != nullptr) shipper->AddFollower(follower);
}

bool ReplicationNode::HasFollower(int node_id) const {
  std::shared_ptr<WalShipper> shipper;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    shipper = shipper_;
  }
  return shipper != nullptr && shipper->HasFollower(node_id);
}

Status ReplicationNode::StagePatch(const MapPatch& patch) {
  if (role_.load() != Role::kLeader) {
    return Status::FailedPrecondition("not the leader");
  }
  uint64_t seq = 0;
  std::shared_ptr<WalShipper> shipper;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (role_.load() != Role::kLeader) {
      return Status::FailedPrecondition("not the leader");
    }
    MapPatch copy = patch;
    HDMAP_RETURN_IF_ERROR(service_.StagePatch(std::move(copy)));
    seq = log_.Append(ReplRecordKind::kPatch, term_.load(),
                      service_.version(), SerializePatch(patch));
    log_.TrimToCapacity(last_publish_seq_ + 1);
    shipper = shipper_;
  }
  return AwaitAcks(shipper, seq);
}

Status ReplicationNode::Publish() {
  if (role_.load() != Role::kLeader) {
    return Status::FailedPrecondition("not the leader");
  }
  uint64_t seq = 0;
  std::shared_ptr<WalShipper> shipper;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (role_.load() != Role::kLeader) {
      return Status::FailedPrecondition("not the leader");
    }
    HDMAP_RETURN_IF_ERROR(service_.Publish());
    seq = log_.Append(ReplRecordKind::kPublish, term_.load(),
                      service_.version(), std::string());
    last_publish_seq_ = seq;
    log_.TrimToCapacity(last_publish_seq_ + 1);
    shipper = shipper_;
  }
  return AwaitAcks(shipper, seq);
}

Status ReplicationNode::AwaitAcks(const std::shared_ptr<WalShipper>& shipper,
                                  uint64_t seq) {
  if (opts_.min_ack_replicas == 0) return Status::Ok();
  if (shipper == nullptr) {
    return Status::Internal("write staged locally but no shipper is running");
  }
  shipper->NotifyAppend();
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  // Deliberately NOT capped at the live follower count: a leader that
  // lost every follower must not self-ack, or "acked" would stop meaning
  // "survives this node's death".
  bool acked = shipper->WaitForAcks(seq, opts_.min_ack_replicas,
                                    opts_.ack_timeout_ms);
  ack_wait_->Record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count());
  if (!acked) {
    return Status::Internal(
        "write staged locally but not acked by " +
        std::to_string(opts_.min_ack_replicas) + " replica(s) within " +
        std::to_string(opts_.ack_timeout_ms) + "ms");
  }
  return Status::Ok();
}

void ReplicationNode::SetPartitioned(bool on) {
  partitioned_.store(on);
  replica_.set_partitioned(on);
}

uint16_t ReplicationNode::port() const {
  return server_ != nullptr ? server_->port() : opts_.server.port;
}

uint64_t ReplicationNode::applied_seq() const {
  // The mirror log tracks applies for followers too, and a deposed
  // leader's data lives only in its log (its replica position is stale
  // from before its reign) — so the max is the node's true position.
  // The controller ranks promotion candidates with this; under-reporting
  // a deposed-but-alive leader would elect a behind follower and
  // truncate acked writes.
  return std::max(log_.end_seq(), replica_.applied_seq());
}

void ReplicationNode::ReplicationStatusJson(JsonWriter& out) const {
  std::shared_ptr<WalShipper> shipper;
  uint64_t last_publish = 0;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    shipper = shipper_;
    last_publish = last_publish_seq_;
  }
  out.BeginObject()
      .Key("node_id").Int(opts_.node_id)
      .Key("role").String(role_.load() == Role::kLeader ? "LEADER"
                                                        : "FOLLOWER")
      .Key("term").Uint(term_.load())
      .Key("applied_seq").Uint(applied_seq())
      .Key("last_publish_seq").Uint(last_publish)
      .Key("log_start_seq").Uint(log_.start_seq())
      .Key("log_end_seq").Uint(log_.end_seq())
      .Key("ms_since_leader_contact").Double(MsSinceLeaderContact())
      .Key("followers").BeginArray();
  if (shipper != nullptr) {
    // Progress() takes the shipper's own mutex (then the log's); both sit
    // below write_mu_ in the lock order, and neither is held here.
    for (const WalShipper::FollowerProgress& p : shipper->Progress()) {
      out.BeginObject()
          .Key("node_id").Int(p.node_id)
          .Key("acked_seq").Uint(p.acked_seq)
          .Key("lag_records").Uint(p.lag_records)
          .Key("lag_ms").Double(p.lag_ms)
          .EndObject();
    }
  }
  out.EndArray().EndObject();
}

std::string ReplicationNode::BuildCatchUpPayload() {
  ReplCatchUp snapshot;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (role_.load() != Role::kLeader) return std::string();
    std::shared_ptr<const MapSnapshot> snap = service_.snapshot();
    if (snap == nullptr) return std::string();
    snapshot.term = term_.load();
    snapshot.resume_seq = last_publish_seq_;
    snapshot.version = snap->version;
    snapshot.published_unix_ms = snap->published_unix_ms;
    snapshot.tile_size_m = snap->tiles.tile_size();
    for (const TileId& id : snap->tiles.AllTiles()) {
      Result<PinnedBytes> bytes = snap->tiles.RawTileBytes(id);
      if (!bytes.ok()) return std::string();
      snapshot.tiles.emplace_back(id, std::string(bytes.value().view()));
    }
  }
  return EncodeCatchUp(snapshot);
}

}  // namespace hdmap
