#ifndef HDMAP_REPLICATION_NODE_H_
#define HDMAP_REPLICATION_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "net/tile_server.h"
#include "replication/replica.h"
#include "replication/replication_log.h"
#include "replication/wal_shipper.h"
#include "service/map_service.h"

namespace hdmap {

/// One member of a replicated map-serving cluster: a MapService, its
/// TileServer (which serves both the read plane and — via the node's
/// Replica — the replication plane on the same port), the node's
/// ReplicationLog, and, while leader, a WalShipper streaming that log to
/// every follower.
///
/// Write path (leader only): StagePatch/Publish apply locally first
/// (WAL-append-before-ack still holds — the service's own durability is
/// untouched), append a record to the replication log, then block until
/// `min_ack_replicas` followers acked it (semi-synchronous commit). A
/// write that returns OK therefore survives leader death: the failover
/// controller promotes the most-caught-up follower, which holds every
/// acked record.
///
/// Role changes: BecomeLeader starts a shipper at the new term;
/// StepDown stops shipping and force-marks the replica diverged (a
/// deposed leader may hold never-replicated local patches, so it rejoins
/// via catch-up snapshot rather than trusting its own history).
///
/// Halt/Restart simulate a crash: Halt stops the server and shipper
/// (in-memory state stays, as a chaos stand-in for the disk); Restart
/// rejoins as a follower.
class ReplicationNode {
 public:
  enum class Role { kFollower, kLeader };

  struct Options {
    int node_id = 0;
    MapService::Options service;
    TileServer::Options server;
    size_t log_capacity = 4096;
    uint32_t heartbeat_interval_ms = 20;
    uint32_t io_timeout_ms = 250;
    /// Followers that must ack a write before it returns OK (capped at
    /// the follower count; 0 = fully asynchronous).
    size_t min_ack_replicas = 1;
    uint32_t ack_timeout_ms = 2000;
    /// Chaos seam shared by the replication sites ("repl.ship",
    /// "repl.apply", "repl.heartbeat"); may be null.
    FaultInjector* faults = nullptr;
  };

  explicit ReplicationNode(Options options);
  ~ReplicationNode();

  ReplicationNode(const ReplicationNode&) = delete;
  ReplicationNode& operator=(const ReplicationNode&) = delete;

  /// Initializes the service (recovering durable state when present) and
  /// starts serving as a follower.
  Status Start(const HdMap& initial_map);

  /// Simulated crash: stops the server and any shipper. In-memory state
  /// is retained (the chaos stand-in for the disk surviving the crash).
  void Halt();

  /// Rejoins the cluster as a follower after Halt.
  Status Restart();

  bool alive() const { return alive_.load(); }

  /// Cluster administration (normally driven by FailoverController).
  void BecomeLeader(uint64_t term,
                    const std::vector<WalShipper::FollowerInfo>& followers);
  void StepDown(uint64_t term);
  /// Failover fencing: raises this node's term under the replica lock
  /// so batches from any older term are rejected from here on. Called
  /// on every reachable node before the controller picks a promotion
  /// candidate (see Replica::FenceTerm).
  void FenceTerm(uint64_t term);
  void AddFollower(const WalShipper::FollowerInfo& follower);
  bool HasFollower(int node_id) const;

  /// Client write path; kFailedPrecondition when not leader, kInternal
  /// when the ack quorum was not reached in time (the write is staged
  /// locally and will still replicate, but it is NOT acked).
  Status StagePatch(const MapPatch& patch);
  Status Publish();

  /// Simulated symmetric network partition: inbound replication requests
  /// are rejected and (as leader) nothing is shipped.
  void SetPartitioned(bool on);
  bool partitioned() const { return partitioned_.load(); }

  Role role() const { return role_.load(); }
  uint64_t term() const { return term_.load(); }
  int node_id() const { return opts_.node_id; }
  uint16_t port() const;
  const std::string& host() const { return opts_.server.bind_address; }

  /// Highest contiguously applied record seq (replica position as a
  /// follower; log end as a leader).
  uint64_t applied_seq() const;
  double MsSinceLeaderContact() const { return replica_.MsSinceLeaderContact(); }

  MapService& service() { return service_; }
  const MapService& service() const { return service_; }
  ReplicationLog& log() { return log_; }
  WalShipper* shipper() { return shipper_.get(); }
  const EventLog& events() const { return events_; }

  /// Replication status document served as the kStats "replication"
  /// value: role, term, log positions, leader-contact age, and (as
  /// leader) per-follower acked seq + lag in records and milliseconds.
  /// Written as one JSON value into `out`. Safe from any thread; never
  /// blocks on the write path's ack wait.
  void ReplicationStatusJson(JsonWriter& out) const;

 private:
  /// Server options for Start/Restart: the configured template plus the
  /// replication handler, fault fallback, and the kStats introspection
  /// hooks (label, replication status, node events).
  TileServer::Options ServerOptions();
  /// Captures a catch-up snapshot of the current state (consistent with
  /// the last publish marker); empty string when not leader.
  std::string BuildCatchUpPayload();
  /// Wakes the shipper for `seq` and blocks for the ack quorum.
  Status AwaitAcks(const std::shared_ptr<WalShipper>& shipper, uint64_t seq);

  Options opts_;
  MapService service_;
  ReplicationLog log_;
  std::atomic<uint64_t> term_{0};
  std::atomic<Role> role_{Role::kFollower};
  std::atomic<bool> alive_{false};
  std::atomic<bool> partitioned_{false};
  /// Set when this node's history may have diverged from the cluster's
  /// (it was deposed or restarted); the replica consumes it and demands a
  /// catch-up snapshot before applying anything else.
  std::atomic<bool> resync_needed_{false};
  EventLog events_;
  Replica replica_;
  std::unique_ptr<TileServer> server_;

  /// Serializes the write path and role changes so log appends stay
  /// consistent with service state (never held while waiting for acks,
  /// and replica-internal locks are never taken under it).
  mutable std::mutex write_mu_;
  std::shared_ptr<WalShipper> shipper_;  // under write_mu_; live as leader
  uint64_t last_publish_seq_ = 0;        // under write_mu_
  uint64_t leader_term_ = 0;             // term of our last election

  /// "replication.ack_wait" — time the write path spent blocked in the
  /// semi-synchronous ack gate (exported as a _seconds histogram).
  LatencyHistogram* ack_wait_ = nullptr;
};

}  // namespace hdmap

#endif  // HDMAP_REPLICATION_NODE_H_
