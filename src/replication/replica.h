#ifndef HDMAP_REPLICATION_REPLICA_H_
#define HDMAP_REPLICATION_REPLICA_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "net/tile_server.h"
#include "replication/replication_log.h"
#include "replication/wire.h"
#include "service/map_service.h"

namespace hdmap {

/// Follower-side replication endpoint: the ReplicationHandler a node
/// plugs into its TileServer. Applies shipped records through the normal
/// MapService path — kPatch via StagePatch, kPublish via Publish — so a
/// follower's snapshots are byte-identical to the leader's (publish is
/// deterministic), and mirrors every applied record into the node's own
/// ReplicationLog so a promoted follower can ship from where it stands.
///
/// Fencing: the node's term lives in an atomic this handler shares with
/// the shipper. A batch or snapshot stamped with an older term is
/// rejected with kReplAckStaleTerm (nothing applied) — a deposed
/// leader's late records cannot land. A higher term is adopted
/// immediately and reported through `on_higher_term` so a stale leader
/// steps itself down.
///
/// Applies are strictly in order: records below the expected position
/// are duplicate resends (skipped), a gap above it stops the batch, and
/// the ack always reports the true next position so the leader rewinds
/// or fast-forwards its view. A publish marker whose version does not
/// line up with local version + 1 sets kReplAckNeedCatchUp *without*
/// applying — diverged state (e.g. a deposed leader's unreplicated
/// publishes) is repaired by snapshot, never papered over.
class Replica : public ReplicationHandler {
 public:
  /// Control-plane fault site: a triggered fault aborts the current
  /// batch mid-apply (records before the fault stay applied — exactly a
  /// follower crash between records; the ack position makes the leader
  /// resend the rest).
  static constexpr const char* kApplyFaultSite = "repl.apply";

  struct Options {
    MapService* service = nullptr;
    /// The node's mirror log (shipped from when this node is promoted).
    ReplicationLog* log = nullptr;
    /// The node's term (shared fencing state; never decreases).
    std::atomic<uint64_t>* term = nullptr;
    /// Called after this replica observes a term above the node's own —
    /// the node should step down if it believes itself leader. Invoked
    /// with the replica's internal lock held: must not call back into
    /// this replica. May be null.
    std::function<void(uint64_t new_term)> on_higher_term;
    /// Called after a publish marker applies, with its log seq (the
    /// node tracks its last-publish position for catch-up serving).
    std::function<void(uint64_t seq)> on_publish_applied;
    /// Called after a catch-up snapshot installs, with its resume seq.
    std::function<void(uint64_t resume_seq)> on_catchup_installed;
    /// Polled (and consumed) before applying a batch: true means the
    /// node's history may have diverged (deposed leader, restart) and
    /// this replica must demand a catch-up snapshot first. May be null.
    std::function<bool()> consume_resync;
    MetricsRegistry* metrics = nullptr;
    FaultInjector* faults = nullptr;
  };

  explicit Replica(Options options);

  Reply HandleReplication(const NetRequest& request) override;

  /// Next record seq this replica will accept.
  uint64_t next_seq() const;
  /// Highest contiguously applied seq (next_seq() - 1).
  uint64_t applied_seq() const;

  /// Milliseconds since the last leader contact that passed fencing
  /// (batch, heartbeat, or snapshot). Very large before first contact.
  double MsSinceLeaderContact() const;
  /// Restarts the contact clock (node restart: silence before the crash
  /// must not count against the current leader).
  void ResetContact();

  /// Failover fencing: forwards the shared term to `term` under the
  /// replica lock, so once this returns no batch from an older term can
  /// be applied or acked. The controller fences every reachable node
  /// BEFORE choosing a promotion candidate — otherwise a falsely-dead
  /// leader could keep acking writes during the promote window, and
  /// those acked records would be truncated by the new leader's
  /// history. Invokes on_higher_term exactly like an observed ship
  /// batch would.
  void FenceTerm(uint64_t term);

  /// Simulated network partition: while set, every request is rejected
  /// with kError/kInternal before any state is touched — to the leader
  /// this node is unreachable.
  void set_partitioned(bool on) { partitioned_.store(on); }
  bool partitioned() const { return partitioned_.load(); }

 private:
  Reply HandleBatch(const NetRequest& request);
  Reply HandleCatchUp(const NetRequest& request);
  /// Builds the ack for the current state; callers hold mu_.
  ReplAck MakeAckLocked(uint8_t flags) const;
  Reply AckReply(const ReplAck& ack) const;

  Options opts_;
  mutable std::mutex mu_;
  uint64_t next_seq_ = 1;
  bool need_catchup_ = false;
  std::chrono::steady_clock::time_point last_contact_;
  bool contacted_ = false;
  std::atomic<bool> partitioned_{false};

  Counter* records_applied_ = nullptr;
  Counter* apply_failures_ = nullptr;
  Counter* stale_term_rejections_ = nullptr;
  Counter* catchups_installed_ = nullptr;
  Counter* need_catchup_acks_ = nullptr;
};

}  // namespace hdmap

#endif  // HDMAP_REPLICATION_REPLICA_H_
