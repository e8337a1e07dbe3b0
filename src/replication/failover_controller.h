#ifndef HDMAP_REPLICATION_FAILOVER_CONTROLLER_H_
#define HDMAP_REPLICATION_FAILOVER_CONTROLLER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/metrics.h"
#include "replication/node.h"

namespace hdmap {

/// Watches a cluster of ReplicationNodes and performs failover: when the
/// leader dies (process gone) or goes silent (every alive follower's
/// last leader contact is older than `leader_timeout_ms` — the
/// heartbeat-timeout detector), it promotes the most-caught-up reachable
/// follower (max contiguously applied record seq, ties to the lowest
/// node id) under a strictly increasing term. The term is the fence:
/// followers adopt it from the new leader's first batch, after which the
/// deposed leader's late records are rejected as stale.
///
/// Promoting the most-caught-up follower is what closes the loop with
/// semi-synchronous acks: an acked write was applied by at least
/// `min_ack_replicas` followers, so (within the designed tolerance of
/// one failure at a time) the maximum-applied candidate holds every
/// acked write.
///
/// Every decision is recorded: kFailoverDetected when the timeout
/// trips (the degraded window opens), kFailoverComplete when the new
/// leader is installed (detail carries the promoted node, term, and the
/// measured degraded-window duration, also exported as the
/// "repl.failover.last_degraded_window_ms" gauge). The (term -> leader)
/// history is queryable via LeadersByTerm for split-brain auditing, and
/// the monitor continuously cross-checks live roles, counting any
/// second leader observed for one term in `split_brain_observed`.
///
/// The controller also heals membership in steady state: restarted or
/// un-partitioned nodes are re-added to the current leader's follower
/// set, which re-ships (or snapshots) them back into sync.
class FailoverController {
 public:
  struct Options {
    uint32_t poll_interval_ms = 10;
    /// Leader silence (per the alive followers' contact clocks) that
    /// triggers failover.
    uint32_t leader_timeout_ms = 150;
    /// Registry for the "repl.failover.*" instruments; may be null.
    MetricsRegistry* metrics = nullptr;
  };

  explicit FailoverController(Options options);
  ~FailoverController();

  FailoverController(const FailoverController&) = delete;
  FailoverController& operator=(const FailoverController&) = delete;

  /// Registers a cluster member. All nodes must be added (and Started)
  /// before Start().
  void AddNode(ReplicationNode* node);

  /// Bootstraps the first leader (lowest-id alive node, term 1) and
  /// starts the monitor thread.
  Status Start();
  void Stop();

  ReplicationNode* leader() const;
  uint64_t term() const { return term_.load(); }
  size_t failover_count() const { return failover_count_.load(); }
  double last_degraded_window_ms() const;
  /// Times a live second leader was observed for an already-claimed
  /// term. Stays 0 when fencing works.
  size_t split_brain_observed() const { return split_brain_observed_.load(); }

  /// Complete promotion history: term -> node id. At most one entry can
  /// ever exist per term (the no-split-brain audit surface).
  std::map<uint64_t, int> LeadersByTerm() const;

  const EventLog& event_log() const { return events_; }
  std::vector<EventLog::Event> RecentEvents(size_t max_n = 64) const {
    return events_.Recent(max_n);
  }

 private:
  void MonitorLoop();
  /// One monitor evaluation: detect, fail over, heal membership.
  void Evaluate();
  void Promote(ReplicationNode* dead_leader, double silence_ms);
  std::vector<WalShipper::FollowerInfo> ReachablePeersOf(
      const ReplicationNode* leader) const;

  Options opts_;
  std::vector<ReplicationNode*> nodes_;
  EventLog events_;

  std::atomic<uint64_t> term_{0};
  std::atomic<size_t> failover_count_{0};
  std::atomic<size_t> split_brain_observed_{0};
  int leader_id_ = -1;  // monitor/Start only once running

  mutable std::mutex mu_;  // guards leaders_by_term_ and leader_id_ reads
  std::map<uint64_t, int> leaders_by_term_;

  std::thread monitor_;
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  Counter* failovers_ = nullptr;
  Gauge* degraded_window_ms_ = nullptr;
  double last_degraded_window_ms_ = 0.0;  // under mu_
};

}  // namespace hdmap

#endif  // HDMAP_REPLICATION_FAILOVER_CONTROLLER_H_
