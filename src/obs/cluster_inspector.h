#ifndef HDMAP_OBS_CLUSTER_INSPECTOR_H_
#define HDMAP_OBS_CLUSTER_INSPECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/metrics.h"
#include "common/result.h"

namespace hdmap {

/// Cluster-wide health aggregation: polls every configured node's kStats
/// document over the framed-TCP protocol and folds the per-node answers
/// into one coherent view — health and version per node, replication lag
/// per follower in records and milliseconds, a leader/term map with
/// split-brain detection, and a failover timeline joining each node's
/// FAILOVER_* events into one cross-node sequence.
///
/// The inspector is a pure client: it holds no lock any node shares, so a
/// dead, partitioned, or mid-failover node costs one bounded poll timeout
/// and is reported unreachable rather than stalling the view. View() hands
/// out a consistent snapshot (copied under the inspector's own mutex) —
/// callers never observe a torn poll.
class ClusterInspector {
 public:
  struct NodeTarget {
    int node_id = 0;
    std::string host;
    uint16_t port = 0;
  };

  struct Options {
    std::vector<NodeTarget> nodes;
    /// Background poll cadence (Start); PollOnce ignores it.
    uint32_t poll_interval_ms = 50;
    /// Per-node budget for connect + kStats exchange. A dead node costs
    /// at most this per poll.
    uint32_t io_timeout_ms = 500;
    uint32_t max_events_per_node = 64;
    /// When set, exports "cluster.*" gauges/counters (reachable node
    /// count, max lag, split-brain flag, poll counter).
    MetricsRegistry* metrics = nullptr;
  };

  /// One follower's lag as reported by its leader.
  struct FollowerLag {
    int node_id = 0;
    uint64_t acked_seq = 0;
    uint64_t lag_records = 0;
    double lag_ms = 0.0;
  };

  /// One node's slice of the latest poll. When `reachable` is false only
  /// node_id is meaningful (the rest keeps its zero state).
  struct NodeStats {
    int node_id = 0;
    bool reachable = false;
    std::string label;
    std::string health;  // "SERVING" / "DEGRADED"
    uint64_t version = 0;
    int64_t unix_ms = 0;
    std::string role;  // "LEADER" / "FOLLOWER"
    uint64_t term = 0;
    uint64_t applied_seq = 0;
    uint64_t log_end_seq = 0;
    double ms_since_leader_contact = 0.0;
    std::vector<FollowerLag> followers;
    std::vector<EventLog::Event> events;  // newest first, per the payload
  };

  /// A node's event placed on the cluster-wide timeline.
  struct TimelineEvent {
    int node_id = 0;
    EventLog::Event event;
  };

  struct ClusterView {
    /// Completed poll rounds folded into this view; 0 = never polled.
    uint64_t poll_seq = 0;
    std::vector<NodeStats> nodes;
    size_t reachable_nodes = 0;
    /// Every node ever seen claiming leadership of a term, accumulated
    /// across polls (a deposed leader's reign stays on record). Two nodes
    /// under one term is a split brain.
    std::map<uint64_t, std::vector<int>> leaders_by_term;
    std::vector<uint64_t> split_brain_terms;
    /// FAILOVER_DETECTED / FAILOVER_COMPLETE / REPLICA_CATCH_UP events
    /// from every node, deduplicated and ordered by wall clock — the
    /// cluster's failover history as one sequence.
    std::vector<TimelineEvent> failover_timeline;
    /// Worst follower lag across all leaders in the latest poll.
    uint64_t max_lag_records = 0;
    double max_lag_ms = 0.0;
  };

  explicit ClusterInspector(Options options);
  /// Stop()s the background poller.
  ~ClusterInspector();

  ClusterInspector(const ClusterInspector&) = delete;
  ClusterInspector& operator=(const ClusterInspector&) = delete;

  /// Starts the background poll loop. Idempotent.
  void Start();
  /// Stops and joins the poll loop. Idempotent; View() stays serviceable.
  void Stop();

  /// One synchronous poll round (every node, sequentially), folding the
  /// results into the view. Usable with or without Start().
  void PollOnce();

  /// Consistent copy of the latest folded view.
  ClusterView View() const;

  /// Parses one node's kStats JSON document into NodeStats (with
  /// reachable=true). Exposed for tests and offline tooling.
  static Result<NodeStats> ParseNodeStats(int node_id, std::string_view json);

  /// Merges per-process Chrome-trace exports (ExportChromeTraceJson with
  /// distinct process ids) into one document Perfetto loads as a single
  /// multi-process timeline: each export is parsed and its traceEvents
  /// re-emitted. Exports that do not parse as a trace document are
  /// skipped.
  static std::string MergeChromeTraceJson(
      const std::vector<std::string>& exports);

 private:
  /// Polls one node; returns unreachable NodeStats on any failure.
  NodeStats PollNode(const NodeTarget& target) const;
  /// Folds a completed round into view_ under mu_.
  void Fold(std::vector<NodeStats> round);

  Options opts_;
  std::atomic<bool> running_{false};
  std::thread poller_;

  mutable std::mutex mu_;  // guards view_
  ClusterView view_;

  Counter* polls_ = nullptr;
  Gauge* reachable_gauge_ = nullptr;
  Gauge* max_lag_records_gauge_ = nullptr;
  Gauge* max_lag_ms_gauge_ = nullptr;
  Gauge* split_brain_gauge_ = nullptr;
};

}  // namespace hdmap

#endif  // HDMAP_OBS_CLUSTER_INSPECTOR_H_
