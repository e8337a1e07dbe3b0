#ifndef HDMAP_REPLICATION_WAL_SHIPPER_H_
#define HDMAP_REPLICATION_WAL_SHIPPER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "net/protocol.h"
#include "replication/replication_log.h"
#include "replication/wire.h"

namespace hdmap {

/// Leader-side shipping engine: one session thread per follower, each
/// tailing the leader's ReplicationLog over the framed-TCP protocol
/// (kReplicate batches; kCatchUp snapshots when a follower's position
/// predates the retained log). Sessions are independent — a dead or slow
/// follower delays only its own stream, never the others and never the
/// leader's write path.
///
/// The follower's ack drives everything: its next_seq positions the
/// stream (rewind on loss, fast-forward on duplicates), its
/// kReplAckNeedCatchUp flag demands a snapshot, and a kReplAckStaleTerm
/// flag (or any higher term in the ack) means this leader was deposed —
/// reported through `on_stale_term` so the node steps down; shipping
/// stops via RequestStop.
///
/// `WaitForAcks` is the semi-synchronous commit gate: a leader write
/// blocks until the record is applied on >= N followers, which is what
/// makes "acked" mean "survives leader death" (the failover controller
/// promotes the most-caught-up follower, which then necessarily holds
/// every acked record).
class WalShipper {
 public:
  /// Data-plane fault site: corrupts an outgoing batch payload (torn
  /// ship). The frame CRC or the batch decoder catches it on the
  /// follower, which nacks; the records are resent intact later.
  static constexpr const char* kShipFaultSite = "repl.ship";
  /// Control-plane fault site: drops one heartbeat send (silence —
  /// exactly what a network blip looks like to the failover detector).
  static constexpr const char* kHeartbeatFaultSite = "repl.heartbeat";

  struct FollowerInfo {
    int node_id = 0;
    std::string host;
    uint16_t port = 0;
  };

  struct Options {
    ReplicationLog* log = nullptr;
    /// The node's current term (shared fencing state; stamped into every
    /// batch and snapshot).
    std::atomic<uint64_t>* term = nullptr;
    /// Builds a kCatchUp payload from the node's current state; empty
    /// string when unavailable right now (retried later). Called from
    /// session threads.
    std::function<std::string()> catchup_source;
    /// A follower acked with a term above ours: this leader is deposed.
    /// Called from session threads; must not join them (StepDown may
    /// only RequestStop).
    std::function<void(uint64_t new_term)> on_stale_term;
    /// Leader-side partition simulation: while true, nothing is sent.
    std::function<bool()> partitioned;
    MetricsRegistry* metrics = nullptr;
    FaultInjector* faults = nullptr;
    /// Recorder for the per-exchange "repl.ship" root spans (the context
    /// each batch/heartbeat carries over the wire, so a follower's
    /// net.request spans parent under the leader's shipping trace); null
    /// uses TraceRecorder::Global().
    TraceRecorder* trace = nullptr;
    /// An idle session sends an empty batch this often (liveness signal
    /// for the failover detector).
    uint32_t heartbeat_interval_ms = 20;
    /// Per-request deadline (connect is bounded by the OS; the response
    /// wait by this). A dead follower costs one of these per probe.
    uint32_t io_timeout_ms = 250;
    size_t max_batch_records = 64;
    size_t max_batch_bytes = 4u << 20;
  };

  explicit WalShipper(Options options);
  /// RequestStop + Join.
  ~WalShipper();

  WalShipper(const WalShipper&) = delete;
  WalShipper& operator=(const WalShipper&) = delete;

  /// Starts a session for the follower (idempotent per node_id).
  void AddFollower(const FollowerInfo& follower);
  bool HasFollower(int node_id) const;

  /// Asks every session to exit at its next wakeup. Safe from any thread,
  /// including a session's own (the stale-term path).
  void RequestStop();
  /// Joins all session threads. Must not be called from a session thread.
  void Join();

  /// Wakes idle sessions (new log records to ship).
  void NotifyAppend();

  /// Blocks until >= min_count followers acked `seq`, or the timeout.
  bool WaitForAcks(uint64_t seq, size_t min_count, uint32_t timeout_ms) const;

  /// One follower's shipping position, for introspection (the kStats
  /// replication document and ClusterInspector lag views).
  struct FollowerProgress {
    int node_id = 0;
    uint64_t acked_seq = 0;
    uint64_t lag_records = 0;
    double lag_ms = 0.0;
  };
  /// Every follower's progress against the current log end. Consistent
  /// per entry (each acked_seq is one atomic read), not across entries.
  std::vector<FollowerProgress> Progress() const;

 private:
  struct Session {
    FollowerInfo info;
    std::thread thread;
    std::atomic<uint64_t> acked_seq{0};
    /// "replication.lag_records{FOLLOWERn}" / "replication.lag_ms{...}"
    /// gauges, resolved in AddFollower; null without a registry.
    Gauge* lag_records_gauge = nullptr;
    Gauge* lag_ms_gauge = nullptr;
  };

  void RunSession(Session* session);
  /// One request/response exchange; returns false on transport failure.
  bool Exchange(class NetClient& client, Session* session,
                NetRequestType type, std::string payload, ReplAck* ack);

  Options opts_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;  // guards sessions_ and backs the two CVs
  mutable std::condition_variable wake_cv_;
  mutable std::condition_variable ack_cv_;
  std::vector<std::unique_ptr<Session>> sessions_;

  Counter* batches_shipped_ = nullptr;
  Counter* records_shipped_ = nullptr;
  Counter* heartbeats_ = nullptr;
  Counter* ship_failures_ = nullptr;
  Counter* catchups_served_ = nullptr;
  Counter* stale_term_acks_ = nullptr;
};

}  // namespace hdmap

#endif  // HDMAP_REPLICATION_WAL_SHIPPER_H_
