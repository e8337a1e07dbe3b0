#ifndef HDMAP_COMMON_EVENT_LOG_H_
#define HDMAP_COMMON_EVENT_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hdmap {

class JsonWriter;

/// Bounded, thread-safe log of typed operational events: the "why"
/// channel next to the metrics registry's "how much". Every degradation
/// a serving stack can report — a quarantined tile, WAL data loss, an
/// injected fault, a checkpoint fallback, a slow request — lands here as
/// one structured record carrying the trace id of the request (or
/// recovery) that observed it, so Health() == kDegraded is always
/// explainable by reading recent events and a metric increment can be
/// joined back to its flame graph.
///
/// The log is a fixed-capacity ring: appends never block on readers for
/// long and never allocate unboundedly; once full, the oldest events are
/// dropped (total_appended() keeps counting, so droppage is visible).
class EventLog {
 public:
  enum class Type : uint8_t {
    /// A read served around one or more quarantined (corrupt) tiles.
    kQuarantinedTile = 0,
    /// WAL records were lost, skipped, or orphaned (torn tail, failed
    /// replay apply, total-checkpoint-loss orphans).
    kWalDataLoss = 1,
    /// A FaultInjector policy fired on a control-plane site.
    kInjectedFault = 2,
    /// Recovery fell back past invalid checkpoints (or bootstrapped
    /// fresh after total checkpoint loss).
    kCheckpointFallback = 3,
    /// A request exceeded the configured slow threshold.
    kSlowRequest = 4,
    /// One recovery completed; detail summarizes what was restored.
    kRecoverySummary = 5,
    /// Admission control rejected a request with a typed BUSY response
    /// (full request queue or per-connection in-flight cap).
    kBusyRejected = 6,
    /// The tile server reaped a connection idle past the configured
    /// timeout (a dead client or follower pinning an epoll slot).
    kConnectionReaped = 7,
    /// Failover: the controller observed the leader dead or silent past
    /// the heartbeat timeout; detail carries how stale the last contact
    /// was. The degraded window opens here.
    kFailoverDetected = 8,
    /// Failover: a follower was promoted to leader under a new term;
    /// detail carries the promoted node, term, and the degraded-window
    /// duration in milliseconds.
    kFailoverComplete = 9,
    /// A replica discarded its state and installed a shipped catch-up
    /// snapshot (its position had been trimmed from the leader's log, or
    /// its state had diverged).
    kReplicaCatchUp = 10,
  };

  struct Event {
    /// 1-based, strictly increasing append sequence (the total order).
    uint64_t seq = 0;
    /// Wall-clock stamp, Unix epoch milliseconds.
    int64_t unix_ms = 0;
    Type type = Type::kQuarantinedTile;
    /// Status code associated with the cause (kOk for e.g. slow requests).
    StatusCode code = StatusCode::kOk;
    /// Trace id of the request/recovery that observed the event; 0 when
    /// tracing was disabled.
    uint64_t trace_id = 0;
    /// Human-readable specifics (which tiles, how many records, ...).
    std::string detail;
  };

  explicit EventLog(size_t capacity = 256);

  /// Clamp-resizes the ring (minimum 1), dropping oldest events if the
  /// new capacity is smaller. Not for use concurrent with hot appends —
  /// construction-time configuration.
  void set_capacity(size_t capacity);
  size_t capacity() const;

  /// Appends one event, stamping seq and wall-clock time. Thread-safe.
  void Append(Type type, uint64_t trace_id, std::string detail,
              StatusCode code = StatusCode::kOk);

  /// The newest `max_n` events, newest first (descending seq).
  std::vector<Event> Recent(size_t max_n = 64) const;

  /// Events currently held (<= capacity).
  size_t size() const;
  /// Events ever appended, including ones the ring has since dropped.
  uint64_t total_appended() const;

  static std::string_view TypeToString(Type type);

  /// Inverse of TypeToString (the kStats parse-back path). Returns false
  /// (leaving *out untouched) for unknown names — a newer node may emit
  /// types this build does not know.
  static bool TypeFromString(std::string_view name, Type* out);

  /// Appends `event` to `*out` as one JSON object
  /// ({"seq":..,"unix_ms":..,"type":"..","code":"..","trace_id":"..",
  /// "detail":".."}) with the detail string escaped. This is the wire
  /// shape the kStats introspection response and the ClusterInspector's
  /// failover-timeline join both consume.
  static void AppendJson(const Event& event, std::string* out);
  /// The same object written as one value into `out`.
  static void AppendJson(const Event& event, JsonWriter& out);

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t next_seq_ = 1;
  std::deque<Event> ring_;  // Oldest at front.
};

}  // namespace hdmap

#endif  // HDMAP_COMMON_EVENT_LOG_H_
