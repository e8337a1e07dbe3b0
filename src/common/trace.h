#ifndef HDMAP_COMMON_TRACE_H_
#define HDMAP_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace hdmap {

/// One finished span, as stored in the TraceRecorder's ring buffer.
/// `name` must be a string literal (or otherwise outlive the recorder):
/// the hot path stores the pointer, never a copy.
struct TraceEvent {
  const char* name = "";
  uint64_t trace_id = 0;        ///< Request the span belongs to.
  uint64_t span_id = 0;         ///< Unique per span within the process.
  uint64_t parent_span_id = 0;  ///< 0 for a request's root span.
  uint32_t thread_id = 0;       ///< Small process-local thread ordinal.
  uint64_t start_ns = 0;        ///< steady_clock, nanoseconds.
  uint64_t duration_ns = 0;
  /// StatusCode observed by the span (kOk when nothing went wrong). A
  /// degraded-but-served request annotates kDataLoss here even though the
  /// caller saw OK — the span status is observability metadata, not the
  /// API result.
  StatusCode status = StatusCode::kOk;
  bool slow = false;     ///< Exceeded the recorder's slow threshold.
  bool sampled = false;  ///< Trace was head-sampled (vs forced by error/slow).
};

/// Ambient per-thread trace context: which trace/span encloses the code
/// currently executing on this thread. trace_id == 0 means no active
/// trace (child spans constructed then are inert).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool sampled = false;

  bool active() const { return trace_id != 0; }
};

/// The calling thread's current context (zeroed when no span is open).
TraceContext CurrentTraceContext();

/// Installs `ctx` as the calling thread's context for the scope's
/// lifetime, restoring the previous one on destruction. This is how a
/// trace crosses threads: ThreadPool::Submit and ParallelFor capture the
/// submitting thread's context and wrap each task in one of these, so
/// spans opened inside parallel work nest under the submitting span.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// Low-overhead span tracer: a bounded, lock-striped ring buffer of
/// TraceEvents with head sampling plus always-record-on-error/slow, and
/// export to Chrome trace_event JSON (loadable in Perfetto / chrome://
/// tracing).
///
/// Sampling model: each *root* span (one per request) draws a 1-in-N
/// head-sampling decision that its children inherit through the ambient
/// TraceContext. Spans of sampled traces always record; spans of
/// unsampled traces still record individually when they end with a
/// non-OK status or exceed the slow threshold — so a corrupt-tile decode
/// or a slow request leaves evidence even at low sampling rates.
///
/// Overhead: with the recorder disabled, root spans are inert after one
/// relaxed atomic load and child spans after one thread-local read — no
/// clock reads, no allocation. With the recorder enabled but a trace
/// unsampled, a span costs two steady_clock reads and two atomic
/// increments; the ring is only touched on error/slow.
///
/// Thread safety: Record/span construction are safe from any thread
/// (stripes are keyed by thread ordinal, so contention stays local).
/// Configure must not race active spans — call it during setup, between
/// requests, or in tests.
class TraceRecorder {
 public:
  struct Options {
    /// Master switch; false (the default) makes every span inert.
    bool enabled = false;
    /// Total ring capacity in events, split evenly across the stripes.
    /// When a stripe fills, its oldest events are overwritten (and
    /// counted in dropped()).
    size_t capacity = 8192;
    /// Head-sample one request in N (1 = every request, 0 = none: only
    /// error/slow spans record).
    uint32_t sample_every_n = 1;
    /// Spans longer than this record even in unsampled traces and are
    /// flagged slow; <= 0 disables the slow path.
    double slow_threshold_s = 0.25;
  };

  TraceRecorder();  // Default Options (disabled).
  explicit TraceRecorder(const Options& options);

  /// The process-wide recorder every instrumentation site uses by
  /// default. Disabled until Configure({.enabled = true, ...}).
  static TraceRecorder& Global();

  /// Replaces the configuration and clears the ring. Must not race
  /// in-flight spans.
  void Configure(const Options& options);

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  Options options() const;

  /// Appends one finished span to the ring (overwriting the oldest event
  /// in the stripe when full). Safe from any thread.
  void Record(const TraceEvent& event);

  /// Every event currently in the ring, sorted by start time.
  std::vector<TraceEvent> Snapshot() const;

  /// Drops all buffered events (keeps the configuration and counters).
  void Clear();

  /// Events ever passed to Record() / overwritten before Snapshot could
  /// see them.
  uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Chrome trace_event JSON ("X" complete events, microsecond
  /// timestamps) of Snapshot(); open the file in Perfetto
  /// (https://ui.perfetto.dev) or chrome://tracing. Span args carry
  /// trace/span/parent ids and the span status, so a degraded request's
  /// corrupt-tile decode is one click away from its GetRegion root.
  std::string ExportChromeTraceJson() const;

  /// Multi-process variant: events carry `process_id` as their Perfetto
  /// pid (with a process_name metadata record naming the track
  /// `process_label`), and timestamps are shifted by the recorder's
  /// wall-clock anchor so exports from different processes share one
  /// timeline. Merge per-node exports with MergeChromeTraceJson
  /// (src/obs) and spans line up across the process boundary.
  std::string ExportChromeTraceJson(uint32_t process_id,
                                    const std::string& process_label) const;

  /// Microseconds to add to a steady_clock microsecond reading to place
  /// it on the unix epoch: captured once at construction, so every span
  /// in this process shares the same offset and cross-process exports
  /// align to within clock-sync error.
  int64_t wall_anchor_us() const { return wall_anchor_us_; }

  // --- Span support (used by TraceSpan; rarely called directly) ---

  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Draws the 1-in-N head-sampling decision for a new trace.
  bool SampleNextTrace();
  double slow_threshold_s() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed) * 1e-9;
  }
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kStripes = 8;

  struct Stripe {
    mutable std::mutex mu;
    std::vector<TraceEvent> ring;  // Fixed size once configured.
    size_t next = 0;               // Next write position.
    size_t size = 0;               // Events currently held.
  };

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> sample_every_n_{1};
  std::atomic<uint64_t> slow_threshold_ns_{0};
  size_t stripe_capacity_ = 0;  // Set by Configure; fixed while tracing.

  int64_t wall_anchor_us_ = 0;  // Set once at construction.

  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};

  Stripe stripes_[kStripes];
};

/// RAII span. Construction opens the span and makes it the calling
/// thread's current context; destruction (or End()) closes it, restores
/// the previous context, and hands the event to the recorder when the
/// trace is sampled or the span ended non-OK/slow.
///
/// Two forms:
///   TraceSpan span("map_service.get_region", TraceSpan::kRoot);
///     starts a new trace (fresh trace id + sampling decision) — one per
///     request, at the serving endpoint.
///   TraceSpan span("tile_store.decode");
///     child of the thread's current context; inert when no trace is
///     active, so library code can instrument unconditionally.
class TraceSpan {
 public:
  enum RootTag { kRoot };

  /// Child span of the current ambient context (inert without one).
  /// `name` must outlive the recorder (use string literals).
  explicit TraceSpan(const char* name, TraceRecorder* recorder = nullptr);

  /// Root span: starts a new trace when the recorder is enabled. If an
  /// ambient trace is already active on this thread (a layered entry
  /// point — e.g. a MapService endpoint invoked by the network edge,
  /// whose per-request span is the true root), joins it as a child
  /// instead, so one request yields one trace.
  TraceSpan(const char* name, RootTag, TraceRecorder* recorder = nullptr);

  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Annotates the span with a status. By default any non-OK code forces
  /// the span into the ring even when its trace is unsampled. Pass
  /// force=false for expected, repetitive failures (e.g. the per-request
  /// quarantine fast-fail) whose evidence is already carried by rarer
  /// spans — the status still shows when the trace is sampled, but the
  /// span doesn't flood the ring and evict the span that discovered the
  /// problem.
  void SetStatus(StatusCode code, bool force = true) {
    event_.status = code;
    force_record_ = force;
  }

  /// Closes the span early (the destructor then does nothing).
  void End();

  /// Forces this span into the ring regardless of sampling — the
  /// slow-RPC watchdog uses it so a budget-violating request leaves its
  /// full cross-node trace id in the export even at sample_every_n = 0.
  void ForceRecord() { record_always_ = true; }

  /// 0 when inert (no recorder / no active trace).
  uint64_t trace_id() const { return event_.trace_id; }
  uint64_t span_id() const { return event_.span_id; }
  bool active() const { return active_; }
  bool sampled() const { return event_.sampled; }

 private:
  void Open(TraceRecorder* recorder, const TraceContext& ctx);

  TraceRecorder* recorder_ = nullptr;
  TraceEvent event_;
  TraceContext saved_;
  bool active_ = false;
  bool ended_ = false;
  bool force_record_ = true;
  bool record_always_ = false;
};

/// The calling thread's current trace id (0 when no span is open): the
/// handle event logs and error reports attach so a metric increment or
/// logged degradation can be joined back to its flame graph.
inline uint64_t CurrentTraceId() { return CurrentTraceContext().trace_id; }

}  // namespace hdmap

#endif  // HDMAP_COMMON_TRACE_H_
