#include "common/trace.h"

#include <algorithm>

#include "common/json.h"

namespace hdmap {

namespace {

thread_local TraceContext g_trace_context;

/// Small dense thread ordinal (stable for the thread's lifetime): keys
/// the ring stripe and labels the Perfetto track.
uint32_t ThisThreadOrdinal() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Offset (µs) from the steady clock to the unix epoch, sampled now.
/// Spans store steady timestamps (immune to NTP steps mid-span); adding
/// this anchor at export time puts them on the shared wall clock so two
/// processes' timelines align.
int64_t WallAnchorUsNow() {
  int64_t wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  int64_t steady_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  return wall_us - steady_us;
}

}  // namespace

TraceContext CurrentTraceContext() { return g_trace_context; }

TraceContextScope::TraceContextScope(const TraceContext& ctx)
    : saved_(g_trace_context) {
  g_trace_context = ctx;
}

TraceContextScope::~TraceContextScope() { g_trace_context = saved_; }

TraceRecorder::TraceRecorder() : wall_anchor_us_(WallAnchorUsNow()) {
  Configure(Options{});
}

TraceRecorder::TraceRecorder(const Options& options)
    : wall_anchor_us_(WallAnchorUsNow()) {
  Configure(options);
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Configure(const Options& options) {
  enabled_.store(options.enabled, std::memory_order_relaxed);
  sample_every_n_.store(options.sample_every_n, std::memory_order_relaxed);
  slow_threshold_ns_.store(
      options.slow_threshold_s > 0.0
          ? static_cast<uint64_t>(options.slow_threshold_s * 1e9)
          : 0,
      std::memory_order_relaxed);
  stripe_capacity_ = std::max<size_t>(1, options.capacity / kStripes);
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.ring.assign(stripe_capacity_, TraceEvent{});
    stripe.next = 0;
    stripe.size = 0;
  }
}

TraceRecorder::Options TraceRecorder::options() const {
  Options out;
  out.enabled = enabled_.load(std::memory_order_relaxed);
  out.capacity = stripe_capacity_ * kStripes;
  out.sample_every_n = sample_every_n_.load(std::memory_order_relaxed);
  out.slow_threshold_s = slow_threshold_s();
  return out;
}

bool TraceRecorder::SampleNextTrace() {
  uint32_t n = sample_every_n_.load(std::memory_order_relaxed);
  if (n == 0) return false;
  return sample_counter_.fetch_add(1, std::memory_order_relaxed) % n == 0;
}

void TraceRecorder::Record(const TraceEvent& event) {
  recorded_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = stripes_[ThisThreadOrdinal() % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.ring.empty()) return;
  if (stripe.size == stripe.ring.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++stripe.size;
  }
  stripe.ring[stripe.next] = event;
  stripe.next = (stripe.next + 1) % stripe.ring.size();
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    // Oldest-first within the stripe: the ring's next write position is
    // also its oldest entry once it has wrapped.
    size_t start = stripe.size == stripe.ring.size()
                       ? stripe.next
                       : (stripe.next + stripe.ring.size() - stripe.size) %
                             stripe.ring.size();
    for (size_t i = 0; i < stripe.size; ++i) {
      out.push_back(stripe.ring[(start + i) % stripe.ring.size()]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span_id < b.span_id;
            });
  return out;
}

void TraceRecorder::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.next = 0;
    stripe.size = 0;
  }
}

std::string TraceRecorder::ExportChromeTraceJson() const {
  return ExportChromeTraceJson(1, "hdmap");
}

std::string TraceRecorder::ExportChromeTraceJson(
    uint32_t process_id, const std::string& process_label) const {
  std::vector<TraceEvent> events = Snapshot();
  std::string out;
  out.reserve(events.size() * 220 + 192);
  JsonWriter w(&out);
  w.BeginObject().Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  // Perfetto names the process track from this metadata record, which
  // is what makes a merged multi-node export readable.
  w.BeginObject()
      .Key("name").String("process_name")
      .Key("ph").String("M")
      .Key("pid").Uint(process_id)
      .Key("args").BeginObject().Key("name").String(process_label).EndObject()
      .EndObject();
  for (const TraceEvent& e : events) {
    w.BeginObject()
        .Key("name").String(e.name)
        .Key("cat").String("hdmap")
        .Key("ph").String("X")
        .Key("ts").Double(static_cast<double>(e.start_ns) / 1e3 +
                          static_cast<double>(wall_anchor_us_))
        .Key("dur").Double(static_cast<double>(e.duration_ns) / 1e3)
        .Key("pid").Uint(process_id)
        .Key("tid").Uint(e.thread_id);
    // Ids travel as strings: 64-bit values do not survive a double.
    w.Key("args").BeginObject()
        .Key("trace_id").String(std::to_string(e.trace_id))
        .Key("span_id").String(std::to_string(e.span_id))
        .Key("parent_span_id").String(std::to_string(e.parent_span_id))
        .Key("status").String(StatusCodeToString(e.status))
        .Key("slow").Bool(e.slow)
        .Key("sampled").Bool(e.sampled)
        .EndObject();
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

TraceSpan::TraceSpan(const char* name, TraceRecorder* recorder) {
  event_.name = name;
  const TraceContext& ctx = g_trace_context;
  if (!ctx.active()) return;  // No enclosing trace: stay inert.
  Open(recorder != nullptr ? recorder : &TraceRecorder::Global(), ctx);
}

TraceSpan::TraceSpan(const char* name, RootTag, TraceRecorder* recorder) {
  event_.name = name;
  TraceRecorder* rec =
      recorder != nullptr ? recorder : &TraceRecorder::Global();
  const TraceContext& ambient = g_trace_context;
  if (ambient.active()) {
    // Already inside a trace: a layered entry point (e.g. a MapService
    // endpoint called by the network edge, whose per-request span is the
    // real root) joins the enclosing trace as a child, so one request
    // yields one trace instead of two disconnected ones.
    Open(rec, ambient);
    return;
  }
  if (!rec->enabled()) return;
  TraceContext ctx;
  ctx.trace_id = rec->NextTraceId();
  ctx.parent_span_id = 0;
  ctx.sampled = rec->SampleNextTrace();
  Open(rec, ctx);
}

void TraceSpan::Open(TraceRecorder* recorder, const TraceContext& ctx) {
  recorder_ = recorder;
  event_.trace_id = ctx.trace_id;
  event_.parent_span_id = ctx.parent_span_id;
  event_.span_id = recorder->NextSpanId();
  event_.sampled = ctx.sampled;
  event_.thread_id = ThisThreadOrdinal();
  event_.start_ns = NowNs();
  saved_ = g_trace_context;
  g_trace_context =
      TraceContext{event_.trace_id, event_.span_id, ctx.sampled};
  active_ = true;
}

void TraceSpan::End() {
  if (ended_) return;
  ended_ = true;
  if (!active_) return;
  g_trace_context = saved_;
  event_.duration_ns = NowNs() - event_.start_ns;
  uint64_t slow_ns = recorder_->slow_threshold_ns();
  event_.slow = slow_ns != 0 && event_.duration_ns > slow_ns;
  if (record_always_ || event_.sampled || event_.slow ||
      (event_.status != StatusCode::kOk && force_record_)) {
    recorder_->Record(event_);
  }
}

}  // namespace hdmap
