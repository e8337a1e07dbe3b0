#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"

namespace hdmap {
namespace {

TraceRecorder::Options EnabledOptions(size_t capacity = 8192,
                                      uint32_t sample_every_n = 1,
                                      double slow_threshold_s = 0.25) {
  TraceRecorder::Options opts;
  opts.enabled = true;
  opts.capacity = capacity;
  opts.sample_every_n = sample_every_n;
  opts.slow_threshold_s = slow_threshold_s;
  return opts;
}

TEST(TraceSpanTest, DisabledRecorderMakesSpansInert) {
  TraceRecorder recorder;  // Default options: disabled.
  {
    TraceSpan root("request", TraceSpan::kRoot, &recorder);
    EXPECT_FALSE(root.active());
    EXPECT_EQ(root.trace_id(), 0u);
    TraceSpan child("step", &recorder);
    EXPECT_FALSE(child.active());
  }
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(TraceSpanTest, ChildWithoutAmbientContextIsInert) {
  TraceRecorder recorder(EnabledOptions());
  TraceSpan orphan("library.helper", &recorder);
  EXPECT_FALSE(orphan.active());
  EXPECT_EQ(orphan.trace_id(), 0u);
}

TEST(TraceSpanTest, RootAndChildShareTraceAndNest) {
  TraceRecorder recorder(EnabledOptions());
  uint64_t root_trace = 0;
  uint64_t root_span = 0;
  {
    TraceSpan root("map_service.get_region", TraceSpan::kRoot, &recorder);
    ASSERT_TRUE(root.active());
    root_trace = root.trace_id();
    root_span = root.span_id();
    EXPECT_EQ(CurrentTraceId(), root_trace);
    {
      TraceSpan child("tile_store.decode", &recorder);
      ASSERT_TRUE(child.active());
      EXPECT_EQ(child.trace_id(), root_trace);
      EXPECT_NE(child.span_id(), root_span);
    }
    // Child restored the context to the root span.
    EXPECT_EQ(CurrentTraceId(), root_trace);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);

  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot sorts by start time: root first, child second.
  EXPECT_STREQ(events[0].name, "map_service.get_region");
  EXPECT_STREQ(events[1].name, "tile_store.decode");
  EXPECT_EQ(events[0].trace_id, events[1].trace_id);
  EXPECT_EQ(events[0].parent_span_id, 0u);
  EXPECT_EQ(events[1].parent_span_id, events[0].span_id);
  EXPECT_LE(events[1].duration_ns, events[0].duration_ns);
}

TEST(TraceSpanTest, SamplingOneInNKeepsErrorAndSlowSpans) {
  // sample_every_n = 0: head sampling off entirely.
  TraceRecorder recorder(EnabledOptions(8192, 0));
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("request", TraceSpan::kRoot, &recorder);
    EXPECT_TRUE(span.active());   // Traced (ids flow to children)...
    EXPECT_FALSE(span.sampled()); // ...but not head-sampled.
  }
  EXPECT_TRUE(recorder.Snapshot().empty());

  // An error span records even though its trace is unsampled.
  {
    TraceSpan span("request", TraceSpan::kRoot, &recorder);
    span.SetStatus(StatusCode::kDataLoss);
  }
  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].status, StatusCode::kDataLoss);
  EXPECT_FALSE(events[0].sampled);
}

TEST(TraceSpanTest, ErrorChildRecordsAloneInUnsampledTrace) {
  TraceRecorder recorder(EnabledOptions(8192, 0));
  {
    TraceSpan root("request", TraceSpan::kRoot, &recorder);
    TraceSpan child("tile_store.decode", &recorder);
    child.SetStatus(StatusCode::kDataLoss);
  }
  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "tile_store.decode");
}

TEST(TraceSpanTest, NonForcedErrorRecordsOnlyWhenSampled) {
  TraceRecorder recorder(EnabledOptions(8192, 0));
  {
    // Unsampled trace + force=false: status annotated but not recorded.
    TraceSpan span("tile_store.load", TraceSpan::kRoot, &recorder);
    span.SetStatus(StatusCode::kDataLoss, /*force=*/false);
  }
  EXPECT_TRUE(recorder.Snapshot().empty());

  recorder.Configure(EnabledOptions(8192, 1));
  {
    // Sampled trace: the non-forced error span records like any other.
    TraceSpan span("tile_store.load", TraceSpan::kRoot, &recorder);
    span.SetStatus(StatusCode::kDataLoss, /*force=*/false);
  }
  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].status, StatusCode::kDataLoss);
}

TEST(TraceSpanTest, OneInTwoSamplingRecordsHalfTheTraces) {
  TraceRecorder recorder(EnabledOptions(8192, 2));
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("request", TraceSpan::kRoot, &recorder);
  }
  EXPECT_EQ(recorder.Snapshot().size(), 5u);
}

TEST(TraceSpanTest, SlowSpanRecordsAndIsFlagged) {
  TraceRecorder recorder(EnabledOptions(8192, 0, 1e-9));
  {
    TraceSpan span("request", TraceSpan::kRoot, &recorder);
    // Any real work exceeds a 1 ns threshold.
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].slow);
}

TEST(TraceSpanTest, EndIsIdempotent) {
  TraceRecorder recorder(EnabledOptions());
  TraceSpan span("request", TraceSpan::kRoot, &recorder);
  span.End();
  span.End();  // Destructor will be a third call.
  EXPECT_EQ(recorder.recorded(), 1u);
}

TEST(TraceContextTest, ScopePropagatesAcrossThreads) {
  TraceRecorder recorder(EnabledOptions());
  TraceSpan root("request", TraceSpan::kRoot, &recorder);
  TraceContext ctx = CurrentTraceContext();
  uint64_t seen_trace = 0;
  std::thread worker([&] {
    EXPECT_EQ(CurrentTraceId(), 0u);  // Fresh thread: no ambient trace.
    TraceContextScope scope(ctx);
    TraceSpan child("worker.step", &recorder);
    seen_trace = child.trace_id();
  });
  worker.join();
  EXPECT_EQ(seen_trace, root.trace_id());
}

TEST(TraceContextTest, ParallelForCarriesContextIntoWorkers) {
  TraceRecorder recorder(EnabledOptions());
  TraceSpan root("tile_store.load_region", TraceSpan::kRoot, &recorder);
  constexpr size_t kN = 64;
  std::vector<uint64_t> trace_ids(kN, 0);
  ParallelFor(kN, [&](size_t i) {
    TraceSpan span("tile_store.decode", &recorder);
    trace_ids[i] = span.trace_id();
  }, 4);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(trace_ids[i], root.trace_id()) << "iteration " << i;
  }
  root.End();
  // Every span shares the trace and the decode spans all parent on root.
  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), kN + 1);
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.trace_id, root.trace_id());
    if (std::string(e.name) == "tile_store.decode") {
      EXPECT_EQ(e.parent_span_id, root.span_id());
    }
  }
}

TEST(TraceContextTest, ThreadPoolSubmitCarriesContext) {
  TraceRecorder recorder(EnabledOptions());
  ThreadPool pool(2);
  TraceSpan root("request", TraceSpan::kRoot, &recorder);
  std::atomic<uint64_t> seen{0};
  pool.Submit([&] { seen.store(CurrentTraceId()); });
  pool.Wait();
  EXPECT_EQ(seen.load(), root.trace_id());
}

TEST(TraceRecorderTest, RingWrapsAndCountsDrops) {
  // Tiny capacity: 16 total = 2 per stripe. Record from this one thread
  // (one stripe) until it wraps.
  TraceRecorder recorder(EnabledOptions(16));
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("request", TraceSpan::kRoot, &recorder);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 8u);
  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // The survivors are the newest two, in start order.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  uint64_t max_trace = 0;
  for (const TraceEvent& e : recorder.Snapshot()) {
    max_trace = std::max(max_trace, e.trace_id);
  }
  EXPECT_EQ(events[1].trace_id, max_trace);
}

TEST(TraceRecorderTest, ConcurrentWritersWrapCleanly) {
  // 8 writer threads hammering a deliberately tiny ring: exercises stripe
  // locking and overwrite-on-wrap under contention (the TSan build of this
  // test is the race check the PR requires).
  TraceRecorder recorder(EnabledOptions(64));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span("request", TraceSpan::kRoot, &recorder);
        TraceSpan child("step", &recorder);
      }
    });
  }
  // Concurrent readers while writers run.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      std::vector<TraceEvent> events = recorder.Snapshot();
      EXPECT_LE(events.size(), 64u);
      (void)recorder.ExportChromeTraceJson();
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread * 2);
  EXPECT_EQ(recorder.recorded() - recorder.dropped(),
            recorder.Snapshot().size());
  // Every buffered event is well-formed (non-empty literal name).
  for (const TraceEvent& e : recorder.Snapshot()) {
    EXPECT_TRUE(std::string(e.name) == "request" ||
                std::string(e.name) == "step");
    EXPECT_NE(e.trace_id, 0u);
  }
}

TEST(TraceRecorderTest, ChromeTraceJsonShape) {
  TraceRecorder recorder(EnabledOptions());
  {
    TraceSpan root("map_service.get_region", TraceSpan::kRoot, &recorder);
    TraceSpan child("tile_store.decode", &recorder);
    child.SetStatus(StatusCode::kDataLoss);
  }
  std::string json = recorder.ExportChromeTraceJson();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->GetString("displayTimeUnit"), "ms");
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  // The process_name metadata record, then both spans oldest-first.
  ASSERT_EQ(events->array.size(), 3u);
  EXPECT_EQ(events->array[0].GetString("ph"), "M");
  const JsonValue& root = events->array[1];
  const JsonValue& child = events->array[2];
  EXPECT_EQ(root.GetString("name"), "map_service.get_region");
  EXPECT_EQ(child.GetString("name"), "tile_store.decode");
  for (const JsonValue* span : {&root, &child}) {
    EXPECT_EQ(span->GetString("ph"), "X");
    EXPECT_EQ(span->GetString("cat"), "hdmap");
    EXPECT_GE(span->GetNumber("dur", -1.0), 0.0);
    ASSERT_NE(span->Find("args"), nullptr);
  }
  const JsonValue& child_args = *child.Find("args");
  EXPECT_EQ(child_args.GetString("status"), "DATA_LOSS");
  EXPECT_EQ(child_args.GetString("parent_span_id"),
            root.Find("args")->GetString("span_id"));
  EXPECT_EQ(child_args.GetString("trace_id"),
            root.Find("args")->GetString("trace_id"));
  ASSERT_NE(child_args.Find("sampled"), nullptr);
  EXPECT_TRUE(child_args.Find("sampled")->bool_value);
}

TEST(TraceRecorderTest, HostileProcessLabelParsesBack) {
  TraceRecorder recorder(EnabledOptions());
  { TraceSpan span("net.request", TraceSpan::kRoot, &recorder); }
  const std::string label = "node \"7\" \\ x\n\x01" "\xc3\xa9";
  // A label longer than any fixed formatting buffer stays whole.
  const std::string long_label = label + std::string(600, 'l');
  for (const std::string& expected : {label, long_label}) {
    auto parsed = ParseJson(recorder.ExportChromeTraceJson(9, expected));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const JsonValue& meta = parsed->Find("traceEvents")->array.at(0);
    EXPECT_EQ(meta.GetU64("pid"), 9u);
    EXPECT_EQ(meta.Find("args")->GetString("name"), expected);
  }
  // The no-argument overload parses too, under its default label.
  auto legacy = ParseJson(recorder.ExportChromeTraceJson());
  ASSERT_TRUE(legacy.ok()) << legacy.status().message();
  const JsonValue& meta = legacy->Find("traceEvents")->array.at(0);
  EXPECT_EQ(meta.GetU64("pid"), 1u);
  EXPECT_EQ(meta.Find("args")->GetString("name"), "hdmap");
  EXPECT_EQ(legacy->Find("traceEvents")->array.size(), 2u);
}

TEST(TraceRecorderTest, ConfigureResetsRing) {
  TraceRecorder recorder(EnabledOptions());
  { TraceSpan span("request", TraceSpan::kRoot, &recorder); }
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
  recorder.Configure(EnabledOptions(32));
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.options().capacity, 32u);
}

TEST(TraceRecorderTest, ExportCarriesProcessIdAndWallAnchor) {
  TraceRecorder recorder(EnabledOptions());
  EXPECT_GT(recorder.wall_anchor_us(), 0);
  { TraceSpan span("net.request", TraceSpan::kRoot, &recorder); }
  std::string json = recorder.ExportChromeTraceJson(7, "node-7");
  // The process-name metadata record labels the track, and every event
  // carries the export's pid — what makes multi-node merges readable.
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":7,"
                      "\"args\":{\"name\":\"node-7\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"net.request\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":7,"), std::string::npos);
  // Anchored timestamps are wall-clock microseconds: far from zero.
  EXPECT_EQ(json.find("\"ts\":0.0"), std::string::npos);
  // The no-argument overload defaults to pid 1 / "hdmap" (the v1 shape).
  std::string legacy = recorder.ExportChromeTraceJson();
  EXPECT_NE(legacy.find("\"args\":{\"name\":\"hdmap\"}"), std::string::npos);
}

TEST(TraceSpanTest, ForceRecordOverridesSampling) {
  TraceRecorder::Options options;
  options.enabled = true;
  options.sample_every_n = 0;  // Nothing records by default.
  options.slow_threshold_s = 0.0;
  TraceRecorder recorder(options);
  {
    TraceSpan dropped("request", TraceSpan::kRoot, &recorder);
  }
  EXPECT_TRUE(recorder.Snapshot().empty());
  uint64_t forced_trace = 0;
  {
    TraceSpan forced("request", TraceSpan::kRoot, &recorder);
    forced.ForceRecord();
    forced_trace = forced.trace_id();
  }
  ASSERT_NE(forced_trace, 0u);
  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, forced_trace);
  EXPECT_FALSE(events[0].sampled);
}

}  // namespace
}  // namespace hdmap
