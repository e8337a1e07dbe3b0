// Unit tests for the pure parts of ClusterInspector: kStats document
// parsing and Chrome-trace merging. The JSON parser and writer themselves
// are tested in json_test.cc.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/json.h"
#include "common/trace.h"
#include "obs/cluster_inspector.h"

namespace hdmap {
namespace {

TEST(ObsJsonTest, ParseNodeStatsReadsFullDocument) {
  // A hand-built kStats document in the exact wire shape BuildStatsPayload
  // emits (including the string-typed trace_id).
  std::string doc =
      "{\"node\":{\"label\":\"node-2\",\"health\":\"SERVING\","
      "\"version\":12,\"unix_ms\":1754700000123},"
      "\"replication\":{\"node_id\":2,\"role\":\"LEADER\",\"term\":4,"
      "\"applied_seq\":40,\"last_publish_seq\":40,\"log_start_seq\":1,"
      "\"log_end_seq\":40,\"ms_since_leader_contact\":3.5,"
      "\"followers\":[{\"node_id\":0,\"acked_seq\":40,\"lag_records\":0,"
      "\"lag_ms\":0.0},{\"node_id\":1,\"acked_seq\":37,\"lag_records\":3,"
      "\"lag_ms\":18.2}]},"
      "\"events\":[{\"seq\":5,\"unix_ms\":1754700000100,"
      "\"type\":\"FAILOVER_COMPLETE\",\"code\":\"OK\","
      "\"trace_id\":\"18446744073709551615\",\"detail\":\"node 2 is leader\"}],"
      "\"metrics\":{\"counters\":[],\"gauges\":[],\"histograms\":[]}}\n";
  auto stats = ClusterInspector::ParseNodeStats(2, doc);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->reachable);
  EXPECT_EQ(stats->label, "node-2");
  EXPECT_EQ(stats->health, "SERVING");
  EXPECT_EQ(stats->version, 12u);
  EXPECT_EQ(stats->role, "LEADER");
  EXPECT_EQ(stats->term, 4u);
  EXPECT_EQ(stats->applied_seq, 40u);
  ASSERT_EQ(stats->followers.size(), 2u);
  EXPECT_EQ(stats->followers[1].node_id, 1);
  EXPECT_EQ(stats->followers[1].lag_records, 3u);
  EXPECT_DOUBLE_EQ(stats->followers[1].lag_ms, 18.2);
  ASSERT_EQ(stats->events.size(), 1u);
  EXPECT_EQ(stats->events[0].type, EventLog::Type::kFailoverComplete);
  // 64-bit trace ids survive the string encoding exactly.
  EXPECT_EQ(stats->events[0].trace_id, 18446744073709551615ull);
}

TEST(ObsJsonTest, ParseNodeStatsSkipsUnknownEventTypes) {
  std::string doc =
      "{\"node\":{\"label\":\"n\",\"health\":\"SERVING\",\"version\":1,"
      "\"unix_ms\":1},\"replication\":null,"
      "\"events\":[{\"seq\":1,\"unix_ms\":1,\"type\":\"FROM_THE_FUTURE\","
      "\"code\":\"OK\",\"trace_id\":\"0\",\"detail\":\"\"},"
      "{\"seq\":2,\"unix_ms\":2,\"type\":\"SLOW_REQUEST\",\"code\":\"OK\","
      "\"trace_id\":\"7\",\"detail\":\"d\"}],"
      "\"metrics\":{}}";
  auto stats = ClusterInspector::ParseNodeStats(0, doc);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->role.empty());  // replication: null
  ASSERT_EQ(stats->events.size(), 1u);
  EXPECT_EQ(stats->events[0].type, EventLog::Type::kSlowRequest);
}

TEST(ObsJsonTest, ParseNodeStatsRejectsGarbage) {
  EXPECT_FALSE(ClusterInspector::ParseNodeStats(0, "not json").ok());
  EXPECT_FALSE(ClusterInspector::ParseNodeStats(0, "[1,2,3]").ok());
}

TEST(ObsJsonTest, MergeChromeTraceJsonSplicesProcesses) {
  std::string a =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"client\"}},\n"
      "{\"name\":\"net_client.call\",\"ph\":\"X\",\"ts\":1.0,\"dur\":2.0,"
      "\"pid\":1,\"tid\":1,\"args\":{\"trace_id\":\"9\"}}\n]}\n";
  std::string b =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"node-0\"}},\n"
      "{\"name\":\"net.request\",\"ph\":\"X\",\"ts\":1.2,\"dur\":1.5,"
      "\"pid\":2,\"tid\":4,\"args\":{\"trace_id\":\"9\"}}\n]}\n";
  std::string merged = ClusterInspector::MergeChromeTraceJson({a, b});

  // The merged document is itself valid JSON with every event present.
  auto parsed = ParseJson(merged);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 4u);
  // Both process tracks and both halves of the cross-process trace made
  // it through with their pids intact.
  EXPECT_EQ(events->array[0].GetString("name"), "process_name");
  EXPECT_EQ(events->array[2].GetU64("pid"), 2u);
  EXPECT_EQ(events->array[3].GetString("name"), "net.request");
}

TEST(ObsJsonTest, MergeChromeTraceJsonSkipsNonTraceInput) {
  std::string good =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"dur\":1,\"pid\":1,\"tid\":1}"
      "\n]}\n";
  std::string merged =
      ClusterInspector::MergeChromeTraceJson({"garbage", good, ""});
  auto parsed = ParseJson(merged);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("traceEvents")->array.size(), 1u);
}

TEST(ObsJsonTest, MergeChromeTraceJsonOfThreeLiveExportsParsesBack) {
  // Real exports from three recorders whose process labels carry every
  // byte class the writer escapes.
  const std::string hostile = "n\"1\" \\ x\n\x01" "\xc3\xa9";
  std::vector<std::string> exports;
  for (uint32_t pid = 1; pid <= 3; ++pid) {
    TraceRecorder::Options options;
    options.enabled = true;
    TraceRecorder recorder(options);
    { TraceSpan span("net.request", TraceSpan::kRoot, &recorder); }
    exports.push_back(
        recorder.ExportChromeTraceJson(pid, hostile + std::to_string(pid)));
  }
  std::string merged = ClusterInspector::MergeChromeTraceJson(exports);
  auto parsed = ParseJson(merged);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->GetString("displayTimeUnit"), "ms");
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 6u);  // Per export: metadata + 1 span.
  for (uint32_t pid = 1; pid <= 3; ++pid) {
    const JsonValue& meta = events->array[2 * (pid - 1)];
    EXPECT_EQ(meta.GetString("name"), "process_name");
    EXPECT_EQ(meta.GetU64("pid"), pid);
    ASSERT_NE(meta.Find("args"), nullptr);
    EXPECT_EQ(meta.Find("args")->GetString("name"),
              hostile + std::to_string(pid));
    const JsonValue& span = events->array[2 * (pid - 1) + 1];
    EXPECT_EQ(span.GetString("name"), "net.request");
    EXPECT_EQ(span.GetU64("pid"), pid);
  }
}

}  // namespace
}  // namespace hdmap
