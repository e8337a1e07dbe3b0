#include "common/event_log.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

namespace hdmap {
namespace {

TEST(EventLogTest, AppendStampsSequenceAndTime) {
  EventLog log;
  log.Append(EventLog::Type::kQuarantinedTile, 42, "tile (1,2) corrupt",
             StatusCode::kDataLoss);
  log.Append(EventLog::Type::kSlowRequest, 43, "get_region took 300 ms");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.total_appended(), 2u);

  std::vector<EventLog::Event> recent = log.Recent();
  ASSERT_EQ(recent.size(), 2u);
  // Newest first.
  EXPECT_EQ(recent[0].seq, 2u);
  EXPECT_EQ(recent[0].type, EventLog::Type::kSlowRequest);
  EXPECT_EQ(recent[0].code, StatusCode::kOk);
  EXPECT_EQ(recent[0].trace_id, 43u);
  EXPECT_EQ(recent[1].seq, 1u);
  EXPECT_EQ(recent[1].type, EventLog::Type::kQuarantinedTile);
  EXPECT_EQ(recent[1].code, StatusCode::kDataLoss);
  EXPECT_EQ(recent[1].detail, "tile (1,2) corrupt");
  EXPECT_GT(recent[0].unix_ms, 0);
  EXPECT_GE(recent[0].unix_ms, recent[1].unix_ms);
}

TEST(EventLogTest, RingDropsOldestAtCapacity) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Append(EventLog::Type::kInjectedFault, 0, std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_appended(), 10u);
  std::vector<EventLog::Event> recent = log.Recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent[0].seq, 10u);
  EXPECT_EQ(recent[0].detail, "9");
  EXPECT_EQ(recent[3].seq, 7u);
  EXPECT_EQ(recent[3].detail, "6");
}

TEST(EventLogTest, RecentHonorsMaxN) {
  EventLog log;
  for (int i = 0; i < 8; ++i) {
    log.Append(EventLog::Type::kWalDataLoss, 0, "");
  }
  std::vector<EventLog::Event> recent = log.Recent(3);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].seq, 8u);
  EXPECT_EQ(recent[2].seq, 6u);
  EXPECT_TRUE(log.Recent(0).empty());
}

TEST(EventLogTest, ConcurrentAppendsKeepSequenceDense) {
  EventLog log(100000);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Append(EventLog::Type::kSlowRequest, 0, "");
      }
    });
  }
  for (auto& t : threads) t.join();
  constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(log.total_appended(), kTotal);
  EXPECT_EQ(log.size(), kTotal);
  std::vector<EventLog::Event> recent = log.Recent(kTotal);
  ASSERT_EQ(recent.size(), kTotal);
  // Strictly descending, dense sequence: no duplicates, no gaps.
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].seq, kTotal - i);
  }
}

TEST(EventLogTest, TypeToStringCoversEveryType) {
  EXPECT_EQ(EventLog::TypeToString(EventLog::Type::kQuarantinedTile),
            "QUARANTINED_TILE");
  EXPECT_EQ(EventLog::TypeToString(EventLog::Type::kWalDataLoss),
            "WAL_DATA_LOSS");
  EXPECT_EQ(EventLog::TypeToString(EventLog::Type::kInjectedFault),
            "INJECTED_FAULT");
  EXPECT_EQ(EventLog::TypeToString(EventLog::Type::kCheckpointFallback),
            "CHECKPOINT_FALLBACK");
  EXPECT_EQ(EventLog::TypeToString(EventLog::Type::kSlowRequest),
            "SLOW_REQUEST");
  EXPECT_EQ(EventLog::TypeToString(EventLog::Type::kRecoverySummary),
            "RECOVERY_SUMMARY");
}

TEST(EventLogTest, TypeFromStringInvertsTypeToString) {
  for (uint8_t raw = 0;
       raw <= static_cast<uint8_t>(EventLog::Type::kReplicaCatchUp); ++raw) {
    EventLog::Type type = static_cast<EventLog::Type>(raw);
    EventLog::Type back = EventLog::Type::kQuarantinedTile;
    ASSERT_TRUE(
        EventLog::TypeFromString(EventLog::TypeToString(type), &back));
    EXPECT_EQ(back, type);
  }
  EventLog::Type out = EventLog::Type::kSlowRequest;
  EXPECT_FALSE(EventLog::TypeFromString("NOT_A_TYPE", &out));
  EXPECT_EQ(out, EventLog::Type::kSlowRequest);  // Untouched on failure.
}

TEST(EventLogTest, AppendJsonEmitsWireShape) {
  EventLog::Event event;
  event.seq = 3;
  event.unix_ms = 1754700000200;
  event.type = EventLog::Type::kSlowRequest;
  event.code = StatusCode::kOk;
  event.trace_id = 18446744073709551615ull;
  event.detail = "took 1.2s \"budget\"\n0.5s";
  std::string out;
  EventLog::AppendJson(event, &out);
  EXPECT_EQ(out,
            "{\"seq\":3,\"unix_ms\":1754700000200,\"type\":\"SLOW_REQUEST\","
            "\"code\":\"OK\",\"trace_id\":\"18446744073709551615\","
            "\"detail\":\"took 1.2s \\\"budget\\\"\\n0.5s\"}");
}

TEST(EventLogTest, AppendJsonWithHostileDetailParsesBack) {
  EventLog::Event event;
  event.seq = 9;
  event.unix_ms = 1754700000300;
  event.type = EventLog::Type::kQuarantinedTile;
  event.code = StatusCode::kDataLoss;
  event.trace_id = 18446744073709551615ull;
  event.detail = "tile \"(1,2)\" \\ bad\n\x01" "\xc3\xa9";
  std::string out;
  EventLog::AppendJson(event, &out);
  auto parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->GetU64("seq"), 9u);
  EXPECT_EQ(parsed->GetI64("unix_ms"), 1754700000300);
  EXPECT_EQ(parsed->GetString("type"), "QUARANTINED_TILE");
  EXPECT_EQ(parsed->GetString("code"), "DATA_LOSS");
  EXPECT_EQ(parsed->GetString("trace_id"), "18446744073709551615");
  EXPECT_EQ(parsed->GetString("detail"), event.detail);
}

}  // namespace
}  // namespace hdmap
