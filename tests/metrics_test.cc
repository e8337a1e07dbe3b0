#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

namespace hdmap {
namespace {

TEST(CounterTest, IncrementIsMonotonic) {
  // Counters have no Reset(): exported snapshots must stay monotonic, so
  // assertions work on deltas from a captured baseline.
  Counter c;
  uint64_t base = c.value();
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value() - base, 42u);
  base = c.value();
  c.Increment(8);
  EXPECT_EQ(c.value() - base, 8u);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(LatencyHistogramTest, ExactStatsMatchSamples) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ApproxPercentileSeconds(50), 0.0);
  h.Record(0.001);
  h.Record(0.003);
  h.Record(0.002);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.mean_seconds(), 0.002, 1e-12);
  EXPECT_NEAR(h.min_seconds(), 0.001, 1e-12);
  EXPECT_NEAR(h.max_seconds(), 0.003, 1e-12);
  EXPECT_NEAR(h.sum_seconds(), 0.006, 1e-12);
}

TEST(LatencyHistogramTest, PercentilesApproximateTheDistribution) {
  LatencyHistogram h;
  // 1000 samples spread uniformly over [1 ms, 100 ms].
  for (int i = 0; i < 1000; ++i) h.Record(0.001 + 0.099 * i / 999.0);
  double p50 = h.ApproxPercentileSeconds(50);
  double p99 = h.ApproxPercentileSeconds(99);
  EXPECT_GT(p50, 0.035);
  EXPECT_LT(p50, 0.065);
  EXPECT_GT(p99, 0.090);
  EXPECT_LT(p99, 0.110);
  EXPECT_LE(h.ApproxPercentileSeconds(0), p50);
  EXPECT_LE(p99, h.ApproxPercentileSeconds(100) + 1e-12);
}

TEST(LatencyHistogramTest, IgnoresNegativeAndNan) {
  LatencyHistogram h;
  h.Record(-1.0);
  h.Record(std::nan(""));
  EXPECT_EQ(h.count(), 0u);
  h.Record(0.0);  // Valid: lands in the underflow bucket.
  EXPECT_EQ(h.count(), 1u);
}

TEST(LatencyHistogramTest, PercentileClampsAtUnderflowBucket) {
  LatencyHistogram h;
  // All samples below the 1 us histogram floor: every percentile clamps
  // to the range edge rather than extrapolating below it.
  for (int i = 0; i < 16; ++i) h.Record(1e-9);
  EXPECT_NEAR(h.ApproxPercentileSeconds(0), 1e-6, 1e-12);
  EXPECT_NEAR(h.ApproxPercentileSeconds(50), 1e-6, 1e-12);
  EXPECT_NEAR(h.ApproxPercentileSeconds(100), 1e-6, 1e-12);
  // Exact stats still see the true values.
  EXPECT_NEAR(h.max_seconds(), 1e-9, 1e-15);
}

TEST(LatencyHistogramTest, PercentileClampsAtOverflowBucket) {
  LatencyHistogram h;
  // All samples above the 10 s histogram ceiling.
  for (int i = 0; i < 16; ++i) h.Record(100.0);
  EXPECT_NEAR(h.ApproxPercentileSeconds(50), 10.0, 1e-9);
  EXPECT_NEAR(h.ApproxPercentileSeconds(100), 10.0, 1e-9);
  EXPECT_NEAR(h.max_seconds(), 100.0, 1e-9);
}

TEST(LatencyHistogramTest, MixedUnderOverflowClampsBothEdges) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.Record(1e-8);
  for (int i = 0; i < 10; ++i) h.Record(50.0);
  EXPECT_NEAR(h.ApproxPercentileSeconds(1), 1e-6, 1e-12);
  EXPECT_NEAR(h.ApproxPercentileSeconds(99), 10.0, 1e-9);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllLandAcrossShards) {
  // The hot path is lock-striped per thread; every sample must still be
  // visible in the merged read-side view.
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(0.001 * static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.min_seconds(), 0.001, 1e-12);
  EXPECT_NEAR(h.max_seconds(), 0.008, 1e-12);
  // Mean of 1..8 ms = 4.5 ms, via the merged Welford accumulators.
  EXPECT_NEAR(h.mean_seconds(), 0.0045, 1e-9);
  auto buckets = h.CumulativeBuckets();
  ASSERT_FALSE(buckets.empty());
  EXPECT_EQ(buckets.back().cumulative_count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogramTest, CumulativeBucketsMonotonicAndInfTerminated) {
  LatencyHistogram h;
  h.Record(1e-9);   // Underflow: counted from the first bucket up.
  h.Record(0.001);
  h.Record(0.5);
  h.Record(100.0);  // Overflow: only in the +Inf bucket.
  auto buckets = h.CumulativeBuckets();
  ASSERT_GE(buckets.size(), 2u);
  EXPECT_TRUE(std::isinf(buckets.back().le_seconds));
  EXPECT_EQ(buckets.back().cumulative_count, 4u);
  EXPECT_GE(buckets.front().cumulative_count, 1u);  // The underflow sample.
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1].le_seconds, buckets[i].le_seconds);
    EXPECT_LE(buckets[i - 1].cumulative_count, buckets[i].cumulative_count);
  }
  // The finite buckets cannot contain the 100 s overflow sample.
  EXPECT_EQ(buckets[buckets.size() - 2].cumulative_count, 3u);
}

TEST(RunningStatsTest, MergeMatchesSequentialFeed) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 100; ++i) {
    double x = 0.5 + 0.01 * i;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  RunningStats merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_NEAR(merged.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), all.variance(), 1e-12);
  EXPECT_NEAR(merged.min(), all.min(), 1e-12);
  EXPECT_NEAR(merged.max(), all.max(), 1e-12);
}

TEST(MetricsRegistryTest, GetReturnsStablePointerPerName) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("requests");
  Counter* b = reg.GetCounter("requests");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("errors"), a);
  // Same name in different instrument families is distinct storage.
  reg.GetGauge("requests")->Set(7.0);
  EXPECT_EQ(a->value(), 0u);
}

TEST(MetricsRegistryTest, SnapshotExportsEveryInstrument) {
  MetricsRegistry reg;
  reg.GetCounter("hits")->Increment(3);
  reg.GetGauge("version")->Set(2.0);
  LatencyHistogram* lat = reg.GetLatency("get_region");
  lat->Record(0.010);
  lat->Record(0.020);

  auto samples = reg.Snapshot();
  auto find = [&](const std::string& name) -> const double* {
    for (const auto& s : samples) {
      if (s.name == name) return &s.value;
    }
    return nullptr;
  };
  ASSERT_NE(find("hits"), nullptr);
  EXPECT_EQ(*find("hits"), 3.0);
  ASSERT_NE(find("version"), nullptr);
  EXPECT_EQ(*find("version"), 2.0);
  ASSERT_NE(find("get_region.count"), nullptr);
  EXPECT_EQ(*find("get_region.count"), 2.0);
  ASSERT_NE(find("get_region.mean_ms"), nullptr);
  EXPECT_NEAR(*find("get_region.mean_ms"), 15.0, 1e-9);
  EXPECT_NE(find("get_region.p50_ms"), nullptr);
  EXPECT_NE(find("get_region.p99_ms"), nullptr);
  EXPECT_NE(find("get_region.max_ms"), nullptr);

  std::string rendered = reg.Render();
  EXPECT_NE(rendered.find("hits"), std::string::npos);
  EXPECT_NE(rendered.find("get_region.p99_ms"), std::string::npos);
}

TEST(ScopedTimerTest, RecordsOnDestructionAndNullDisables) {
  LatencyHistogram h;
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max_seconds(), 0.0);
  { ScopedTimer t(nullptr); }  // Must not crash.
}

// ---------------------------------------------------------------------------
// Prometheus exposition: a strict line parser validating the full contract
// (family headers, label escaping, cumulative +Inf-terminated buckets).
// ---------------------------------------------------------------------------

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

struct PromParse {
  std::map<std::string, std::string> types;  // family -> counter/gauge/...
  std::set<std::string> helped;
  std::vector<PromSample> samples;
  std::vector<std::string> errors;
};

bool ParseLabels(const std::string& block, PromSample* out,
                 std::string* error) {
  // block is the text between '{' and '}'.
  size_t i = 0;
  while (i < block.size()) {
    size_t eq = block.find('=', i);
    if (eq == std::string::npos || block[eq + 1] != '"') {
      *error = "bad label syntax: " + block;
      return false;
    }
    std::string key = block.substr(i, eq - i);
    std::string value;
    size_t j = eq + 2;
    for (; j < block.size() && block[j] != '"'; ++j) {
      if (block[j] == '\\') {
        if (j + 1 >= block.size()) {
          *error = "dangling escape in: " + block;
          return false;
        }
        char next = block[j + 1];
        if (next == '\\') {
          value += '\\';
        } else if (next == '"') {
          value += '"';
        } else if (next == 'n') {
          value += '\n';
        } else {
          *error = "unknown escape in: " + block;
          return false;
        }
        ++j;
      } else {
        value += block[j];
      }
    }
    if (j >= block.size()) {
      *error = "unterminated label value: " + block;
      return false;
    }
    out->labels[key] = value;
    i = j + 1;
    if (i < block.size()) {
      if (block[i] != ',') {
        *error = "expected ',' between labels: " + block;
        return false;
      }
      ++i;
    }
  }
  return true;
}

PromParse ParsePrometheus(const std::string& text) {
  PromParse out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      size_t sp = line.find(' ', 7);
      if (sp == std::string::npos) {
        out.errors.push_back("HELP without text: " + line);
        continue;
      }
      out.helped.insert(line.substr(7, sp - 7));
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      size_t sp = line.find(' ', 7);
      if (sp == std::string::npos) {
        out.errors.push_back("TYPE without kind: " + line);
        continue;
      }
      std::string fam = line.substr(7, sp - 7);
      std::string kind = line.substr(sp + 1);
      if (out.types.count(fam) > 0) {
        out.errors.push_back("duplicate TYPE for family " + fam);
      }
      if (kind != "counter" && kind != "gauge" && kind != "histogram") {
        out.errors.push_back("unknown type: " + line);
      }
      out.types[fam] = kind;
      continue;
    }
    if (line[0] == '#') {
      out.errors.push_back("unknown comment: " + line);
      continue;
    }
    PromSample sample;
    size_t brace = line.find('{');
    size_t value_start;
    if (brace != std::string::npos) {
      size_t close = line.rfind('}');
      if (close == std::string::npos || close < brace) {
        out.errors.push_back("unbalanced braces: " + line);
        continue;
      }
      sample.name = line.substr(0, brace);
      std::string err;
      if (!ParseLabels(line.substr(brace + 1, close - brace - 1), &sample,
                       &err)) {
        out.errors.push_back(err);
        continue;
      }
      value_start = close + 1;
    } else {
      size_t sp = line.find(' ');
      if (sp == std::string::npos) {
        out.errors.push_back("sample without value: " + line);
        continue;
      }
      sample.name = line.substr(0, sp);
      value_start = sp;
    }
    std::string value_text = line.substr(value_start);
    size_t pos = value_text.find_first_not_of(' ');
    if (pos == std::string::npos) {
      out.errors.push_back("sample without value: " + line);
      continue;
    }
    value_text = value_text.substr(pos);
    if (value_text == "+Inf") {
      sample.value = std::numeric_limits<double>::infinity();
    } else {
      try {
        sample.value = std::stod(value_text);
      } catch (...) {
        out.errors.push_back("unparseable value: " + line);
        continue;
      }
    }
    for (char c : sample.name) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == ':';
      if (!ok) {
        out.errors.push_back("invalid metric name char: " + line);
        break;
      }
    }
    out.samples.push_back(std::move(sample));
  }
  return out;
}

/// Family a sample belongs to: strips the histogram series suffix.
std::string FamilyOf(const std::string& name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    std::string s = suffix;
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      return name.substr(0, name.size() - s.size());
    }
  }
  return name;
}

TEST(PrometheusRenderTest, StrictParserAcceptsFullOutput) {
  MetricsRegistry reg;
  reg.GetCounter("map_service.requests")->Increment(5);
  reg.GetCounter("map_service.errors")->Increment(3);
  reg.GetCounter("map_service.errors{DATA_LOSS}")->Increment(2);
  // Sorts between "errors" and "errors{...}": must not split the family.
  reg.GetCounter("map_service.errors2")->Increment(1);
  reg.GetGauge("map_service.snapshot_version")->Set(4.0);
  reg.SetHelp("map_service.requests", "Requests served");
  LatencyHistogram* lat = reg.GetLatency("map_service.get_region");
  lat->Record(1e-9);  // Underflow sample.
  for (int i = 0; i < 100; ++i) lat->Record(0.001 + 0.0001 * i);
  lat->Record(99.0);  // Overflow sample.
  LatencyHistogram* tagged = reg.GetLatency("wal.append{replica}");
  tagged->Record(0.002);

  std::string text = reg.RenderPrometheus();
  PromParse parsed = ParsePrometheus(text);
  for (const std::string& e : parsed.errors) ADD_FAILURE() << e;

  // Every sample family has exactly one TYPE (checked in the parser) and
  // a HELP line.
  for (const PromSample& s : parsed.samples) {
    std::string fam = FamilyOf(s.name);
    EXPECT_EQ(parsed.types.count(fam), 1u) << "no TYPE for " << s.name;
    EXPECT_EQ(parsed.helped.count(fam), 1u) << "no HELP for " << s.name;
  }

  // Counter semantics: _total suffix, tags as labels, same family.
  EXPECT_EQ(parsed.types.at("hdmap_map_service_errors_total"), "counter");
  EXPECT_EQ(parsed.types.at("hdmap_map_service_errors2_total"), "counter");
  uint64_t plain = 0;
  uint64_t tagged_errors = 0;
  for (const PromSample& s : parsed.samples) {
    if (s.name != "hdmap_map_service_errors_total") continue;
    if (s.labels.empty()) {
      plain = static_cast<uint64_t>(s.value);
    } else {
      EXPECT_EQ(s.labels.at("tag"), "DATA_LOSS");
      tagged_errors = static_cast<uint64_t>(s.value);
    }
  }
  EXPECT_EQ(plain, 3u);
  EXPECT_EQ(tagged_errors, 2u);

  // Histogram semantics for every histogram family: per-tag bucket series
  // cumulative, +Inf-terminated, consistent with _count.
  std::string hist_fam = "hdmap_map_service_get_region_seconds";
  EXPECT_EQ(parsed.types.at(hist_fam), "histogram");
  std::vector<std::pair<double, double>> buckets;  // (le, count) in order.
  double count_series = -1.0;
  bool sum_seen = false;
  for (const PromSample& s : parsed.samples) {
    if (s.name == hist_fam + "_bucket") {
      ASSERT_EQ(s.labels.count("le"), 1u);
      // Re-parse le from the label (the parser stored raw text? no — the
      // exporter writes it; parse here).
      double le = s.labels.at("le") == "+Inf"
                      ? std::numeric_limits<double>::infinity()
                      : std::stod(s.labels.at("le"));
      buckets.emplace_back(le, s.value);
    } else if (s.name == hist_fam + "_count") {
      count_series = s.value;
    } else if (s.name == hist_fam + "_sum") {
      sum_seen = true;
      EXPECT_GT(s.value, 0.0);
    }
  }
  ASSERT_GE(buckets.size(), 2u);
  EXPECT_TRUE(std::isinf(buckets.back().first)) << "buckets not +Inf-terminated";
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1].first, buckets[i].first);
    EXPECT_LE(buckets[i - 1].second, buckets[i].second)
        << "bucket counts not cumulative at le=" << buckets[i].first;
  }
  EXPECT_EQ(count_series, 102.0);
  EXPECT_EQ(buckets.back().second, count_series)
      << "+Inf bucket must equal _count";
  // The 99 s overflow sample is beyond every finite bound.
  EXPECT_EQ(buckets[buckets.size() - 2].second, 101.0);
  EXPECT_TRUE(sum_seen);

  // The tagged histogram renders with its tag label on every series.
  bool tagged_bucket_seen = false;
  for (const PromSample& s : parsed.samples) {
    if (s.name == "hdmap_wal_append_seconds_bucket") {
      EXPECT_EQ(s.labels.at("tag"), "replica");
      tagged_bucket_seen = true;
    }
  }
  EXPECT_TRUE(tagged_bucket_seen);
}

TEST(PrometheusRenderTest, LabelEscapingRoundTrips) {
  MetricsRegistry reg;
  // Tag with a backslash, a double quote, and a newline.
  std::string tag = "a\"b\\c\nd";
  reg.GetCounter("weird.series{" + tag + "}")->Increment();
  PromParse parsed = ParsePrometheus(reg.RenderPrometheus());
  for (const std::string& e : parsed.errors) ADD_FAILURE() << e;
  bool found = false;
  for (const PromSample& s : parsed.samples) {
    if (s.name == "hdmap_weird_series_total" && !s.labels.empty()) {
      EXPECT_EQ(s.labels.at("tag"), tag);  // Unescaped round trip.
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(JsonRenderTest, SnapshotCarriesTypesAndUnits) {
  MetricsRegistry reg;
  reg.GetCounter("a.count")->Increment(7);
  reg.GetGauge("b.gauge")->Set(1.5);
  LatencyHistogram* lat = reg.GetLatency("c.lat");
  lat->Record(0.004);
  lat->Record(0.006);
  auto parsed = ParseJson(reg.RenderJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* counters = parsed->Find("counters");
  const JsonValue* gauges = parsed->Find("gauges");
  const JsonValue* histograms = parsed->Find("histograms");
  ASSERT_TRUE(counters != nullptr && counters->is_array());
  ASSERT_TRUE(gauges != nullptr && gauges->is_array());
  ASSERT_TRUE(histograms != nullptr && histograms->is_array());

  ASSERT_EQ(counters->array.size(), 1u);
  const JsonValue& counter = counters->array[0];
  EXPECT_EQ(counter.GetString("name"), "a.count");
  EXPECT_EQ(counter.GetString("type"), "counter");
  EXPECT_EQ(counter.GetString("unit"), "1");
  EXPECT_EQ(counter.GetU64("value"), 7u);

  ASSERT_EQ(gauges->array.size(), 1u);
  const JsonValue& gauge = gauges->array[0];
  EXPECT_EQ(gauge.GetString("name"), "b.gauge");
  EXPECT_EQ(gauge.GetString("type"), "gauge");
  EXPECT_EQ(gauge.GetString("unit"), "1");
  EXPECT_EQ(gauge.GetNumber("value"), 1.5);

  ASSERT_EQ(histograms->array.size(), 1u);
  const JsonValue& hist = histograms->array[0];
  EXPECT_EQ(hist.GetString("name"), "c.lat");
  EXPECT_EQ(hist.GetString("type"), "histogram");
  EXPECT_EQ(hist.GetString("unit"), "seconds");
  EXPECT_EQ(hist.GetU64("count"), 2u);
  EXPECT_NEAR(hist.GetNumber("sum"), 0.010, 1e-12);
  EXPECT_NEAR(hist.GetNumber("mean"), 0.005, 1e-12);
  EXPECT_EQ(hist.GetNumber("min"), 0.004);
  EXPECT_EQ(hist.GetNumber("max"), 0.006);
  for (const char* key : {"p50", "p90", "p99"}) {
    EXPECT_GT(hist.GetNumber(key), 0.0) << key;
  }

  // Escaping: quotes, backslashes, newlines, control bytes and multi-byte
  // UTF-8 in names cannot break the document.
  const std::string hostile = "bad\"name\\x\n\x01" "\xc3\xa9";
  reg.GetCounter(hostile);
  auto reparsed = ParseJson(reg.RenderJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  bool hostile_seen = false;
  for (const JsonValue& entry : reparsed->Find("counters")->array) {
    hostile_seen |= entry.GetString("name") == hostile;
  }
  EXPECT_TRUE(hostile_seen);
}

TEST(JsonRenderTest, NanGaugeRendersAsNull) {
  MetricsRegistry reg;
  reg.GetGauge("not.a.number")->Set(std::nan(""));
  auto parsed = ParseJson(reg.RenderJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  // JSON has no NaN: the writer reports it as null.
  const JsonValue* value = parsed->Find("gauges")->array.at(0).Find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_TRUE(value->is_null());
}

TEST(MetricsRegistryTest, NamesReturnsSortedRawKeys) {
  MetricsRegistry reg;
  reg.GetCounter("zeta.count");
  reg.GetGauge("replication.lag_records{FOLLOWER1}");
  reg.GetLatency("alpha.latency");
  std::vector<std::string> names = reg.Names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names[0], "alpha.latency");
  EXPECT_EQ(names[1], "replication.lag_records{FOLLOWER1}");
  EXPECT_EQ(names[2], "zeta.count");
}

TEST(MetricsRegistryTest, ReplicationLagFamiliesRenderWithFollowerLabels) {
  MetricsRegistry reg;
  reg.GetGauge("replication.lag_records{FOLLOWER1}")->Set(3);
  reg.GetGauge("replication.lag_records{FOLLOWER2}")->Set(0);
  reg.GetGauge("replication.lag_ms{FOLLOWER1}")->Set(12.5);
  reg.GetLatency("replication.ack_wait")->Record(0.004);
  std::string prom = reg.RenderPrometheus();
  // One family header, one series per follower tag.
  EXPECT_NE(prom.find("# TYPE hdmap_replication_lag_records gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("hdmap_replication_lag_records{tag=\"FOLLOWER1\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("hdmap_replication_lag_records{tag=\"FOLLOWER2\"} 0"),
            std::string::npos);
  EXPECT_NE(prom.find("hdmap_replication_lag_ms{tag=\"FOLLOWER1\"} 12.5"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE hdmap_replication_ack_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("hdmap_replication_ack_wait_seconds_count 1"),
            std::string::npos);
}

}  // namespace
}  // namespace hdmap
