#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/json.h"

namespace hdmap {

namespace {

/// Small dense per-thread ordinal used to pick a histogram shard; stable
/// for the thread's lifetime so a thread always hits the same shard.
size_t ThisThreadShardOrdinal() {
  static std::atomic<size_t> next{0};
  thread_local size_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// Splits "subsystem.verb{TAG}" into {"subsystem.verb", "TAG"}; the tag is
/// empty when the name has no suffix.
std::pair<std::string, std::string> SplitTag(const std::string& name) {
  size_t open = name.find('{');
  if (open == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, open),
          name.substr(open + 1, name.size() - open - 2)};
}

/// Maps an instrument base name to a Prometheus metric name: invalid
/// characters become '_' and everything is prefixed "hdmap_".
std::string PromName(const std::string& base) {
  std::string out = "hdmap_";
  for (char c : base) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Escapes a Prometheus label value: backslash, double quote, newline.
std::string PromEscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Escapes Prometheus HELP text: backslash and newline only (quotes are
/// legal there).
std::string PromEscapeHelp(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// "{tag="X"}" / "{tag="X",le="Y"}" / "{le="Y"}" / "" label block.
std::string LabelBlock(const std::string& tag, const std::string& le = "") {
  if (tag.empty() && le.empty()) return "";
  std::string out = "{";
  if (!tag.empty()) out += "tag=\"" + PromEscapeLabel(tag) + "\"";
  if (!le.empty()) {
    if (!tag.empty()) out += ",";
    out += "le=\"" + le + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

void LatencyHistogram::Record(double seconds) {
  if (!(seconds >= 0.0)) return;  // Rejects negatives and NaN.
  Shard& shard = shards_[ThisThreadShardOrdinal() % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.stats.Add(seconds);
  // log10(0) is -inf; any sub-microsecond sample lands in underflow anyway.
  shard.log_histogram.Add(seconds > 0.0 ? std::log10(seconds) : kLogLo - 1.0);
}

RunningStats LatencyHistogram::MergedStats() const {
  RunningStats merged;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    merged.Merge(shard.stats);
  }
  return merged;
}

Histogram LatencyHistogram::MergedHistogram() const {
  Histogram merged(kLogLo, kLogHi, kLogBins);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    merged.Merge(shard.log_histogram);
  }
  return merged;
}

size_t LatencyHistogram::count() const { return MergedStats().count(); }

double LatencyHistogram::mean_seconds() const { return MergedStats().mean(); }

double LatencyHistogram::min_seconds() const { return MergedStats().min(); }

double LatencyHistogram::max_seconds() const { return MergedStats().max(); }

double LatencyHistogram::sum_seconds() const {
  RunningStats merged = MergedStats();
  return merged.mean() * static_cast<double>(merged.count());
}

double LatencyHistogram::ApproxPercentileSeconds(double p) const {
  Histogram merged = MergedHistogram();
  size_t total = merged.total();
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the requested percentile among all samples, in cumulative
  // count space: underflow bucket first, then the bins, then overflow.
  double rank = p / 100.0 * static_cast<double>(total);
  double cumulative = static_cast<double>(merged.underflow());
  if (rank <= cumulative) return std::pow(10.0, kLogLo);
  for (int bin = 0; bin < merged.num_bins(); ++bin) {
    double in_bin = static_cast<double>(merged.bin_count(bin));
    if (in_bin > 0.0 && rank <= cumulative + in_bin) {
      // Linear interpolation within the bucket, in log space.
      double frac = (rank - cumulative) / in_bin;
      double log_value =
          merged.bin_lo(bin) +
          frac * (merged.bin_hi(bin) - merged.bin_lo(bin));
      return std::pow(10.0, log_value);
    }
    cumulative += in_bin;
  }
  return std::pow(10.0, kLogHi);
}

std::vector<LatencyHistogram::Bucket> LatencyHistogram::CumulativeBuckets()
    const {
  Histogram merged = MergedHistogram();
  // Export at 1/4-decade granularity: 8 internal bins per exported bucket,
  // 28 finite bounds over [1 us, 10 s).
  constexpr int kStride = 8;
  std::vector<Bucket> out;
  out.reserve(kLogBins / kStride + 1);
  uint64_t cumulative = merged.underflow();
  for (int bin = 0; bin < kLogBins; ++bin) {
    cumulative += merged.bin_count(bin);
    if ((bin + 1) % kStride == 0) {
      out.push_back({std::pow(10.0, merged.bin_hi(bin)), cumulative});
    }
  }
  cumulative += merged.overflow();
  out.push_back({std::numeric_limits<double>::infinity(), cumulative});
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetLatency(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = latencies_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

void MetricsRegistry::SetHelp(const std::string& name, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[name] = std::move(help);
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Snapshot() const {
  std::vector<Sample> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    out.push_back({name, static_cast<double>(counter->value())});
  }
  for (const auto& [name, gauge] : gauges_) {
    out.push_back({name, gauge->value()});
  }
  for (const auto& [name, latency] : latencies_) {
    out.push_back({name + ".count", static_cast<double>(latency->count())});
    out.push_back({name + ".mean_ms", latency->mean_seconds() * 1e3});
    out.push_back(
        {name + ".p50_ms", latency->ApproxPercentileSeconds(50.0) * 1e3});
    out.push_back(
        {name + ".p99_ms", latency->ApproxPercentileSeconds(99.0) * 1e3});
    out.push_back({name + ".max_ms", latency->max_seconds() * 1e3});
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

std::string MetricsRegistry::Render() const {
  std::string text;
  for (const Sample& s : Snapshot()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-44s %.6g\n", s.name.c_str(), s.value);
    text += buf;
  }
  return text;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;

  // Group series by family (instrument base name) first: sorted full names
  // do NOT keep a family's series contiguous ("x.errors2" sorts between
  // "x.errors" and "x.errors{A}"), and a family must emit exactly one
  // HELP/TYPE header.
  auto help_for = [this](const std::string& base) {
    auto it = help_.find(base);
    return it != help_.end() ? PromEscapeHelp(it->second)
                             : "hdmap instrument " + PromEscapeHelp(base);
  };

  {
    std::map<std::string, std::vector<std::pair<std::string, uint64_t>>>
        families;
    for (const auto& [name, counter] : counters_) {
      auto [base, tag] = SplitTag(name);
      families[base].emplace_back(tag, counter->value());
    }
    for (const auto& [base, series] : families) {
      std::string fam = PromName(base) + "_total";
      out += "# HELP " + fam + " " + help_for(base) + "\n";
      out += "# TYPE " + fam + " counter\n";
      for (const auto& [tag, value] : series) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
        out += fam + LabelBlock(tag) + " " + buf + "\n";
      }
    }
  }

  {
    std::map<std::string, std::vector<std::pair<std::string, double>>>
        families;
    for (const auto& [name, gauge] : gauges_) {
      auto [base, tag] = SplitTag(name);
      families[base].emplace_back(tag, gauge->value());
    }
    for (const auto& [base, series] : families) {
      std::string fam = PromName(base);
      out += "# HELP " + fam + " " + help_for(base) + "\n";
      out += "# TYPE " + fam + " gauge\n";
      for (const auto& [tag, value] : series) {
        out += fam + LabelBlock(tag) + " " + FormatDouble(value) + "\n";
      }
    }
  }

  {
    std::map<std::string,
             std::vector<std::pair<std::string, const LatencyHistogram*>>>
        families;
    for (const auto& [name, latency] : latencies_) {
      auto [base, tag] = SplitTag(name);
      families[base].emplace_back(tag, latency.get());
    }
    for (const auto& [base, series] : families) {
      std::string fam = PromName(base) + "_seconds";
      out += "# HELP " + fam + " " + help_for(base) + " (seconds)\n";
      out += "# TYPE " + fam + " histogram\n";
      for (const auto& [tag, latency] : series) {
        for (const LatencyHistogram::Bucket& bucket :
             latency->CumulativeBuckets()) {
          std::string le = std::isinf(bucket.le_seconds)
                               ? "+Inf"
                               : FormatDouble(bucket.le_seconds);
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(
                            bucket.cumulative_count));
          out += fam + "_bucket" + LabelBlock(tag, le) + " " + buf + "\n";
        }
        out += fam + "_sum" + LabelBlock(tag) + " " +
               FormatDouble(latency->sum_seconds()) + "\n";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%zu", latency->count());
        out += fam + "_count" + LabelBlock(tag) + " " + buf + "\n";
      }
    }
  }

  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::string out;
  JsonWriter writer(&out);
  RenderJson(writer);
  return out;
}

void MetricsRegistry::RenderJson(JsonWriter& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out.BeginObject().Key("counters").BeginArray();
  for (const auto& [name, counter] : counters_) {
    out.BeginObject()
        .Key("name").String(name)
        .Key("type").String("counter")
        .Key("unit").String("1")
        .Key("value").Uint(counter->value())
        .EndObject();
  }
  out.EndArray().Key("gauges").BeginArray();
  for (const auto& [name, gauge] : gauges_) {
    out.BeginObject()
        .Key("name").String(name)
        .Key("type").String("gauge")
        .Key("unit").String("1")
        .Key("value").Double(gauge->value())
        .EndObject();
  }
  out.EndArray().Key("histograms").BeginArray();
  for (const auto& [name, latency] : latencies_) {
    out.BeginObject()
        .Key("name").String(name)
        .Key("type").String("histogram")
        .Key("unit").String("seconds")
        .Key("count").Uint(latency->count())
        .Key("sum").Double(latency->sum_seconds())
        .Key("mean").Double(latency->mean_seconds())
        .Key("min").Double(latency->min_seconds())
        .Key("max").Double(latency->max_seconds())
        .Key("p50").Double(latency->ApproxPercentileSeconds(50.0))
        .Key("p90").Double(latency->ApproxPercentileSeconds(90.0))
        .Key("p99").Double(latency->ApproxPercentileSeconds(99.0))
        .EndObject();
  }
  out.EndArray().EndObject();
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size() + latencies_.size());
  for (const auto& [name, unused] : counters_) out.push_back(name);
  for (const auto& [name, unused] : gauges_) out.push_back(name);
  for (const auto& [name, unused] : latencies_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hdmap
