#ifndef HDMAP_COMMON_METRICS_H_
#define HDMAP_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/statistics.h"

namespace hdmap {

class JsonWriter;

/// Monotonic counter (events served, cache hits, errors). Increment is
/// lock-free; safe from any thread. Deliberately has no Reset(): exported
/// snapshots must be monotonic (Prometheus counters assume it), so tests
/// assert on deltas instead of zeroing shared state.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value (snapshot version, queue depth, age). Set/value are
/// lock-free; safe from any thread.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency distribution: exact count/mean/min/max via RunningStats plus
/// approximate percentiles from a log10-bucketed Histogram covering
/// [1 us, 10 s) (sub-microsecond samples land in the underflow bucket,
/// 10 s+ in overflow). Bucketing keeps memory constant no matter how many
/// samples arrive; percentile error is bounded by the bucket width
/// (~5% relative).
///
/// The hot path is sharded: each recording thread hashes (by a stable
/// thread ordinal) to one of kShards independent {mutex, stats, histogram}
/// shards, so concurrent Record() calls from different threads do not
/// contend on one lock. Readers merge the shards under the per-shard
/// locks — reads are O(shards * bins) but off the hot path.
class LatencyHistogram {
 public:
  // Log-scale bucketing: 1/32 of a decade per bucket over [1 us, 10 s) —
  // 7 decades, 224 buckets, ±4% relative resolution.
  static constexpr double kLogLo = -6.0;
  static constexpr double kLogHi = 1.0;
  static constexpr int kLogBins = 224;

  LatencyHistogram() = default;

  /// Records one latency sample, in seconds. Negative samples are ignored.
  void Record(double seconds);

  size_t count() const;
  double mean_seconds() const;
  double min_seconds() const;
  double max_seconds() const;
  /// Total recorded time (count * mean), for Prometheus `_sum`.
  double sum_seconds() const;

  /// Approximate p-th percentile (p in [0, 100]) in seconds, interpolated
  /// within the log-scale bucket; 0 with no samples. Percentiles that fall
  /// in the underflow/overflow buckets clamp to the range edge (1 us /
  /// 10 s).
  double ApproxPercentileSeconds(double p) const;

  /// One cumulative bucket of the exported distribution: the number of
  /// samples <= le_seconds.
  struct Bucket {
    double le_seconds = 0.0;  ///< Upper bound; +inf for the final bucket.
    uint64_t cumulative_count = 0;
  };

  /// Prometheus-style cumulative buckets, coarsened to 1/4-decade bounds
  /// (10^-6, 10^-5.75, ..., 10^1) plus a terminal +Inf bucket equal to
  /// count(). Counts are cumulative and monotonically non-decreasing;
  /// sub-microsecond samples are included from the first bucket up.
  std::vector<Bucket> CumulativeBuckets() const;

 private:
  static constexpr size_t kShards = 8;

  struct alignas(64) Shard {
    mutable std::mutex mu;
    RunningStats stats;
    Histogram log_histogram{kLogLo, kLogHi, kLogBins};
  };

  RunningStats MergedStats() const;
  Histogram MergedHistogram() const;

  Shard shards_[kShards];
};

/// Named registry of counters, gauges, and latency histograms: the single
/// observability surface for the serving stack (MapService endpoints,
/// TileStore cache, patch publishing). Get* registers on first use and
/// returns a pointer that stays valid for the registry's lifetime, so hot
/// paths resolve names once and then touch only the instrument. All
/// methods are thread-safe.
///
/// Naming convention: `subsystem.verb` with an optional `{TAG}` suffix for
/// per-dimension series (e.g. "map_service.errors{DATA_LOSS}"). The
/// Prometheus exporter maps the tag to a `tag="..."` label so all series
/// of one instrument form a single metric family.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetLatency(const std::string& name);

  /// Attaches help text to an instrument (by its unsuffixed name, without
  /// any `{TAG}`); emitted as the Prometheus `# HELP` line and the JSON
  /// "help" field.
  void SetHelp(const std::string& name, std::string help);

  /// One exported metric value. Latencies export count/mean/p50/p99.
  struct Sample {
    std::string name;  ///< Instrument name plus suffix, e.g. "x.p99_ms".
    double value = 0.0;
  };

  /// Flattened snapshot of every registered instrument, sorted by name.
  /// Latency values are exported in milliseconds.
  std::vector<Sample> Snapshot() const;

  /// Human-readable dump, one "name value" row per Sample.
  std::string Render() const;

  /// Prometheus text exposition format (version 0.0.4): every instrument
  /// as a metric family with `# HELP`/`# TYPE` annotations. Counters get
  /// a `_total` suffix, latencies render as `_seconds` histograms with
  /// cumulative `_bucket{le="..."}` series terminated by `+Inf`, plus
  /// `_sum`/`_count`. Instrument names are sanitized ('.' -> '_') and
  /// prefixed `hdmap_`; a `{TAG}` suffix becomes a `tag` label with
  /// backslash/quote/newline escaping per the exposition format.
  std::string RenderPrometheus() const;

  /// Stable JSON snapshot: {"counters":[...],"gauges":[...],
  /// "histograms":[...]}, sorted by name, each entry annotated with its
  /// type and unit (latencies in seconds). Keys and ordering are part of
  /// the contract — scrapers may depend on them.
  std::string RenderJson() const;
  /// The same document written as one value into `out` (the kStats
  /// response embeds it).
  void RenderJson(JsonWriter& out) const;

  /// Every registered instrument name (raw `subsystem.verb{TAG}` form,
  /// before Prometheus sanitization), sorted. The metrics-name lint test
  /// walks this to catch malformed registrations before they reach a
  /// scraper.
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  // node-based maps: pointers handed out by Get* stay stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> latencies_;
  std::map<std::string, std::string> help_;
};

/// RAII timer: records the elapsed wall time into a LatencyHistogram when
/// it goes out of scope. A null histogram disables it (zero-cost guard for
/// optional metrics).
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* histogram)
      : histogram_(histogram),
        start_(histogram == nullptr
                   ? std::chrono::steady_clock::time_point{}
                   : std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count());
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hdmap

#endif  // HDMAP_COMMON_METRICS_H_
