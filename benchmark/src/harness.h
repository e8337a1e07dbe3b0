#ifndef HDMAP_BENCHMARK_HARNESS_H_
#define HDMAP_BENCHMARK_HARNESS_H_

// Shared pieces of the serving benchmark: run configuration, latency
// samples, the metric report, registry windows, process usage, and the
// seeded worlds every workload builds.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "core/hd_map.h"
#include "core/map_patch.h"
#include "geometry/aabb.h"
#include "net/tile_server.h"
#include "service/map_service.h"

namespace hdmap::bench {

using Clock = std::chrono::steady_clock;

/// Load and server constants shared by every workload. Rates are fixed
/// absolute numbers: nothing is calibrated at run time, so a faster or
/// slower build is offered exactly the same load.
inline constexpr double kTileSizeM = 100.0;
inline constexpr size_t kServerWorkerThreads = 2;
inline constexpr double kWarmupS = 2.0;
inline constexpr double kRegionBoxM = 300.0;
/// Every Nth reply is checked against the in-process reference.
inline constexpr uint64_t kCheckEvery = 64;
/// Setups per run; setup_s is their median. Within a run they vary by
/// up to 1.5x, so a median of fewer moves with the draw.
inline constexpr int kSetupReps = 15;
/// Slice length of Samples (see SliceMedian).
inline constexpr double kSliceS = 1.0;
/// Traced windows head-sample one client op in this many.
inline constexpr uint32_t kTraceSampleEveryN = 16;
inline constexpr size_t kTraceCapacity = size_t{1} << 19;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  /// Short warmup and a single setup: a schema check, not a measurement.
  bool smoke = false;
  /// Optional detailed result document (provenance + every metric).
  std::string out_path;
  /// Optional Chrome trace JSON of the traced window.
  std::string trace_out_path;
  /// Parent of the durable data dirs (inside the checkout).
  std::string tmp_root = "build-bench/tmp";

  double warmup_s() const { return smoke ? 0.5 : kWarmupS; }
  int setup_reps() const { return smoke ? 1 : kSetupReps; }
};

double SecondsSince(Clock::time_point start);
/// Clock::now() in nanoseconds since the clock's epoch.
int64_t NowNs();

/// Timing samples in seconds, binned by the steady-clock second they were
/// taken in, each second into a log-scale histogram (256 bins per decade
/// over [1 ns, 1000 s)). Memory grows with the run's length, not with the
/// number of samples, so peak_rss_mb does not move with throughput.
/// Percentiles interpolate inside the bin holding the rank: within 0.5%
/// of the exact order statistic.
class Samples {
 public:
  void Add(double seconds);
  void Append(const Samples& other);
  size_t size() const { return count_; }
  /// Nearest-rank percentile (p in [0, 100]); 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  /// Median over the 1-second slices of each slice's p-th percentile: a
  /// brief stall moves a few slices, not the result.
  double SliceMedian(double p) const;

 private:
  std::map<int64_t, Histogram> slices_;
  size_t count_ = 0;
};

/// Highest percentile with at least ten samples beyond it (99, 95, 90),
/// or 50 for short series.
double SupportedTail(size_t samples);

/// One measured value.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run measured, in insertion order, plus descriptive
/// key/value facts (constants, options, provenance) for the result file.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds the p50 and p90 of `samples`, in milliseconds, as
  /// `<prefix>_p50_ms` and `<prefix>_p90_ms`: fixed names, so compare.py
  /// can gate them.
  void AddLatencyMs(const std::string& prefix, const Samples& samples);
  /// Records a fact; `json_value` is a JSON literal (number, string with
  /// quotes, true/false).
  void Info(const std::string& key, const std::string& json_value);
  void InfoNumber(const std::string& key, double value);
  void InfoString(const std::string& key, const std::string& value);

  const Metric* Find(const std::string& name) const;
  double Value(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::pair<std::string, std::string>>& info() const {
    return info_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// What a workload run produced.
struct Outcome {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness-gate violations; empty means the run is valid.
  std::vector<std::string> gate_failures;
};

/// a / b, or 0 when b is 0 (every ratio the benchmark prints is finite).
double Ratio(double a, double b);

/// `s` as a quoted, escaped JSON string.
std::string JsonString(const std::string& s);
/// Round-tripping decimal form of `v` ("%.17g", integers bare); 0 for a
/// non-finite value.
std::string JsonNumber(double v);

/// Counter and latency-histogram deltas over one measured window, summed
/// across registries (a replicated cluster has one per node). Percentiles
/// come from the diffed cumulative buckets, log-interpolated inside the
/// quarter-decade bucket that holds the rank.
class RegistryWindow {
 public:
  RegistryWindow(std::vector<MetricsRegistry*> registries,
                 std::vector<std::string> counters,
                 std::vector<std::string> latencies);

  void Begin();
  void End();

  double Counter(const std::string& name) const;
  uint64_t LatencyCount(const std::string& name) const;
  /// Percentile of the window's samples in seconds; 0 with no samples.
  double LatencyPercentile(const std::string& name, double p) const;

 private:
  using Buckets = std::vector<LatencyHistogram::Bucket>;
  struct State {
    std::map<std::string, double> counters;
    std::map<std::string, Buckets> latencies;
  };
  State Capture() const;

  std::vector<MetricsRegistry*> registries_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> latency_names_;
  State begin_;
  State end_;
};

/// CPU placement on hosts with at least 4 CPUs: everything the library
/// starts (server, worker pools, replication) runs on the lower half of
/// the CPUs and the load generator on the upper half, so client and
/// server never share a core, as on separate hosts, and the scheduler
/// cannot flip the run between co-located and split thread placements.
/// With fewer CPUs both calls do nothing.
void PinToServerCpus();
void PinToGeneratorCpus();
/// "server 0-1, generator 2-3" style description of the split, or "none".
std::string CpuSplit();

/// getrusage(RUSAGE_SELF) totals.
struct ProcUsage {
  double cpu_s = 0;
  double ctx_switches = 0;
  static ProcUsage Now();
};
/// Peak resident set of this process, MB.
double PeakRssMb();

// --- Worlds -------------------------------------------------------------

/// GenerateTown grid of rows x cols intersections, seeded from --seed.
HdMap MakeTown(int grid, uint64_t seed);

MapService::Options ServiceOptions();
TileServer::Options ServerOptions();

/// Records the server/service options every workload runs with.
void DescribeServing(Report* report);

/// A `size` x `size` box with its min corner at (x, y).
Aabb Box(double x, double y, double size);

/// Moves of `count` landmarks from `pool` to seeded offsets (within
/// +-2 m) of their positions in `original`: the map never drifts, so a
/// workload's patch stream is stationary however long it runs.
void AddLandmarkMoves(const HdMap& original,
                      const std::vector<ElementId>& pool, size_t count,
                      Rng& rng, MapPatch* patch);

/// Landmark and lanelet ids whose geometry lies inside `area`.
std::vector<ElementId> LandmarksIn(const HdMap& map, const Aabb& area);
std::vector<ElementId> LaneletsIn(const HdMap& map, const Aabb& area);

/// A maintenance patch on the `area`: moves 4 landmarks and replaces one
/// lanelet (a new speed limit), the rule-level change that forces a
/// routing rebuild on publish.
MapPatch MaintenancePatch(const HdMap& original,
                          const std::vector<ElementId>& landmarks,
                          const std::vector<ElementId>& lanelets, Rng& rng);

/// Sorted lanelet ids of a decoded region (the region-scan gate).
std::vector<ElementId> LaneletIds(const HdMap& map);

/// `n` uniform-random tiles of `tiles`, with repeats.
std::vector<TileId> RandomTiles(const TileStore& tiles, size_t n, Rng& rng);

/// `n` uniform-random `size` x `size` boxes inside `area`.
std::vector<Aabb> RandomBoxes(const Aabb& area, double size, size_t n,
                              Rng& rng);

/// The `size` x `size` area at the center of `world`, its corner snapped
/// to the tile grid. Every seed's hot spot covers the same kind of
/// streets, so the seed varies the requests, not the per-request cost.
Aabb HotArea(const Aabb& world, double size);

/// `n` maintenance patches (see MaintenancePatch) on the 600 m hot area
/// of `world`: the replay input of workloads without a write stream of
/// their own.
std::vector<MapPatch> MaintenancePatches(const HdMap& world, size_t n,
                                         Rng& rng);

}  // namespace hdmap::bench

#endif  // HDMAP_BENCHMARK_HARNESS_H_
