#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/road_network_generator.h"

namespace hdmap::bench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

namespace {

// Samples bins log10(seconds) over [kLogLoS, kLogHiS).
constexpr double kLogLoS = -9;
constexpr double kLogHiS = 3;
constexpr int kBinsPerDecade = 256;

Histogram EmptyBins() {
  return Histogram(kLogLoS, kLogHiS,
                   static_cast<int>((kLogHiS - kLogLoS) * kBinsPerDecade));
}

/// Nearest-rank percentile of `h` in seconds, log-interpolated between the
/// edges of the bin that holds the rank; samples under 1 ns count as 0.
double BinnedPercentile(const Histogram& h, double p) {
  if (h.total() == 0) return 0;
  double rank =
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(h.total())));
  double below = static_cast<double>(h.underflow());
  if (rank <= below) return 0;
  for (int b = 0; b < h.num_bins(); ++b) {
    double n = static_cast<double>(h.bin_count(b));
    if (below + n >= rank) {
      double frac = (rank - below - 0.5) / n;
      return std::pow(10.0, h.bin_lo(b) + frac * (h.bin_hi(b) - h.bin_lo(b)));
    }
    below += n;
  }
  return std::pow(10.0, kLogHiS);  // Overflow: clamp.
}

}  // namespace

void Samples::Add(double seconds) {
  int64_t slice = static_cast<int64_t>(
      std::chrono::duration<double>(Clock::now().time_since_epoch()).count() /
      kSliceS);
  auto it = slices_.find(slice);
  if (it == slices_.end()) it = slices_.emplace(slice, EmptyBins()).first;
  it->second.Add(seconds > 0 ? std::log10(seconds) : -HUGE_VAL);
  ++count_;
}

void Samples::Append(const Samples& other) {
  for (const auto& [slice, bins] : other.slices_) {
    auto it = slices_.find(slice);
    if (it == slices_.end()) it = slices_.emplace(slice, EmptyBins()).first;
    it->second.Merge(bins);
  }
  count_ += other.count_;
}

double Samples::Percentile(double p) const {
  Histogram all = EmptyBins();
  for (const auto& [slice, bins] : slices_) all.Merge(bins);
  return BinnedPercentile(all, p);
}

double Samples::SliceMedian(double p) const {
  std::vector<double> per_slice;
  for (const auto& [slice, bins] : slices_) {
    per_slice.push_back(BinnedPercentile(bins, p));
  }
  return hdmap::Median(std::move(per_slice));
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0, unit});
}

double SupportedTail(size_t samples) {
  if (samples >= 1000) return 99;
  if (samples >= 200) return 95;
  if (samples >= 100) return 90;
  return 50;
}

void Report::AddLatencyMs(const std::string& prefix, const Samples& samples) {
  Add(prefix + "_p50_ms", samples.Median() * 1e3, "ms");
  Add(prefix + "_p90_ms", samples.Percentile(90) * 1e3, "ms");
  InfoNumber(prefix + "_samples", static_cast<double>(samples.size()));
}

void Report::Info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

void Report::InfoNumber(const std::string& key, double value) {
  Info(key, JsonNumber(value));
}

void Report::InfoString(const std::string& key, const std::string& value) {
  Info(key, JsonString(value));
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double Report::Value(const std::string& name) const {
  const Metric* m = Find(name);
  return m != nullptr ? m->value : 0;
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

std::string JsonString(const std::string& s) {
  std::string out(1, '"');
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

RegistryWindow::RegistryWindow(std::vector<MetricsRegistry*> registries,
                               std::vector<std::string> counters,
                               std::vector<std::string> latencies)
    : registries_(std::move(registries)),
      counter_names_(std::move(counters)),
      latency_names_(std::move(latencies)) {}

RegistryWindow::State RegistryWindow::Capture() const {
  State state;
  for (const std::string& name : counter_names_) {
    double sum = 0;
    for (MetricsRegistry* r : registries_) {
      sum += static_cast<double>(r->GetCounter(name)->value());
    }
    state.counters[name] = sum;
  }
  for (const std::string& name : latency_names_) {
    Buckets merged;
    for (MetricsRegistry* r : registries_) {
      Buckets b = r->GetLatency(name)->CumulativeBuckets();
      if (merged.empty()) {
        merged = std::move(b);
      } else {
        for (size_t i = 0; i < merged.size() && i < b.size(); ++i) {
          merged[i].cumulative_count += b[i].cumulative_count;
        }
      }
    }
    state.latencies[name] = std::move(merged);
  }
  return state;
}

void RegistryWindow::Begin() { begin_ = Capture(); }
void RegistryWindow::End() { end_ = Capture(); }

double RegistryWindow::Counter(const std::string& name) const {
  auto b = begin_.counters.find(name);
  auto e = end_.counters.find(name);
  if (b == begin_.counters.end() || e == end_.counters.end()) return 0;
  return e->second - b->second;
}

uint64_t RegistryWindow::LatencyCount(const std::string& name) const {
  auto b = begin_.latencies.find(name);
  auto e = end_.latencies.find(name);
  if (b == begin_.latencies.end() || e == end_.latencies.end() ||
      e->second.empty() || b->second.empty()) {
    return 0;
  }
  return e->second.back().cumulative_count - b->second.back().cumulative_count;
}

double RegistryWindow::LatencyPercentile(const std::string& name,
                                         double p) const {
  uint64_t total = LatencyCount(name);
  if (total == 0) return 0;
  const Buckets& b = begin_.latencies.at(name);
  const Buckets& e = end_.latencies.at(name);
  double rank = std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(total)));
  double prev_cum = 0;
  for (size_t i = 0; i < e.size(); ++i) {
    double cum = static_cast<double>(e[i].cumulative_count -
                                     b[i].cumulative_count);
    if (cum < rank) {
      prev_cum = cum;
      continue;
    }
    double hi = e[i].le_seconds;
    double lo = i > 0 ? e[i - 1].le_seconds : hi / std::pow(10.0, 0.25);
    if (!std::isfinite(hi)) return lo;  // Overflow bucket: clamp.
    double frac = (rank - prev_cum) / std::max(1.0, cum - prev_cum);
    return lo * std::pow(hi / lo, frac);
  }
  return e.empty() ? 0 : e.back().le_seconds;
}

namespace {

/// Pins the calling thread to CPUs [lo, hi) when the host has >= 4.
void PinCurrentThread(bool upper_half) {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = upper_half ? n / 2 : 0; c < (upper_half ? n : n / 2); ++c) {
    CPU_SET(static_cast<int>(c), &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

void PinToServerCpus() { PinCurrentThread(false); }
void PinToGeneratorCpus() { PinCurrentThread(true); }

std::string CpuSplit() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 4) return "none";
  return "server 0-" + std::to_string(n / 2 - 1) + ", generator " +
         std::to_string(n / 2) + "-" + std::to_string(n - 1);
}

ProcUsage ProcUsage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage out;
  out.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
  out.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return out;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

HdMap MakeTown(int grid, uint64_t seed) {
  Rng rng(seed);
  TownOptions options;
  options.grid_rows = grid;
  options.grid_cols = grid;
  Result<HdMap> town = GenerateTown(options, rng);
  if (!town.ok()) {
    std::fprintf(stderr, "GenerateTown failed: %s\n",
                 town.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(town).value();
}

MapService::Options ServiceOptions() {
  MapService::Options options;
  options.tile_store.tile_size_m = kTileSizeM;
  return options;
}

TileServer::Options ServerOptions() {
  TileServer::Options options;
  options.worker_threads = kServerWorkerThreads;
  return options;
}

void DescribeServing(Report* report) {
  MapService::Options service = ServiceOptions();
  TileServer::Options server = ServerOptions();
  report->InfoNumber("tile_size_m", service.tile_store.tile_size_m);
  report->InfoNumber("service.tile_cache_capacity",
                     static_cast<double>(service.tile_store.cache_capacity));
  report->InfoNumber("service.publish_threads",
                     static_cast<double>(service.publish_threads));
  report->InfoNumber("service.read_threads",
                     static_cast<double>(service.read_threads));
  report->InfoNumber("service.publish_history",
                     static_cast<double>(service.publish_history));
  report->InfoNumber("server.worker_threads",
                     static_cast<double>(server.worker_threads));
  report->InfoNumber("server.max_pending_requests",
                     static_cast<double>(server.max_pending_requests));
  report->InfoNumber("server.max_inflight_per_connection",
                     static_cast<double>(server.max_inflight_per_connection));
  report->InfoNumber("warmup_s", kWarmupS);
  report->InfoNumber("check_every", static_cast<double>(kCheckEvery));
}

Aabb Box(double x, double y, double size) {
  return Aabb({x, y}, {x + size, y + size});
}

void AddLandmarkMoves(const HdMap& original,
                      const std::vector<ElementId>& pool, size_t count,
                      Rng& rng, MapPatch* patch) {
  for (size_t k = 0; k < count && !pool.empty(); ++k) {
    ElementId id =
        pool[static_cast<size_t>(rng.UniformInt(0, static_cast<int>(pool.size()) - 1))];
    const Landmark* lm = original.FindLandmark(id);
    if (lm == nullptr) continue;
    MapPatch::Move move;
    move.id = id;
    move.new_position = Vec3(lm->position.x + rng.Uniform(-2.0, 2.0),
                             lm->position.y + rng.Uniform(-2.0, 2.0),
                             lm->position.z);
    patch->moved_landmarks.push_back(move);
  }
}

std::vector<ElementId> LandmarksIn(const HdMap& map, const Aabb& area) {
  std::vector<ElementId> out;
  for (const auto& [id, lm] : map.landmarks()) {
    if (area.Contains(lm.position.xy())) out.push_back(id);
  }
  return out;
}

std::vector<ElementId> LaneletsIn(const HdMap& map, const Aabb& area) {
  std::vector<ElementId> out;
  for (const auto& [id, ll] : map.lanelets()) {
    Aabb box = ll.centerline.BoundingBox();
    if (area.Contains(box.min) && area.Contains(box.max)) out.push_back(id);
  }
  return out;
}

MapPatch MaintenancePatch(const HdMap& original,
                          const std::vector<ElementId>& landmarks,
                          const std::vector<ElementId>& lanelets, Rng& rng) {
  static constexpr double kSpeedLimitsMps[] = {8.33, 11.11, 13.89, 16.67};
  MapPatch patch;
  AddLandmarkMoves(original, landmarks, 4, rng, &patch);
  if (!lanelets.empty()) {
    ElementId id = lanelets[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(lanelets.size()) - 1))];
    if (const Lanelet* ll = original.FindLanelet(id)) {
      Lanelet updated = *ll;
      updated.speed_limit_mps = kSpeedLimitsMps[rng.UniformInt(0, 3)];
      patch.updated_lanelets.push_back(std::move(updated));
    }
  }
  return patch;
}

std::vector<ElementId> LaneletIds(const HdMap& map) {
  std::vector<ElementId> out;
  out.reserve(map.lanelets().size());
  for (const auto& [id, ll] : map.lanelets()) out.push_back(id);
  return out;
}

std::vector<TileId> RandomTiles(const TileStore& tiles, size_t n, Rng& rng) {
  std::vector<TileId> all = tiles.AllTiles();
  std::vector<TileId> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(all[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(all.size()) - 1))]);
  }
  return out;
}

std::vector<Aabb> RandomBoxes(const Aabb& area, double size, size_t n,
                              Rng& rng) {
  std::vector<Aabb> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Box(rng.Uniform(area.min.x, area.max.x - size),
                      rng.Uniform(area.min.y, area.max.y - size), size));
  }
  return out;
}

Aabb HotArea(const Aabb& world, double size) {
  Vec2 center = world.Center();
  return Box(std::round((center.x - size / 2) / kTileSizeM) * kTileSizeM,
             std::round((center.y - size / 2) / kTileSizeM) * kTileSizeM,
             size);
}

std::vector<MapPatch> MaintenancePatches(const HdMap& world, size_t n,
                                         Rng& rng) {
  Aabb area = HotArea(world.BoundingBox(), 600.0);
  std::vector<ElementId> landmarks = LandmarksIn(world, area);
  std::vector<ElementId> lanelets = LaneletsIn(world, area);
  std::vector<MapPatch> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(MaintenancePatch(world, landmarks, lanelets, rng));
  }
  return out;
}

}  // namespace hdmap::bench
