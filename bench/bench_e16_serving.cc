// E16: versioned snapshot serving under a concurrent reader/writer load.
//
// N reader threads hammer MapService::GetRegion while one writer thread
// publishes patches at a fixed rate. Each patch moves a set of version
// markers (landmarks whose z coordinate encodes the snapshot version), so
// a reader can detect a torn read — a region stitched from tiles of two
// different versions — by checking that every marker in the loaded region
// carries the same z. The run fails (nonzero exit) on any torn read or
// version rollback; latency percentiles and service metrics are reported
// from the MetricsRegistry that instruments the service.
//
// With --fault-pct=K a deterministic FaultInjector bit-flips serialized
// tiles at load time (site "tile_store.load"); the service keeps serving
// in degraded mode, and the run additionally reports the degraded-region
// rate and final Health() alongside the latency percentiles. Injection is
// content-hash deterministic, so K% is the fraction of distinct tile
// blobs that corrupt (not of individual loads): a firing tile fires on
// every load until a publish replaces its bytes.
//
// Observability hooks:
//   --trace-out=FILE      enables the global TraceRecorder (1-in-8 head
//                         sampling plus always-on error/slow capture) and
//                         writes a Chrome trace_event JSON to FILE — load
//                         it in https://ui.perfetto.dev. Degraded reads
//                         appear as GetRegion roots nesting the failing
//                         tile_store.validate span.
//   --metrics-format=F    final metrics dump format: text (default),
//                         prom (Prometheus exposition), or json.
// The run always reports the service's recent structured events (with
// trace ids) and a tracing-overhead probe: single-threaded GetRegion p50
// with the recorder fully off vs enabled-but-unsampled.
//
// Usage: bench_e16_serving [--smoke] [--readers=N] [--seconds=S]
//                          [--rate-hz=R] [--fault-pct=K]
//                          [--trace-out=FILE] [--metrics-format=F]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/statistics.h"
#include "common/trace.h"
#include "service/map_service.h"
#include "tests/test_worlds.h"

namespace hdmap {
namespace {

constexpr ElementId kFirstMarkerId = 900001;
constexpr int kNumMarkers = 6;

/// Markers straddle several 100 m tiles so a region load crosses tile
/// boundaries — the only way a torn stitch could manifest.
Vec2 MarkerXy(int i) { return {40.0 + 55.0 * i, 6.0}; }

struct ReaderResult {
  std::vector<double> latencies_s;
  uint64_t reads = 0;
  uint64_t degraded = 0;
  uint64_t torn = 0;
  uint64_t rollbacks = 0;
  uint64_t errors = 0;
};

ReaderResult ReaderLoop(const MapService& service, const Aabb& box,
                        const std::atomic<bool>& stop) {
  ReaderResult out;
  uint64_t last_version = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    bench::Timer t;
    RegionReport report;
    auto region = service.GetRegion(box, &report);
    out.latencies_s.push_back(t.Seconds());
    ++out.reads;
    if (!region.ok()) {
      ++out.errors;
      continue;
    }
    if (!report.corrupt_tiles.empty()) {
      // Degraded read: markers may live in the quarantined tiles, so the
      // torn-read check is meaningless for this response.
      ++out.degraded;
      continue;
    }
    const Landmark* first = region->FindLandmark(kFirstMarkerId);
    if (first == nullptr) {
      ++out.errors;
      continue;
    }
    uint64_t version = static_cast<uint64_t>(first->position.z);
    bool torn = false;
    for (int i = 1; i < kNumMarkers; ++i) {
      const Landmark* lm = region->FindLandmark(kFirstMarkerId + i);
      if (lm == nullptr ||
          static_cast<uint64_t>(lm->position.z) != version) {
        torn = true;
      }
    }
    if (torn) ++out.torn;
    if (version < last_version) ++out.rollbacks;
    last_version = version;
  }
  return out;
}

}  // namespace
}  // namespace hdmap

int main(int argc, char** argv) {
  using namespace hdmap;

  size_t readers = 4;
  double seconds = 3.0;
  double rate_hz = 100.0;
  double fault_pct = 0.0;
  std::string trace_out;
  std::string metrics_format = "text";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      readers = 2;
      seconds = 0.4;
      smoke = true;
    } else if (std::strncmp(argv[i], "--readers=", 10) == 0) {
      readers = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--rate-hz=", 10) == 0) {
      rate_hz = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--fault-pct=", 12) == 0) {
      fault_pct = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics-format=", 17) == 0) {
      metrics_format = argv[i] + 17;
    }
  }
  const bool fault_mode = fault_pct > 0.0;
  if (metrics_format != "text" && metrics_format != "prom" &&
      metrics_format != "json") {
    std::fprintf(stderr, "unknown --metrics-format=%s (text|prom|json)\n",
                 metrics_format.c_str());
    return 1;
  }

  bench::PrintHeader(
      "E16", "snapshot serving under concurrent patch publishing",
      "fleet map services serve consistent versions while updates land "
      "continuously (II-B.2 / III serving workloads)");

  MetricsRegistry registry;
  FaultInjector faults(20260807);
  if (fault_mode) {
    faults.AddPolicy({TileStore::kLoadFaultSite, FaultKind::kBitFlip,
                      fault_pct / 100.0});
  }
  MapService::Options opt;
  opt.tile_store.tile_size_m = 100.0;
  opt.metrics = &registry;
  if (fault_mode) opt.fault_injector = &faults;
  MapService service(opt);

  HdMap world = StraightRoad(400.0);
  for (int i = 0; i < kNumMarkers; ++i) {
    Landmark marker;
    marker.id = kFirstMarkerId + i;
    marker.type = LandmarkType::kTrafficSign;
    marker.subtype = "version_marker";
    marker.position = {MarkerXy(i).x, MarkerXy(i).y, 1.0};  // z = version.
    if (!world.AddLandmark(marker).ok()) return 1;
  }
  if (!service.Init(std::move(world)).ok()) {
    std::fprintf(stderr, "Init failed\n");
    return 1;
  }

  // The query box spans every marker (and several tile boundaries).
  Aabb box{{0.0, -10.0}, {400.0, 12.0}};

  // Tracing-overhead probe: single-threaded GetRegion p50 with the
  // recorder fully disabled (baseline) vs enabled with head sampling off
  // (spans pay their clock/bookkeeping cost but record nothing). The
  // acceptance bar is p50 within ~5% of baseline.
  const int probe_iters = smoke ? 150 : 600;
  auto probe_p50 = [&](int iters) {
    std::vector<double> lat;
    lat.reserve(static_cast<size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      bench::Timer t;
      (void)service.GetRegion(box);
      lat.push_back(t.Seconds());
    }
    return Percentile(std::move(lat), 50);
  };
  TraceRecorder::Global().Configure(TraceRecorder::Options{});
  (void)probe_p50(probe_iters / 3);  // Warm caches.
  double p50_tracing_off = probe_p50(probe_iters);
  {
    TraceRecorder::Options probe_opts;
    probe_opts.enabled = true;
    probe_opts.sample_every_n = 0;  // Head sampling off.
    probe_opts.slow_threshold_s = 0.0;
    TraceRecorder::Global().Configure(probe_opts);
  }
  double p50_sampling_off = probe_p50(probe_iters);

  // Main-load tracing: only when a trace file was requested. 1-in-8 head
  // sampling keeps the ring representative without distorting latency;
  // error and slow spans always record on top.
  if (!trace_out.empty()) {
    TraceRecorder::Options trace_opts;
    trace_opts.enabled = true;
    trace_opts.capacity = 16384;
    trace_opts.sample_every_n = 8;
    trace_opts.slow_threshold_s = 0.25;
    TraceRecorder::Global().Configure(trace_opts);
  } else {
    TraceRecorder::Global().Configure(TraceRecorder::Options{});
  }

  std::atomic<bool> stop{false};
  std::vector<ReaderResult> results(readers);
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] { results[r] = ReaderLoop(service, box, stop); });
  }

  // Writer: publish version v with every marker's z set to v, at rate_hz.
  uint64_t publishes = 0;
  uint64_t publish_failures = 0;
  bench::Timer run;
  auto period =
      std::chrono::duration<double>(rate_hz > 0.0 ? 1.0 / rate_hz : 0.01);
  while (run.Seconds() < seconds) {
    uint64_t next_version = service.version() + 1;
    MapPatch patch;
    for (int i = 0; i < kNumMarkers; ++i) {
      patch.moved_landmarks.push_back(
          {kFirstMarkerId + i,
           {MarkerXy(i).x, MarkerXy(i).y, static_cast<double>(next_version)}});
    }
    if (service.ApplyPatch(std::move(patch)).ok()) {
      ++publishes;
    } else {
      ++publish_failures;
      service.DiscardStagedPatches();
    }
    std::this_thread::sleep_for(period);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  std::vector<double> latencies;
  uint64_t reads = 0, degraded = 0, torn = 0, rollbacks = 0, errors = 0;
  for (const ReaderResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_s.begin(),
                     r.latencies_s.end());
    reads += r.reads;
    degraded += r.degraded;
    torn += r.torn;
    rollbacks += r.rollbacks;
    errors += r.errors;
  }

  std::printf("\nload: %zu readers x GetRegion, 1 writer @ %.0f Hz, %.1f s",
              readers, rate_hz, seconds);
  if (fault_mode) {
    std::printf(", %.1f%% tile blobs corrupted at load", fault_pct);
  }
  std::printf("\n");
  bench::PrintRow("reads served", "(consistent)",
                  bench::Fmt("%.0f", static_cast<double>(reads)));
  bench::PrintRow("versions published", "fixed rate",
                  bench::Fmt("%.0f", static_cast<double>(publishes)));
  bench::PrintRow("torn reads", "0",
                  bench::Fmt("%.0f", static_cast<double>(torn)));
  bench::PrintRow("version rollbacks", "0",
                  bench::Fmt("%.0f", static_cast<double>(rollbacks)));
  bench::PrintRow("read errors", "0",
                  bench::Fmt("%.0f", static_cast<double>(errors)));
  if (fault_mode) {
    double rate = reads > 0 ? 100.0 * static_cast<double>(degraded) /
                                  static_cast<double>(reads)
                            : 0.0;
    bench::PrintRow("degraded regions", "served, not failed",
                    bench::Fmt("%.0f", static_cast<double>(degraded)));
    bench::PrintRow("degraded-region rate", "tracks --fault-pct",
                    bench::Fmt("%.1f %%", rate));
    bench::PrintRow("health", "DEGRADED under faults",
                    service.Health() == ServiceHealth::kDegraded
                        ? "DEGRADED"
                        : "SERVING");
  }
  bench::PrintRow("GetRegion p50", "low ms",
                  bench::Fmt("%.3f ms", Percentile(latencies, 50) * 1e3));
  bench::PrintRow("GetRegion p99", "low ms",
                  bench::Fmt("%.3f ms", Percentile(latencies, 99) * 1e3));

  double overhead_pct =
      p50_tracing_off > 0.0
          ? 100.0 * (p50_sampling_off - p50_tracing_off) / p50_tracing_off
          : 0.0;
  bench::PrintRow("p50 tracing disabled", "baseline",
                  bench::Fmt("%.3f ms", p50_tracing_off * 1e3));
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f ms (%+.1f %%)",
                  p50_sampling_off * 1e3, overhead_pct);
    bench::PrintRow("p50 enabled, sampling off", "within 5% of baseline",
                    buf);
  }

  if (!trace_out.empty()) {
    std::string json = TraceRecorder::Global().ExportChromeTraceJson();
    FILE* f = std::fopen(trace_out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%zu (of %llu recorded)",
                  TraceRecorder::Global().Snapshot().size(),
                  static_cast<unsigned long long>(
                      TraceRecorder::Global().recorded()));
    bench::PrintRow("trace spans buffered", "ring-bounded", buf);
    std::printf("\ntrace written to %s (open in https://ui.perfetto.dev)\n",
                trace_out.c_str());
  }

  uint64_t total_events = service.event_log().total_appended();
  std::vector<EventLog::Event> events = service.RecentEvents(16);
  std::printf("\nrecent events (newest first, %llu total):\n",
              static_cast<unsigned long long>(total_events));
  if (events.empty()) std::printf("  (none)\n");
  for (const EventLog::Event& e : events) {
    std::string_view type = EventLog::TypeToString(e.type);
    std::string_view code = StatusCodeToString(e.code);
    std::printf("  #%llu %.*s code=%.*s trace=%llu %s\n",
                static_cast<unsigned long long>(e.seq),
                static_cast<int>(type.size()), type.data(),
                static_cast<int>(code.size()), code.data(),
                static_cast<unsigned long long>(e.trace_id),
                e.detail.c_str());
  }

  if (metrics_format == "prom") {
    std::printf("\nmetrics (prometheus):\n%s",
                registry.RenderPrometheus().c_str());
  } else if (metrics_format == "json") {
    std::printf("\nmetrics (json):\n%s\n", registry.RenderJson().c_str());
  } else {
    std::printf("\nmetrics registry:\n%s", registry.Render().c_str());
  }

  // Consistency must hold with or without faults; under injection the
  // degraded path must additionally have absorbed the corruption (no
  // reader-visible errors — the whole point of partial-mode serving).
  bool ok = torn == 0 && rollbacks == 0 && errors == 0 &&
            publish_failures == 0 && publishes > 0 && reads > 0;
  std::printf("\nE16 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
