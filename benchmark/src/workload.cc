#include "workload.h"

#include <unistd.h>

#include <cstdio>

#include "trace_stats.h"

namespace hdmap::bench {

namespace {

const std::vector<std::string> kWindowCounters = {
    "net.requests",          "net.busy_rejected",
    "net.coalesced",         "net.computations",
    "net.not_modified",      "net.deltas",
    "net.bytes_out",         "tile_store.cache_hits",
    "tile_store.cache_misses", "tile_store.cache_evictions",
    "wal.appends",           "wal.fsync_batches",
    "storage.checkpoint_writes", "repl.batches_shipped",
    "repl.records_shipped",  "repl.ship_failures",
};

const std::vector<std::string> kWindowLatencies = {
    "net.request",      "map_service.get_region", "map_service.publish",
    "wal.append",       "storage.checkpoint_write", "replication.ack_wait",
};

/// Median setup times of a run (see RunWorkload).
struct SetupTimes {
  /// Setup wall time less the bootstrap checkpoint writes.
  double setup_s = 0;
  double checkpoint_s = 0;
};

/// End-to-end metrics of an untraced run. BENCHMARK.json gates the p90
/// over 1 s slices, not the p99: on a shared host a whole-window p99
/// follows the host's stalls more than the code (see README.md).
void AddEndToEnd(const PhaseResult& phase, const ProcUsage& usage,
                 const SetupTimes& setup, Report* r) {
  double ok = static_cast<double>(phase.succeeded());
  double attempted = static_cast<double>(phase.attempted);
  r->Add("op_p50_ms", phase.op.SliceMedian(50) * 1e3, "ms");
  r->Add("op_p90_ms", phase.op.SliceMedian(90) * 1e3, "ms");
  r->Add("op_p99_ms", phase.op.Percentile(99) * 1e3, "ms");
  r->InfoNumber("op_samples", static_cast<double>(phase.op.size()));
  r->Add("ops_per_s", Ratio(ok, phase.seconds), "1/s");
  r->Add("cpu_ms_per_op", Ratio(usage.cpu_s * 1e3, ok), "ms");
  r->Add("bytes_per_op", Ratio(phase.bytes, ok), "B");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("setup_s", setup.setup_s, "s");
  if (setup.checkpoint_s > 0) {
    r->Add("setup_checkpoint_s", setup.checkpoint_s, "s");
  }
  r->Add("slo_miss_frac",
         Ratio(static_cast<double>(phase.failed + phase.over_limit),
               attempted),
         "ratio");
  r->Add("ops_failed_frac", Ratio(static_cast<double>(phase.failed), attempted),
         "ratio");
  for (const Metric& m : phase.extra.metrics()) r->Add(m.name, m.value, m.unit);
  for (const auto& [key, value] : phase.extra.info()) r->Info(key, value);
  if (phase.lateness.size() > 0) {
    r->Add("gen.late_p99_ms", phase.lateness.Percentile(99) * 1e3, "ms");
  }
}

/// Percentile of a window histogram in `scale` units, when it has samples.
void AddWindowLatency(const RegistryWindow& w, const std::string& instrument,
                      const std::string& name, double scale,
                      const std::string& unit, Report* r) {
  uint64_t n = w.LatencyCount(instrument);
  if (n == 0) return;
  r->Add(name + "_p50_" + unit, w.LatencyPercentile(instrument, 50) * scale,
         unit);
  double tail = SupportedTail(n);
  if (tail > 50) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "_p%g_", tail);
    r->Add(name + suffix + unit, w.LatencyPercentile(instrument, tail) * scale,
           unit);
  }
}

/// Per-layer metrics of a traced run: registry deltas and process usage
/// over the untraced half (`base`), trace self times and overhead from the
/// traced half, and the layer replays.
bool AddPerLayer(Workload& workload, const Config& config,
                 const PhaseResult& base, const RegistryWindow& w,
                 const ProcUsage& usage, const PhaseResult& traced,
                 const TraceCapture& capture, Report* r,
                 std::string* error) {
  double ops = static_cast<double>(base.succeeded());
  double requests = w.Counter("net.requests");
  double server_p50_us = w.LatencyPercentile("net.request", 50) * 1e6;
  r->Add("net.server_p50_us", server_p50_us, "us");
  r->Add("net.server_p99_us", w.LatencyPercentile("net.request", 99) * 1e6,
         "us");
  r->Add("net.client_gap_p50_us",
         base.op.SliceMedian(50) * 1e6 - server_p50_us, "us");
  r->Add("net.busy_frac",
         Ratio(w.Counter("net.busy_rejected"),
               requests + w.Counter("net.busy_rejected")),
         "ratio");
  r->Add("net.coalesced_frac", Ratio(w.Counter("net.coalesced"), requests),
         "ratio");
  r->Add("net.computations_per_op", Ratio(w.Counter("net.computations"), ops),
         "count");
  r->Add("net.bytes_out_per_op", Ratio(w.Counter("net.bytes_out"), ops), "B");
  r->Add("net.not_modified_frac", Ratio(w.Counter("net.not_modified"), requests),
         "ratio");
  r->Add("net.delta_frac", Ratio(w.Counter("net.deltas"), requests), "ratio");
  double hits = w.Counter("tile_store.cache_hits");
  r->Add("core.cache_hit_frac",
         Ratio(hits, hits + w.Counter("tile_store.cache_misses")), "ratio");
  r->Add("core.evictions_per_op",
         Ratio(w.Counter("tile_store.cache_evictions"), ops), "count");
  r->Add("storage.records_per_fsync",
         Ratio(w.Counter("wal.appends"), w.Counter("wal.fsync_batches")),
         "count");
  r->Add("storage.checkpoints", w.Counter("storage.checkpoint_writes"),
         "count");
  r->Add("replication.records_per_batch",
         Ratio(w.Counter("repl.records_shipped"),
               w.Counter("repl.batches_shipped")),
         "count");
  r->Add("replication.lag_records_max", base.lag_records_max, "count");
  r->Add("replication.ship_failures", w.Counter("repl.ship_failures"),
         "count");
  r->Add("proc.cpu_ms_per_op", Ratio(usage.cpu_s * 1e3, ops), "ms");
  r->Add("proc.ctx_switches_per_op", Ratio(usage.ctx_switches, ops), "count");
  r->Add("gen.dropped_frac",
         Ratio(static_cast<double>(base.dropped),
               static_cast<double>(base.attempted)),
         "ratio");
  if (base.lateness.size() > 0) {
    r->Add("gen.late_p99_ms", base.lateness.Percentile(99) * 1e3, "ms");
  }
  // Window percentiles of layers only some workloads exercise.
  AddWindowLatency(w, "map_service.get_region", "service.get_region", 1e6,
                   "us", r);
  AddWindowLatency(w, "map_service.publish", "service.publish", 1e3, "ms", r);
  AddWindowLatency(w, "wal.append", "storage.wal_append", 1e6, "us", r);
  AddWindowLatency(w, "storage.checkpoint_write", "storage.checkpoint_write",
                   1e3, "ms", r);
  AddWindowLatency(w, "replication.ack_wait", "replication.ack_wait", 1e3,
                   "ms", r);

  ReplayInputs inputs = workload.GetReplayInputs();
  inputs.tmp_dir = config.tmp_root + "/replay-" + std::to_string(getpid());
  if (!RunReplays(inputs, r, error)) return false;

  double base_p50 = base.op.SliceMedian(50);
  r->Add("trace.overhead_frac",
         Ratio(traced.op.SliceMedian(50), base_p50) - 1, "ratio");
  r->Add("trace.coverage_frac",
         Ratio(workload.BlockingPathUs(*r), base_p50 * 1e6), "ratio");
  for (const auto& [name, self_us] : SelfTimeP50Us(capture.events)) {
    r->Add("trace.self_us." + name, self_us, "us");
  }
  r->Add("trace.spans", static_cast<double>(capture.events.size()), "count");
  return true;
}

/// The open-loop generator must keep its schedule. The gate reads the
/// median send: a host stall delays a few hundred sends, which the p99
/// reports, while a generator too slow for its rate delays most of them.
void CheckGenerator(const PhaseResult& phase,
                    std::vector<std::string>* failures) {
  double late_p50 = phase.lateness.Median();
  if (phase.late_limit_s > 0 && late_p50 > phase.late_limit_s) {
    failures->push_back("generator fell behind: median send " +
                        std::to_string(late_p50 * 1e3) + " ms late");
  }
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Config& config) {
  if (config.workload == "tile_fleet") return MakeTileFleet(config);
  if (config.workload == "region_scan") return MakeRegionScan(config);
  if (config.workload == "fleet_update") return MakeFleetUpdate(config);
  if (config.workload == "replicated_write") {
    return MakeReplicatedWrite(config);
  }
  return nullptr;
}

Outcome RunWorkload(Workload& workload, const Config& config) {
  Outcome out;
  Report& r = out.report;
  DescribeServing(&r);
  workload.Describe(&r);
  r.InfoString("cpu_split", CpuSplit());
  // Library threads inherit this from the thread that starts them.
  PinToServerCpus();
  // Writeback of files an earlier process left dirty must not land in
  // this run's fsyncs.
  ::sync();

  // Sets up setup_reps() times, tearing down (untimed) in between and
  // keeping the last.
  Status setup_status;
  std::vector<double> setup_times, checkpoint_times;
  for (int i = 0; i < config.setup_reps() && setup_status.ok(); ++i) {
    if (i > 0) workload.Teardown();
    Clock::time_point start = Clock::now();
    setup_status = workload.Setup();
    double wall = SecondsSince(start);
    double checkpoint_s = workload.SetupCheckpointSeconds();
    setup_times.push_back(wall - checkpoint_s);
    checkpoint_times.push_back(checkpoint_s);
  }
  SetupTimes setup{Median(std::move(setup_times)),
                   Median(std::move(checkpoint_times))};
  if (!setup_status.ok()) {
    out.gate_failures.push_back("setup failed: " + setup_status.ToString());
    workload.Teardown();
    return out;
  }

  workload.RunPhase(config.warmup_s());
  RegistryWindow window(workload.Registries(), kWindowCounters,
                        kWindowLatencies);
  window.Begin();
  ProcUsage usage = ProcUsage::Now();
  PhaseResult base =
      workload.RunPhase(config.traced ? config.seconds / 2 : config.seconds);
  ProcUsage after = ProcUsage::Now();
  window.End();
  usage.cpu_s = after.cpu_s - usage.cpu_s;
  usage.ctx_switches = after.ctx_switches - usage.ctx_switches;
  out.attempted = base.attempted;
  out.failed = base.failed;
  CheckGenerator(base, &out.gate_failures);

  if (!config.traced) {
    workload.CheckGates(&out.gate_failures);
    AddEndToEnd(base, usage, setup, &r);
    workload.Teardown();
    return out;
  }

  EnableTracing();
  PhaseResult traced = workload.RunPhase(config.seconds / 2);
  TraceCapture capture = FinishTracing(config.trace_out_path);
  out.attempted += traced.attempted;
  out.failed += traced.failed;
  workload.CheckGates(&out.gate_failures);
  if (capture.dropped != 0) {
    out.gate_failures.push_back("trace ring dropped " +
                                std::to_string(capture.dropped) +
                                " spans; per-layer self times are biased");
  }
  std::string error;
  if (!AddPerLayer(workload, config, base, window, usage, traced, capture, &r,
                   &error)) {
    out.gate_failures.push_back("replay failed: " + error);
  }
  workload.Teardown();
  return out;
}

}  // namespace hdmap::bench
