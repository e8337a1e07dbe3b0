// hdmap_bench: one run of one serving-benchmark workload.
//
//   hdmap_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//               [--smoke] [--out FILE] [--trace-out FILE] [--tmp DIR]
//
// Workloads: tile_fleet, region_scan, fleet_update, replicated_write (see
// benchmark/README.md). Prints every metric with its unit, then, as the
// last line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"} whose metrics are the end-to-end set (--trace 0) or the
// per-layer set (--trace 1) that BENCHMARK.json lists. --out writes the
// full result (provenance, constants, every metric). Exits 1 when a
// correctness gate fails and 2 on bad arguments.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace hdmap::bench {
namespace {

/// BENCHMARK.json "end_to_end": reported by every workload, untraced.
const std::vector<std::string> kEndToEnd = {
    "op_p50_ms", "op_p90_ms", "ops_per_s", "bytes_per_op", "peak_rss_mb",
    "setup_s",
};

/// BENCHMARK.json "per_layer": reported by every workload, traced.
const std::vector<std::string> kPerLayer = {
    "net.server_p50_us",
    "net.server_p99_us",
    "net.client_gap_p50_us",
    "net.encode_response_us",
    "net.decode_response_us",
    "net.busy_frac",
    "net.coalesced_frac",
    "net.computations_per_op",
    "net.bytes_out_per_op",
    "net.not_modified_frac",
    "net.delta_frac",
    "service.snapshot_load_ns",
    "service.get_region_us",
    "service.publish_ms",
    "service.patches_since_us",
    "service.stage_patch_us",
    "core.cache_hit_frac",
    "core.evictions_per_op",
    "core.load_region_cold_us",
    "core.load_region_warm_us",
    "core.decode_us_per_tile",
    "core.region_encode_us",
    "core.view_verify_us",
    "core.raw_tile_bytes_ns",
    "core.rebuild_tiles_ms",
    "core.tiles_per_region",
    "core.bytes_per_tile",
    "storage.checkpoint_write_ms",
    "storage.records_per_fsync",
    "storage.checkpoints",
    "replication.records_per_batch",
    "replication.lag_records_max",
    "replication.ship_failures",
    "proc.cpu_ms_per_op",
    "proc.ctx_switches_per_op",
    "gen.dropped_frac",
    "trace.overhead_frac",
    "trace.coverage_frac",
    "trace.self_us.net.request",
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "hdmap_bench: %s\n"
               "usage: hdmap_bench --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--smoke] [--out FILE] [--trace-out FILE] "
               "[--tmp DIR]\n",
               problem.c_str());
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    std::string key = arg, value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + arg);
    }
    char* end = nullptr;
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0)) {
        Usage("--seconds must be a positive number");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      config.traced = value == "1";
    } else if (key == "--out") {
      config.out_path = value;
    } else if (key == "--trace-out") {
      config.trace_out_path = value;
    } else if (key == "--tmp") {
      config.tmp_root = value;
    } else {
      Usage("unknown argument " + key);
    }
  }
  if (config.workload.empty()) Usage("--workload is required");
  if (!have_seed) Usage("--seed is required");
  return config;
}

void AddProvenance(const Config& config, Report* r) {
  const char* sha = std::getenv("HDMAP_BENCH_GIT_SHA");
  r->InfoString("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown");
  r->InfoNumber("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  r->InfoString("build_type", HDMAP_BENCH_BUILD_TYPE);
  r->InfoString("workload", config.workload);
  r->InfoNumber("seed", static_cast<double>(config.seed));
  r->InfoNumber("seconds", config.seconds);
  r->InfoNumber("trace", config.traced ? 1 : 0);
  r->Info("smoke", config.smoke ? "true" : "false");
  r->InfoNumber("setup_reps", config.setup_reps());
  r->InfoNumber("started_unix_ms",
                static_cast<double>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count()));
}

std::string MetricsJson(const std::vector<const Metric*>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += JsonString(metrics[i]->name);
    out += ": {\"value\": ";
    out += JsonNumber(metrics[i]->value);
    out += ", \"unit\": ";
    out += JsonString(metrics[i]->unit);
    out += "}";
  }
  out += "}";
  return out;
}

std::string ResultJson(const Outcome& outcome,
                       const std::vector<const Metric*>& metrics) {
  std::string out = "{\"correct\": ";
  out += outcome.gate_failures.empty() ? "true" : "false";
  out += ", \"attempted\": ";
  out += JsonNumber(static_cast<double>(outcome.attempted));
  out += ", \"failed\": ";
  out += JsonNumber(static_cast<double>(outcome.failed));
  out += ", \"metrics\": ";
  out += MetricsJson(metrics);
  out += "}";
  return out;
}

/// The full result: provenance, constants, gate verdicts, every metric.
std::string DetailJson(const Outcome& outcome) {
  std::string out = "{\"info\": {";
  const auto& info = outcome.report.info();
  for (size_t i = 0; i < info.size(); ++i) {
    if (i != 0) out += ", ";
    out += JsonString(info[i].first);
    out += ": ";
    out += info[i].second;
  }
  out += "}, \"gate_failures\": [";
  for (size_t i = 0; i < outcome.gate_failures.size(); ++i) {
    if (i != 0) out += ", ";
    out += JsonString(outcome.gate_failures[i]);
  }
  std::vector<const Metric*> all;
  for (const Metric& m : outcome.report.metrics()) all.push_back(&m);
  out += "], \"result\": ";
  out += ResultJson(outcome, all);
  out += "}\n";
  return out;
}

int Main(int argc, char** argv) {
  Config config = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (workload == nullptr) Usage("unknown workload " + config.workload);

  Outcome outcome = RunWorkload(*workload, config);
  workload.reset();
  AddProvenance(config, &outcome.report);

  std::vector<const Metric*> reported;
  for (const std::string& name : config.traced ? kPerLayer : kEndToEnd) {
    const Metric* m = outcome.report.Find(name);
    if (m != nullptr) {
      reported.push_back(m);
    } else if (outcome.gate_failures.empty()) {
      outcome.gate_failures.push_back("metric " + name + " was not measured");
    }
  }
  for (const Metric& m : outcome.report.metrics()) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& failure : outcome.gate_failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  if (!config.out_path.empty()) {
    std::ofstream(config.out_path) << DetailJson(outcome);
  }
  std::printf("%s\n", ResultJson(outcome, reported).c_str());
  std::fflush(stdout);
  return outcome.gate_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace hdmap::bench

int main(int argc, char** argv) { return hdmap::bench::Main(argc, argv); }
