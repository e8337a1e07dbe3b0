#ifndef HDMAP_BENCHMARK_WORKLOAD_H_
#define HDMAP_BENCHMARK_WORKLOAD_H_

// The four serving workloads share one run flow (RunWorkload): timed
// setups, a warmup, the measured window(s), correctness gates, and, on a
// traced run, layer replays. Each workload supplies only its world, its
// load generator, its gates, and its replay inputs.

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "harness.h"
#include "replays.h"

namespace hdmap::bench {

/// What one load phase measured.
struct PhaseResult {
  /// The workload's primary client op: timed from when it was due (open
  /// loop) or sent (closed loop) until its reply or ack arrived.
  Samples op;
  uint64_t attempted = 0;
  /// Errors, BUSY replies, ack timeouts and generator drops.
  uint64_t failed = 0;
  /// Scheduled sends the generator dropped (also counted in `failed`).
  uint64_t dropped = 0;
  /// Successful ops slower than the workload's latency limit.
  uint64_t over_limit = 0;
  /// Payload bytes the successful ops carried (bytes_per_op numerator).
  double bytes = 0;
  /// Measured wall time of the phase.
  double seconds = 0;
  /// How late the workload's scheduled actions ran (open-loop sends,
  /// fixed-rate writes and publishes); empty for pure closed loops.
  Samples lateness;
  /// When positive, the phase is invalid if the median `lateness` exceeds
  /// it: an open-loop generator that falls behind offers less than its
  /// rate.
  double late_limit_s = 0;
  /// Largest follower lag observed, in records (replicated workloads).
  double lag_records_max = 0;
  /// Workload-specific end-to-end metrics (write acks, publish-to-visible).
  Report extra;

  uint64_t succeeded() const { return attempted - failed; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Records the workload's constants.
  virtual void Describe(Report* report) const = 0;
  /// One timed setup: world generation, Init, server or cluster start.
  virtual Status Setup() = 0;
  /// Seconds the last Setup spent writing bootstrap checkpoints to disk.
  /// setup_s leaves them out: their fsyncs follow the host's writeback of
  /// earlier runs, not the code (see README.md). 0 when not durable.
  virtual double SetupCheckpointSeconds() const { return 0; }
  /// Stops everything Setup started (idempotent).
  virtual void Teardown() = 0;
  /// Registries whose instruments the per-layer window reads.
  virtual std::vector<MetricsRegistry*> Registries() = 0;
  /// Offers the workload's load for `seconds`, then waits for every
  /// outstanding op to settle.
  virtual PhaseResult RunPhase(double seconds) = 0;
  /// Checks what the phases observed; runs after the load has stopped.
  virtual void CheckGates(std::vector<std::string>* failures) = 0;
  virtual ReplayInputs GetReplayInputs() = 0;
  /// Sum of the replayed layer medians (from `replays`) on the blocking
  /// path of the workload's median op, in microseconds.
  virtual double BlockingPathUs(const Report& replays) const = 0;
};

std::unique_ptr<Workload> MakeTileFleet(const Config& config);
std::unique_ptr<Workload> MakeRegionScan(const Config& config);
std::unique_ptr<Workload> MakeFleetUpdate(const Config& config);
std::unique_ptr<Workload> MakeReplicatedWrite(const Config& config);

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const Config& config);

/// Runs one workload end to end (see the file comment).
Outcome RunWorkload(Workload& workload, const Config& config);

}  // namespace hdmap::bench

#endif  // HDMAP_BENCHMARK_WORKLOAD_H_
