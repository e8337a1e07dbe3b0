#ifndef HDMAP_BENCHMARK_TRACE_STATS_H_
#define HDMAP_BENCHMARK_TRACE_STATS_H_

// Traced windows: recorder set-up and per-span self times computed from
// the spans the library already records.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace hdmap::bench {

/// Turns on TraceRecorder::Global() with 1-in-kTraceSampleEveryN head
/// sampling and no slow-span path (every recorded span is a sampled one,
/// so self-time percentiles are unbiased). Call while no request is in
/// flight.
void EnableTracing();

struct TraceCapture {
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
};

/// Takes every recorded span, writes the Chrome trace JSON to
/// `chrome_path` when it is non-empty, and turns tracing off again.
TraceCapture FinishTracing(const std::string& chrome_path);

/// Median self time per span name, in microseconds: a span's duration
/// minus the part of its interval that its child spans cover.
std::map<std::string, double> SelfTimeP50Us(
    const std::vector<TraceEvent>& events);

}  // namespace hdmap::bench

#endif  // HDMAP_BENCHMARK_TRACE_STATS_H_
