#include "trace_stats.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "harness.h"

namespace hdmap::bench {

void EnableTracing() {
  TraceRecorder::Options options;
  options.enabled = true;
  options.capacity = kTraceCapacity;
  options.sample_every_n = kTraceSampleEveryN;
  options.slow_threshold_s = 0;
  TraceRecorder::Global().Configure(options);
}

TraceCapture FinishTracing(const std::string& chrome_path) {
  TraceRecorder& recorder = TraceRecorder::Global();
  TraceCapture capture;
  capture.events = recorder.Snapshot();
  capture.dropped = recorder.dropped();
  if (!chrome_path.empty()) {
    std::ofstream(chrome_path) << recorder.ExportChromeTraceJson();
  }
  recorder.Configure(TraceRecorder::Options{});  // Disabled.
  return capture;
}

std::map<std::string, double> SelfTimeP50Us(
    const std::vector<TraceEvent>& events) {
  std::unordered_map<uint64_t, size_t> by_span;
  for (size_t i = 0; i < events.size(); ++i) by_span[events[i].span_id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      events.size());
  for (const TraceEvent& e : events) {
    if (e.parent_span_id == 0) continue;
    auto parent = by_span.find(e.parent_span_id);
    if (parent == by_span.end()) continue;
    children[parent->second].emplace_back(e.start_ns,
                                          e.start_ns + e.duration_ns);
  }
  std::map<std::string, Samples> self;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    uint64_t start = e.start_ns;
    uint64_t end = e.start_ns + e.duration_ns;
    // Union of the child intervals clipped to the parent's: children may
    // run in parallel on other threads and overlap each other.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = start;
    for (auto [c0, c1] : kids) {
      c0 = std::max(c0, cursor);
      c1 = std::min(c1, end);
      if (c1 > c0) {
        covered += c1 - c0;
        cursor = c1;
      }
    }
    self[e.name].Add(static_cast<double>(e.duration_ns - covered) * 1e-9);
  }
  std::map<std::string, double> out;
  for (const auto& [name, samples] : self) out[name] = samples.Median() * 1e6;
  return out;
}

}  // namespace hdmap::bench
