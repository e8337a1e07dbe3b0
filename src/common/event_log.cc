#include "common/event_log.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/json.h"

namespace hdmap {

EventLog::EventLog(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

void EventLog::Append(Type type, uint64_t trace_id, std::string detail,
                      StatusCode code) {
  Event event;
  event.unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  event.type = type;
  event.code = code;
  event.trace_id = trace_id;
  event.detail = std::move(detail);
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = next_seq_++;
  if (ring_.size() == capacity_) ring_.pop_front();
  ring_.push_back(std::move(event));
}

std::vector<EventLog::Event> EventLog::Recent(size_t max_n) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = std::min(max_n, ring_.size());
  std::vector<Event> out;
  out.reserve(n);
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < n; ++it) {
    out.push_back(*it);
  }
  return out;
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t EventLog::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

std::string_view EventLog::TypeToString(Type type) {
  switch (type) {
    case Type::kQuarantinedTile:
      return "QUARANTINED_TILE";
    case Type::kWalDataLoss:
      return "WAL_DATA_LOSS";
    case Type::kInjectedFault:
      return "INJECTED_FAULT";
    case Type::kCheckpointFallback:
      return "CHECKPOINT_FALLBACK";
    case Type::kSlowRequest:
      return "SLOW_REQUEST";
    case Type::kRecoverySummary:
      return "RECOVERY_SUMMARY";
    case Type::kBusyRejected:
      return "BUSY_REJECTED";
    case Type::kConnectionReaped:
      return "CONNECTION_REAPED";
    case Type::kFailoverDetected:
      return "FAILOVER_DETECTED";
    case Type::kFailoverComplete:
      return "FAILOVER_COMPLETE";
    case Type::kReplicaCatchUp:
      return "REPLICA_CATCH_UP";
  }
  return "UNKNOWN";
}

bool EventLog::TypeFromString(std::string_view name, Type* out) {
  for (uint8_t raw = 0; raw <= static_cast<uint8_t>(Type::kReplicaCatchUp);
       ++raw) {
    Type type = static_cast<Type>(raw);
    if (TypeToString(type) == name) {
      *out = type;
      return true;
    }
  }
  return false;
}

void EventLog::AppendJson(const Event& event, std::string* out) {
  JsonWriter writer(out);
  AppendJson(event, writer);
}

void EventLog::AppendJson(const Event& event, JsonWriter& out) {
  out.BeginObject()
      .Key("seq").Uint(event.seq)
      .Key("unix_ms").Int(event.unix_ms)
      .Key("type").String(TypeToString(event.type))
      .Key("code").String(StatusCodeToString(event.code))
      // A string: 64-bit ids do not survive a parser's double.
      .Key("trace_id").String(std::to_string(event.trace_id))
      .Key("detail").String(event.detail)
      .EndObject();
}

}  // namespace hdmap
