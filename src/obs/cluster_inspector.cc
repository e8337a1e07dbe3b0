#include "obs/cluster_inspector.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/json.h"
#include "net/protocol.h"
#include "net/tile_server.h"

namespace hdmap {

namespace {

/// Events worth placing on the cluster-wide failover timeline.
bool IsFailoverEvent(EventLog::Type type) {
  return type == EventLog::Type::kFailoverDetected ||
         type == EventLog::Type::kFailoverComplete ||
         type == EventLog::Type::kReplicaCatchUp;
}

}  // namespace

ClusterInspector::ClusterInspector(Options options)
    : opts_(std::move(options)) {
  if (opts_.metrics != nullptr) {
    polls_ = opts_.metrics->GetCounter("cluster.polls");
    reachable_gauge_ = opts_.metrics->GetGauge("cluster.nodes_reachable");
    max_lag_records_gauge_ =
        opts_.metrics->GetGauge("cluster.max_lag_records");
    max_lag_ms_gauge_ = opts_.metrics->GetGauge("cluster.max_lag_ms");
    split_brain_gauge_ = opts_.metrics->GetGauge("cluster.split_brain_terms");
    opts_.metrics->SetHelp("cluster.nodes_reachable",
                           "Nodes that answered the latest kStats poll");
    opts_.metrics->SetHelp(
        "cluster.max_lag_records",
        "Worst follower lag in records across all leaders, latest poll");
    opts_.metrics->SetHelp(
        "cluster.max_lag_ms",
        "Worst follower lag in leader-clock ms, latest poll");
    opts_.metrics->SetHelp(
        "cluster.split_brain_terms",
        "Terms ever observed with more than one leader (should stay 0)");
  }
}

ClusterInspector::~ClusterInspector() { Stop(); }

void ClusterInspector::Start() {
  if (running_.exchange(true)) return;
  poller_ = std::thread([this] {
    while (running_.load()) {
      PollOnce();
      // Sleep in small slices so Stop() is prompt even with a long
      // configured interval.
      uint32_t slept = 0;
      while (running_.load() && slept < opts_.poll_interval_ms) {
        uint32_t slice = std::min<uint32_t>(opts_.poll_interval_ms - slept, 10);
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
        slept += slice;
      }
    }
  });
}

void ClusterInspector::Stop() {
  running_.store(false);
  if (poller_.joinable()) poller_.join();
}

ClusterInspector::NodeStats ClusterInspector::PollNode(
    const NodeTarget& target) const {
  NodeStats unreachable;
  unreachable.node_id = target.node_id;

  NetClient client;
  NetClient::RetryOptions retry;
  retry.max_attempts = 1;
  retry.deadline_ms = opts_.io_timeout_ms;
  client.set_retry_options(retry);
  if (!client.Connect(target.host, target.port).ok()) return unreachable;

  NetRequest request;
  request.type = NetRequestType::kStats;
  request.stats_format = NetStatsFormat::kJson;
  request.stats_max_events = opts_.max_events_per_node;
  Result<NetResponse> response = client.CallWithRetry(request);
  if (!response.ok() || response.value().code != NetResponseCode::kOk) {
    return unreachable;
  }
  Result<NodeStats> parsed =
      ParseNodeStats(target.node_id, response.value().payload);
  return parsed.ok() ? std::move(parsed).value() : unreachable;
}

Result<ClusterInspector::NodeStats> ClusterInspector::ParseNodeStats(
    int node_id, std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("kStats document is not an object");
  }

  NodeStats stats;
  stats.node_id = node_id;
  stats.reachable = true;
  if (const JsonValue* node = doc.Find("node")) {
    stats.label = node->GetString("label");
    stats.health = node->GetString("health");
    stats.version = node->GetU64("version");
    stats.unix_ms = node->GetI64("unix_ms");
  }
  const JsonValue* repl = doc.Find("replication");
  if (repl != nullptr && repl->is_object()) {
    stats.role = repl->GetString("role");
    stats.term = repl->GetU64("term");
    stats.applied_seq = repl->GetU64("applied_seq");
    stats.log_end_seq = repl->GetU64("log_end_seq");
    stats.ms_since_leader_contact =
        repl->GetNumber("ms_since_leader_contact");
    if (const JsonValue* followers = repl->Find("followers")) {
      for (const JsonValue& entry : followers->array) {
        FollowerLag lag;
        lag.node_id = static_cast<int>(entry.GetI64("node_id"));
        lag.acked_seq = entry.GetU64("acked_seq");
        lag.lag_records = entry.GetU64("lag_records");
        lag.lag_ms = entry.GetNumber("lag_ms");
        stats.followers.push_back(lag);
      }
    }
  }
  if (const JsonValue* events = doc.Find("events")) {
    for (const JsonValue& entry : events->array) {
      EventLog::Event event;
      event.seq = entry.GetU64("seq");
      event.unix_ms = entry.GetI64("unix_ms");
      if (!EventLog::TypeFromString(entry.GetString("type"), &event.type)) {
        continue;  // A newer node's event type; skip rather than mislabel.
      }
      // trace_id travels as a string: 64-bit ids do not survive a double.
      event.trace_id = std::strtoull(
          entry.GetString("trace_id", "0").c_str(), nullptr, 10);
      event.detail = entry.GetString("detail");
      stats.events.push_back(std::move(event));
    }
  }
  return stats;
}

void ClusterInspector::PollOnce() {
  std::vector<NodeStats> round;
  round.reserve(opts_.nodes.size());
  for (const NodeTarget& target : opts_.nodes) {
    round.push_back(PollNode(target));
  }
  Fold(std::move(round));
  if (polls_ != nullptr) polls_->Increment();
}

void ClusterInspector::Fold(std::vector<NodeStats> round) {
  std::lock_guard<std::mutex> lock(mu_);
  view_.poll_seq += 1;
  view_.nodes = std::move(round);
  view_.reachable_nodes = 0;
  view_.max_lag_records = 0;
  view_.max_lag_ms = 0.0;

  for (const NodeStats& node : view_.nodes) {
    if (!node.reachable) continue;
    view_.reachable_nodes += 1;
    for (const FollowerLag& lag : node.followers) {
      view_.max_lag_records = std::max(view_.max_lag_records, lag.lag_records);
      view_.max_lag_ms = std::max(view_.max_lag_ms, lag.lag_ms);
    }
    // Leadership claims accumulate across polls: a deposed leader's
    // reign stays on the record, which is exactly what makes a split
    // brain (two claimants for ONE term) distinguishable from an
    // ordinary succession (one claimant per term).
    if (node.role == "LEADER" && node.term != 0) {
      std::vector<int>& claimants = view_.leaders_by_term[node.term];
      if (std::find(claimants.begin(), claimants.end(), node.node_id) ==
          claimants.end()) {
        claimants.push_back(node.node_id);
        std::sort(claimants.begin(), claimants.end());
      }
    }
    // Failover timeline: join this node's FAILOVER_* events, deduplicated
    // by (node, seq) against what earlier polls already placed.
    for (const EventLog::Event& event : node.events) {
      if (!IsFailoverEvent(event.type)) continue;
      bool seen = false;
      for (const TimelineEvent& existing : view_.failover_timeline) {
        if (existing.node_id == node.node_id &&
            existing.event.seq == event.seq) {
          seen = true;
          break;
        }
      }
      if (!seen) view_.failover_timeline.push_back({node.node_id, event});
    }
  }

  std::sort(view_.failover_timeline.begin(), view_.failover_timeline.end(),
            [](const TimelineEvent& a, const TimelineEvent& b) {
              if (a.event.unix_ms != b.event.unix_ms) {
                return a.event.unix_ms < b.event.unix_ms;
              }
              if (a.node_id != b.node_id) return a.node_id < b.node_id;
              return a.event.seq < b.event.seq;
            });

  view_.split_brain_terms.clear();
  for (const auto& [term, claimants] : view_.leaders_by_term) {
    if (claimants.size() > 1) view_.split_brain_terms.push_back(term);
  }

  if (reachable_gauge_ != nullptr) {
    reachable_gauge_->Set(static_cast<double>(view_.reachable_nodes));
    max_lag_records_gauge_->Set(static_cast<double>(view_.max_lag_records));
    max_lag_ms_gauge_->Set(view_.max_lag_ms);
    split_brain_gauge_->Set(static_cast<double>(view_.split_brain_terms.size()));
  }
}

ClusterInspector::ClusterView ClusterInspector::View() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_;
}

std::string ClusterInspector::MergeChromeTraceJson(
    const std::vector<std::string>& exports) {
  std::vector<JsonValue> docs;
  for (const std::string& text : exports) {
    Result<JsonValue> parsed = ParseJson(text);
    if (!parsed.ok()) continue;
    const JsonValue* events = parsed->Find("traceEvents");
    if (events == nullptr || !events->is_array()) continue;
    docs.push_back(std::move(parsed).value());
  }
  // The first export's other members (display settings) carry over; the
  // trace events of every export join one array.
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  if (!docs.empty()) {
    for (const auto& [key, value] : docs.front().object) {
      if (key != "traceEvents") w.Key(key).Value(value);
    }
  }
  w.Key("traceEvents").BeginArray();
  for (const JsonValue& doc : docs) {
    for (const JsonValue& event : doc.Find("traceEvents")->array) {
      w.Value(event);
    }
  }
  w.EndArray().EndObject();
  return out;
}

}  // namespace hdmap
