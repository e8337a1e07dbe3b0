// Distributed-observability tests: a live 3-node replication cluster on
// loopback TCP with a ClusterInspector polling every node's kStats
// document, plus the cross-process trace propagation acceptance path
// (one client request -> one merged multi-process Chrome trace).
//
// The tier-2 `cluster_observability` target reruns the chaos scenario
// with HDMAP_FUZZ_ITERS >= 300 kill/partition/heal actions while the
// inspector polls concurrently — the no-torn-reads check.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/trace.h"
#include "net/protocol.h"
#include "net/tile_server.h"
#include "obs/cluster_inspector.h"
#include "replication/failover_controller.h"
#include "replication/node.h"
#include "service/map_service.h"
#include "tests/test_worlds.h"

namespace hdmap {
namespace {

size_t ChaosActions() {
  if (const char* env = std::getenv("HDMAP_FUZZ_ITERS")) {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  return 25;  // Tier-1 smoke size.
}

MapService::Options SmallTileOptions() {
  MapService::Options opt;
  opt.tile_store.tile_size_m = 100.0;
  return opt;
}

MapPatch LandmarkPatch(uint64_t id) {
  MapPatch patch;
  Landmark lm;
  lm.id = id;
  lm.position = {static_cast<double>(id % 97), static_cast<double>(id % 89),
                 0.0};
  patch.added_landmarks.push_back(lm);
  return patch;
}

/// N-node loopback cluster with a FailoverController, optionally giving
/// every node its own TraceRecorder (the stand-in for per-process rings
/// in the merged-trace test).
class ObsCluster {
 public:
  explicit ObsCluster(int n, bool per_node_recorders = false,
                      uint64_t fault_seed = 0x5EED0B5Eu)
      : faults_(fault_seed), controller_([] {
          FailoverController::Options co;
          co.poll_interval_ms = 10;
          co.leader_timeout_ms = 100;
          return co;
        }()) {
    HdMap world = StraightRoad(300.0);
    for (int i = 0; i < n; ++i) {
      if (per_node_recorders) {
        TraceRecorder::Options to;
        to.enabled = true;
        to.sample_every_n = 1;
        recorders_.push_back(std::make_unique<TraceRecorder>(to));
      }
      ReplicationNode::Options no;
      no.node_id = i;
      no.service = SmallTileOptions();
      no.heartbeat_interval_ms = 10;
      no.io_timeout_ms = 150;
      no.min_ack_replicas = 1;
      no.ack_timeout_ms = 1500;
      no.faults = &faults_;
      if (per_node_recorders) no.server.trace = recorders_[i].get();
      nodes_.push_back(std::make_unique<ReplicationNode>(no));
      EXPECT_TRUE(nodes_.back()->Start(world).ok());
      controller_.AddNode(nodes_.back().get());
    }
    EXPECT_TRUE(controller_.Start().ok());
  }

  ~ObsCluster() {
    controller_.Stop();
    for (auto& node : nodes_) node->Halt();
  }

  int size() const { return static_cast<int>(nodes_.size()); }
  ReplicationNode* node(int i) { return nodes_[i].get(); }
  ReplicationNode* leader() { return controller_.leader(); }
  TraceRecorder* recorder(int i) { return recorders_[i].get(); }
  FaultInjector& faults() { return faults_; }

  std::vector<ClusterInspector::NodeTarget> Targets() const {
    std::vector<ClusterInspector::NodeTarget> targets;
    for (const auto& node : nodes_) {
      targets.push_back({node->node_id(), "127.0.0.1", node->port()});
    }
    return targets;
  }

  bool WriteAcked(uint64_t landmark_id) {
    ReplicationNode* l = leader();
    if (l == nullptr || !l->alive()) return false;
    if (!l->StagePatch(LandmarkPatch(landmark_id)).ok()) return false;
    return l->Publish().ok();
  }

  ReplicationNode* WaitForLeader(uint32_t timeout_ms = 10000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      ReplicationNode* l = leader();
      if (l != nullptr && l->alive() &&
          l->role() == ReplicationNode::Role::kLeader) {
        return l;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return nullptr;
  }

  bool WaitConverged(uint32_t timeout_ms = 15000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (Converged()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Converged();
  }

 private:
  bool Converged() {
    ReplicationNode* l = leader();
    if (l == nullptr || !l->alive() ||
        l->role() != ReplicationNode::Role::kLeader) {
      return false;
    }
    auto snap = l->service().snapshot();
    if (snap == nullptr) return false;
    auto leader_tiles = snap->tiles.RawTilesCopy();
    uint64_t version = l->service().version();
    for (auto& node : nodes_) {
      if (node.get() == l || !node->alive() || node->partitioned()) continue;
      if (node->service().version() != version) return false;
      auto node_snap = node->service().snapshot();
      if (node_snap == nullptr ||
          node_snap->tiles.RawTilesCopy() != leader_tiles) {
        return false;
      }
    }
    return true;
  }

  FaultInjector faults_;
  std::vector<std::unique_ptr<TraceRecorder>> recorders_;
  std::vector<std::unique_ptr<ReplicationNode>> nodes_;
  FailoverController controller_;
};

// ---------------------------------------------------------------------------
// Acceptance: one client request, one merged multi-process trace.

TEST(ClusterObservabilityTest, MergedTraceAcrossThreeNodeCluster) {
  // The client records into the process-global ring; each node gets its
  // own recorder, standing in for three separate server processes.
  TraceRecorder& client_recorder = TraceRecorder::Global();
  TraceRecorder::Options to;
  to.enabled = true;
  to.sample_every_n = 1;
  client_recorder.Configure(to);

  uint64_t client_trace = 0;
  {
    ObsCluster cluster(3, /*per_node_recorders=*/true);
    ReplicationNode* leader = cluster.WaitForLeader();
    ASSERT_NE(leader, nullptr);
    ASSERT_TRUE(cluster.WriteAcked(910001));

    client_recorder.Clear();  // Drop shipper-side client spans: isolate ours.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", leader->port()).ok());
    auto snap = leader->service().snapshot();
    ASSERT_NE(snap, nullptr);
    auto response = client.GetRegion(snap->map.BoundingBox());
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, NetResponseCode::kOk);

    // Client side: the call rooted a fresh trace.
    for (const TraceEvent& event : client_recorder.Snapshot()) {
      if (std::string_view(event.name) == "net_client.call" &&
          event.parent_span_id == 0) {
        client_trace = event.trace_id;
      }
    }
    ASSERT_NE(client_trace, 0u);

    // Leader side: its net.request span joined the client's trace across
    // the process boundary (same trace id, non-root parent). The server
    // records its span after the response is already on the wire, so
    // poll briefly instead of racing it.
    bool server_joined = false;
    auto span_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!server_joined &&
           std::chrono::steady_clock::now() < span_deadline) {
      for (const TraceEvent& event : cluster.recorder(leader->node_id())
                                         ->Snapshot()) {
        if (std::string_view(event.name) == "net.request" &&
            event.trace_id == client_trace && event.parent_span_id != 0) {
          server_joined = true;
        }
      }
      if (!server_joined) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    EXPECT_TRUE(server_joined);

    // Replication plane: follower net.request spans joined the leader's
    // repl.ship traces the same way.
    std::set<uint64_t> ship_traces;
    for (const TraceEvent& event : cluster.recorder(leader->node_id())
                                       ->Snapshot()) {
      if (std::string_view(event.name) == "repl.ship") {
        ship_traces.insert(event.trace_id);
      }
    }
    ASSERT_FALSE(ship_traces.empty());
    bool follower_joined = false;
    span_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!follower_joined &&
           std::chrono::steady_clock::now() < span_deadline) {
      for (int i = 0; i < cluster.size(); ++i) {
        if (i == leader->node_id()) continue;
        for (const TraceEvent& event : cluster.recorder(i)->Snapshot()) {
          if (std::string_view(event.name) == "net.request" &&
              ship_traces.count(event.trace_id) != 0) {
            follower_joined = true;
          }
        }
      }
      if (!follower_joined) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    EXPECT_TRUE(follower_joined);

    // The merged export is one valid JSON document with one process track
    // per participant, and the client's trace id appears under at least
    // two distinct pids (client + leader).
    std::vector<std::string> exports;
    exports.push_back(client_recorder.ExportChromeTraceJson(100, "client"));
    for (int i = 0; i < cluster.size(); ++i) {
      exports.push_back(cluster.recorder(i)->ExportChromeTraceJson(
          static_cast<uint32_t>(i + 1), "node-" + std::to_string(i)));
    }
    std::string merged = ClusterInspector::MergeChromeTraceJson(exports);
    auto parsed = ParseJson(merged);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const JsonValue* events = parsed->Find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::set<uint64_t> process_tracks;
    std::set<uint64_t> pids_with_client_trace;
    std::string client_trace_str = std::to_string(client_trace);
    for (const JsonValue& event : events->array) {
      if (event.GetString("name") == "process_name") {
        process_tracks.insert(event.GetU64("pid"));
        continue;
      }
      const JsonValue* args = event.Find("args");
      if (args != nullptr && args->GetString("trace_id") == client_trace_str) {
        pids_with_client_trace.insert(event.GetU64("pid"));
      }
    }
    EXPECT_EQ(process_tracks.size(), 4u);
    EXPECT_GE(pids_with_client_trace.size(), 2u);
  }
  client_recorder.Configure(TraceRecorder::Options{});  // Back to disabled.
}

// ---------------------------------------------------------------------------
// Cluster aggregation.

TEST(ClusterObservabilityTest, InspectorSeesHealthRolesAndZeroLagAtRest) {
  ObsCluster cluster(3);
  ASSERT_NE(cluster.WaitForLeader(), nullptr);
  for (uint64_t id = 920001; id < 920006; ++id) {
    ASSERT_TRUE(cluster.WriteAcked(id));
  }
  ASSERT_TRUE(cluster.WaitConverged());

  MetricsRegistry registry;
  ClusterInspector::Options io;
  io.nodes = cluster.Targets();
  io.metrics = &registry;
  ClusterInspector inspector(io);

  // Acked writes mean the followers hold everything; lag converges to 0
  // once the next ack round lands.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ClusterInspector::ClusterView view;
  while (std::chrono::steady_clock::now() < deadline) {
    inspector.PollOnce();
    view = inspector.View();
    if (view.reachable_nodes == 3 && view.max_lag_records == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(view.reachable_nodes, 3u);
  EXPECT_EQ(view.max_lag_records, 0u);
  EXPECT_DOUBLE_EQ(view.max_lag_ms, 0.0);

  int leaders = 0;
  for (const ClusterInspector::NodeStats& node : view.nodes) {
    ASSERT_TRUE(node.reachable);
    EXPECT_EQ(node.health, "SERVING");
    EXPECT_EQ(node.label, "node-" + std::to_string(node.node_id));
    if (node.role == "LEADER") {
      ++leaders;
      EXPECT_EQ(node.followers.size(), 2u);
    }
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_TRUE(view.split_brain_terms.empty());
  EXPECT_EQ(registry.GetGauge("cluster.nodes_reachable")->value(), 3.0);
  EXPECT_EQ(registry.GetGauge("cluster.split_brain_terms")->value(), 0.0);
}

TEST(ClusterObservabilityTest, LagConvergesAfterSeededFailover) {
  ObsCluster cluster(3);
  ReplicationNode* first_leader = cluster.WaitForLeader();
  ASSERT_NE(first_leader, nullptr);
  for (uint64_t id = 930001; id < 930004; ++id) {
    ASSERT_TRUE(cluster.WriteAcked(id));
  }

  ClusterInspector::Options io;
  io.nodes = cluster.Targets();
  ClusterInspector inspector(io);

  // Seeded failover: kill the leader, let the controller promote, write
  // through the new leader, then bring the old one back.
  int dead_id = first_leader->node_id();
  first_leader->Halt();
  ReplicationNode* new_leader = cluster.WaitForLeader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader->node_id(), dead_id);
  auto write_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t wrote = 0;
  uint64_t id = 930010;
  while (wrote < 3 && std::chrono::steady_clock::now() < write_deadline) {
    if (cluster.WriteAcked(id++)) ++wrote;
  }
  ASSERT_EQ(wrote, 3u);
  ASSERT_TRUE(cluster.node(dead_id)->Restart().ok());
  ASSERT_TRUE(cluster.WaitConverged());

  // The inspector's lag view settles to zero across every follower.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ClusterInspector::ClusterView view;
  while (std::chrono::steady_clock::now() < deadline) {
    inspector.PollOnce();
    view = inspector.View();
    if (view.reachable_nodes == 3 && view.max_lag_records == 0 &&
        !view.leaders_by_term.empty()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(view.reachable_nodes, 3u);
  EXPECT_EQ(view.max_lag_records, 0u);
  EXPECT_TRUE(view.split_brain_terms.empty());
  // One claimant per term, ever — the anti-split-brain ledger.
  for (const auto& [term, claimants] : view.leaders_by_term) {
    EXPECT_EQ(claimants.size(), 1u) << "term " << term;
  }
}

TEST(ClusterObservabilityTest, FailoverTimelineJoinsAcrossNodes) {
  ObsCluster cluster(3);
  ReplicationNode* first_leader = cluster.WaitForLeader();
  ASSERT_NE(first_leader, nullptr);
  ASSERT_TRUE(cluster.WriteAcked(940001));

  int dead_id = first_leader->node_id();
  first_leader->Halt();
  ReplicationNode* new_leader = cluster.WaitForLeader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_TRUE(cluster.node(dead_id)->Restart().ok());
  ASSERT_TRUE(cluster.WaitConverged());

  ClusterInspector::Options io;
  io.nodes = cluster.Targets();
  ClusterInspector inspector(io);
  inspector.PollOnce();
  ClusterInspector::ClusterView view = inspector.View();

  // The timeline holds the promotion (from the new leader) and the
  // restarted node's catch-up — events from different nodes, one
  // wall-clock-ordered sequence.
  bool promotion = false;
  bool catch_up = false;
  std::set<int> contributing_nodes;
  for (const ClusterInspector::TimelineEvent& entry : view.failover_timeline) {
    contributing_nodes.insert(entry.node_id);
    if (entry.event.type == EventLog::Type::kFailoverComplete &&
        entry.node_id == new_leader->node_id()) {
      promotion = true;
    }
    if (entry.event.type == EventLog::Type::kReplicaCatchUp &&
        entry.node_id == dead_id) {
      catch_up = true;
    }
  }
  EXPECT_TRUE(promotion);
  EXPECT_TRUE(catch_up);
  EXPECT_GE(contributing_nodes.size(), 2u);
  for (size_t i = 1; i < view.failover_timeline.size(); ++i) {
    EXPECT_LE(view.failover_timeline[i - 1].event.unix_ms,
              view.failover_timeline[i].event.unix_ms);
  }

  // A second poll must not duplicate timeline entries.
  size_t before = view.failover_timeline.size();
  inspector.PollOnce();
  EXPECT_EQ(inspector.View().failover_timeline.size(), before);
}

TEST(ClusterObservabilityTest, SplitBrainDetectedFromConflictingClaims) {
  // Two standalone servers each claiming leadership of term 5 — the
  // pathology the replication stack prevents, fabricated at the kStats
  // layer to prove the inspector would catch it.
  MapService service_a(SmallTileOptions());
  MapService service_b(SmallTileOptions());
  ASSERT_TRUE(service_a.Init(StraightRoad(200.0)).ok());
  ASSERT_TRUE(service_b.Init(StraightRoad(200.0)).ok());
  auto claim = [](int node_id) {
    return [node_id](JsonWriter& out) {
      out.BeginObject()
          .Key("node_id").Int(node_id)
          .Key("role").String("LEADER")
          .Key("term").Uint(5)
          .Key("applied_seq").Uint(1)
          .Key("last_publish_seq").Uint(1)
          .Key("log_start_seq").Uint(1)
          .Key("log_end_seq").Uint(1)
          .Key("ms_since_leader_contact").Double(0.0)
          .Key("followers").BeginArray().EndArray()
          .EndObject();
    };
  };
  TileServer::Options oa;
  oa.stats_label = "node-0";
  oa.replication_status_json = claim(0);
  TileServer::Options ob;
  ob.stats_label = "node-1";
  ob.replication_status_json = claim(1);
  TileServer server_a(service_a, oa);
  TileServer server_b(service_b, ob);
  ASSERT_TRUE(server_a.Start().ok());
  ASSERT_TRUE(server_b.Start().ok());

  ClusterInspector::Options io;
  io.nodes = {{0, "127.0.0.1", server_a.port()},
              {1, "127.0.0.1", server_b.port()}};
  ClusterInspector inspector(io);
  inspector.PollOnce();
  ClusterInspector::ClusterView view = inspector.View();
  ASSERT_EQ(view.split_brain_terms.size(), 1u);
  EXPECT_EQ(view.split_brain_terms[0], 5u);
  ASSERT_EQ(view.leaders_by_term.at(5).size(), 2u);
}

TEST(ClusterObservabilityTest, QuotedNodeLabelStaysReachable) {
  // An operator-set label with a quote and a backslash must reach the
  // inspector intact, not make the node's kStats document unparseable.
  const std::string label = "node \"7\" \\ x";
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(StraightRoad(200.0)).ok());
  TileServer::Options options;
  options.stats_label = label;
  TileServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  ClusterInspector::Options io;
  io.nodes = {{7, "127.0.0.1", server.port()}};
  ClusterInspector inspector(io);
  inspector.PollOnce();
  ClusterInspector::ClusterView view = inspector.View();
  ASSERT_EQ(view.nodes.size(), 1u);
  EXPECT_TRUE(view.nodes[0].reachable);
  EXPECT_EQ(view.reachable_nodes, 1u);
  EXPECT_EQ(view.nodes[0].label, label);
  EXPECT_EQ(view.nodes[0].health, "SERVING");
}

TEST(ClusterObservabilityTest, ReplicationStatusJsonParsesBack) {
  ObsCluster cluster(3);
  ReplicationNode* leader = cluster.WaitForLeader();
  ASSERT_NE(leader, nullptr);
  ASSERT_TRUE(cluster.WriteAcked(940001));
  for (int i = 0; i < cluster.size(); ++i) {
    std::string json;
    JsonWriter writer(&json);
    cluster.node(i)->ReplicationStatusJson(writer);
    auto status = ParseJson(json);
    ASSERT_TRUE(status.ok()) << status.status().message() << ": " << json;
    EXPECT_EQ(status->GetI64("node_id", -1), i);
    bool is_leader = cluster.node(i) == leader;
    EXPECT_EQ(status->GetString("role"), is_leader ? "LEADER" : "FOLLOWER");
    EXPECT_NE(status->Find("ms_since_leader_contact"), nullptr);
    const JsonValue* followers = status->Find("followers");
    ASSERT_TRUE(followers != nullptr && followers->is_array());
    if (is_leader) {
      EXPECT_EQ(status->GetU64("term"), leader->term());
      EXPECT_GE(status->GetU64("log_end_seq"), 1u);
      ASSERT_EQ(followers->array.size(), 2u);
      for (const JsonValue& follower : followers->array) {
        EXPECT_NE(follower.GetI64("node_id", i), i);
        EXPECT_NE(follower.Find("lag_records"), nullptr);
        EXPECT_NE(follower.Find("lag_ms"), nullptr);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection plane.

TEST(ClusterObservabilityTest, PrometheusScrapeExposesReplicationFamilies) {
  ObsCluster cluster(3);
  ReplicationNode* leader = cluster.WaitForLeader();
  ASSERT_NE(leader, nullptr);
  ASSERT_TRUE(cluster.WriteAcked(950001));

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", leader->port()).ok());
  auto response = client.FetchStats(NetStatsFormat::kPrometheus);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, NetResponseCode::kOk);
  const std::string& text = response->payload;

  // The new replication families are present with per-follower labels and
  // the ack-wait histogram recorded at least one write.
  EXPECT_NE(text.find("# TYPE hdmap_replication_lag_records gauge"),
            std::string::npos);
  EXPECT_NE(text.find("hdmap_replication_lag_records{tag=\"FOLLOWER"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hdmap_replication_lag_ms gauge"),
            std::string::npos);
  EXPECT_NE(text.find("hdmap_replication_ack_wait_seconds_count"),
            std::string::npos);
}

TEST(ClusterObservabilityTest, MetricsNamesLintCleanAcrossCluster) {
  ObsCluster cluster(3);
  ASSERT_NE(cluster.WaitForLeader(), nullptr);
  ASSERT_TRUE(cluster.WriteAcked(960001));

  MetricsRegistry inspector_registry;
  ClusterInspector::Options io;
  io.nodes = cluster.Targets();
  io.metrics = &inspector_registry;
  ClusterInspector inspector(io);
  inspector.PollOnce();

  // Repo naming convention: lowercase dotted subsystem.verb, optional
  // {UPPER_TAG} suffix — enforced over every live registry so a typo'd
  // instrument name fails the suite, not a dashboard.
  std::regex pattern("^[a-z][a-z0-9_.]*(\\{[A-Z0-9_]+\\})?$");
  auto lint = [&pattern](const MetricsRegistry& registry,
                         const std::string& where) {
    for (const std::string& name : registry.Names()) {
      EXPECT_TRUE(std::regex_match(name, pattern))
          << where << ": bad metric name '" << name << "'";
    }
  };
  for (int i = 0; i < cluster.size(); ++i) {
    lint(cluster.node(i)->service().metrics(), "node-" + std::to_string(i));
  }
  lint(inspector_registry, "inspector");
}

// ---------------------------------------------------------------------------
// Chaos with a live inspector (tier-2 at full size).

TEST(ClusterObservabilityTest, ChaosWithLiveInspectorNoTornReads) {
  const size_t actions = ChaosActions();
  Rng rng(0x0B5E55EDu);
  ObsCluster cluster(3);
  ASSERT_NE(cluster.WaitForLeader(), nullptr);

  MetricsRegistry registry;
  ClusterInspector::Options io;
  io.nodes = cluster.Targets();
  io.poll_interval_ms = 5;
  io.io_timeout_ms = 250;
  io.metrics = &registry;
  ClusterInspector inspector(io);
  inspector.Start();
  // The no-torn-reads invariants below assume at least one completed
  // poll; View() is legitimately empty until the poller's first pass.
  auto first_poll =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (inspector.View().poll_seq == 0 &&
         std::chrono::steady_clock::now() < first_poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(inspector.View().poll_seq, 1u);

  uint64_t next_landmark = 970000;
  uint64_t last_poll_seq = 0;
  auto all_alive = [&] {
    for (int i = 0; i < cluster.size(); ++i) {
      if (!cluster.node(i)->alive() || cluster.node(i)->partitioned()) {
        return false;
      }
    }
    return true;
  };

  for (size_t action = 0; action < actions; ++action) {
    int pick = rng.UniformInt(0, 7);
    switch (pick) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Writes dominate the schedule.
        cluster.WriteAcked(next_landmark++);
        break;
      }
      case 4: {  // Kill the leader (single-failure tolerance).
        if (all_alive()) {
          ReplicationNode* l = cluster.leader();
          if (l != nullptr) l->Halt();
        }
        break;
      }
      case 5: {  // Partition a random node.
        if (all_alive()) {
          cluster.node(rng.UniformInt(0, 2))->SetPartitioned(true);
        }
        break;
      }
      case 6:
      case 7: {  // Heal everything.
        for (int i = 0; i < cluster.size(); ++i) {
          cluster.node(i)->SetPartitioned(false);
          if (!cluster.node(i)->alive()) {
            ASSERT_TRUE(cluster.node(i)->Restart().ok());
          }
        }
        break;
      }
    }

    // The view must never tear, whatever the cluster is doing: full node
    // list, monotone poll counter, and no false split-brain (the
    // controller guarantees one leader per term; the inspector must not
    // invent a second one from a torn poll).
    ClusterInspector::ClusterView view = inspector.View();
    ASSERT_EQ(view.nodes.size(), 3u);
    ASSERT_GE(view.poll_seq, last_poll_seq);
    last_poll_seq = view.poll_seq;
    ASSERT_TRUE(view.split_brain_terms.empty())
        << "false split-brain at action " << action;
    for (const ClusterInspector::NodeStats& node : view.nodes) {
      if (!node.reachable) continue;
      ASSERT_TRUE(node.health == "SERVING" || node.health == "DEGRADED");
    }
  }

  // Settle: heal, converge, and watch the inspector agree.
  for (int i = 0; i < cluster.size(); ++i) {
    cluster.node(i)->SetPartitioned(false);
    if (!cluster.node(i)->alive()) {
      ASSERT_TRUE(cluster.node(i)->Restart().ok());
    }
  }
  ASSERT_NE(cluster.WaitForLeader(), nullptr);
  ASSERT_TRUE(cluster.WaitConverged());
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  ClusterInspector::ClusterView view;
  while (std::chrono::steady_clock::now() < deadline) {
    view = inspector.View();
    if (view.reachable_nodes == 3 && view.max_lag_records == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  inspector.Stop();
  EXPECT_EQ(view.reachable_nodes, 3u);
  EXPECT_EQ(view.max_lag_records, 0u);
  EXPECT_TRUE(view.split_brain_terms.empty());
  EXPECT_GE(registry.GetCounter("cluster.polls")->value(), 1u);
}

}  // namespace
}  // namespace hdmap
