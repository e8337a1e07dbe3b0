// E17: framed-TCP tile serving under open-loop network load.
//
// Drives the TileServer (src/net/) over real loopback sockets with an
// open-loop generator: request send times are scheduled up front at a
// fixed rate, independent of response arrival, so queueing delay shows
// up as latency instead of silently throttling the offered load (the
// closed-loop coordination-omission trap). Four phases:
//
//   1. Calibrate — one closed-loop connection measures the peak
//      back-to-back GetTile throughput R_max.
//   2. Load ladder — open-loop runs at 0.5x / 1x / 2x R_max across C
//      pipelined connections. Per step: offered vs achieved send rate,
//      served goodput, BUSY shed rate, and p50/p99/p999 of served
//      latencies. The 2x step is the admission-control story: the
//      server must shed with typed BUSY while goodput for admitted
//      requests stays near the pre-saturation peak, rather than letting
//      an unbounded queue grow until every response is late.
//   3. Failover — a 1-leader/2-follower replication cluster takes a
//      closed-loop write load; the leader is killed mid-run. Reports
//      time-to-promotion (the degraded window the FailoverController
//      measured between heartbeat-timeout detection and the new leader
//      installing), write attempts lost while leaderless, and the
//      FAILOVER_* records from the controller's event log.
//   4. Observability overhead — closed-loop GetTile p50/p99 with trace
//      propagation off, on with an unsampled recorder (trace ids ride
//      the wire, nothing records), and on with every request sampled;
//      the budget for either "on" mode is < 5% on p50. Then kStats is
//      scraped continuously while a 2x open-loop overload runs: the
//      introspection plane is exempt from admission shedding, so the
//      scrape must keep answering while GetTiles are shed with BUSY.
//
// The run fails (nonzero exit) if the 2x overload step sheds nothing, if
// goodput under 2x overload falls below half the 1x goodput (the report
// prints the within-20% check; the exit gate is looser so CI boxes with
// one core don't flake), if no failover completes after the leader kill,
// if trace propagation costs more than 50% on p50 (the report prints
// the 5% budget; microsecond RTTs on shared boxes are too noisy for a
// tight exit gate), or if the kStats scrape stops answering under
// overload.
//
// Usage: bench_e17_net [--smoke] [--seconds=S] [--connections=C]

#include <atomic>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/event_log.h"
#include "common/statistics.h"
#include "common/trace.h"
#include "core/tile_store.h"
#include "net/tile_server.h"
#include "replication/failover_controller.h"
#include "replication/node.h"
#include "service/map_service.h"
#include "tests/test_worlds.h"

namespace hdmap {
namespace {

struct LoadResult {
  double offered_hz = 0;
  double achieved_hz = 0;   // What the senders actually put on the wire.
  double goodput_hz = 0;    // kOk responses per second.
  uint64_t sent = 0;
  uint64_t served = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
  uint64_t overflow = 0;    // Scheduled sends dropped at the client.
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
};

/// Client-side cap on outstanding (sent, unanswered) requests per
/// connection — the "partly open" load model. Past it, scheduled sends
/// are dropped at the client and counted, instead of wedging the socket
/// until the server's write-stall guard kills the connection. The cap is
/// far above the server's admission window, so it only binds when the
/// generator machine itself can no longer drain responses.
constexpr uint64_t kMaxOutstandingPerConn = 256;

double PercentileMs(std::vector<double>& lat_s, double q) {
  if (lat_s.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(lat_s.size() - 1));
  std::nth_element(lat_s.begin(), lat_s.begin() + static_cast<long>(idx),
                   lat_s.end());
  return lat_s[idx] * 1e3;
}

/// Closed-loop calibration at the same concurrency as the load phase:
/// C connections round-trip back-to-back, and the summed served rate is
/// the sustainable peak the open-loop factors scale from. Using the
/// same client thread count matters on small boxes — the generator
/// competes with the server for cores, and a single-connection RTT peak
/// would overstate what open-loop clients can actually sustain.
double CalibratePeakHz(uint16_t port, const std::vector<TileId>& tiles,
                       double seconds, size_t connections) {
  std::atomic<uint64_t> done{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      NetClient client;
      if (!client.Connect("127.0.0.1", port).ok()) return;
      bench::Timer t;
      uint64_t mine = 0;
      while (t.Seconds() < seconds) {
        auto resp = client.GetTile(tiles[(c + mine) % tiles.size()]);
        if (!resp.ok()) break;
        if (resp->code == NetResponseCode::kOk) ++mine;
      }
      done.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  bench::Timer wall;
  for (auto& th : threads) th.join();
  double elapsed = wall.Seconds();
  return elapsed > 0 ? static_cast<double>(done.load()) / elapsed : 0;
}

/// One open-loop step: C connections, each with a sender thread walking
/// a precomputed schedule (send immediately when behind — lateness
/// becomes queueing, never a lower offered rate) and a reader thread
/// draining responses. Requests pipeline on each connection; the server
/// sheds with BUSY past its admission caps.
LoadResult RunOpenLoopStep(uint16_t port, const std::vector<TileId>& tiles,
                           double rate_hz, double seconds,
                           size_t connections) {
  LoadResult out;
  out.offered_hz = rate_hz;
  const uint64_t per_conn =
      std::max<uint64_t>(1, static_cast<uint64_t>(
                                rate_hz * seconds /
                                static_cast<double>(connections)));
  const double interval_s =
      seconds / static_cast<double>(per_conn);  // Per-connection spacing.

  struct ConnStats {
    uint64_t served = 0, busy = 0, errors = 0, overflow = 0;
    std::atomic<uint64_t> outstanding{0};
    std::atomic<bool> dead{false};
    std::vector<double> lat_s;
  };
  std::vector<std::unique_ptr<NetClient>> clients;
  std::vector<ConnStats> stats(connections);
  for (size_t c = 0; c < connections; ++c) {
    auto client = std::make_unique<NetClient>();
    if (!client->Connect("127.0.0.1", port).ok()) {
      std::fprintf(stderr, "connect failed\n");
      std::exit(1);
    }
    clients.push_back(std::move(client));
  }

  bench::Timer wall;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> total_sent{0};
  for (size_t c = 0; c < connections; ++c) {
    NetClient* client = clients[c].get();
    ConnStats* st = &stats[c];
    // Reader: every request (served, BUSY, or error) gets exactly one
    // response, so draining per_conn responses is a complete join.
    // Reader: drains until the sender reports how many responses are
    // actually owed (every sent request gets exactly one response).
    threads.emplace_back([client, st] {
      // Blocks in ReadResponse only while a response is owed
      // (outstanding > 0), so it can never hang after the sender ends.
      for (;;) {
        if (st->dead.load(std::memory_order_acquire) &&
            st->outstanding.load(std::memory_order_acquire) == 0) {
          break;
        }
        if (st->outstanding.load(std::memory_order_acquire) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        auto resp = client->ReadResponse();
        if (!resp.ok()) {
          st->errors += st->outstanding.exchange(0);
          break;
        }
        st->outstanding.fetch_sub(1, std::memory_order_release);
        switch (resp->code) {
          case NetResponseCode::kOk:
            ++st->served;
            break;
          case NetResponseCode::kBusy:
            ++st->busy;
            break;
          default:
            ++st->errors;
        }
      }
    });
    // Sender: fixed schedule anchored at the step start; drops a
    // scheduled send when the outstanding window is full.
    threads.emplace_back([client, st, &tiles, &total_sent, per_conn,
                          interval_s, c] {
      bench::Timer t0;
      for (uint64_t i = 0; i < per_conn; ++i) {
        double due = static_cast<double>(i) * interval_s;
        double now = t0.Seconds();
        if (now < due) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(due - now));
        }
        if (st->outstanding.load(std::memory_order_acquire) >=
            kMaxOutstandingPerConn) {
          ++st->overflow;
          continue;
        }
        NetRequest req;
        req.type = NetRequestType::kGetTile;
        req.request_id = i + 1;
        req.tile = tiles[(c + i) % tiles.size()];
        st->outstanding.fetch_add(1, std::memory_order_release);
        if (!client->Send(req).ok()) {
          st->outstanding.fetch_sub(1, std::memory_order_release);
          break;
        }
        total_sent.fetch_add(1, std::memory_order_relaxed);
      }
      st->dead.store(true, std::memory_order_release);
    });
  }
  for (auto& th : threads) th.join();
  double elapsed = wall.Seconds();

  out.sent = total_sent.load();
  for (auto& st : stats) {
    out.served += st.served;
    out.busy += st.busy;
    out.errors += st.errors;
    out.overflow += st.overflow;
  }
  out.achieved_hz = static_cast<double>(out.sent) / elapsed;
  out.goodput_hz = static_cast<double>(out.served) / elapsed;
  return out;
}

/// Latency-measuring variant: single closed-loop probe connection runs
/// alongside the open-loop load and samples round-trip latency, so
/// percentiles reflect what an admitted request experiences at this
/// load level.
LoadResult RunStepWithLatency(uint16_t port, const std::vector<TileId>& tiles,
                              double rate_hz, double seconds,
                              size_t connections) {
  std::atomic<bool> stop{false};
  std::vector<double> lat_s;
  uint64_t probe_busy = 0;
  std::thread probe([&] {
    NetClient client;
    if (!client.Connect("127.0.0.1", port).ok()) return;
    while (!stop.load(std::memory_order_relaxed)) {
      bench::Timer t;
      auto resp = client.GetTile(tiles[lat_s.size() % tiles.size()]);
      if (!resp.ok()) break;
      if (resp->code == NetResponseCode::kOk) {
        lat_s.push_back(t.Seconds());
      } else if (resp->code == NetResponseCode::kBusy) {
        ++probe_busy;
        // Back off briefly so the probe itself doesn't camp the queue.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  LoadResult out =
      RunOpenLoopStep(port, tiles, rate_hz, seconds, connections);
  stop.store(true);
  probe.join();
  out.busy += probe_busy;
  out.p50_ms = PercentileMs(lat_s, 0.50);
  out.p99_ms = PercentileMs(lat_s, 0.99);
  out.p999_ms = PercentileMs(lat_s, 0.999);
  return out;
}

/// Phase 4 helper: closed-loop GetTile RTTs on one connection with the
/// client's trace propagation toggled. The Global recorder's
/// configuration (enabled / sample rate) is the caller's business —
/// this only drives requests and collects percentiles.
struct LatencyPair {
  double p50_ms = 0, p99_ms = 0;
  uint64_t served = 0;
};

LatencyPair MeasureGetTileLatency(uint16_t port,
                                  const std::vector<TileId>& tiles,
                                  double seconds, bool propagate) {
  LatencyPair out;
  NetClient client;
  client.set_propagate_trace(propagate);
  if (!client.Connect("127.0.0.1", port).ok()) return out;
  std::vector<double> lat_s;
  lat_s.reserve(1u << 16);
  bench::Timer t;
  uint64_t i = 0;
  while (t.Seconds() < seconds) {
    bench::Timer rt;
    auto resp = client.GetTile(tiles[i++ % tiles.size()]);
    if (!resp.ok() || resp->code != NetResponseCode::kOk) break;
    lat_s.push_back(rt.Seconds());
  }
  out.served = lat_s.size();
  out.p50_ms = PercentileMs(lat_s, 0.50);
  out.p99_ms = PercentileMs(lat_s, 0.99);
  return out;
}

struct FailoverResult {
  bool promoted = false;
  double time_to_promotion_ms = 0;  // Controller-measured degraded window.
  double detection_ms = 0;          // Kill -> kFailoverDetected wall time.
  uint64_t writes_acked_before = 0;
  uint64_t writes_acked_after = 0;
  uint64_t writes_lost_at_kill = 0;  // Attempts failed while leaderless.
  std::vector<EventLog::Event> events;
};

/// Phase 3: kill the leader of a live 3-node cluster under closed-loop
/// write load and measure the promotion. The writer keeps hammering
/// through the outage, so "writes lost at kill" is the count of attempts
/// that failed between the kill and the first ack from the new leader —
/// the client-visible cost of the degraded window.
FailoverResult RunFailoverDemo(double seconds) {
  FailoverResult out;
  FaultInjector faults(0xE17);
  std::vector<std::unique_ptr<ReplicationNode>> nodes;
  HdMap world = StraightRoad(300.0);
  for (int i = 0; i < 3; ++i) {
    ReplicationNode::Options no;
    no.node_id = i;
    no.service.tile_store.tile_size_m = 100.0;
    no.heartbeat_interval_ms = 10;
    no.io_timeout_ms = 150;
    no.min_ack_replicas = 1;
    no.ack_timeout_ms = 2000;
    no.faults = &faults;
    nodes.push_back(std::make_unique<ReplicationNode>(no));
    if (!nodes.back()->Start(world).ok()) return out;
  }
  FailoverController::Options co;
  co.poll_interval_ms = 10;
  co.leader_timeout_ms = 100;
  FailoverController controller(co);
  for (auto& node : nodes) controller.AddNode(node.get());
  if (!controller.Start().ok()) return out;

  // Closed-loop writer against whichever node the controller calls
  // leader; counts acked writes and failed attempts.
  std::atomic<bool> stop{false};
  std::atomic<bool> killed{false};
  std::atomic<uint64_t> acked_before{0}, acked_after{0}, lost{0};
  std::thread writer([&] {
    uint64_t id = 17000000;
    bool recovered = false;
    while (!stop.load(std::memory_order_relaxed)) {
      ReplicationNode* leader = controller.leader();
      bool ok = false;
      if (leader != nullptr && leader->alive()) {
        MapPatch patch;
        Landmark lm;
        lm.id = id++;
        lm.position = {static_cast<double>(id % 97), 0.0, 0.0};
        patch.added_landmarks.push_back(lm);
        ok = leader->StagePatch(patch).ok() && leader->Publish().ok();
      }
      if (!killed.load(std::memory_order_acquire)) {
        if (ok) acked_before.fetch_add(1, std::memory_order_relaxed);
      } else if (!recovered) {
        if (ok) {
          recovered = true;  // First ack from the promoted leader.
          acked_after.fetch_add(1, std::memory_order_relaxed);
        } else {
          lost.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (ok) {
        acked_after.fetch_add(1, std::memory_order_relaxed);
      }
      if (!ok) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Warm up, then kill.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::max(0.2, seconds / 4)));
  ReplicationNode* old_leader = controller.leader();
  size_t failovers_before = controller.failover_count();
  bench::Timer kill_timer;
  old_leader->Halt();
  killed.store(true, std::memory_order_release);

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(5000);
  while (controller.failover_count() == failovers_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  out.detection_ms = kill_timer.Seconds() * 1e3;
  out.promoted = controller.failover_count() > failovers_before;

  // Let the new leader take writes for the back half, then quiesce.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::max(0.2, seconds / 4)));
  stop.store(true);
  writer.join();
  out.time_to_promotion_ms = controller.last_degraded_window_ms();
  out.writes_acked_before = acked_before.load();
  out.writes_acked_after = acked_after.load();
  out.writes_lost_at_kill = lost.load();
  for (const auto& event : controller.RecentEvents()) {
    if (event.type == EventLog::Type::kFailoverDetected ||
        event.type == EventLog::Type::kFailoverComplete) {
      out.events.push_back(event);
    }
  }
  controller.Stop();
  for (auto& node : nodes) node->Halt();
  return out;
}

int Run(int argc, char** argv) {
  bool smoke = false;
  double seconds = 3.0;
  size_t connections = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--seconds=", 10) == 0)
      seconds = std::atof(argv[i] + 10);
    else if (std::strncmp(argv[i], "--connections=", 14) == 0)
      connections = static_cast<size_t>(std::atoi(argv[i] + 14));
  }
  if (smoke) seconds = std::min(seconds, 1.0);

  bench::PrintHeader(
      "E17", "framed-TCP tile serving under open-loop load",
      "serving edge must shed with typed BUSY, not queue without bound");

  MapService::Options opt;
  opt.tile_store.tile_size_m = 100.0;
  MapService service(opt);
  if (!service.Init(StraightRoad(2000.0)).ok()) {
    std::fprintf(stderr, "service init failed\n");
    return 1;
  }
  std::vector<TileId> tiles = service.snapshot()->tiles.AllTiles();
  std::printf("world: straight road 2 km, %zu tiles of 100 m\n",
              tiles.size());

  TileServer::Options server_opt;
  server_opt.worker_threads = 2;
  server_opt.max_pending_requests = 64;
  server_opt.max_inflight_per_connection = 32;
  TileServer server(service, server_opt);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }

  // Phase 1: closed-loop calibration.
  double calib_s = smoke ? 0.3 : 1.0;
  double peak_hz =
      CalibratePeakHz(server.port(), tiles, calib_s, connections);
  std::printf("calibration: closed-loop peak %.0f req/s over %zu conns\n",
              peak_hz, connections);
  if (peak_hz <= 0) return 1;

  // Phase 2: open-loop ladder.
  const double factors[] = {0.5, 1.0, 2.0};
  LoadResult results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = RunStepWithLatency(server.port(), tiles,
                                    factors[i] * peak_hz, seconds,
                                    connections);
    const LoadResult& r = results[i];
    std::printf(
        "load %.1fx | offered %6.0f/s sent %6llu drop %5llu | "
        "goodput %6.0f/s busy %6llu err %3llu | "
        "p50 %.2f ms p99 %.2f ms p999 %.2f ms\n",
        factors[i], r.offered_hz, (unsigned long long)r.sent,
        (unsigned long long)r.overflow, r.goodput_hz,
        (unsigned long long)r.busy, (unsigned long long)r.errors, r.p50_ms,
        r.p99_ms, r.p999_ms);
  }
  double busy_total =
      server.metrics().GetCounter("net.busy_rejected")->value();
  std::printf("server: %llu requests, %.0f busy-rejected total\n",
              (unsigned long long)server.metrics()
                  .GetCounter("net.requests")
                  ->value(),
              busy_total);
  server.Stop();

  // Phase 3: failover under write load.
  FailoverResult fo = RunFailoverDemo(seconds);
  std::printf(
      "failover: promotion %s | degraded window %.1f ms "
      "(kill->promote wall %.1f ms) | acked %llu before, %llu after | "
      "%llu write attempt(s) lost at kill\n",
      fo.promoted ? "OK" : "MISSING", fo.time_to_promotion_ms,
      fo.detection_ms, (unsigned long long)fo.writes_acked_before,
      (unsigned long long)fo.writes_acked_after,
      (unsigned long long)fo.writes_lost_at_kill);
  for (const auto& event : fo.events) {
    std::printf("  event %-18s %s\n",
                std::string(EventLog::TypeToString(event.type)).c_str(),
                event.detail.c_str());
  }

  // Phase 4: observability overhead. Fresh server on the same world; the
  // closed-loop RTT is compared with propagation off, on-but-unsampled
  // (trace ids ride the wire, nothing records), and on with every
  // request head-sampled. Then kStats is scraped while a 2x open-loop
  // overload runs — the introspection plane is exempt from admission
  // shedding, so it must keep answering while GetTiles are shed.
  TileServer::Options obs_opt;
  obs_opt.worker_threads = 2;
  obs_opt.max_pending_requests = 64;
  obs_opt.max_inflight_per_connection = 32;
  obs_opt.stats_label = "bench-e17";
  TileServer obs_server(service, obs_opt);
  if (!obs_server.Start().ok()) {
    std::fprintf(stderr, "phase-4 server start failed\n");
    return 1;
  }
  const double obs_s = smoke ? 0.3 : std::min(seconds, 2.0);
  TraceRecorder::Options rec_off;  // enabled = false
  TraceRecorder::Global().Configure(rec_off);
  LatencyPair lat_off =
      MeasureGetTileLatency(obs_server.port(), tiles, obs_s, false);
  TraceRecorder::Options rec_on;
  rec_on.enabled = true;
  rec_on.sample_every_n = 0;    // Ids propagate; no span records.
  rec_on.slow_threshold_s = 0;  // Keep the slow path out of the numbers.
  TraceRecorder::Global().Configure(rec_on);
  LatencyPair lat_on =
      MeasureGetTileLatency(obs_server.port(), tiles, obs_s, true);
  rec_on.sample_every_n = 1;    // Client + server spans on every request.
  TraceRecorder::Global().Configure(rec_on);
  LatencyPair lat_sampled =
      MeasureGetTileLatency(obs_server.port(), tiles, obs_s, true);
  TraceRecorder::Global().Configure(rec_off);
  double ovh_on = lat_off.p50_ms > 0
                      ? (lat_on.p50_ms - lat_off.p50_ms) / lat_off.p50_ms
                      : 0;
  double ovh_sampled =
      lat_off.p50_ms > 0
          ? (lat_sampled.p50_ms - lat_off.p50_ms) / lat_off.p50_ms
          : 0;
  std::printf(
      "observability: GetTile p50/p99 %.3f/%.3f ms off | "
      "%.3f/%.3f ms on (%+.1f%%) | %.3f/%.3f ms on+sampled (%+.1f%%)\n",
      lat_off.p50_ms, lat_off.p99_ms, lat_on.p50_ms, lat_on.p99_ms,
      ovh_on * 100, lat_sampled.p50_ms, lat_sampled.p99_ms,
      ovh_sampled * 100);

  std::vector<double> scrape_s;
  uint64_t scrape_fail = 0;
  std::atomic<bool> scrape_stop{false};
  std::thread scraper([&] {
    NetClient client;
    if (!client.Connect("127.0.0.1", obs_server.port()).ok()) {
      ++scrape_fail;
      return;
    }
    while (!scrape_stop.load(std::memory_order_relaxed)) {
      bench::Timer t;
      auto resp = client.FetchStats(NetStatsFormat::kJson, 16);
      if (!resp.ok()) {
        ++scrape_fail;
        break;
      }
      if (resp->code == NetResponseCode::kOk) {
        scrape_s.push_back(t.Seconds());
      } else {
        ++scrape_fail;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  LoadResult obs_overload = RunOpenLoopStep(
      obs_server.port(), tiles, 2.0 * peak_hz, obs_s, connections);
  scrape_stop.store(true);
  scraper.join();
  obs_server.Stop();
  double scrape_p50 = PercentileMs(scrape_s, 0.50);
  double scrape_p99 = PercentileMs(scrape_s, 0.99);
  std::printf(
      "observability: kStats scrape p50 %.2f ms p99 %.2f ms over %zu "
      "scrape(s) at 2x overload (%llu GetTile(s) shed BUSY meanwhile, "
      "%llu scrape failure(s))\n",
      scrape_p50, scrape_p99, scrape_s.size(),
      (unsigned long long)obs_overload.busy,
      (unsigned long long)scrape_fail);

  // Report card. Pre-saturation peak = best goodput of the non-overload
  // steps; the 2x step must retain most of it while shedding.
  const LoadResult& r2 = results[2];
  double peak_goodput =
      std::max(results[0].goodput_hz, results[1].goodput_hz);
  double retention =
      peak_goodput > 0 ? r2.goodput_hz / peak_goodput : 0;
  bench::PrintRow("2x overload sheds with typed BUSY", "> 0 BUSY",
                  bench::Fmt("%.0f", (double)r2.busy) + " BUSY");
  bench::PrintRow("goodput retention at 2x overload", ">= 80% of peak",
                  bench::Fmt("%.0f%%", retention * 100));
  bench::PrintRow("failover time-to-promotion", "< 1000 ms",
                  bench::Fmt("%.1f ms", fo.time_to_promotion_ms));
  bench::PrintRow("writes acked by promoted leader", "> 0",
                  bench::Fmt("%.0f", (double)fo.writes_acked_after));
  bench::PrintRow("trace propagation p50 overhead", "< 5%",
                  bench::Fmt("%+.1f%%", ovh_on * 100));
  bench::PrintRow("propagation + sampling p50 overhead", "< 5%",
                  bench::Fmt("%+.1f%%", ovh_sampled * 100));
  bench::PrintRow("kStats scrape p99 at 2x overload", "< 100 ms",
                  bench::Fmt("%.1f ms", scrape_p99));

  int rc = 0;
  if (r2.busy == 0) {
    std::fprintf(stderr, "FAIL: no BUSY shedding at 2x overload\n");
    rc = 1;
  }
  // Exit gate at 50% so one-core CI smoke runs don't flake; the printed
  // report carries the 80% acceptance check for real runs.
  if (retention < 0.5) {
    std::fprintf(stderr,
                 "FAIL: 2x-overload goodput %.0f/s < 50%% of peak %.0f/s\n",
                 r2.goodput_hz, peak_goodput);
    rc = 1;
  }
  if (!fo.promoted || fo.writes_acked_after == 0) {
    std::fprintf(stderr, "FAIL: leader kill did not end in a working "
                         "promotion\n");
    rc = 1;
  }
  // Exit gate at 50% so shared one-core boxes don't flake on
  // microsecond RTT deltas; the printed report carries the 5% budget
  // for real runs.
  if (lat_off.served > 0 &&
      (ovh_on > 0.5 || ovh_sampled > 0.5)) {
    std::fprintf(stderr,
                 "FAIL: trace propagation overhead %+.1f%% / %+.1f%% "
                 "exceeds 50%% on p50\n",
                 ovh_on * 100, ovh_sampled * 100);
    rc = 1;
  }
  if (scrape_s.empty() || scrape_p99 > 1000.0) {
    std::fprintf(stderr,
                 "FAIL: kStats scrape did not keep answering under 2x "
                 "overload (%zu ok, p99 %.1f ms)\n",
                 scrape_s.size(), scrape_p99);
    rc = 1;
  }
  std::printf("%s\n", rc == 0 ? "OK" : "FAILED");
  return rc;
}

}  // namespace
}  // namespace hdmap

int main(int argc, char** argv) { return hdmap::Run(argc, argv); }
