// tile_fleet: open-loop GetTile at a fixed 30,000 req/s over 4
// connections, Zipf(0.99) tile popularity, no writes.
//
// Why: GetTile serves a tile's stored bytes verbatim, so decode, stitch
// and the tile LRU do no work; the per-message cost of the net edge
// (framing, admission, worker handoff, the reply copy) dominates. A
// decode or cache change must show no change here.
//
// The sender walks a fixed schedule (send time i / rate) and never waits
// for replies; a single receiver polls the four sockets. Latency counts
// from each request's due time, so a stall shows up in the requests that
// queue behind it, and the generator reports how late it ran.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/trace.h"
#include "net/protocol.h"
#include "workload.h"

namespace hdmap::bench {

namespace {

constexpr int kGrid = 30;
constexpr double kRateHz = 30000;
constexpr size_t kConnections = 4;
constexpr double kZipfS = 0.99;
constexpr double kLatencyLimitS = 1e-3;
/// Sent-but-unanswered requests per connection past which the generator
/// drops a scheduled send (and counts it failed) instead of letting the
/// socket back up into the sender. 1024 rides out a host stall of about
/// 130 ms; at 256, stalls of a loaded shared host dropped sends.
constexpr uint32_t kMaxOutstandingPerConn = 1024;
/// Request slots, indexed by sequence number; far more than can be
/// outstanding (kConnections * kMaxOutstandingPerConn).
constexpr size_t kSlots = size_t{1} << 15;
constexpr size_t kMaxPayloadSamples = 256;
/// Replies still owed this long after the last send count as failed.
constexpr double kDrainTimeoutS = 2.0;
/// BUSY replies are retried after this long, at most kMaxRetries times.
constexpr int64_t kRetryBackoffNs = 1000000;
constexpr uint32_t kMaxRetries = 50;

class TileFleet : public Workload {
 public:
  explicit TileFleet(const Config& config)
      : seed_(config.seed), load_rng_(config.seed, 0x711e) {}
  ~TileFleet() override { Teardown(); }

  void Describe(Report* r) const override {
    r->InfoString("loop", "open");
    r->InfoNumber("town_grid", kGrid);
    r->InfoNumber("rate_hz", kRateHz);
    r->InfoNumber("connections", kConnections);
    r->InfoNumber("zipf_s", kZipfS);
    r->InfoString("popularity", "rank = distance of the tile from the town center");
    r->InfoNumber("latency_limit_ms", kLatencyLimitS * 1e3);
    r->InfoNumber("max_outstanding_per_connection", kMaxOutstandingPerConn);
    r->InfoNumber("busy_retry_backoff_ms", kRetryBackoffNs * 1e-6);
    r->InfoNumber("busy_max_retries", kMaxRetries);
  }

  Status Setup() override {
    service_ = std::make_unique<MapService>(ServiceOptions());
    HDMAP_RETURN_IF_ERROR(service_->Init(MakeTown(kGrid, seed_)));
    server_ = std::make_unique<TileServer>(*service_, ServerOptions());
    HDMAP_RETURN_IF_ERROR(server_->Start());
    for (size_t c = 0; c < kConnections; ++c) {
      clients_[c] = std::make_unique<NetClient>();
      HDMAP_RETURN_IF_ERROR(clients_[c]->Connect("127.0.0.1", server_->port()));
    }
    snapshot_ = service_->snapshot();
    RankTiles();
    return Status::Ok();
  }

  void Teardown() override {
    for (auto& client : clients_) client.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    snapshot_.reset();
    service_.reset();
  }

  std::vector<MetricsRegistry*> Registries() override {
    return {&service_->metrics()};
  }

  PhaseResult RunPhase(double seconds) override;

  void CheckGates(std::vector<std::string>* failures) override {
    if (checked_ == 0) failures->push_back("tile_fleet: no reply was checked");
    if (mismatched_ != 0) {
      failures->push_back("tile_fleet: " + std::to_string(mismatched_) + " of " +
                          std::to_string(checked_) +
                          " checked GetTile payloads differ from the "
                          "snapshot's stored tile bytes");
    }
  }

  ReplayInputs GetReplayInputs() override {
    Rng rng(seed_, 0x5eed);
    ReplayInputs in;
    in.service = service_.get();
    in.world = &snapshot_->map;
    for (int i = 0; i < 256; ++i) in.tiles.push_back(ranked_[SampleRank(rng)]);
    in.boxes = RandomBoxes(snapshot_->map.BoundingBox(), kRegionBoxM, 64, rng);
    in.patches = MaintenancePatches(snapshot_->map, 8, rng);
    in.payloads = payload_samples_;
    return in;
  }

  double BlockingPathUs(const Report& r) const override {
    return r.Value("service.snapshot_load_ns") * 1e-3 +
           r.Value("core.raw_tile_bytes_ns") * 1e-3 +
           r.Value("net.encode_response_us") +
           r.Value("net.decode_response_us");
  }

 private:
  struct Slot {
    uint64_t seq = 0;
    int64_t due_ns = 0;
    TileId tile;
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    bool sampled = false;
    uint32_t busy_replies = 0;
  };

  /// Popularity rank r -> tile: tiles ordered by distance from the town
  /// center, so the hot set is downtown. The order is fixed per world;
  /// the seed drives the request sequence.
  void RankTiles() {
    ranked_ = snapshot_->tiles.AllTiles();
    Vec2 center = snapshot_->map.BoundingBox().Center();
    auto dist = [&](const TileId& t) {
      Vec2 c{(t.x + 0.5) * kTileSizeM, (t.y + 0.5) * kTileSizeM};
      return c.DistanceTo(center);
    };
    std::stable_sort(ranked_.begin(), ranked_.end(),
                     [&](const TileId& a, const TileId& b) {
                       return dist(a) < dist(b);
                     });
    zipf_cdf_.assign(ranked_.size(), 0);
    double total = 0;
    for (size_t r = 0; r < ranked_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      zipf_cdf_[r] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  size_t SampleRank(Rng& rng) const {
    auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                               rng.Uniform());
    return std::min<size_t>(it - zipf_cdf_.begin(), zipf_cdf_.size() - 1);
  }

  uint64_t seed_;
  Rng load_rng_;
  std::unique_ptr<MapService> service_;
  std::unique_ptr<TileServer> server_;
  std::array<std::unique_ptr<NetClient>, kConnections> clients_;
  std::shared_ptr<const MapSnapshot> snapshot_;
  std::vector<TileId> ranked_;
  std::vector<double> zipf_cdf_;
  std::vector<Slot> slots_ = std::vector<Slot>(kSlots);
  uint64_t next_seq_ = 0;
  uint64_t checked_ = 0;
  uint64_t mismatched_ = 0;
  std::vector<std::string> payload_samples_;
};

PhaseResult TileFleet::RunPhase(double seconds) {
  PhaseResult out;
  const bool tracing = TraceRecorder::Global().enabled();
  const uint64_t total = static_cast<uint64_t>(seconds * kRateHz);
  const uint64_t first_seq = next_seq_;
  const double period_ns = 1e9 / kRateHz;
  const int64_t t0 = NowNs() + 1000000;  // Both threads are up by then.
  std::array<std::atomic<uint32_t>, kConnections> outstanding{};
  uint64_t dropped = 0, send_errors = 0;
  Samples lateness;
  if (payload_samples_.size() >= kMaxPayloadSamples) payload_samples_.clear();

  // A BUSY reply queues its op here and the sender re-sends it after
  // kRetryBackoffNs, the way NetClient::CallWithRetry treats BUSY; an op
  // fails only when its retries run out. retry_mu also covers a re-send's
  // outstanding increment and the end of the schedule, so the receiver
  // never sees an op that is neither queued nor outstanding.
  std::mutex retry_mu;
  std::deque<std::pair<int64_t, uint64_t>> retries;  // (ready_ns, seq)
  bool schedule_done = false;
  std::atomic<bool> settled{false};

  auto send = [&](const Slot& slot) {
    const size_t c = slot.seq % kConnections;
    NetRequest request;
    request.type = NetRequestType::kGetTile;
    request.request_id = slot.seq + 1;
    request.tile = slot.tile;
    request.trace_id = slot.trace_id;
    request.parent_span_id = slot.span_id;
    request.trace_sampled = slot.sampled;
    // Release: the receiver's acquire load of this counter makes the
    // slot visible before it reads it for the reply.
    outstanding[c].fetch_add(1, std::memory_order_release);
    if (!clients_[c]->Send(request).ok()) {
      outstanding[c].fetch_sub(1, std::memory_order_relaxed);
      ++send_errors;
    }
  };
  // An op retried for so long that a later send reused its slot is lost:
  // it stays out of `ok`, so it counts as failed.
  uint64_t lost_retries = 0;
  auto send_ready_retries = [&] {
    std::lock_guard<std::mutex> lock(retry_mu);
    const int64_t now = NowNs();
    while (!retries.empty() && retries.front().first <= now) {
      const uint64_t seq = retries.front().second;
      retries.pop_front();
      const Slot& slot = slots_[seq % kSlots];
      if (slot.seq == seq) {
        send(slot);
      } else {
        ++lost_retries;
      }
    }
  };

  std::thread sender([&] {
    // Default timer slack (50 us) would make every wakeup late by more
    // than a GetTile round trip.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    PinToGeneratorCpus();
    TraceRecorder& recorder = TraceRecorder::Global();
    for (uint64_t i = 0; i < total; ++i) {
      const uint64_t seq = first_seq + i;
      const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(i) *
                                                    period_ns);
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      lateness.Add(static_cast<double>(std::max<int64_t>(0, now - due)) * 1e-9);
      send_ready_retries();
      const TileId tile = ranked_[SampleRank(load_rng_)];
      if (outstanding[seq % kConnections].load(std::memory_order_relaxed) >=
          kMaxOutstandingPerConn) {
        ++dropped;
        continue;
      }
      Slot& slot = slots_[seq % kSlots];
      slot = Slot{seq, due, tile, 0, 0, false, 0};
      if (tracing) {
        // One root span per op, recorded by the receiver when the reply
        // lands; the server's spans parent under it.
        slot.trace_id = recorder.NextTraceId();
        slot.span_id = recorder.NextSpanId();
        slot.sampled = recorder.SampleNextTrace();
      }
      send(slot);
    }
    {
      std::lock_guard<std::mutex> lock(retry_mu);
      schedule_done = true;
    }
    while (!settled.load(std::memory_order_acquire)) {
      send_ready_retries();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  uint64_t ok = 0, busy = 0, errors = 0, over_limit = 0;
  double bytes = 0;
  int64_t last_reply_ns = t0;
  std::thread receiver([&] {
    PinToGeneratorCpus();
    std::array<std::string, kConnections> buffers;
    std::array<pollfd, kConnections> fds{};
    for (size_t c = 0; c < kConnections; ++c) {
      fds[c] = pollfd{clients_[c]->fd(), POLLIN, 0};
    }
    auto settle = [&](size_t c, const Result<NetResponse>& response,
                      int64_t now) {
      outstanding[c].load(std::memory_order_acquire);
      const uint64_t seq = response.ok() ? response->request_id - 1 : 0;
      Slot& slot = slots_[seq % kSlots];
      if (!response.ok() || slot.seq != seq) {
        ++errors;
      } else if (response->code == NetResponseCode::kBusy) {
        ++busy;
        if (++slot.busy_replies <= kMaxRetries) {
          std::lock_guard<std::mutex> lock(retry_mu);
          retries.emplace_back(now + kRetryBackoffNs, seq);
          outstanding[c].fetch_sub(1, std::memory_order_release);
          return;
        }
        ++errors;
      } else if (response->code == NetResponseCode::kOk) {
        double latency = static_cast<double>(now - slot.due_ns) * 1e-9;
        ++ok;
        out.op.Add(latency);
        if (latency > kLatencyLimitS) ++over_limit;
        bytes += static_cast<double>(response->payload.size());
        if (seq % kCheckEvery == 0) {
          // Checked after the latency sample was taken.
          ++checked_;
          Result<PinnedBytes> stored =
              snapshot_->tiles.RawTileBytes(slot.tile);
          if (!stored.ok() || stored->view() != response->payload) {
            ++mismatched_;
          }
          if (payload_samples_.size() < kMaxPayloadSamples) {
            payload_samples_.push_back(response->payload);
          }
        }
        if (slot.sampled) {
          TraceEvent event;
          event.name = "bench.get_tile";
          event.trace_id = slot.trace_id;
          event.span_id = slot.span_id;
          event.start_ns = static_cast<uint64_t>(slot.due_ns);
          event.duration_ns = static_cast<uint64_t>(now - slot.due_ns);
          event.sampled = true;
          TraceRecorder::Global().Record(event);
        }
        last_reply_ns = now;
      } else {
        ++errors;
      }
      outstanding[c].fetch_sub(1, std::memory_order_release);
    };
    auto owed = [&] {
      uint64_t n = 0;
      for (const auto& o : outstanding) n += o.load(std::memory_order_acquire);
      return n;
    };
    int64_t drain_deadline = 0;
    char buf[65536];
    for (;;) {
      bool done = false;
      uint64_t unsettled = 0;
      {
        std::lock_guard<std::mutex> lock(retry_mu);
        unsettled = owed() + retries.size();
        done = schedule_done && unsettled == 0;
      }
      if (done) break;
      if (schedule_done && drain_deadline == 0) {
        drain_deadline = NowNs() + static_cast<int64_t>(kDrainTimeoutS * 1e9);
      } else if (drain_deadline != 0 && NowNs() > drain_deadline) {
        errors += unsettled;
        break;
      }
      if (::poll(fds.data(), fds.size(), 1) <= 0) continue;
      for (size_t c = 0; c < kConnections; ++c) {
        if (fds[c].revents == 0) continue;
        ssize_t got = ::recv(fds[c].fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (got > 0) {
          buffers[c].append(buf, static_cast<size_t>(got));
        } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
          fds[c].fd = -1;  // Connection lost: its replies never come.
          continue;
        }
        size_t consumed = 0;
        for (;;) {
          std::string_view rest(buffers[c].data() + consumed,
                                buffers[c].size() - consumed);
          size_t frame_size = 0;
          std::string_view body;
          FrameParse parse = ExtractFrame(rest, kNetResponseMagic,
                                          kMaxNetResponseBody, &frame_size,
                                          &body);
          if (parse == FrameParse::kNeedMore) break;
          if (parse == FrameParse::kViolation) {
            fds[c].fd = -1;
            break;
          }
          uint32_t crc = 0;
          std::memcpy(&crc, rest.data() + 8, sizeof(crc));
          settle(c, DecodeResponseBody(body, crc), NowNs());
          consumed += frame_size;
        }
        buffers[c].erase(0, consumed);
      }
    }
    settled.store(true, std::memory_order_release);
  });
  sender.join();
  receiver.join();
  next_seq_ = first_seq + total;

  out.attempted = total;
  out.dropped = dropped;
  out.failed = total - std::min(ok, total);
  out.over_limit = over_limit;
  out.bytes = bytes;
  out.seconds = static_cast<double>(last_reply_ns - t0) * 1e-9;
  out.lateness = std::move(lateness);
  out.late_limit_s = kLatencyLimitS;
  out.extra.InfoNumber("busy_replies", static_cast<double>(busy));
  out.extra.InfoNumber("error_replies",
                       static_cast<double>(errors + send_errors));
  out.extra.InfoNumber("lost_retries", static_cast<double>(lost_retries));
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeTileFleet(const Config& config) {
  return std::make_unique<TileFleet>(config);
}

}  // namespace hdmap::bench
