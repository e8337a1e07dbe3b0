// fleet_update: maintenance writes beside fleet reads. One in-process
// writer calls ApplyPatch at a fixed 10 Hz; each patch moves 4 landmarks
// and replaces 1 lanelet inside a hot 600 m area. Two reader threads,
// one connection each, serve 32 simulated vehicles each, round-robin.
// Each vehicle keeps a fixed 300 m box in the hot area and the version it
// last saw, and polls GetRegion(box, have_version).
//
// Why: writes and reads share the service and core layers: the
// copy-on-write publish, a cold tile cache after every snapshot swap,
// NotModified and Delta replies, and full fetches that can coalesce. A
// vehicle re-downloads its region in full every 16th poll (a vehicle
// entering the area), so full fetches keep meeting the cache that each
// publish resets. Publish-to-visible is the fleet's view of the
// maintenance loop.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common/trace.h"
#include "core/serialization.h"
#include "net/protocol.h"
#include "workload.h"

namespace hdmap::bench {

namespace {

constexpr int kGrid = 10;
constexpr double kWriteHz = 10;
constexpr size_t kReaders = 2;
constexpr size_t kVehiclesPerReader = 32;
constexpr double kHotAreaM = 600;
constexpr uint64_t kFullRefetchEvery = 16;
constexpr double kLatencyLimitS = 5e-3;
constexpr size_t kMaxPayloadSamples = 256;
/// Publish instants indexed by version; far more than a run publishes.
constexpr size_t kMaxVersions = 1 << 14;

class FleetUpdate : public Workload {
 public:
  explicit FleetUpdate(const Config& config)
      : seed_(config.seed), write_rng_(config.seed, 0xf1ee) {}
  ~FleetUpdate() override { Teardown(); }

  void Describe(Report* r) const override {
    r->InfoString("loop", "closed readers, fixed-rate writer");
    r->InfoNumber("town_grid", kGrid);
    r->InfoNumber("write_hz", kWriteHz);
    r->InfoNumber("readers", kReaders);
    r->InfoNumber("vehicles_per_reader", kVehiclesPerReader);
    r->InfoNumber("hot_area_m", kHotAreaM);
    r->InfoNumber("box_m", kRegionBoxM);
    r->InfoNumber("full_refetch_every", kFullRefetchEvery);
    r->InfoString("patch", "4 landmark moves + 1 lanelet speed-limit update");
    r->InfoNumber("latency_limit_ms", kLatencyLimitS * 1e3);
  }

  Status Setup() override {
    service_ = std::make_unique<MapService>(ServiceOptions());
    HDMAP_RETURN_IF_ERROR(service_->Init(MakeTown(kGrid, seed_)));
    server_ = std::make_unique<TileServer>(*service_, ServerOptions());
    HDMAP_RETURN_IF_ERROR(server_->Start());
    clients_.clear();
    for (size_t t = 0; t < kReaders; ++t) {
      clients_.push_back(std::make_unique<NetClient>());
      HDMAP_RETURN_IF_ERROR(clients_[t]->Connect("127.0.0.1", server_->port()));
    }
    initial_ = service_->snapshot();
    Rng rng(seed_, 0xa7ea);
    hot_area_ = HotArea(initial_->map.BoundingBox(), kHotAreaM);
    hot_landmarks_ = LandmarksIn(initial_->map, hot_area_);
    hot_lanelets_ = LaneletsIn(initial_->map, hot_area_);
    // 16 tile-aligned boxes, four vehicles on each, so full fetches of
    // one box can meet in the server's coalescing map.
    vehicles_.assign(kReaders * kVehiclesPerReader, Vehicle{});
    for (size_t v = 0; v < vehicles_.size(); ++v) {
      size_t slot = v % 16;
      vehicles_[v].box =
          Box(hot_area_.min.x + static_cast<double>(slot % 4) * kTileSizeM,
              hot_area_.min.y + static_cast<double>(slot / 4) * kTileSizeM,
              kRegionBoxM);
      vehicles_[v].phase = static_cast<uint64_t>(rng.UniformInt(0, 15));
    }
    return Status::Ok();
  }

  void Teardown() override {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    initial_.reset();
    service_.reset();
  }

  std::vector<MetricsRegistry*> Registries() override {
    return {&service_->metrics()};
  }

  PhaseResult RunPhase(double seconds) override;

  void CheckGates(std::vector<std::string>* failures) override {
    if (regressions_ != 0) {
      failures->push_back("fleet_update: a vehicle saw its version go "
                          "backwards " + std::to_string(regressions_) +
                          " time(s)");
    }
    if (deltas_checked_ == 0) {
      failures->push_back("fleet_update: no Delta reply was checked");
    }
    if (bad_deltas_ != 0) {
      failures->push_back("fleet_update: " + std::to_string(bad_deltas_) +
                          " Delta payloads failed to decode");
    }
    if (write_failures_ != 0) {
      failures->push_back("fleet_update: " + std::to_string(write_failures_) +
                          " ApplyPatch calls failed");
    }
  }

  ReplayInputs GetReplayInputs() override {
    Rng rng(seed_, 0x5eed);
    ReplayInputs in;
    in.service = service_.get();
    in.world = &initial_->map;
    in.tiles = RandomTiles(initial_->tiles, 256, rng);
    for (size_t v = 0; v < 16; ++v) in.boxes.push_back(vehicles_[v].box);
    for (int i = 0; i < 8; ++i) {
      in.patches.push_back(
          MaintenancePatch(initial_->map, hot_landmarks_, hot_lanelets_, rng));
    }
    in.payloads = payload_samples_;
    return in;
  }

  double BlockingPathUs(const Report& r) const override {
    // The median poll is answered NotModified: a snapshot load and an
    // empty reply frame.
    return r.Value("service.snapshot_load_ns") * 1e-3 +
           r.Value("net.encode_response_us") +
           r.Value("net.decode_response_us");
  }

 private:
  struct Vehicle {
    Aabb box;
    uint64_t version = 0;
    uint64_t polls = 0;
    uint64_t phase = 0;
  };

  /// Records publish-to-visible for every version up to `version` whose
  /// Publish had returned before this reply arrived at `now_ns`.
  void ObserveVersion(uint64_t version, int64_t now_ns, Samples* visible) {
    uint64_t seen = visible_upto_.load(std::memory_order_acquire);
    while (seen < version && seen + 1 < kMaxVersions) {
      int64_t published = publish_ns_[seen + 1].load(std::memory_order_acquire);
      if (published == 0 || published > now_ns) return;
      if (visible_upto_.compare_exchange_weak(seen, seen + 1)) {
        visible->Add(static_cast<double>(now_ns - published) * 1e-9);
        ++seen;
      }
    }
  }

  uint64_t seed_;
  Rng write_rng_;
  std::unique_ptr<MapService> service_;
  std::unique_ptr<TileServer> server_;
  std::vector<std::unique_ptr<NetClient>> clients_;
  std::shared_ptr<const MapSnapshot> initial_;
  Aabb hot_area_;
  std::vector<ElementId> hot_landmarks_;
  std::vector<ElementId> hot_lanelets_;
  std::vector<Vehicle> vehicles_;
  std::vector<std::atomic<int64_t>> publish_ns_ =
      std::vector<std::atomic<int64_t>>(kMaxVersions);
  std::atomic<uint64_t> visible_upto_{0};
  std::atomic<uint64_t> regressions_{0};
  std::atomic<uint64_t> deltas_checked_{0};
  std::atomic<uint64_t> bad_deltas_{0};
  uint64_t write_failures_ = 0;
  std::mutex mu_;  // Guards payload_samples_.
  std::vector<std::string> payload_samples_;
};

PhaseResult FleetUpdate::RunPhase(double seconds) {
  PhaseResult out;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  visible_upto_.store(service_->version());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (payload_samples_.size() >= kMaxPayloadSamples) payload_samples_.clear();
  }

  Samples write_ack, lateness;
  std::thread writer([&] {
    PinToGeneratorCpus();
    const int64_t t0 = NowNs();
    for (uint64_t k = 0;; ++k) {
      const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(k) *
                                                    1e9 / kWriteHz);
      if (Clock::now() >= deadline ||
          due > std::chrono::duration_cast<std::chrono::nanoseconds>(
                    deadline.time_since_epoch())
                    .count()) {
        break;
      }
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      lateness.Add(static_cast<double>(std::max<int64_t>(0, NowNs() - due)) *
                   1e-9);
      MapPatch patch = MaintenancePatch(initial_->map, hot_landmarks_,
                                        hot_lanelets_, write_rng_);
      Clock::time_point call = Clock::now();
      Status applied = service_->ApplyPatch(std::move(patch));
      write_ack.Add(SecondsSince(call));
      if (!applied.ok()) {
        ++write_failures_;
        continue;
      }
      uint64_t version = service_->version();
      if (version < kMaxVersions) {
        publish_ns_[version].store(NowNs(), std::memory_order_release);
      }
    }
  });

  std::vector<PhaseResult> per_reader(kReaders);
  std::vector<Samples> visible(kReaders);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      PinToGeneratorCpus();
      PhaseResult& mine = per_reader[t];
      NetClient& client = *clients_[t];
      for (uint64_t n = 0; Clock::now() < deadline; ++n) {
        Vehicle& vehicle =
            vehicles_[t * kVehiclesPerReader + n % kVehiclesPerReader];
        uint64_t have = (vehicle.polls++ + vehicle.phase) % kFullRefetchEvery == 0
                            ? 0
                            : vehicle.version;
        ++mine.attempted;
        Clock::time_point sent = Clock::now();
        Result<NetResponse> response = [&] {
          TraceSpan span("bench.poll_region", TraceSpan::kRoot);
          return client.GetRegion(vehicle.box, have);
        }();
        double latency = SecondsSince(sent);
        int64_t now = NowNs();
        if (!response.ok()) {
          ++mine.failed;
          break;  // Connection lost.
        }
        NetResponseCode code = response->code;
        if (code != NetResponseCode::kOk &&
            code != NetResponseCode::kNotModified &&
            code != NetResponseCode::kDelta) {
          ++mine.failed;
          continue;
        }
        mine.op.Add(latency);
        if (latency > kLatencyLimitS) ++mine.over_limit;
        mine.bytes += static_cast<double>(response->payload.size());
        ObserveVersion(response->version, now, &visible[t]);
        // Checks, after the latency sample.
        if (response->version < vehicle.version) ++regressions_;
        vehicle.version = std::max(vehicle.version, response->version);
        if (code == NetResponseCode::kDelta) {
          ++deltas_checked_;
          Result<std::vector<std::string>> patches =
              DecodeDeltaPayload(response->payload);
          bool decoded = patches.ok() && !patches->empty();
          if (patches.ok()) {
            for (const std::string& p : *patches) {
              decoded = decoded && DeserializePatch(p).ok();
            }
          }
          if (!decoded) ++bad_deltas_;
        }
        if (n % kCheckEvery == 0) {
          std::lock_guard<std::mutex> lock(mu_);
          if (payload_samples_.size() < kMaxPayloadSamples) {
            payload_samples_.push_back(std::move(response->payload));
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();
  out.seconds = SecondsSince(start);
  Samples all_visible;
  for (size_t t = 0; t < kReaders; ++t) {
    out.op.Append(per_reader[t].op);
    out.attempted += per_reader[t].attempted;
    out.failed += per_reader[t].failed;
    out.over_limit += per_reader[t].over_limit;
    out.bytes += per_reader[t].bytes;
    all_visible.Append(visible[t]);
  }
  out.lateness = std::move(lateness);
  out.extra.AddLatencyMs("write_ack", write_ack);
  out.extra.AddLatencyMs("visible", all_visible);
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeFleetUpdate(const Config& config) {
  return std::make_unique<FleetUpdate>(config);
}

}  // namespace hdmap::bench
