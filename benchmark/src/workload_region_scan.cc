// region_scan: closed loop, 2 clients with one connection each, sending
// back-to-back GetRegion over uniform-random 300 m boxes. No writes.
//
// Why: the 30x30 town holds about 2,000 tiles against a 256-entry tile
// cache, so the working set is far larger than the cache. Tile decode,
// cache misses, stitching and the re-encode of the stitched region
// dominate each request; the net edge is a small share.

#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/trace.h"
#include "core/tile_view.h"
#include "workload.h"

namespace hdmap::bench {

namespace {

constexpr int kGrid = 30;
constexpr size_t kClients = 2;
constexpr double kLatencyLimitS = 5e-3;
constexpr size_t kMaxPayloadSamples = 256;

class RegionScan : public Workload {
 public:
  explicit RegionScan(const Config& config) : seed_(config.seed) {
    for (size_t t = 0; t < kClients; ++t) rngs_.emplace_back(seed_, 0x5ca0 + t);
  }
  ~RegionScan() override { Teardown(); }

  void Describe(Report* r) const override {
    r->InfoString("loop", "closed");
    r->InfoNumber("town_grid", kGrid);
    r->InfoNumber("clients", kClients);
    r->InfoNumber("box_m", kRegionBoxM);
    r->InfoNumber("latency_limit_ms", kLatencyLimitS * 1e3);
  }

  Status Setup() override {
    service_ = std::make_unique<MapService>(ServiceOptions());
    HDMAP_RETURN_IF_ERROR(service_->Init(MakeTown(kGrid, seed_)));
    server_ = std::make_unique<TileServer>(*service_, ServerOptions());
    HDMAP_RETURN_IF_ERROR(server_->Start());
    clients_.clear();
    for (size_t t = 0; t < kClients; ++t) {
      clients_.push_back(std::make_unique<NetClient>());
      HDMAP_RETURN_IF_ERROR(clients_[t]->Connect("127.0.0.1", server_->port()));
    }
    snapshot_ = service_->snapshot();
    return Status::Ok();
  }

  void Teardown() override {
    clients_.clear();
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
    // The in-process reference: the same box through MapService directly.
    size_t mismatched = 0;
    for (const auto& [box, ids] : checks_) {
      Result<HdMap> region = service_->GetRegion(box);
      if (!region.ok() || LaneletIds(*region) != ids) ++mismatched;
    }
    if (checks_.empty()) failures->push_back("region_scan: no reply was checked");
    if (unverified_ != 0) {
      failures->push_back("region_scan: " + std::to_string(unverified_) +
                          " sampled region payloads failed TileView::Create");
    }
    if (mismatched != 0) {
      failures->push_back("region_scan: " + std::to_string(mismatched) + " of " +
                          std::to_string(checks_.size()) +
                          " sampled regions differ from MapService::GetRegion");
    }
  }

  ReplayInputs GetReplayInputs() override {
    Rng rng(seed_, 0x5eed);
    ReplayInputs in;
    in.service = service_.get();
    in.world = &snapshot_->map;
    in.tiles = RandomTiles(snapshot_->tiles, 256, rng);
    in.boxes = RandomBoxes(snapshot_->map.BoundingBox(), kRegionBoxM, 64, rng);
    in.patches = MaintenancePatches(snapshot_->map, 8, rng);
    in.payloads = payload_samples_;
    return in;
  }

  double BlockingPathUs(const Report& r) const override {
    return r.Value("service.snapshot_load_ns") * 1e-3 +
           r.Value("service.get_region_us") + r.Value("core.region_encode_us") +
           r.Value("net.encode_response_us") +
           r.Value("net.decode_response_us");
  }

 private:
  uint64_t seed_;
  std::vector<Rng> rngs_;
  std::unique_ptr<MapService> service_;
  std::unique_ptr<TileServer> server_;
  std::vector<std::unique_ptr<NetClient>> clients_;
  std::shared_ptr<const MapSnapshot> snapshot_;
  std::mutex mu_;  // Guards the three members below.
  std::vector<std::pair<Aabb, std::vector<ElementId>>> checks_;
  size_t unverified_ = 0;
  std::vector<std::string> payload_samples_;
};

PhaseResult RegionScan::RunPhase(double seconds) {
  PhaseResult out;
  const Aabb world = snapshot_->map.BoundingBox();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<PhaseResult> per_client(kClients);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (payload_samples_.size() >= kMaxPayloadSamples) payload_samples_.clear();
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      PinToGeneratorCpus();
      PhaseResult& mine = per_client[t];
      NetClient& client = *clients_[t];
      Rng& rng = rngs_[t];
      for (uint64_t n = 0; Clock::now() < deadline; ++n) {
        Aabb box = RandomBoxes(world, kRegionBoxM, 1, rng).front();
        ++mine.attempted;
        Clock::time_point sent = Clock::now();
        Result<NetResponse> response = [&] {
          TraceSpan span("bench.get_region", TraceSpan::kRoot);
          return client.GetRegion(box);
        }();
        double latency = SecondsSince(sent);
        if (!response.ok() || response->code != NetResponseCode::kOk) {
          ++mine.failed;
          if (!response.ok()) break;  // Connection lost.
          continue;
        }
        mine.op.Add(latency);
        if (latency > kLatencyLimitS) ++mine.over_limit;
        mine.bytes += static_cast<double>(response->payload.size());
        if (n % kCheckEvery != 0) continue;
        // Sampled check, after the latency sample: the payload must be a
        // valid framed v3 map; its lanelets are compared in CheckGates.
        Result<TileView> view =
            TileView::Create(response->payload, FrameChecksum::kVerify);
        std::vector<ElementId> ids;
        if (view.ok()) {
          for (size_t i = 0; i < view->num_lanelets(); ++i) {
            ids.push_back(view->lanelet(i).id());
          }
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (!view.ok()) {
          ++unverified_;
        } else {
          checks_.emplace_back(box, std::move(ids));
        }
        if (payload_samples_.size() < kMaxPayloadSamples) {
          payload_samples_.push_back(std::move(response->payload));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  out.seconds = SecondsSince(start);
  for (PhaseResult& mine : per_client) {
    out.op.Append(mine.op);
    out.attempted += mine.attempted;
    out.failed += mine.failed;
    out.over_limit += mine.over_limit;
    out.bytes += mine.bytes;
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeRegionScan(const Config& config) {
  return std::make_unique<RegionScan>(config);
}

}  // namespace hdmap::bench
