// replicated_write: the durable, replicated write path. Three in-process
// ReplicationNodes on loopback; node 0 leads (term 1) and a write is
// acked once one follower applied it. Every node fsyncs each WAL append
// and checkpoints every 16 publishes. Two writer threads run StagePatch
// back to back (one landmark move each), a publisher calls Publish at a
// fixed 10 Hz, and a watcher polls the followers' versions every 100 us.
//
// Why: WAL append and fsync group commit, shipping, follower apply and
// ack, publish, and periodic checkpoints. There are no reads, so a
// read-path change must show nothing here. Writes move landmarks around
// their surveyed positions, so the map (and every checkpoint) keeps its
// size however long the run.

#include <sys/statfs.h>
#include <unistd.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/trace.h"
#include "replication/node.h"
#include "workload.h"

namespace hdmap::bench {

namespace {

constexpr int kGrid = 10;
constexpr size_t kNodes = 3;
constexpr size_t kWriters = 2;
constexpr double kPublishHz = 10;
constexpr auto kWatchInterval = std::chrono::microseconds(100);
constexpr size_t kMinAckReplicas = 1;
constexpr uint32_t kCheckpointEveryN = 16;
constexpr double kLatencyLimitS = 5e-3;
/// Publishes still invisible on a follower this long after the phase
/// count as never visible.
constexpr double kVisibleTimeoutS = 5.0;

/// Waits up to `timeout_s` for `pred`, polling every 100 us.
template <typename Pred>
bool WaitFor(double timeout_s, Pred&& pred) {
  Clock::time_point start = Clock::now();
  while (!pred()) {
    if (SecondsSince(start) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// Name of the filesystem holding `path` (the data dirs' disk).
std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

class ReplicatedWrite : public Workload {
 public:
  explicit ReplicatedWrite(const Config& config)
      : seed_(config.seed),
        data_dir_(config.tmp_root + "/replicated_write-" +
                  std::to_string(getpid())) {
    for (size_t w = 0; w < kWriters; ++w) rngs_.emplace_back(seed_, 0xb0a7 + w);
  }
  ~ReplicatedWrite() override { Teardown(); }

  void Describe(Report* r) const override {
    r->InfoString("loop", "closed writers, fixed-rate publisher");
    r->InfoNumber("town_grid", kGrid);
    r->InfoNumber("nodes", kNodes);
    r->InfoNumber("writers", kWriters);
    r->InfoNumber("publish_hz", kPublishHz);
    r->InfoNumber("watch_interval_us", 100);
    r->InfoNumber("min_ack_replicas", kMinAckReplicas);
    r->InfoString("fsync", "always");
    r->InfoNumber("checkpoint_every_n_publishes", kCheckpointEveryN);
    r->InfoString("patch", "1 landmark move");
    r->InfoNumber("latency_limit_ms", kLatencyLimitS * 1e3);
    std::filesystem::create_directories(data_dir_);
    r->InfoString("data_dir_filesystem", FilesystemName(data_dir_));
  }

  Status Setup() override {
    HdMap world = MakeTown(kGrid, seed_);
    for (size_t i = 0; i < kNodes; ++i) {
      ReplicationNode::Options options;
      options.node_id = static_cast<int>(i);
      options.service = ServiceOptions();
      options.service.durability.data_dir =
          data_dir_ + "/node" + std::to_string(i);
      options.service.durability.fsync = FsyncMode::kAlways;
      options.service.durability.checkpoint_every_n_publishes =
          kCheckpointEveryN;
      options.server = ServerOptions();
      options.min_ack_replicas = kMinAckReplicas;
      nodes_.push_back(std::make_unique<ReplicationNode>(options));
      HDMAP_RETURN_IF_ERROR(nodes_.back()->Start(world));
    }
    std::vector<WalShipper::FollowerInfo> followers;
    for (size_t i = 1; i < kNodes; ++i) {
      followers.push_back({static_cast<int>(i), "127.0.0.1", nodes_[i]->port()});
    }
    nodes_[0]->BecomeLeader(1, followers);
    initial_ = nodes_[0]->service().snapshot();
    // Each writer moves its own landmarks, so a landmark's last acked
    // move is well defined.
    owned_.assign(kWriters, {});
    size_t k = 0;
    for (const auto& [id, lm] : initial_->map.landmarks()) {
      owned_[k++ % kWriters].push_back(id);
    }
    return Status::Ok();
  }

  double SetupCheckpointSeconds() const override {
    double sum = 0;
    for (const auto& node : nodes_) {
      sum += node->service()
                 .metrics()
                 .GetLatency("storage.checkpoint_write")
                 ->sum_seconds();
    }
    return sum;
  }

  void Teardown() override {
    // Leader first: its shipper stops before the followers go away, so
    // no session waits out a reconnect timeout.
    for (auto& node : nodes_) node->Halt();
    nodes_.clear();
    initial_.reset();
    std::filesystem::remove_all(data_dir_);
  }

  std::vector<MetricsRegistry*> Registries() override {
    std::vector<MetricsRegistry*> out;
    for (auto& node : nodes_) out.push_back(&node->service().metrics());
    return out;
  }

  PhaseResult RunPhase(double seconds) override;

  void CheckGates(std::vector<std::string>* failures) override;

  ReplayInputs GetReplayInputs() override {
    Rng rng(seed_, 0x5eed);
    ReplayInputs in;
    in.service = &nodes_[0]->service();
    in.world = &initial_->map;
    in.tiles = RandomTiles(initial_->tiles, 256, rng);
    in.boxes = RandomBoxes(initial_->map.BoundingBox(), kRegionBoxM, 64, rng);
    for (int i = 0; i < 32; ++i) {
      MapPatch patch;
      AddLandmarkMoves(initial_->map, owned_[0], 1, rng, &patch);
      in.patches.push_back(std::move(patch));
    }
    // No client reads: the framing replays run over tile payloads.
    for (size_t i = 0; i < 64; ++i) {
      Result<PinnedBytes> bytes = initial_->tiles.RawTileBytes(in.tiles[i]);
      if (bytes.ok()) in.payloads.emplace_back(bytes->view());
    }
    return in;
  }

  double BlockingPathUs(const Report& r) const override {
    // The part of an ack spent in the leader's own durable stage.
    return r.Value("service.stage_patch_us");
  }

 private:
  struct LastWrite {
    Vec3 position;
    bool acked = false;
  };

  double FollowerBytesIn() const {
    double sum = 0;
    for (size_t i = 1; i < nodes_.size(); ++i) {
      sum += static_cast<double>(
          nodes_[i]->service().metrics().GetCounter("net.bytes_in")->value());
    }
    return sum;
  }

  uint64_t MinFollowerVersion() const {
    uint64_t v = UINT64_MAX;
    for (size_t i = 1; i < nodes_.size(); ++i) {
      v = std::min(v, nodes_[i]->service().version());
    }
    return v;
  }

  uint64_t seed_;
  std::string data_dir_;
  std::vector<Rng> rngs_;
  std::vector<std::unique_ptr<ReplicationNode>> nodes_;
  std::shared_ptr<const MapSnapshot> initial_;
  std::vector<std::vector<ElementId>> owned_;
  /// Per writer: each landmark's last attempted move.
  std::vector<std::map<ElementId, LastWrite>> last_write_ =
      std::vector<std::map<ElementId, LastWrite>>(kWriters);
  uint64_t publish_failures_ = 0;
  uint64_t never_visible_ = 0;
};

PhaseResult ReplicatedWrite::RunPhase(double seconds) {
  PhaseResult out;
  ReplicationNode& leader = *nodes_[0];
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const double bytes_before = FollowerBytesIn();
  std::atomic<bool> writers_done{false};

  std::vector<PhaseResult> per_writer(kWriters);
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      PinToGeneratorCpus();
      PhaseResult& mine = per_writer[w];
      Rng& rng = rngs_[w];
      while (Clock::now() < deadline) {
        MapPatch patch;
        AddLandmarkMoves(initial_->map, owned_[w], 1, rng, &patch);
        const MapPatch::Move move = patch.moved_landmarks.front();
        ++mine.attempted;
        Clock::time_point sent = Clock::now();
        Status acked = [&] {
          TraceSpan span("bench.stage_patch", TraceSpan::kRoot);
          return leader.StagePatch(patch);
        }();
        double latency = SecondsSince(sent);
        last_write_[w][move.id] = LastWrite{move.new_position, acked.ok()};
        if (!acked.ok()) {
          ++mine.failed;
          continue;
        }
        mine.op.Add(latency);
        if (latency > kLatencyLimitS) ++mine.over_limit;
      }
    });
  }

  // Publisher -> watcher: (version, Publish call instant) pairs.
  std::mutex mu;
  std::deque<std::pair<uint64_t, Clock::time_point>> pending;
  bool publisher_done = false;
  Samples lateness, visible;
  std::thread publisher([&] {
    PinToGeneratorCpus();
    const Clock::time_point t0 = Clock::now();
    for (uint64_t k = 0;; ++k) {
      Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(k / kPublishHz));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      Clock::time_point call = Clock::now();
      lateness.Add(std::chrono::duration<double>(call - due).count());
      Status published = leader.Publish();
      if (!published.ok()) {
        ++publish_failures_;
        continue;
      }
      std::lock_guard<std::mutex> lock(mu);
      pending.emplace_back(leader.service().version(), call);
    }
    std::lock_guard<std::mutex> lock(mu);
    publisher_done = true;
  });

  double lag_max = 0;
  std::thread watcher([&] {
    PinToGeneratorCpus();
    Clock::time_point give_up{};
    for (;;) {
      Clock::time_point now = Clock::now();
      uint64_t seen = MinFollowerVersion();
      uint64_t leader_seq = leader.applied_seq();
      for (size_t i = 1; i < nodes_.size(); ++i) {
        uint64_t follower_seq = nodes_[i]->applied_seq();
        if (leader_seq > follower_seq) {
          lag_max = std::max(lag_max,
                             static_cast<double>(leader_seq - follower_seq));
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        while (!pending.empty() && pending.front().first <= seen) {
          visible.Add(
              std::chrono::duration<double>(now - pending.front().second)
                  .count());
          pending.pop_front();
        }
        if (publisher_done && writers_done.load()) {
          if (pending.empty()) break;
          if (give_up == Clock::time_point{}) {
            give_up = now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(kVisibleTimeoutS));
          } else if (now > give_up) {
            never_visible_ += pending.size();
            break;
          }
        }
      }
      std::this_thread::sleep_for(kWatchInterval);
    }
  });

  for (std::thread& th : writers) th.join();
  writers_done.store(true);
  publisher.join();
  watcher.join();
  out.seconds = SecondsSince(start);
  for (PhaseResult& mine : per_writer) {
    out.op.Append(mine.op);
    out.attempted += mine.attempted;
    out.failed += mine.failed;
    out.over_limit += mine.over_limit;
  }
  // The write's distribution cost: replication bytes the followers
  // received (batches, publish markers, heartbeats) per acked write.
  out.bytes = FollowerBytesIn() - bytes_before;
  out.lag_records_max = lag_max;
  out.lateness = std::move(lateness);
  out.extra.AddLatencyMs("visible", visible);
  return out;
}

void ReplicatedWrite::CheckGates(std::vector<std::string>* failures) {
  ReplicationNode& leader = *nodes_[0];
  if (publish_failures_ != 0 || never_visible_ != 0) {
    failures->push_back("replicated_write: " +
                        std::to_string(publish_failures_) +
                        " publishes failed, " + std::to_string(never_visible_) +
                        " never became visible on every follower");
  }
  // A final publish makes every acked write visible; then the followers
  // must converge byte for byte.
  Status published = leader.Publish();
  uint64_t target = leader.service().version();
  if (!published.ok() ||
      !WaitFor(10.0, [&] { return MinFollowerVersion() >= target; })) {
    failures->push_back("replicated_write: followers did not reach version " +
                        std::to_string(target));
    return;
  }
  std::map<uint64_t, std::string> leader_tiles =
      leader.service().snapshot()->tiles.RawTilesCopy();
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i]->service().snapshot()->tiles.RawTilesCopy() != leader_tiles) {
      failures->push_back("replicated_write: follower " + std::to_string(i) +
                          " tiles differ from the leader's");
    }
  }
  // Every landmark whose last write was acked sits where that write put it.
  std::shared_ptr<const MapSnapshot> snap = leader.service().snapshot();
  size_t wrong = 0, acked = 0;
  for (const auto& writes : last_write_) {
    for (const auto& [id, last] : writes) {
      if (!last.acked) continue;
      ++acked;
      const Landmark* lm = snap->map.FindLandmark(id);
      if (lm == nullptr || lm->position.x != last.position.x ||
          lm->position.y != last.position.y) {
        ++wrong;
      }
    }
  }
  if (acked == 0) failures->push_back("replicated_write: no write was acked");
  if (wrong != 0) {
    failures->push_back("replicated_write: " + std::to_string(wrong) +
                        " acked landmark moves are missing from the leader's "
                        "map");
  }
}

}  // namespace

std::unique_ptr<Workload> MakeReplicatedWrite(const Config& config) {
  return std::make_unique<ReplicatedWrite>(config);
}

}  // namespace hdmap::bench
