#include "replication/failover_controller.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace hdmap {

FailoverController::FailoverController(Options options)
    : opts_(options) {
  if (opts_.metrics != nullptr) {
    failovers_ = opts_.metrics->GetCounter("repl.failovers");
    degraded_window_ms_ =
        opts_.metrics->GetGauge("repl.failover.last_degraded_window_ms");
  }
}

FailoverController::~FailoverController() { Stop(); }

void FailoverController::AddNode(ReplicationNode* node) {
  nodes_.push_back(node);
}

Status FailoverController::Start() {
  if (nodes_.empty()) {
    return Status::InvalidArgument("no nodes registered");
  }
  ReplicationNode* first = nullptr;
  for (ReplicationNode* node : nodes_) {
    if (node->alive() && (first == nullptr ||
                          node->node_id() < first->node_id())) {
      first = node;
    }
  }
  if (first == nullptr) {
    return Status::FailedPrecondition("no alive node to bootstrap from");
  }
  term_.store(1);
  first->BecomeLeader(1, ReachablePeersOf(first));
  {
    std::lock_guard<std::mutex> lock(mu_);
    leader_id_ = first->node_id();
    leaders_by_term_[1] = first->node_id();
  }
  events_.Append(EventLog::Type::kFailoverComplete, 0,
                 "bootstrap: node " + std::to_string(first->node_id()) +
                     " is leader for term 1");
  stopping_.store(false);
  monitor_ = std::thread([this] { MonitorLoop(); });
  return Status::Ok();
}

void FailoverController::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_.store(true);
  }
  stop_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

ReplicationNode* FailoverController::leader() const {
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = leader_id_;
  }
  for (ReplicationNode* node : nodes_) {
    if (node->node_id() == id) return node;
  }
  return nullptr;
}

double FailoverController::last_degraded_window_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_degraded_window_ms_;
}

std::map<uint64_t, int> FailoverController::LeadersByTerm() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leaders_by_term_;
}

std::vector<WalShipper::FollowerInfo> FailoverController::ReachablePeersOf(
    const ReplicationNode* leader) const {
  std::vector<WalShipper::FollowerInfo> peers;
  for (ReplicationNode* node : nodes_) {
    if (node == leader || !node->alive() || node->partitioned()) continue;
    WalShipper::FollowerInfo info;
    info.node_id = node->node_id();
    info.host = node->host();
    info.port = node->port();
    peers.push_back(info);
  }
  return peers;
}

void FailoverController::MonitorLoop() {
  while (!stopping_.load()) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      stop_cv_.wait_for(lock,
                        std::chrono::milliseconds(opts_.poll_interval_ms),
                        [this] { return stopping_.load(); });
    }
    if (stopping_.load()) break;
    Evaluate();
  }
}

void FailoverController::Evaluate() {
  ReplicationNode* current = leader();
  if (current == nullptr) return;

  // Split-brain audit: a second live leader for a claimed term would mean
  // fencing failed. (A deposed leader still on an OLD term is expected
  // until it hears the new one; each term has exactly one rightful
  // holder, which is what we check.)
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ReplicationNode* node : nodes_) {
      if (!node->alive() || node->role() != ReplicationNode::Role::kLeader) {
        continue;
      }
      auto it = leaders_by_term_.find(node->term());
      if (it != leaders_by_term_.end() && it->second != node->node_id()) {
        split_brain_observed_.fetch_add(1);
      }
    }
  }

  // Detection: the leader process is gone, or every alive follower has
  // been without leader contact for longer than the timeout (the
  // heartbeat-silence signal — covers a partitioned or wedged leader).
  bool dead = !current->alive();
  double silence_ms = 0.0;
  if (!dead) {
    double min_staleness = -1.0;
    size_t alive_followers = 0;
    for (ReplicationNode* node : nodes_) {
      if (node == current || !node->alive()) continue;
      ++alive_followers;
      double staleness = node->MsSinceLeaderContact();
      if (min_staleness < 0.0 || staleness < min_staleness) {
        min_staleness = staleness;
      }
    }
    if (alive_followers > 0 && min_staleness > opts_.leader_timeout_ms) {
      dead = true;
      silence_ms = min_staleness;
    }
  }

  if (dead) {
    Promote(current, silence_ms);
    return;
  }

  // Steady state: heal membership — restarted or un-partitioned nodes
  // rejoin the leader's follower set (and get re-shipped or snapshotted
  // back into sync).
  for (const WalShipper::FollowerInfo& peer : ReachablePeersOf(current)) {
    if (!current->HasFollower(peer.node_id)) current->AddFollower(peer);
  }
}

void FailoverController::Promote(ReplicationNode* dead_leader,
                                 double silence_ms) {
  auto detected = std::chrono::steady_clock::now();

  // Nothing to do unless some follower is reachable (don't burn a term
  // or depose a live leader when there is no one to promote).
  bool have_candidate = false;
  for (ReplicationNode* node : nodes_) {
    if (node != dead_leader && node->alive() && !node->partitioned()) {
      have_candidate = true;
      break;
    }
  }
  if (!have_candidate) return;  // keep watching

  uint64_t new_term = 0;
  for (ReplicationNode* node : nodes_) {
    new_term = std::max(new_term, node->term());
  }
  new_term = std::max(new_term, term_.load()) + 1;

  // Fence FIRST, then choose. A falsely-dead leader (silent heartbeats,
  // live write path) keeps acking writes while this promotion runs; if
  // the candidate were chosen before every reachable node rejects the
  // old term, records acked during the promote window could land only
  // on a non-candidate and be truncated by the new leader's history —
  // acked-write loss. After the fence, applied seqs are final for the
  // old term, so the max-applied candidate provably holds every acked
  // write.
  if (dead_leader->alive() && !dead_leader->partitioned()) {
    dead_leader->StepDown(new_term);
  }
  for (ReplicationNode* node : nodes_) {
    if (node == dead_leader || !node->alive() || node->partitioned()) continue;
    node->FenceTerm(new_term);
  }

  // Candidates: every reachable node — including the deposed leader
  // when it is alive and unpartitioned (heartbeats lost, node fine).
  // An alive old leader holds every acked write by definition, so
  // excluding it would let a behind follower win the election and
  // truncate acked records out of the only node that has them.
  // Most-caught-up wins; ties go to the lowest node id so the choice
  // is deterministic.
  ReplicationNode* best = nullptr;
  uint64_t best_seq = 0;
  for (ReplicationNode* node : nodes_) {
    if (!node->alive() || node->partitioned()) continue;
    uint64_t seq = node->applied_seq();
    if (best == nullptr || seq > best_seq ||
        (seq == best_seq && node->node_id() < best->node_id())) {
      best = node;
      best_seq = seq;
    }
  }
  if (best == nullptr) return;  // raced a kill/partition; keep watching

  events_.Append(
      EventLog::Type::kFailoverDetected, 0,
      "leader node " + std::to_string(dead_leader->node_id()) +
          (dead_leader->alive()
               ? " silent for " + std::to_string(silence_ms) + "ms"
               : " is down") +
          "; promoting node " + std::to_string(best->node_id()) +
          " at term " + std::to_string(new_term));

  best->BecomeLeader(new_term, ReachablePeersOf(best));
  if (best != dead_leader && dead_leader->alive() &&
      !dead_leader->partitioned()) {
    // Already stepped down by the fence above; rejoin as a follower (it
    // will be repaired by snapshot before applying anything).
    best->AddFollower({dead_leader->node_id(), dead_leader->host(),
                       dead_leader->port()});
  }

  term_.store(new_term);
  double window_ms =
      silence_ms + std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - detected)
                       .count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    leader_id_ = best->node_id();
    leaders_by_term_[new_term] = best->node_id();
    last_degraded_window_ms_ = window_ms;
  }
  failover_count_.fetch_add(1);
  if (failovers_ != nullptr) failovers_->Increment();
  if (degraded_window_ms_ != nullptr) degraded_window_ms_->Set(window_ms);
  events_.Append(EventLog::Type::kFailoverComplete, 0,
                 "node " + std::to_string(best->node_id()) +
                     " is leader for term " + std::to_string(new_term) +
                     "; degraded window " + std::to_string(window_ms) + "ms");
}

}  // namespace hdmap
