#include "replication/wal_shipper.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/protocol.h"
#include "net/tile_server.h"

namespace hdmap {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

WalShipper::WalShipper(Options options) : opts_(std::move(options)) {
  if (opts_.metrics != nullptr) {
    batches_shipped_ = opts_.metrics->GetCounter("repl.batches_shipped");
    records_shipped_ = opts_.metrics->GetCounter("repl.records_shipped");
    heartbeats_ = opts_.metrics->GetCounter("repl.heartbeats");
    ship_failures_ = opts_.metrics->GetCounter("repl.ship_failures");
    catchups_served_ = opts_.metrics->GetCounter("repl.catchups_served");
    stale_term_acks_ = opts_.metrics->GetCounter("repl.stale_term_acks");
  }
}

WalShipper::~WalShipper() {
  RequestStop();
  Join();
}

void WalShipper::AddFollower(const FollowerInfo& follower) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load()) return;
  for (const auto& session : sessions_) {
    if (session->info.node_id == follower.node_id) return;
  }
  auto session = std::make_unique<Session>();
  session->info = follower;
  if (opts_.metrics != nullptr) {
    std::string tag = "{FOLLOWER" + std::to_string(follower.node_id) + "}";
    session->lag_records_gauge =
        opts_.metrics->GetGauge("replication.lag_records" + tag);
    session->lag_ms_gauge = opts_.metrics->GetGauge("replication.lag_ms" + tag);
    opts_.metrics->SetHelp("replication.lag_records",
                           "Records this follower trails the leader's log by");
    opts_.metrics->SetHelp(
        "replication.lag_ms",
        "Age of this follower's oldest unacked record, leader clock");
  }
  Session* raw = session.get();
  sessions_.push_back(std::move(session));
  raw->thread = std::thread([this, raw] { RunSession(raw); });
}

bool WalShipper::HasFollower(int node_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& session : sessions_) {
    if (session->info.node_id == node_id) return true;
  }
  return false;
}

void WalShipper::RequestStop() {
  stopping_.store(true);
  std::lock_guard<std::mutex> lock(mu_);
  wake_cv_.notify_all();
  ack_cv_.notify_all();
}

void WalShipper::Join() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& session : sessions_) {
      if (session->thread.joinable()) threads.push_back(std::move(session->thread));
    }
  }
  for (std::thread& thread : threads) thread.join();
}

void WalShipper::NotifyAppend() {
  std::lock_guard<std::mutex> lock(mu_);
  wake_cv_.notify_all();
}

bool WalShipper::WaitForAcks(uint64_t seq, size_t min_count,
                             uint32_t timeout_ms) const {
  if (min_count == 0) return true;
  std::unique_lock<std::mutex> lock(mu_);
  return ack_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [&] {
        if (stopping_.load()) return true;
        size_t n = 0;
        for (const auto& session : sessions_) {
          if (session->acked_seq.load(std::memory_order_acquire) >= seq) ++n;
        }
        return n >= min_count;
      }) &&
         !stopping_.load();
}

std::vector<WalShipper::FollowerProgress> WalShipper::Progress() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FollowerProgress> out;
  out.reserve(sessions_.size());
  uint64_t end = opts_.log != nullptr ? opts_.log->end_seq() : 0;
  for (const auto& session : sessions_) {
    FollowerProgress progress;
    progress.node_id = session->info.node_id;
    progress.acked_seq = session->acked_seq.load(std::memory_order_acquire);
    progress.lag_records =
        end > progress.acked_seq ? end - progress.acked_seq : 0;
    progress.lag_ms = opts_.log != nullptr
                          ? opts_.log->OldestPendingAgeMs(progress.acked_seq + 1)
                          : 0.0;
    out.push_back(progress);
  }
  return out;
}

bool WalShipper::Exchange(NetClient& client, Session* session,
                          NetRequestType type, std::string payload,
                          ReplAck* ack) {
  if (!client.connected()) {
    if (!client.Connect(session->info.host, session->info.port).ok()) {
      return false;
    }
  }
  NetRequest request;
  request.type = type;
  request.payload = std::move(payload);
  Result<NetResponse> response = client.CallWithRetry(request);
  if (!response.ok()) {
    client.Close();
    return false;
  }
  if (response.value().code != NetResponseCode::kOk) return false;
  Result<ReplAck> decoded = DecodeAck(response.value().payload);
  if (!decoded.ok()) return false;
  *ack = decoded.value();
  return true;
}

void WalShipper::RunSession(Session* session) {
  NetClient client;
  NetClient::RetryOptions retry;
  // The session loop is its own retry engine (it must re-read the log and
  // re-check the term between tries), so the client gets one bounded
  // attempt per exchange.
  retry.max_attempts = 1;
  retry.deadline_ms = opts_.io_timeout_ms;
  client.set_retry_options(retry);

  // Follower position as last acked; 0 = unknown, learned from the first
  // heartbeat's ack.
  uint64_t next = 0;
  bool force_catchup = false;
  Clock::time_point last_send =
      Clock::now() - std::chrono::milliseconds(opts_.heartbeat_interval_ms);

  while (!stopping_.load()) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      Clock::time_point deadline =
          last_send + std::chrono::milliseconds(opts_.heartbeat_interval_ms);
      wake_cv_.wait_until(lock, deadline, [&] {
        return stopping_.load() ||
               (next != 0 && !force_catchup && opts_.log->end_seq() >= next);
      });
    }
    if (stopping_.load()) break;
    last_send = Clock::now();
    if (opts_.partitioned && opts_.partitioned()) continue;

    uint64_t term = opts_.term->load(std::memory_order_acquire);

    // Each exchange runs under its own root span: the ambient context it
    // installs is what NetClient::Send stamps into the outgoing frame,
    // so the follower's server-side net.request span parents under the
    // leader's shipping trace (one replication RPC, one tree).
    TraceSpan ship_span("repl.ship", TraceSpan::kRoot, opts_.trace);

    // Gather what the follower needs: log records from its position, or a
    // snapshot when that position was trimmed away (or the follower asked).
    ReplShipBatch batch;
    batch.term = term;
    batch.leader_end_seq = opts_.log->end_seq();
    bool need_snapshot = force_catchup;
    if (!need_snapshot && next != 0) {
      Result<std::vector<ReplRecord>> read =
          opts_.log->ReadFrom(next, opts_.max_batch_records,
                              opts_.max_batch_bytes);
      if (read.ok()) {
        batch.records = std::move(read.value());
      } else {
        need_snapshot = true;  // kOutOfRange: position trimmed
      }
    }

    ReplAck ack;
    if (need_snapshot) {
      std::string payload =
          opts_.catchup_source ? opts_.catchup_source() : std::string();
      if (payload.empty()) continue;  // unavailable right now; retry later
      // A catch-up carries a whole snapshot; give it a wider deadline
      // than the per-batch one.
      NetClient::RetryOptions wide = retry;
      wide.deadline_ms = opts_.io_timeout_ms * 4;
      client.set_retry_options(wide);
      bool sent = Exchange(client, session, NetRequestType::kCatchUp,
                           std::move(payload), &ack);
      client.set_retry_options(retry);
      if (!sent) {
        if (ship_failures_ != nullptr) ship_failures_->Increment();
        continue;
      }
      if (catchups_served_ != nullptr) catchups_served_->Increment();
    } else {
      if (batch.records.empty()) {
        // Heartbeat. An injected heartbeat fault is silence, not an error
        // frame — the failure mode the failover detector keys on.
        if (opts_.faults != nullptr &&
            !opts_.faults->MaybeFail(kHeartbeatFaultSite).ok()) {
          continue;
        }
      }
      std::string payload = EncodeShipBatch(batch);
      if (opts_.faults != nullptr) {
        std::string corrupted;
        if (opts_.faults->MaybeCorrupt(kShipFaultSite, payload, &corrupted)) {
          payload = std::move(corrupted);
        }
      }
      if (!Exchange(client, session, NetRequestType::kReplicate,
                    std::move(payload), &ack)) {
        if (ship_failures_ != nullptr) ship_failures_->Increment();
        continue;
      }
      if (batch.records.empty()) {
        if (heartbeats_ != nullptr) heartbeats_->Increment();
      } else {
        if (batches_shipped_ != nullptr) batches_shipped_->Increment();
        if (records_shipped_ != nullptr) {
          records_shipped_->Increment(batch.records.size());
        }
      }
    }

    if ((ack.flags & kReplAckStaleTerm) != 0 ||
        ack.term > opts_.term->load(std::memory_order_acquire)) {
      // This leader was deposed. Report and keep idling; the node's
      // StepDown will RequestStop us.
      if (stale_term_acks_ != nullptr) stale_term_acks_->Increment();
      if (opts_.on_stale_term) opts_.on_stale_term(ack.term);
      continue;
    }
    force_catchup = (ack.flags & kReplAckNeedCatchUp) != 0;
    next = ack.next_seq;
    uint64_t acked = ack.next_seq == 0 ? 0 : ack.next_seq - 1;
    session->acked_seq.store(acked, std::memory_order_release);
    if (session->lag_records_gauge != nullptr) {
      // Per-follower lag after every ack: in records against the current
      // log end, and in leader-clock milliseconds as the age of the
      // oldest record the follower has not acked (0 when caught up).
      uint64_t end = opts_.log->end_seq();
      session->lag_records_gauge->Set(
          static_cast<double>(end > acked ? end - acked : 0));
      session->lag_ms_gauge->Set(opts_.log->OldestPendingAgeMs(acked + 1));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ack_cv_.notify_all();
    }
  }
  client.Close();
}

}  // namespace hdmap
