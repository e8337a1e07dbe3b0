#include "replication/replica.h"

#include <utility>

#include "core/serialization.h"
#include "net/protocol.h"

namespace hdmap {

namespace {

// "Very large" contact staleness before the first leader contact or
// reset — effectively infinite but safe to add/compare.
constexpr double kNeverContactedMs = 1e18;

}  // namespace

Replica::Replica(Options options) : opts_(std::move(options)) {
  if (opts_.metrics != nullptr) {
    records_applied_ = opts_.metrics->GetCounter("repl.records_applied");
    apply_failures_ = opts_.metrics->GetCounter("repl.apply_failures");
    stale_term_rejections_ =
        opts_.metrics->GetCounter("repl.stale_term_rejections");
    catchups_installed_ = opts_.metrics->GetCounter("repl.catchups_installed");
    need_catchup_acks_ = opts_.metrics->GetCounter("repl.need_catchup_acks");
  }
}

ReplicationHandler::Reply Replica::HandleReplication(
    const NetRequest& request) {
  if (partitioned_.load()) {
    Reply reply;
    reply.code = NetResponseCode::kError;
    reply.status = StatusCode::kInternal;
    return reply;
  }
  switch (request.type) {
    case NetRequestType::kReplicate:
      return HandleBatch(request);
    case NetRequestType::kCatchUp:
      return HandleCatchUp(request);
    default: {
      Reply reply;
      reply.code = NetResponseCode::kError;
      reply.status = StatusCode::kInvalidArgument;
      return reply;
    }
  }
}

ReplicationHandler::Reply Replica::HandleBatch(const NetRequest& request) {
  Result<ReplShipBatch> decoded = DecodeShipBatch(request.payload);
  if (!decoded.ok()) {
    if (apply_failures_ != nullptr) apply_failures_->Increment();
    Reply reply;
    reply.code = NetResponseCode::kError;
    reply.status = decoded.status().code();
    return reply;
  }
  ReplShipBatch batch = std::move(decoded.value());

  std::lock_guard<std::mutex> lock(mu_);
  uint64_t term = opts_.term->load(std::memory_order_acquire);
  if (batch.term < term) {
    if (stale_term_rejections_ != nullptr) stale_term_rejections_->Increment();
    return AckReply(MakeAckLocked(kReplAckStaleTerm));
  }
  if (batch.term > term) {
    // Fencing state only ever moves forward; the shipper may race us with
    // an equal-or-higher store, which is fine.
    uint64_t observed = term;
    while (observed < batch.term &&
           !opts_.term->compare_exchange_weak(observed, batch.term)) {
    }
    if (opts_.on_higher_term) opts_.on_higher_term(batch.term);
  }
  contacted_ = true;
  last_contact_ = std::chrono::steady_clock::now();

  if (!need_catchup_ && opts_.consume_resync && opts_.consume_resync()) {
    need_catchup_ = true;
  }
  if (need_catchup_) {
    if (need_catchup_acks_ != nullptr) need_catchup_acks_->Increment();
    return AckReply(MakeAckLocked(kReplAckNeedCatchUp));
  }

  uint8_t flags = 0;
  for (const ReplRecord& record : batch.records) {
    if (record.seq < next_seq_) continue;  // duplicate resend
    if (record.seq > next_seq_) break;     // gap; ack makes leader rewind
    if (opts_.faults != nullptr &&
        !opts_.faults->MaybeFail(kApplyFaultSite).ok()) {
      // Injected follower crash between records: everything applied so
      // far stays; the ack position makes the leader resend the rest.
      if (apply_failures_ != nullptr) apply_failures_->Increment();
      break;
    }
    if (record.kind == ReplRecordKind::kPatch) {
      Result<MapPatch> patch = DeserializePatch(record.payload);
      if (!patch.ok()) {
        if (apply_failures_ != nullptr) apply_failures_->Increment();
        break;
      }
      if (!opts_.service->StagePatch(std::move(patch.value())).ok()) {
        if (apply_failures_ != nullptr) apply_failures_->Increment();
        break;
      }
    } else {
      // Publish marker: only apply when it produces exactly the marker's
      // version — anything else means our history diverged from the
      // leader's (e.g. we are a deposed leader with local-only patches)
      // and must be repaired by snapshot, not papered over.
      if (opts_.service->version() + 1 != record.version) {
        flags |= kReplAckNeedCatchUp;
        need_catchup_ = true;
        if (need_catchup_acks_ != nullptr) need_catchup_acks_->Increment();
        break;
      }
      if (!opts_.service->Publish().ok() ||
          opts_.service->version() != record.version) {
        if (apply_failures_ != nullptr) apply_failures_->Increment();
        break;
      }
    }
    if (!opts_.log->AppendReplicated(record).ok()) {
      if (apply_failures_ != nullptr) apply_failures_->Increment();
      break;
    }
    ++next_seq_;
    if (records_applied_ != nullptr) records_applied_->Increment();
    if (record.kind == ReplRecordKind::kPublish && opts_.on_publish_applied) {
      opts_.on_publish_applied(record.seq);
    }
  }
  return AckReply(MakeAckLocked(flags));
}

ReplicationHandler::Reply Replica::HandleCatchUp(const NetRequest& request) {
  Result<ReplCatchUp> decoded = DecodeCatchUp(request.payload);
  if (!decoded.ok()) {
    if (apply_failures_ != nullptr) apply_failures_->Increment();
    Reply reply;
    reply.code = NetResponseCode::kError;
    reply.status = decoded.status().code();
    return reply;
  }
  ReplCatchUp snapshot = std::move(decoded.value());

  std::lock_guard<std::mutex> lock(mu_);
  uint64_t term = opts_.term->load(std::memory_order_acquire);
  if (snapshot.term < term) {
    if (stale_term_rejections_ != nullptr) stale_term_rejections_->Increment();
    return AckReply(MakeAckLocked(kReplAckStaleTerm));
  }
  if (snapshot.term > term) {
    uint64_t observed = term;
    while (observed < snapshot.term &&
           !opts_.term->compare_exchange_weak(observed, snapshot.term)) {
    }
    if (opts_.on_higher_term) opts_.on_higher_term(snapshot.term);
  }
  contacted_ = true;
  last_contact_ = std::chrono::steady_clock::now();

  uint64_t resume_seq = snapshot.resume_seq;
  Status installed = opts_.service->InstallReplicatedSnapshot(
      snapshot.version, snapshot.published_unix_ms, snapshot.tile_size_m,
      std::move(snapshot.tiles));
  if (!installed.ok()) {
    if (apply_failures_ != nullptr) apply_failures_->Increment();
    Reply reply;
    reply.code = NetResponseCode::kError;
    reply.status = installed.code();
    return reply;
  }
  next_seq_ = resume_seq + 1;
  opts_.log->ResetTo(next_seq_);
  need_catchup_ = false;
  if (catchups_installed_ != nullptr) catchups_installed_->Increment();
  if (opts_.on_catchup_installed) opts_.on_catchup_installed(resume_seq);
  return AckReply(MakeAckLocked(0));
}

ReplAck Replica::MakeAckLocked(uint8_t flags) const {
  ReplAck ack;
  ack.term = opts_.term->load(std::memory_order_acquire);
  ack.next_seq = next_seq_;
  ack.version = opts_.service->version();
  ack.flags = flags;
  return ack;
}

ReplicationHandler::Reply Replica::AckReply(const ReplAck& ack) const {
  Reply reply;
  reply.code = NetResponseCode::kOk;
  reply.status = StatusCode::kOk;
  reply.payload = EncodeAck(ack);
  return reply;
}

void Replica::FenceTerm(uint64_t term) {
  std::function<void(uint64_t)> notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t observed = opts_.term->load(std::memory_order_acquire);
    if (observed >= term) return;
    while (observed < term &&
           !opts_.term->compare_exchange_weak(observed, term)) {
    }
    notify = opts_.on_higher_term;
  }
  // Outside mu_ (unlike OnShip's in-batch path) purely for symmetry with
  // the controller's call site; StepDown only takes the node write lock.
  if (notify) notify(term);
}

uint64_t Replica::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t Replica::applied_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

double Replica::MsSinceLeaderContact() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!contacted_) return kNeverContactedMs;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - last_contact_)
      .count();
}

void Replica::ResetContact() {
  std::lock_guard<std::mutex> lock(mu_);
  contacted_ = true;
  last_contact_ = std::chrono::steady_clock::now();
}

}  // namespace hdmap
