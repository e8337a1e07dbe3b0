#include "common/fault_injection.h"

#include <chrono>
#include <thread>

#include "common/metrics.h"

namespace hdmap {

namespace {

/// FNV-1a over arbitrary bytes; the building block for the deterministic
/// per-(seed, site, payload) fault decisions.
uint64_t HashBytes(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Maps a hash to [0, 1) for the probability check.
double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^53
}

}  // namespace

uint64_t FaultInjector::Mix(uint64_t h) const {
  // splitmix64 finalizer: decorrelates the FNV chain from the seed.
  h += 0x9e3779b97f4a7c15ull + seed_;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

void FaultInjector::AddPolicy(FaultPolicy policy) {
  std::unique_lock<std::shared_mutex> lock(policy_mu_);
  policies_.push_back(std::move(policy));
}

void FaultInjector::ClearPolicies() {
  std::unique_lock<std::shared_mutex> lock(policy_mu_);
  policies_.clear();
}

void FaultInjector::BindMetrics(MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  // Sites that already injected show up immediately, not on next fire.
  if (metrics_ != nullptr) {
    for (const auto& [site, n] : injected_) {
      metrics_->GetGauge("fault_injector.injected{" + site + "}")
          ->Set(static_cast<double>(n));
    }
  }
}

void FaultInjector::CountInjection(std::string_view site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = injected_.find(site);
  if (it == injected_.end()) {
    it = injected_.emplace(std::string(site), 1).first;
  } else {
    ++it->second;
  }
  if (metrics_ != nullptr) {
    metrics_->GetGauge("fault_injector.injected{" + it->first + "}")
        ->Set(static_cast<double>(it->second));
  }
}

bool FaultInjector::MaybeCorrupt(std::string_view site,
                                 std::string_view payload,
                                 std::string* corrupted) {
  std::shared_lock<std::shared_mutex> policy_lock(policy_mu_);
  for (size_t pi = 0; pi < policies_.size(); ++pi) {
    const FaultPolicy& policy = policies_[pi];
    if (policy.kind == FaultKind::kFailStatus ||
        policy.kind == FaultKind::kDelay || policy.site != site) {
      continue;
    }
    uint64_t h = Mix(HashBytes(HashBytes(kFnvOffset + pi, site), payload));
    if (HashToUnit(h) >= policy.probability) continue;
    // Fired: derive the mutation from an independent remix of the same
    // hash so "fires" and "where" are uncorrelated.
    uint64_t m = Mix(h ^ 0xa5a5a5a5a5a5a5a5ull);
    *corrupted = std::string(payload);
    switch (policy.kind) {
      case FaultKind::kBitFlip:
        if (!corrupted->empty()) {
          size_t bit = static_cast<size_t>(m % (corrupted->size() * 8));
          (*corrupted)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        }
        break;
      case FaultKind::kTruncate:
        if (!corrupted->empty()) {
          corrupted->resize(static_cast<size_t>(m % corrupted->size()));
        }
        break;
      case FaultKind::kDrop:
        corrupted->clear();
        break;
      case FaultKind::kTornWrite:
        if (!corrupted->empty()) {
          // Same length as the payload: the head landed, the tail reads
          // back as scribble. A fresh splitmix chain per byte keeps the
          // garbage deterministic in payload content alone.
          size_t prefix = static_cast<size_t>(m % corrupted->size());
          uint64_t g = m;
          for (size_t i = prefix; i < corrupted->size(); ++i) {
            g = Mix(g + i);
            (*corrupted)[i] = static_cast<char>(g & 0xff);
          }
        }
        break;
      case FaultKind::kFailStatus:
      case FaultKind::kDelay:
        break;  // Unreachable; filtered above.
    }
    CountInjection(site);
    return true;
  }
  return false;
}

const FaultPolicy* FaultInjector::FireControlPlane(std::string_view site,
                                                   FaultKind kind,
                                                   uint64_t* call_index) {
  for (size_t pi = 0; pi < policies_.size(); ++pi) {
    const FaultPolicy& policy = policies_[pi];
    if (policy.kind != kind || policy.site != site) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = fail_calls_.find(site);
      if (it == fail_calls_.end()) {
        it = fail_calls_.emplace(std::string(site), 0).first;
      }
      *call_index = it->second++;
    }
    uint64_t h = Mix(HashBytes(kFnvOffset + pi, site) ^
                     (*call_index * 0x9e3779b97f4a7c15ull));
    if (HashToUnit(h) >= policy.probability) continue;
    CountInjection(site);
    return &policy;
  }
  return nullptr;
}

Status FaultInjector::MaybeFail(std::string_view site) {
  std::shared_lock<std::shared_mutex> policy_lock(policy_mu_);
  uint64_t call_index = 0;
  const FaultPolicy* policy =
      FireControlPlane(site, FaultKind::kFailStatus, &call_index);
  if (policy == nullptr) return Status::Ok();
  return Status(policy->fail_code,
                "injected fault at " + std::string(site) + " (call " +
                    std::to_string(call_index) + ")");
}

void FaultInjector::MaybeDelay(std::string_view site) {
  uint32_t delay_ms = 0;
  {
    std::shared_lock<std::shared_mutex> policy_lock(policy_mu_);
    uint64_t call_index = 0;
    const FaultPolicy* policy =
        FireControlPlane(site, FaultKind::kDelay, &call_index);
    if (policy == nullptr) return;
    delay_ms = policy->delay_ms;
  }
  // Outside the policy lock: a chaos harness can re-arm while we sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
}

uint64_t FaultInjector::InjectedCount(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = injected_.find(site);
  return it == injected_.end() ? 0 : it->second;
}

uint64_t FaultInjector::TotalInjected() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [site, n] : injected_) total += n;
  return total;
}

}  // namespace hdmap
