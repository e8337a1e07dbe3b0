#ifndef HDMAP_COMMON_FAULT_INJECTION_H_
#define HDMAP_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hdmap {

class MetricsRegistry;

/// What a fault policy does when it fires.
enum class FaultKind : uint8_t {
  kBitFlip,   ///< Flip one pseudo-random bit of the payload.
  kTruncate,  ///< Cut the payload at a pseudo-random offset.
  kDrop,      ///< Replace the payload with an empty buffer.
  kFailStatus,  ///< Make the instrumented call return a Status failure.
  /// Keep a pseudo-random prefix and overwrite the rest with garbage,
  /// preserving the payload's length. Models a torn write: a crash after
  /// the head of a buffer reached disk but before the tail did, where the
  /// tail reads back as stale or scribbled sectors rather than a short
  /// file (that is kTruncate).
  kTornWrite,
  /// Sleep `delay_ms` before the instrumented step runs (MaybeDelay).
  /// Widens a layer's latency window so tests and benches can pile up
  /// concurrent requests or attribute a slow request to one layer.
  kDelay,
};

/// One armed fault: at `site`, with probability `probability` per call,
/// apply `kind`. Data-plane kinds (kBitFlip/kTruncate/kDrop/kTornWrite)
/// apply to MaybeCorrupt; kFailStatus applies to MaybeFail with
/// `fail_code`; kDelay applies to MaybeDelay with `delay_ms`.
struct FaultPolicy {
  std::string site;
  FaultKind kind = FaultKind::kBitFlip;
  double probability = 0.0;
  StatusCode fail_code = StatusCode::kInternal;
  uint32_t delay_ms = 0;
};

/// Deterministic fault injector for corruption, failure and latency
/// testing: the seams TileStore, MapService and TileServer expose so tests
/// and benches can corrupt tile loads, fail publishes and slow requests on
/// demand, reproducibly.
///
/// Determinism: data-plane decisions (and the mutation itself) are a pure
/// function of (seed, site, payload bytes) — not of call order — so the
/// same store corrupts the same tiles no matter how many threads load
/// them or in what order. Control-plane decisions (MaybeFail/MaybeDelay) hash
/// (seed, site, per-site call index); call sites like Publish are
/// serialized by their caller, so the index is deterministic there.
///
/// Thread safety: every method is safe from any thread. AddPolicy/Clear
/// take the policy lock exclusively, so a chaos harness can arm and
/// disarm fault bursts while instrumented threads (WAL shippers, server
/// workers) keep calling Maybe* concurrently.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void AddPolicy(FaultPolicy policy);
  void ClearPolicies();

  /// Exports per-site injected counts as gauges named
  /// "fault_injector.injected{SITE}" through `metrics`, so a bench or
  /// test reading a service's registry can report injected-vs-detected
  /// without holding the injector itself. The registry must outlive the
  /// injector; null unbinds. Like AddPolicy, must not race Maybe* calls.
  void BindMetrics(MetricsRegistry* metrics);

  /// Data-plane hook. When a data-plane policy for `site` fires on this
  /// payload, writes the corrupted payload to `*corrupted` and returns
  /// true; otherwise returns false and leaves `*corrupted` untouched.
  bool MaybeCorrupt(std::string_view site, std::string_view payload,
                    std::string* corrupted);

  /// Control-plane hook. Returns a failure with the policy's fail_code
  /// when a kFailStatus policy for `site` fires, else OK.
  Status MaybeFail(std::string_view site);

  /// Latency hook. Sleeps the policy's delay_ms when a kDelay policy for
  /// `site` fires. Decided like MaybeFail, from (seed, site, per-site
  /// call index).
  void MaybeDelay(std::string_view site);

  /// Faults injected so far at `site` (both planes).
  uint64_t InjectedCount(std::string_view site) const;

  /// Faults injected so far across all sites.
  uint64_t TotalInjected() const;

  uint64_t seed() const { return seed_; }

 private:
  uint64_t Mix(uint64_t h) const;
  void CountInjection(std::string_view site);
  /// The control-plane decision behind MaybeFail and MaybeDelay: the
  /// first `kind` policy for `site` that fires on this call (counted as
  /// an injection), or null. `*call_index` receives the site's call
  /// index. Caller holds policy_mu_.
  const FaultPolicy* FireControlPlane(std::string_view site, FaultKind kind,
                                      uint64_t* call_index);

  uint64_t seed_;
  mutable std::shared_mutex policy_mu_;  // Guards policies_.
  std::vector<FaultPolicy> policies_;
  MetricsRegistry* metrics_ = nullptr;  // Optional gauge export.

  mutable std::mutex mu_;  // Guards injected_ and fail_calls_.
  std::map<std::string, uint64_t, std::less<>> injected_;
  std::map<std::string, uint64_t, std::less<>> fail_calls_;
};

}  // namespace hdmap

#endif  // HDMAP_COMMON_FAULT_INJECTION_H_
