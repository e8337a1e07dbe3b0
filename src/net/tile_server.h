#ifndef HDMAP_NET_TILE_SERVER_H_
#define HDMAP_NET_TILE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "net/protocol.h"
#include "service/map_service.h"

namespace hdmap {

/// Server-side hook for the replication plane: kReplicate/kCatchUp
/// requests decoded by a TileServer are handed here (on a worker thread)
/// instead of the tile-serving paths. The returned payload rides back in
/// the response body (replication/wire.h defines both directions).
/// Implementations must be thread-safe — requests from several
/// connections may arrive concurrently.
class ReplicationHandler {
 public:
  virtual ~ReplicationHandler() = default;

  struct Reply {
    NetResponseCode code = NetResponseCode::kOk;
    StatusCode status = StatusCode::kOk;
    std::string payload;
  };
  virtual Reply HandleReplication(const NetRequest& request) = 0;
};

/// Framed-TCP serving edge in front of a MapService: the process boundary
/// of the HD-map ecosystem, where fleet clients fetch tiles/regions and
/// poll for version deltas (net/protocol.h describes the wire format).
///
/// Architecture: one epoll IO thread owns accept + all socket reads and
/// the connection table; decoded requests are admitted (or shed with a
/// typed BUSY) and dispatched to a worker ThreadPool that computes and
/// writes responses. Tile payloads are served verbatim from the
/// snapshot's TileStore blobs — the reply path never re-serializes a
/// tile.
///
/// Admission control: a global pending-request cap and a per-connection
/// in-flight cap bound queueing. Beyond either cap the server answers
/// immediately with kBusy (and a kBusyRejected event) instead of
/// queueing without bound — clients see explicit backpressure with
/// bounded latency rather than a growing silent queue.
///
/// Conditional fetch: a request carrying have_version == current is
/// answered kNotModified; an older have_version within the service's
/// publish history gets a kDelta payload (the PatchesSince chain) that
/// is typically orders of magnitude smaller than the full region; a
/// version outside the history falls back to a full fetch.
///
/// Observability: every admitted request runs under a root "net.request"
/// TraceSpan (service-endpoint spans nest beneath it), latencies land in
/// "net.request_seconds" with "net.*" counters alongside
/// (requests/busy_rejected/computations/bytes/...), and
/// BUSY/slow events are appended to the server's EventLog.
///
/// Thread safety: Start/Stop from one thread. Everything else here is
/// internal; the public read accessors are safe while serving.
class TileServer {
 public:
  struct Options {
    /// Listen address; the default loopback serves tests/benches.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (read it back via port()).
    uint16_t port = 0;
    /// Worker threads computing responses; 0 = hardware concurrency.
    size_t worker_threads = 0;
    /// Accepted connections beyond this are closed immediately.
    size_t max_connections = 1024;
    /// Global cap on admitted-but-unfinished requests; beyond it new
    /// requests are shed with kBusy.
    size_t max_pending_requests = 256;
    /// Per-connection cap on admitted-but-unfinished requests (bounds
    /// how much of the global budget one pipelining client can take).
    uint32_t max_inflight_per_connection = 64;
    /// Requests slower than this (admission to response write, seconds)
    /// log a kSlowRequest event; <= 0 disables.
    double slow_request_threshold_s = 0.25;
    size_t event_log_capacity = 256;
    /// Registry for "net.*" instruments; null uses the service registry.
    MetricsRegistry* metrics = nullptr;
    /// Fault seams at site "net.recv" (request-body corruption after
    /// framing, so CRC rejection paths are testable) and "net.compute"
    /// (a kDelay policy sleeps inside every GetTile/GetRegion
    /// computation, widening the admission window so tests can
    /// deterministically pile up concurrent requests); null disables.
    FaultInjector* fault_injector = nullptr;
    /// Connections with no received bytes and no in-flight requests for
    /// this long are reaped (closed, with a kConnectionReaped event and
    /// a "net.connections_reaped" increment), so dead clients and
    /// followers cannot pin epoll slots and fds forever. <= 0 disables.
    double idle_timeout_s = 0.0;
    /// Replication plane: when set, kReplicate/kCatchUp requests are
    /// routed to this handler (and request bodies up to
    /// kMaxNetReplicationBody are accepted). Must outlive the server;
    /// null rejects replication requests with kUnimplemented.
    ReplicationHandler* replication = nullptr;
    /// Node label reported in the kStats "node" block (empty = "hdmap").
    std::string stats_label;
    /// When set, writes the kStats JSON response's "replication" value
    /// (exactly one JSON value; ReplicationNode wires its status document
    /// here); unset reports null.
    std::function<void(JsonWriter&)> replication_status_json;
    /// Extra event source merged into the kStats "events" array beside
    /// the server's and service's own logs (ReplicationNode wires its
    /// failover/catch-up events here). Called with the max event count.
    std::function<std::vector<EventLog::Event>(size_t)> extra_events;
    /// Recorder for the server's spans ("net.request" roots, inbound
    /// trace adoption, serialization children); null uses
    /// TraceRecorder::Global(). Tests hosting several "processes" in one
    /// address space give each server its own recorder so per-node
    /// exports stay disjoint.
    TraceRecorder* trace = nullptr;
  };

  /// FaultInjector site name for received request bodies.
  static constexpr const char* kRecvFaultSite = "net.recv";
  /// FaultInjector site name at the top of every full-fetch computation.
  static constexpr const char* kComputeFaultSite = "net.compute";

  /// `service` must be Init'ed before requests arrive and must outlive
  /// the server.
  TileServer(const MapService& service, Options options);
  ~TileServer();

  TileServer(const TileServer&) = delete;
  TileServer& operator=(const TileServer&) = delete;

  /// Binds, listens, and starts the IO thread + worker pool.
  Status Start();

  /// Drains workers and closes every connection. Idempotent.
  void Stop();

  /// The bound port (resolves port 0 after Start).
  uint16_t port() const { return port_; }

  const EventLog& event_log() const { return events_; }
  std::vector<EventLog::Event> RecentEvents(size_t max_n = 64) const {
    return events_.Recent(max_n);
  }
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Live connection count (for tests).
  size_t NumConnections() const;

 private:
  struct Connection {
    explicit Connection(int fd_in) : fd(fd_in) {}
    ~Connection();

    int fd = -1;
    /// IO-thread-only receive buffer.
    std::string read_buffer;
    /// IO-thread-only: last instant bytes arrived (or the accept), the
    /// clock the idle reaper sweeps against.
    std::chrono::steady_clock::time_point last_activity =
        std::chrono::steady_clock::now();
    /// Serializes response writes from worker threads.
    std::mutex write_mu;
    /// Admitted-but-unfinished requests on this connection.
    std::atomic<uint32_t> inflight{0};
    /// Set on EOF/write failure; suppresses further writes. The fd stays
    /// open until the last holder drops the Connection (workers may
    /// still be writing), so the descriptor can never be reused under a
    /// concurrent write.
    std::atomic<bool> closed{false};
  };

  void IoLoop();
  void HandleAccept();
  /// IO-thread sweep closing connections idle past Options::idle_timeout_s
  /// (skipping any with in-flight requests).
  void ReapIdleConnections();
  /// Reads, frames, admits, dispatches; returns false when the
  /// connection must be dropped.
  bool HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Admission + dispatch of one decoded frame body.
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   std::string_view body, uint32_t header_crc);
  /// Worker-side request execution (everything after admission).
  void ExecuteRequest(std::shared_ptr<Connection> conn, NetRequest request,
                      std::chrono::steady_clock::time_point admitted);
  /// Computes the full-fetch payload for a GetTile/GetRegion request.
  /// Returns (code, status, payload).
  std::tuple<NetResponseCode, StatusCode, std::string> ComputeFull(
      const NetRequest& request, uint64_t* version);

  /// Assembles the kStats response payload (Prometheus text or the
  /// node-status JSON document, per the request's format).
  std::string BuildStatsPayload(const NetRequest& request) const;

  /// Writes one response frame and closes out the request's accounting
  /// (latency, slow event, pending/inflight decrements).
  void FinishRequest(const std::shared_ptr<Connection>& conn,
                     NetResponseCode code, StatusCode status,
                     uint64_t request_id, uint64_t version,
                     std::string_view payload,
                     std::chrono::steady_clock::time_point admitted);
  /// Blocking-ish write of `frame` to `conn` (short poll on EAGAIN; a
  /// persistently stalled peer gets the connection marked closed).
  void WriteFrame(const std::shared_ptr<Connection>& conn,
                  std::string_view frame);
  void RemoveConnection(int fd);

  const MapService& service_;
  Options options_;
  MetricsRegistry* metrics_ = nullptr;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() wakes the IO thread.
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> running_{false};
  std::thread io_thread_;
  std::unique_ptr<ThreadPool> workers_;

  /// IO-thread-only connection table (plus post-join cleanup in Stop).
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  mutable std::mutex connections_mu_;  // Only for NumConnections().

  /// Admitted-but-unfinished requests across all connections.
  std::atomic<size_t> pending_{0};

  mutable EventLog events_;

  // "net.*" instruments, resolved once at construction.
  Counter* requests_ = nullptr;
  Counter* busy_rejected_ = nullptr;
  Counter* computations_ = nullptr;
  Counter* not_modified_ = nullptr;
  Counter* deltas_ = nullptr;
  Counter* malformed_ = nullptr;
  Counter* accepted_ = nullptr;
  Counter* conn_rejected_ = nullptr;
  Counter* bytes_in_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Counter* reaped_ = nullptr;
  Gauge* connections_gauge_ = nullptr;
  LatencyHistogram* latency_ = nullptr;
};

/// Minimal blocking client for the TileServer protocol: the loopback
/// harness tests and benches drive the full server path with, and a
/// reference implementation for real consumers. One connection; not
/// thread-safe (use one client per thread).
class NetClient {
 public:
  /// Retry policy for CallWithRetry: capped exponential backoff with
  /// deterministic jitter on kBusy responses and transient connect/IO
  /// failures, all bounded by one overall deadline.
  struct RetryOptions {
    /// Total tries (first call + retries). 1 disables retrying.
    int max_attempts = 4;
    /// Backoff before retry k is min(initial << (k-1), max), scaled by a
    /// jitter factor in [0.5, 1.0) so synchronized clients desynchronize.
    uint32_t initial_backoff_ms = 10;
    uint32_t max_backoff_ms = 1000;
    /// Overall deadline across all attempts, including each attempt's
    /// response wait; 0 disables (waits are then unbounded, as before).
    uint32_t deadline_ms = 0;
    /// Seed of the jitter sequence (deterministic per client).
    uint64_t jitter_seed = 1;
    /// When set, exports "net_client.*" counters (attempts, retries,
    /// backoff_ms_total, deadline_exceeded). Must outlive the client.
    MetricsRegistry* metrics = nullptr;
  };

  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }
  /// The socket (e.g. for a bench's poll loop). -1 when disconnected.
  int fd() const { return fd_; }

  void set_retry_options(RetryOptions options);
  const RetryOptions& retry_options() const { return retry_; }

  /// Trace propagation (default on): every Send injects the thread's
  /// ambient TraceContext into the request's trace block, so server-side
  /// spans parent under the caller's trace across the process boundary.
  /// With no active context (or tracing disabled) the encoding stays
  /// byte-identical to protocol v1.
  void set_propagate_trace(bool on) { propagate_trace_ = on; }
  bool propagate_trace() const { return propagate_trace_; }

  /// Slow-RPC watchdog: a Call/CallWithRetry slower than `budget_s`
  /// end-to-end force-records its "net_client.call" span (so the full
  /// cross-node trace id survives even unsampled) and appends a
  /// kSlowRequest event carrying that trace id to `events`. budget_s
  /// <= 0 or a null log disables. `events` must outlive the client.
  void set_slow_rpc_watchdog(double budget_s, EventLog* events) {
    slow_rpc_budget_s_ = budget_s;
    watchdog_events_ = events;
  }

  /// Sends one request frame (blocking write).
  Status Send(const NetRequest& request);
  /// Sends pre-encoded bytes verbatim — the malformed-input seam for
  /// tests.
  Status SendRaw(std::string_view bytes);
  /// Blocks until one complete response frame arrives and decodes it.
  /// Responses to pipelined requests may arrive in any order; match via
  /// NetResponse::request_id. `timeout_ms` > 0 bounds the wait
  /// (kOutOfRange on expiry, with the connection left in an undefined
  /// framing state — Close it); 0 waits forever.
  Result<NetResponse> ReadResponse(uint32_t timeout_ms = 0);

  /// Send + ReadResponse for one request (no pipelining).
  Result<NetResponse> Call(const NetRequest& request);

  /// Call under RetryOptions: kBusy responses and transient connect/IO
  /// failures are retried with capped exponential backoff + jitter
  /// (reconnecting to the last Connect endpoint after an IO failure)
  /// until an attempt settles, attempts run out, or the deadline passes.
  /// The last response/error is returned either way.
  Result<NetResponse> CallWithRetry(const NetRequest& request);

  /// Convenience wrappers around Call().
  Result<NetResponse> Ping();
  Result<NetResponse> GetTile(const TileId& id, uint64_t have_version = 0);
  Result<NetResponse> GetRegion(const Aabb& box, uint64_t have_version = 0);

  /// Remote introspection: fetches the server's kStats document
  /// (metrics + events + health + replication status as JSON, or the
  /// Prometheus exposition text). The response payload is the document.
  Result<NetResponse> FetchStats(NetStatsFormat format = NetStatsFormat::kJson,
                                 uint32_t max_events = 32);

 private:
  /// Milliseconds left until `deadline` (minimum 1), or 0 for "no
  /// deadline"; sets *expired when the deadline has passed.
  uint32_t RemainingMs(std::chrono::steady_clock::time_point deadline,
                       bool* expired) const;

  /// Watchdog check at the end of Call/CallWithRetry (see
  /// set_slow_rpc_watchdog).
  void CheckRpcBudget(TraceSpan* span, const char* what,
                      std::chrono::steady_clock::time_point started);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::string read_buffer_;
  std::string host_;  // Last Connect endpoint (for retry reconnects).
  uint16_t port_ = 0;
  RetryOptions retry_;
  uint64_t jitter_state_ = 1;
  bool propagate_trace_ = true;
  double slow_rpc_budget_s_ = 0.0;
  EventLog* watchdog_events_ = nullptr;
  Counter* attempts_counter_ = nullptr;
  Counter* retries_counter_ = nullptr;
  Counter* backoff_ms_counter_ = nullptr;
  Counter* deadline_exceeded_counter_ = nullptr;
};

}  // namespace hdmap

#endif  // HDMAP_NET_TILE_SERVER_H_
