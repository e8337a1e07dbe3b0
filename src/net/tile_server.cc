#include "net/tile_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "common/trace.h"
#include "core/tile_view.h"
#include "core/wire_frame.h"

namespace hdmap {

namespace {

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

uint32_t HeaderCrcAt(std::string_view buffer) {
  uint32_t crc = 0;
  std::memcpy(&crc, buffer.data() + 8, sizeof(crc));
  return crc;
}

}  // namespace

TileServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

TileServer::TileServer(const MapService& service, Options options)
    : service_(service),
      options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &service.metrics()),
      events_(options_.event_log_capacity) {
  requests_ = metrics_->GetCounter("net.requests");
  busy_rejected_ = metrics_->GetCounter("net.busy_rejected");
  computations_ = metrics_->GetCounter("net.computations");
  not_modified_ = metrics_->GetCounter("net.not_modified");
  deltas_ = metrics_->GetCounter("net.deltas");
  malformed_ = metrics_->GetCounter("net.malformed_requests");
  accepted_ = metrics_->GetCounter("net.connections_accepted");
  conn_rejected_ = metrics_->GetCounter("net.connections_rejected");
  bytes_in_ = metrics_->GetCounter("net.bytes_in");
  bytes_out_ = metrics_->GetCounter("net.bytes_out");
  reaped_ = metrics_->GetCounter("net.connections_reaped");
  connections_gauge_ = metrics_->GetGauge("net.connections");
  latency_ = metrics_->GetLatency("net.request");
  metrics_->SetHelp("net.requests", "Requests admitted by the tile server");
  metrics_->SetHelp("net.busy_rejected",
                    "Requests shed with a BUSY response by admission control");
  metrics_->SetHelp("net.computations",
                    "Full-fetch payload computations run (one per admitted "
                    "full fetch)");
  metrics_->SetHelp("net.request",
                    "Tile-server request latency, admission to response");
  metrics_->SetHelp("net.connections_reaped",
                    "Connections closed by the idle-timeout reaper");
}

TileServer::~TileServer() { Stop(); }

Status TileServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("TileServer already started");
  }
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::Internal(ErrnoMessage("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    Stop();
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 512) < 0) {
    Status err = Status::Internal(ErrnoMessage("bind/listen"));
    Stop();
    return err;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_.store(ntohs(addr.sin_port));

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status err = Status::Internal(ErrnoMessage("epoll_create1/eventfd"));
    Stop();
    return err;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  workers_ = std::make_unique<ThreadPool>(options_.worker_threads);
  running_.store(true);
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::Ok();
}

void TileServer::Stop() {
  running_.store(false);
  if (io_thread_.joinable()) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    io_thread_.join();
  }
  // Drains every admitted request (the pool destructor finishes its
  // queue before joining), so responses already owed get written.
  workers_.reset();
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections_.clear();  // Destructors close the sockets.
  }
  if (connections_gauge_ != nullptr) connections_gauge_->Set(0);
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

size_t TileServer::NumConnections() const {
  std::lock_guard<std::mutex> lock(connections_mu_);
  return connections_.size();
}

void TileServer::IoLoop() {
  epoll_event events[64];
  // The reaper rides the epoll tick; sweep at ~half the timeout so a
  // connection is reaped within ~1.5x the configured idle window.
  auto last_sweep = std::chrono::steady_clock::now();
  int wait_ms = 500;
  if (options_.idle_timeout_s > 0) {
    wait_ms = std::min(
        wait_ms,
        std::max(1, static_cast<int>(options_.idle_timeout_s * 500.0)));
  }
  while (running_.load()) {
    int n = ::epoll_wait(epoll_fd_, events, 64, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (options_.idle_timeout_s > 0) {
      auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_sweep).count() >=
          options_.idle_timeout_s / 2.0) {
        last_sweep = now;
        ReapIdleConnections();
      }
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(connections_mu_);
        auto it = connections_.find(fd);
        if (it == connections_.end()) continue;
        conn = it->second;
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 ||
          !HandleReadable(conn)) {
        RemoveConnection(fd);
      }
    }
  }
}

void TileServer::HandleAccept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or transient error): try next wakeup.
    size_t count;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      count = connections_.size();
    }
    if (count >= options_.max_connections) {
      // No framing has been established yet, so there is no way to send
      // a typed BUSY; an immediate close is the whole signal.
      ::close(fd);
      conn_rejected_->Increment();
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) continue;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.emplace(fd, std::move(conn));
      connections_gauge_->Set(static_cast<double>(connections_.size()));
    }
    accepted_->Increment();
  }
}

void TileServer::ReapIdleConnections() {
  // IO-thread only: last_activity and the victim scan race nothing. A
  // connection with in-flight requests is never reaped — a worker still
  // owes it a response, however long the computation takes.
  auto now = std::chrono::steady_clock::now();
  std::vector<int> victims;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const auto& [fd, conn] : connections_) {
      if (conn->inflight.load(std::memory_order_relaxed) > 0) continue;
      double idle =
          std::chrono::duration<double>(now - conn->last_activity).count();
      if (idle > options_.idle_timeout_s) victims.push_back(fd);
    }
  }
  for (int fd : victims) {
    reaped_->Increment();
    events_.Append(EventLog::Type::kConnectionReaped, 0,
                   "reaped connection fd " + std::to_string(fd) +
                       " idle past " +
                       std::to_string(options_.idle_timeout_s) + "s");
    RemoveConnection(fd);
  }
}

bool TileServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[65536];
  conn->last_activity = std::chrono::steady_clock::now();
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_->Increment(static_cast<uint64_t>(n));
      conn->read_buffer.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) return false;  // Peer closed.
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  // A replication-enabled server must accept shipped batches and
  // catch-up snapshots, which carry map content; a plain tile server
  // keeps the tiny fixed-shape cap.
  const size_t max_body = options_.replication != nullptr
                              ? kMaxNetReplicationBody
                              : kMaxNetRequestBody;
  for (;;) {
    size_t frame_size = 0;
    std::string_view body;
    FrameParse parse = ExtractFrame(conn->read_buffer, kNetRequestMagic,
                                    max_body, &frame_size, &body);
    if (parse == FrameParse::kNeedMore) break;
    if (parse == FrameParse::kViolation) {
      // Bad magic / absurd length: the byte stream is not this protocol
      // (or framing sync is lost for good). Nothing to resynchronize on.
      malformed_->Increment();
      return false;
    }
    uint32_t header_crc = HeaderCrcAt(conn->read_buffer);
    std::string body_bytes(body);
    if (options_.fault_injector != nullptr) {
      std::string corrupted;
      if (options_.fault_injector->MaybeCorrupt(kRecvFaultSite, body_bytes,
                                                &corrupted)) {
        body_bytes = std::move(corrupted);
      }
    }
    HandleFrame(conn, body_bytes, header_crc);
    conn->read_buffer.erase(0, frame_size);
  }
  return !conn->closed.load();
}

void TileServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                             std::string_view body, uint32_t header_crc) {
  Result<NetRequest> decoded = DecodeRequestBody(body, header_crc);
  if (!decoded.ok()) {
    // The frame boundary was intact (magic + sane length), so the stream
    // stays parseable: answer with a typed error and keep the
    // connection. request_id 0 — the body bytes cannot be trusted.
    malformed_->Increment();
    WriteFrame(conn, EncodeResponseFrame(
                         NetResponseCode::kError, decoded.status().code(), 0,
                         service_.version(), decoded.status().message()));
    return;
  }
  const NetRequest& request = decoded.value();
  // Admission control. Both checks and the increments run only on the IO
  // thread, so the caps are exact; decrements come from workers.
  // kStats is exempt: a scrape must still answer during a kBusy storm —
  // overload is exactly when the introspection plane earns its keep. It
  // still counts against pending_/inflight below, so a scrape cannot
  // leak accounting, and its response is tiny and computed without
  // touching the snapshot paths.
  const char* shed_reason = nullptr;
  if (request.type == NetRequestType::kStats) {
    // Never shed.
  } else if (pending_.load(std::memory_order_relaxed) >=
             options_.max_pending_requests) {
    shed_reason = "request queue full";
  } else if (conn->inflight.load(std::memory_order_relaxed) >=
             options_.max_inflight_per_connection) {
    shed_reason = "connection in-flight cap reached";
  }
  if (shed_reason != nullptr) {
    busy_rejected_->Increment();
    events_.Append(EventLog::Type::kBusyRejected, 0,
                   std::string(shed_reason) + " (request_id " +
                       std::to_string(request.request_id) + ")");
    WriteFrame(conn,
               EncodeResponseFrame(NetResponseCode::kBusy, StatusCode::kOk,
                                   request.request_id, service_.version(),
                                   ""));
    return;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  conn->inflight.fetch_add(1, std::memory_order_relaxed);
  auto admitted = std::chrono::steady_clock::now();
  workers_->Submit([this, conn, request, admitted] {
    ExecuteRequest(conn, request, admitted);
  });
}

void TileServer::ExecuteRequest(
    std::shared_ptr<Connection> conn, NetRequest request,
    std::chrono::steady_clock::time_point admitted) {
  // Adopt the client's propagated trace context (when tracing is on), so
  // the root "net.request" span parents under the caller's span and the
  // whole RPC renders as one tree across the process boundary.
  TraceRecorder* recorder =
      options_.trace != nullptr ? options_.trace : &TraceRecorder::Global();
  std::optional<TraceContextScope> adopted;
  if (request.trace_id != 0 && recorder->enabled()) {
    adopted.emplace(TraceContext{request.trace_id, request.parent_span_id,
                                 request.trace_sampled});
  }
  TraceSpan span("net.request", TraceSpan::kRoot, options_.trace);
  requests_->Increment();
  if (request.type == NetRequestType::kPing) {
    FinishRequest(conn, NetResponseCode::kOk, StatusCode::kOk,
                  request.request_id, service_.version(), "", admitted);
    return;
  }
  if (request.type == NetRequestType::kStats) {
    FinishRequest(conn, NetResponseCode::kOk, StatusCode::kOk,
                  request.request_id, service_.version(),
                  BuildStatsPayload(request), admitted);
    return;
  }
  if (request.type == NetRequestType::kReplicate ||
      request.type == NetRequestType::kCatchUp) {
    if (options_.replication == nullptr) {
      span.SetStatus(StatusCode::kUnimplemented);
      FinishRequest(conn, NetResponseCode::kError, StatusCode::kUnimplemented,
                    request.request_id, service_.version(),
                    "no replication handler configured", admitted);
      return;
    }
    ReplicationHandler::Reply reply =
        options_.replication->HandleReplication(request);
    if (reply.status != StatusCode::kOk) span.SetStatus(reply.status);
    FinishRequest(conn, reply.code, reply.status, request.request_id,
                  service_.version(), reply.payload, admitted);
    return;
  }
  auto snap = service_.snapshot();
  if (snap == nullptr) {
    span.SetStatus(StatusCode::kFailedPrecondition);
    FinishRequest(conn, NetResponseCode::kError,
                  StatusCode::kFailedPrecondition, request.request_id, 0,
                  "service not initialized", admitted);
    return;
  }
  // Conditional fetch: cheap version probe before any computation.
  if (request.have_version != 0) {
    if (request.have_version == snap->version) {
      not_modified_->Increment();
      FinishRequest(conn, NetResponseCode::kNotModified, StatusCode::kOk,
                    request.request_id, snap->version, "", admitted);
      return;
    }
    if (request.type == NetRequestType::kGetRegion &&
        request.have_version < snap->version) {
      // The delta chain is map-wide, so only region clients (who hold
      // map-level state) can apply it; a stale tile fetch goes full.
      uint64_t reached = 0;
      Result<std::vector<std::string>> delta =
          service_.PatchesSince(request.have_version, &reached);
      if (delta.ok()) {
        deltas_->Increment();
        FinishRequest(conn, NetResponseCode::kDelta, StatusCode::kOk,
                      request.request_id, reached,
                      EncodeDeltaPayload(delta.value()), admitted);
        return;
      }
      // History fell short (or the chain is broken): full fetch below.
    }
  }
  uint64_t version = snap->version;
  auto [code, status, payload] = ComputeFull(request, &version);
  if (status != StatusCode::kOk) span.SetStatus(status);
  FinishRequest(conn, code, status, request.request_id, version, payload,
                admitted);
}

std::tuple<NetResponseCode, StatusCode, std::string> TileServer::ComputeFull(
    const NetRequest& request, uint64_t* version) {
  computations_->Increment();
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->MaybeDelay(kComputeFaultSite);
  }
  auto snap = service_.snapshot();
  *version = snap->version;
  if (request.type == NetRequestType::kGetTile) {
    // Verbatim blob from the snapshot's tile store: zero re-encode, and
    // the payload's embedded frame CRC travels with it. RawTileBytes
    // pins the blob, so the bytes stay valid while the response frame
    // is assembled even if a publish swaps the store underneath.
    Result<PinnedBytes> bytes = snap->tiles.RawTileBytes(request.tile);
    if (!bytes.ok()) {
      return {NetResponseCode::kError, StatusCode::kNotFound,
              "tile (" + std::to_string(request.tile.x) + ", " +
                  std::to_string(request.tile.y) + ") not present"};
    }
    return {NetResponseCode::kOk, StatusCode::kOk,
            std::string(bytes->view())};
  }
  // Region: stitch (through the service, so degraded-mode policy and
  // map_service.* accounting apply; its endpoint span nests under
  // net.request) and encode once as a framed v3 tile, so the client
  // views or decodes and integrity-checks it like a tile blob.
  Result<HdMap> region = service_.GetRegion(request.box);
  if (!region.ok()) {
    return {NetResponseCode::kError, region.status().code(),
            region.status().message()};
  }
  TraceSpan serialize_span("net.serialize_region", options_.trace);
  return {NetResponseCode::kOk, StatusCode::kOk, EncodeTileV3(*region)};
}

std::string TileServer::BuildStatsPayload(const NetRequest& request) const {
  if (request.stats_format == NetStatsFormat::kPrometheus) {
    return metrics_->RenderPrometheus();
  }
  // Node-status JSON: {"node":{...},"replication":...,"events":[...],
  // "metrics":{...}} — the document ClusterInspector polls. max_events
  // bounds the merged event array (the ring caps each source already;
  // the clamp guards a hostile request from inflating the response).
  size_t max_events = std::min<uint32_t>(request.stats_max_events, 1024);
  int64_t unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("node").BeginObject()
      .Key("label").String(options_.stats_label.empty() ? "hdmap"
                                                        : options_.stats_label)
      .Key("health").String(ServiceHealthToString(service_.Health()))
      .Key("version").Uint(service_.version())
      .Key("unix_ms").Int(unix_ms)
      .EndObject();
  w.Key("replication");
  if (options_.replication_status_json != nullptr) {
    options_.replication_status_json(w);
  } else {
    w.Null();
  }
  // Merge the three event sources (server edge, service, node extras)
  // newest-first so a scraper sees one timeline per node.
  std::vector<EventLog::Event> events = events_.Recent(max_events);
  for (EventLog::Event& e : service_.RecentEvents(max_events)) {
    events.push_back(std::move(e));
  }
  if (options_.extra_events != nullptr) {
    for (EventLog::Event& e : options_.extra_events(max_events)) {
      events.push_back(std::move(e));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const EventLog::Event& a, const EventLog::Event& b) {
              if (a.unix_ms != b.unix_ms) return a.unix_ms > b.unix_ms;
              return a.seq > b.seq;
            });
  if (events.size() > max_events) events.resize(max_events);
  w.Key("events").BeginArray();
  for (const EventLog::Event& event : events) EventLog::AppendJson(event, w);
  w.EndArray();
  w.Key("metrics");
  metrics_->RenderJson(w);
  w.EndObject();
  return out;
}

void TileServer::FinishRequest(
    const std::shared_ptr<Connection>& conn, NetResponseCode code,
    StatusCode status, uint64_t request_id, uint64_t version,
    std::string_view payload,
    std::chrono::steady_clock::time_point admitted) {
  WriteFrame(conn,
             EncodeResponseFrame(code, status, request_id, version, payload));
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - admitted)
                       .count();
  latency_->Record(elapsed);
  if (options_.slow_request_threshold_s > 0 &&
      elapsed > options_.slow_request_threshold_s) {
    events_.Append(EventLog::Type::kSlowRequest, CurrentTraceId(),
                   "net request_id " + std::to_string(request_id) + " took " +
                       std::to_string(elapsed) + "s");
  }
  pending_.fetch_sub(1, std::memory_order_relaxed);
  conn->inflight.fetch_sub(1, std::memory_order_relaxed);
}

void TileServer::WriteFrame(const std::shared_ptr<Connection>& conn,
                            std::string_view frame) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_relaxed)) return;
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::send(conn->fd, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{conn->fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 5000) > 0) continue;
      // A peer that stays unwritable for seconds is gone or wedged; a
      // serving thread must not be parked on it indefinitely.
      conn->closed.store(true, std::memory_order_relaxed);
      return;
    }
    conn->closed.store(true, std::memory_order_relaxed);  // EPIPE etc.
    return;
  }
  bytes_out_->Increment(frame.size());
}

void TileServer::RemoveConnection(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    conn = std::move(it->second);
    connections_.erase(it);
    connections_gauge_->Set(static_cast<double>(connections_.size()));
  }
  // Suppress further writes; the fd itself stays open until the last
  // worker holding the Connection drops it, so a concurrent write can
  // never hit a reused descriptor.
  conn->closed.store(true, std::memory_order_relaxed);
}

// --- NetClient ---

NetClient::~NetClient() { Close(); }

Status NetClient::Connect(const std::string& host, uint16_t port) {
  Close();
  host_ = host;
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::Internal(ErrnoMessage("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status err = Status::Internal(ErrnoMessage("connect"));
    Close();
    return err;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  read_buffer_.clear();
}

Status NetClient::Send(const NetRequest& request) {
  // The choke point for trace propagation: every wrapper, CallWithRetry
  // attempt, and replication exchange routes through here, so an active
  // ambient context rides along on every frame. Explicit trace fields on
  // the request win (a relay forwarding someone else's context).
  TraceContext ctx;
  ctx.trace_id = request.trace_id;
  ctx.parent_span_id = request.parent_span_id;
  ctx.sampled = request.trace_sampled;
  if (propagate_trace_ && !ctx.active()) ctx = CurrentTraceContext();
  return SendRaw(EncodeRequestFrame(request, ctx));
}

Status NetClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Internal(ErrnoMessage("send"));
  }
  return Status::Ok();
}

Result<NetResponse> NetClient::ReadResponse(uint32_t timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  char buf[65536];
  for (;;) {
    size_t frame_size = 0;
    std::string_view body;
    FrameParse parse =
        ExtractFrame(read_buffer_, kNetResponseMagic, kMaxNetResponseBody,
                     &frame_size, &body);
    if (parse == FrameParse::kViolation) {
      return Status::DataLoss("response framing violated; closing");
    }
    if (parse == FrameParse::kFrame) {
      Result<NetResponse> response =
          DecodeResponseBody(body, HeaderCrcAt(read_buffer_));
      read_buffer_.erase(0, frame_size);
      return response;
    }
    if (timeout_ms > 0) {
      int remaining = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count());
      if (remaining <= 0) {
        return Status::OutOfRange("response wait exceeded " +
                                  std::to_string(timeout_ms) + "ms");
      }
      pollfd pfd{fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, remaining);
      if (ready < 0 && errno != EINTR) {
        return Status::Internal(ErrnoMessage("poll"));
      }
      if (ready <= 0) continue;  // Timeout re-checked above; EINTR retried.
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      read_buffer_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return Status::Internal("connection closed by server");
    return Status::Internal(ErrnoMessage("recv"));
  }
}

Result<NetResponse> NetClient::Call(const NetRequest& request) {
  // Root span for the end-to-end RPC (joins an enclosing trace as a
  // child when one is active); Send picks it up from the ambient
  // context, so the server's spans parent under this one.
  TraceSpan span("net_client.call", TraceSpan::kRoot);
  auto started = std::chrono::steady_clock::now();
  Status sent = Send(request);
  if (!sent.ok()) {
    span.SetStatus(sent.code(), /*force=*/false);
    return sent;
  }
  Result<NetResponse> response = ReadResponse();
  if (!response.ok()) span.SetStatus(response.status().code(), /*force=*/false);
  CheckRpcBudget(&span, "call", started);
  return response;
}

void NetClient::CheckRpcBudget(
    TraceSpan* span, const char* what,
    std::chrono::steady_clock::time_point started) {
  if (slow_rpc_budget_s_ <= 0 || watchdog_events_ == nullptr) return;
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  if (elapsed <= slow_rpc_budget_s_) return;
  // Budget blown: force the span into the ring (the cross-node trace id
  // must survive even unsampled) and leave a joinable event.
  span->ForceRecord();
  watchdog_events_->Append(
      EventLog::Type::kSlowRequest, span->trace_id(),
      std::string("net_client ") + what + " took " + std::to_string(elapsed) +
          "s against a " + std::to_string(slow_rpc_budget_s_) + "s budget");
}

void NetClient::set_retry_options(RetryOptions options) {
  retry_ = options;
  jitter_state_ = retry_.jitter_seed != 0 ? retry_.jitter_seed : 1;
  if (retry_.metrics != nullptr) {
    attempts_counter_ = retry_.metrics->GetCounter("net_client.attempts");
    retries_counter_ = retry_.metrics->GetCounter("net_client.retries");
    backoff_ms_counter_ =
        retry_.metrics->GetCounter("net_client.backoff_ms_total");
    deadline_exceeded_counter_ =
        retry_.metrics->GetCounter("net_client.deadline_exceeded");
    retry_.metrics->SetHelp("net_client.attempts",
                            "Individual request attempts, retries included");
    retry_.metrics->SetHelp(
        "net_client.backoff_ms_total",
        "Total milliseconds this client spent backing off between retries");
  } else {
    attempts_counter_ = nullptr;
    retries_counter_ = nullptr;
    backoff_ms_counter_ = nullptr;
    deadline_exceeded_counter_ = nullptr;
  }
}

uint32_t NetClient::RemainingMs(std::chrono::steady_clock::time_point deadline,
                                bool* expired) const {
  if (retry_.deadline_ms == 0) {
    *expired = false;
    return 0;  // No deadline: unbounded waits.
  }
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - std::chrono::steady_clock::now())
                  .count();
  *expired = left <= 0;
  return left <= 0 ? 1 : static_cast<uint32_t>(left);
}

Result<NetResponse> NetClient::CallWithRetry(const NetRequest& request) {
  // One span across the whole retry loop: every attempt's frame carries
  // this context, so a retried request still renders as one RPC (its
  // server-side net.request spans all parent here).
  TraceSpan span("net_client.call", TraceSpan::kRoot);
  auto started = std::chrono::steady_clock::now();
  auto deadline = started + std::chrono::milliseconds(retry_.deadline_ms);
  Result<NetResponse> last = Status::Internal("no attempt ran");
  int attempts = std::max(1, retry_.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    bool expired = false;
    uint32_t remaining = RemainingMs(deadline, &expired);
    if (expired) {
      if (deadline_exceeded_counter_ != nullptr) {
        deadline_exceeded_counter_->Increment();
      }
      CheckRpcBudget(&span, "call_with_retry", started);
      return last;
    }
    if (attempt > 0) {
      // Capped exponential backoff with jitter in [0.5, 1.0): retry k
      // waits up to initial * 2^(k-1), never beyond the cap or the
      // deadline. xorshift64 keeps the sequence deterministic per seed.
      uint64_t cap = std::min<uint64_t>(
          retry_.max_backoff_ms,
          static_cast<uint64_t>(retry_.initial_backoff_ms) << (attempt - 1));
      jitter_state_ ^= jitter_state_ << 13;
      jitter_state_ ^= jitter_state_ >> 7;
      jitter_state_ ^= jitter_state_ << 17;
      uint64_t wait_ms = cap - (cap / 2 > 0 ? jitter_state_ % (cap / 2) : 0);
      if (retry_.deadline_ms > 0 && wait_ms >= remaining) wait_ms = remaining;
      if (wait_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
        if (backoff_ms_counter_ != nullptr) {
          backoff_ms_counter_->Increment(wait_ms);
        }
      }
      if (retries_counter_ != nullptr) retries_counter_->Increment();
      remaining = RemainingMs(deadline, &expired);
      if (expired) {
        if (deadline_exceeded_counter_ != nullptr) {
          deadline_exceeded_counter_->Increment();
        }
        CheckRpcBudget(&span, "call_with_retry", started);
        return last;
      }
    }
    if (attempts_counter_ != nullptr) attempts_counter_->Increment();
    if (fd_ < 0) {
      if (host_.empty()) return Status::FailedPrecondition("never connected");
      Status connected = Connect(host_, port_);
      if (!connected.ok()) {
        last = connected;  // Transient connect failure: retry.
        continue;
      }
    }
    Status sent = Send(request);
    if (!sent.ok()) {
      last = sent;
      Close();  // The stream may hold a half-written frame.
      continue;
    }
    Result<NetResponse> response = ReadResponse(remaining);
    if (!response.ok()) {
      last = std::move(response);
      // IO failure or response timeout: the framing position is unknown,
      // so the connection cannot be reused.
      Close();
      continue;
    }
    if (response->code == NetResponseCode::kBusy) {
      // Typed backpressure: the connection is fine, only the server is
      // loaded; back off without reconnecting.
      last = std::move(response);
      continue;
    }
    CheckRpcBudget(&span, "call_with_retry", started);
    return response;
  }
  CheckRpcBudget(&span, "call_with_retry", started);
  return last;
}

Result<NetResponse> NetClient::Ping() {
  NetRequest request;
  request.type = NetRequestType::kPing;
  request.request_id = next_request_id_++;
  return Call(request);
}

Result<NetResponse> NetClient::GetTile(const TileId& id,
                                       uint64_t have_version) {
  NetRequest request;
  request.type = NetRequestType::kGetTile;
  request.request_id = next_request_id_++;
  request.have_version = have_version;
  request.tile = id;
  return Call(request);
}

Result<NetResponse> NetClient::GetRegion(const Aabb& box,
                                         uint64_t have_version) {
  NetRequest request;
  request.type = NetRequestType::kGetRegion;
  request.request_id = next_request_id_++;
  request.have_version = have_version;
  request.box = box;
  return Call(request);
}

Result<NetResponse> NetClient::FetchStats(NetStatsFormat format,
                                          uint32_t max_events) {
  NetRequest request;
  request.type = NetRequestType::kStats;
  request.request_id = next_request_id_++;
  request.stats_format = format;
  request.stats_max_events = max_events;
  return Call(request);
}

}  // namespace hdmap
