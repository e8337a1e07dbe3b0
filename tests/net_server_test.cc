// Loopback tests of the framed-TCP tile server: every test drives the
// real socket path (epoll IO thread, worker pool, admission control)
// through NetClient against a server on 127.0.0.1.
#include "net/tile_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "common/trace.h"
#include "core/map_patch.h"
#include "core/serialization.h"
#include "core/tile_view.h"
#include "core/wire_frame.h"
#include "net/protocol.h"
#include "tests/test_worlds.h"

namespace hdmap {
namespace {

MapService::Options SmallTileOptions() {
  MapService::Options opt;
  opt.tile_store.tile_size_m = 100.0;
  return opt;
}

ElementId FirstLandmarkId(const HdMap& map) {
  EXPECT_FALSE(map.landmarks().empty());
  return map.landmarks().begin()->first;
}

/// Arms a probability-1.0 kDelay policy at the server's compute site and
/// wires it into `options`: every GetTile/GetRegion computation sleeps
/// `delay_ms`, widening the admission window so tests can
/// deterministically pile up concurrent requests. `faults` must outlive
/// the server.
TileServer::Options DelayedCompute(FaultInjector* faults, uint32_t delay_ms,
                                   TileServer::Options options = {}) {
  faults->AddPolicy({.site = TileServer::kComputeFaultSite,
                     .kind = FaultKind::kDelay,
                     .probability = 1.0,
                     .delay_ms = delay_ms});
  options.fault_injector = faults;
  return options;
}

/// Service + started server + one connected client.
struct Harness {
  explicit Harness(TileServer::Options server_options = {},
                   MapService::Options service_options = SmallTileOptions(),
                   double road_length = 500.0)
      : service(std::move(service_options)) {
    EXPECT_TRUE(service.Init(StraightRoad(road_length)).ok());
    server = std::make_unique<TileServer>(service, std::move(server_options));
    EXPECT_TRUE(server->Start().ok());
    EXPECT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  }

  MapService service;
  std::unique_ptr<TileServer> server;
  NetClient client;
};

TEST(NetProtocolTest, RequestFrameRoundtrip) {
  NetRequest request;
  request.type = NetRequestType::kGetRegion;
  request.request_id = 42;
  request.have_version = 7;
  request.box = Aabb{{-1.5, 2.5}, {100.0, 200.0}};
  std::string frame = EncodeRequestFrame(request);

  size_t frame_size = 0;
  std::string_view body;
  ASSERT_EQ(ExtractFrame(frame, kNetRequestMagic, kMaxNetRequestBody,
                         &frame_size, &body),
            FrameParse::kFrame);
  EXPECT_EQ(frame_size, frame.size());
  uint32_t crc = 0;
  std::memcpy(&crc, frame.data() + 8, sizeof(crc));
  auto decoded = DecodeRequestBody(body, crc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, NetRequestType::kGetRegion);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->have_version, 7u);
  EXPECT_EQ(decoded->box.min.x, -1.5);
  EXPECT_EQ(decoded->box.max.y, 200.0);

  // A flipped body bit fails the CRC, not the framing.
  std::string corrupt = frame;
  corrupt[kNetFrameHeaderSize + 3] ^= 0x10;
  ASSERT_EQ(ExtractFrame(corrupt, kNetRequestMagic, kMaxNetRequestBody,
                         &frame_size, &body),
            FrameParse::kFrame);
  EXPECT_EQ(DecodeRequestBody(body, crc).status().code(),
            StatusCode::kDataLoss);
}

TEST(NetProtocolTest, PartialAndViolatingBuffers) {
  std::string frame = EncodeRequestFrame(NetRequest{});
  size_t frame_size = 0;
  std::string_view body;
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(ExtractFrame(std::string_view(frame).substr(0, n),
                           kNetRequestMagic, kMaxNetRequestBody, &frame_size,
                           &body),
              FrameParse::kNeedMore);
  }
  EXPECT_EQ(ExtractFrame("GARBAGEGARBAGE", kNetRequestMagic,
                         kMaxNetRequestBody, &frame_size, &body),
            FrameParse::kViolation);
  // Oversized body length claim.
  std::string oversized = frame;
  uint32_t huge = 1u << 24;
  std::memcpy(&oversized[4], &huge, sizeof(huge));
  EXPECT_EQ(ExtractFrame(oversized, kNetRequestMagic, kMaxNetRequestBody,
                         &frame_size, &body),
            FrameParse::kViolation);
}

TEST(NetProtocolTest, TraceFieldsRoundTripAndStayV1CompatibleWhenAbsent) {
  NetRequest request;
  request.type = NetRequestType::kGetTile;
  request.request_id = 11;
  request.tile = TileId{3, -2};

  // Untraced: the encoding is byte-identical to protocol v1 — no flag
  // bit, no trace block, old peers parse it unchanged.
  std::string plain = EncodeRequestFrame(request);
  EXPECT_EQ(plain[kNetFrameHeaderSize] & kNetTraceFlag, 0);

  // Traced: the type byte carries the flag, the block rides after
  // have_version, and every field round-trips.
  request.trace_id = 0xAABBCCDDEEFF0011ull;
  request.parent_span_id = 0x1122334455667788ull;
  request.trace_sampled = true;
  std::string traced = EncodeRequestFrame(request);
  EXPECT_NE(traced[kNetFrameHeaderSize] & kNetTraceFlag, 0);
  EXPECT_EQ(traced.size(), plain.size() + kNetTraceBlockSize);

  size_t frame_size = 0;
  std::string_view body;
  ASSERT_EQ(ExtractFrame(traced, kNetRequestMagic, kMaxNetRequestBody,
                         &frame_size, &body),
            FrameParse::kFrame);
  uint32_t crc = 0;
  std::memcpy(&crc, traced.data() + 8, sizeof(crc));
  auto decoded = DecodeRequestBody(body, crc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, NetRequestType::kGetTile);
  EXPECT_EQ(decoded->trace_id, 0xAABBCCDDEEFF0011ull);
  EXPECT_EQ(decoded->parent_span_id, 0x1122334455667788ull);
  EXPECT_TRUE(decoded->trace_sampled);
  EXPECT_EQ(decoded->tile, (TileId{3, -2}));

  // An unsampled context round-trips the flag bit too.
  request.trace_sampled = false;
  std::string unsampled = EncodeRequestFrame(request);
  ASSERT_EQ(ExtractFrame(unsampled, kNetRequestMagic, kMaxNetRequestBody,
                         &frame_size, &body),
            FrameParse::kFrame);
  std::memcpy(&crc, unsampled.data() + 8, sizeof(crc));
  decoded = DecodeRequestBody(body, crc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->trace_sampled);
}

TEST(NetProtocolTest, TracedReplicationPayloadSurvivesRoundTrip) {
  NetRequest request;
  request.type = NetRequestType::kReplicate;
  request.request_id = 5;
  request.payload = std::string("batch-bytes\x00with-nul", 20);
  request.trace_id = 77;
  request.parent_span_id = 78;
  std::string frame = EncodeRequestFrame(request);

  size_t frame_size = 0;
  std::string_view body;
  ASSERT_EQ(ExtractFrame(frame, kNetRequestMagic, kMaxNetRequestBody,
                         &frame_size, &body),
            FrameParse::kFrame);
  uint32_t crc = 0;
  std::memcpy(&crc, frame.data() + 8, sizeof(crc));
  auto decoded = DecodeRequestBody(body, crc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->payload, request.payload);
  EXPECT_EQ(decoded->trace_id, 77u);
}

TEST(NetProtocolTest, StatsRequestRoundTripAndFormatValidation) {
  NetRequest request;
  request.type = NetRequestType::kStats;
  request.request_id = 9;
  request.stats_format = NetStatsFormat::kPrometheus;
  request.stats_max_events = 128;
  std::string frame = EncodeRequestFrame(request);

  size_t frame_size = 0;
  std::string_view body;
  ASSERT_EQ(ExtractFrame(frame, kNetRequestMagic, kMaxNetRequestBody,
                         &frame_size, &body),
            FrameParse::kFrame);
  uint32_t crc = 0;
  std::memcpy(&crc, frame.data() + 8, sizeof(crc));
  auto decoded = DecodeRequestBody(body, crc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, NetRequestType::kStats);
  EXPECT_EQ(decoded->stats_format, NetStatsFormat::kPrometheus);
  EXPECT_EQ(decoded->stats_max_events, 128u);

  // An out-of-range format byte is a typed decode error, not UB.
  std::string bad = frame;
  bad[kNetFrameHeaderSize + 1 + 8 + 8] = 7;
  ASSERT_EQ(ExtractFrame(bad, kNetRequestMagic, kMaxNetRequestBody,
                         &frame_size, &body),
            FrameParse::kFrame);
  uint32_t bad_crc = Crc32(body);
  EXPECT_EQ(DecodeRequestBody(body, bad_crc).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetProtocolTest, DeltaPayloadRoundtrip) {
  std::vector<std::string> patches = {"alpha", std::string(1000, 'x'), ""};
  std::string payload = EncodeDeltaPayload(patches);
  auto decoded = DecodeDeltaPayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, patches);
  EXPECT_EQ(DecodeDeltaPayload(payload.substr(0, payload.size() - 1))
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST(NetServerTest, PingReportsVersion) {
  Harness h;
  auto response = h.client.Ping();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, NetResponseCode::kOk);
  EXPECT_EQ(response->version, 1u);
  EXPECT_TRUE(response->payload.empty());
}

TEST(NetServerTest, GetTileServesVerbatimStoreBytes) {
  Harness h;
  auto snap = h.service.snapshot();
  auto raw = snap->tiles.RawTilesCopy();
  ASSERT_FALSE(raw.empty());
  const auto& [key, blob] = *raw.begin();
  TileId id = snap->tiles.AllTiles().front();
  ASSERT_EQ(id.Morton(), key);

  auto response = h.client.GetTile(id);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, NetResponseCode::kOk);
  EXPECT_EQ(response->version, 1u);
  // Zero re-encode: the payload is the store blob, byte for byte, and
  // still carries its embedded frame CRC.
  EXPECT_EQ(response->payload, blob);
  EXPECT_TRUE(DeserializeMap(response->payload).ok());

  // A missing tile is a typed error, and the connection survives it.
  auto missing = h.client.GetTile(TileId{1000, 1000});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, NetResponseCode::kError);
  EXPECT_EQ(missing->status, StatusCode::kNotFound);
  EXPECT_TRUE(h.client.Ping().ok());
}

TEST(NetServerTest, GetRegionRoundtrips) {
  Harness h;
  Aabb box = h.service.snapshot()->map.BoundingBox();
  auto response = h.client.GetRegion(box);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, NetResponseCode::kOk);
  auto region = DeserializeMap(response->payload);
  ASSERT_TRUE(region.ok());
  auto local = h.service.GetRegion(box);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(SerializeMap(*region), SerializeMap(*local));
}

TEST(NetServerTest, IdenticalConcurrentRegionsEachGetOwnReply) {
  FaultInjector faults(1);
  TileServer::Options options;
  options.worker_threads = 4;
  Harness h(DelayedCompute(&faults, 50, options));
  Aabb box = h.service.snapshot()->map.BoundingBox();

  uint64_t computations_before =
      h.server->metrics().GetCounter("net.computations")->value();

  // Pipeline K identical unconditional fetches; the delay keeps them in
  // flight together on the worker pool.
  constexpr int kDuplicates = 4;
  for (int i = 0; i < kDuplicates; ++i) {
    NetRequest request;
    request.type = NetRequestType::kGetRegion;
    request.request_id = 100 + static_cast<uint64_t>(i);
    request.box = box;
    ASSERT_TRUE(h.client.Send(request).ok());
  }
  std::vector<NetResponse> responses;
  std::set<uint64_t> ids;
  for (int i = 0; i < kDuplicates; ++i) {
    auto response = h.client.ReadResponse();
    ASSERT_TRUE(response.ok());
    responses.push_back(*response);
    ids.insert(response->request_id);
  }
  // Every duplicate got exactly one response (correct request_id
  // pairing)...
  EXPECT_EQ(ids.size(), static_cast<size_t>(kDuplicates));
  EXPECT_EQ(*ids.begin(), 100u);
  EXPECT_EQ(*ids.rbegin(), 100u + kDuplicates - 1);
  // ...with byte-identical payloads...
  for (const NetResponse& response : responses) {
    EXPECT_EQ(response.code, NetResponseCode::kOk);
    EXPECT_EQ(response.payload, responses.front().payload);
  }
  // ...each from its own computation.
  EXPECT_EQ(
      h.server->metrics().GetCounter("net.computations")->value() -
          computations_before,
      static_cast<uint64_t>(kDuplicates));
  // Nothing else is owed: the Ping's empty reply is the next frame on
  // the connection, not a second region reply.
  auto ping = h.client.Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->code, NetResponseCode::kOk);
  EXPECT_TRUE(ping->payload.empty());
}

TEST(NetServerTest, BusyWhenGlobalQueueFull) {
  FaultInjector faults(1);
  TileServer::Options options;
  options.worker_threads = 1;
  options.max_pending_requests = 2;
  Harness h(DelayedCompute(&faults, 300, options));

  // The IO thread admits two and must shed the rest with typed BUSY
  // responses while the slow worker holds the queue: three times the
  // queue's capacity arrives at once.
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    NetRequest request;
    request.type = NetRequestType::kGetTile;
    request.request_id = static_cast<uint64_t>(i);
    request.tile = TileId{i, 0};
    ASSERT_TRUE(h.client.Send(request).ok());
  }
  // A scrape pipelined into the full queue is exempt from shedding: it
  // is answered, and its document already counts the sheds before it.
  NetRequest scrape;
  scrape.type = NetRequestType::kStats;
  scrape.request_id = kRequests;
  scrape.stats_format = NetStatsFormat::kJson;
  scrape.stats_max_events = 16;
  ASSERT_TRUE(h.client.Send(scrape).ok());
  int busy = 0;
  int served = 0;
  bool scraped = false;
  for (int i = 0; i < kRequests + 1; ++i) {
    auto response = h.client.ReadResponse();
    ASSERT_TRUE(response.ok());
    if (response->request_id == scrape.request_id) {
      ASSERT_EQ(response->code, NetResponseCode::kOk);
      auto doc = ParseJson(response->payload);
      ASSERT_TRUE(doc.ok()) << doc.status().message();
      const JsonValue* metrics = doc->Find("metrics");
      ASSERT_NE(metrics, nullptr);
      ASSERT_NE(metrics->Find("counters"), nullptr);
      for (const JsonValue& counter : metrics->Find("counters")->array) {
        if (counter.GetString("name") == "net.busy_rejected") {
          EXPECT_EQ(counter.GetU64("value"),
                    static_cast<uint64_t>(kRequests - 2));
          scraped = true;
        }
      }
    } else if (response->code == NetResponseCode::kBusy) {
      ++busy;
    } else {
      ++served;
    }
  }
  EXPECT_TRUE(scraped);
  EXPECT_EQ(busy, kRequests - 2);
  EXPECT_EQ(served, 2);
  EXPECT_EQ(h.server->metrics().GetCounter("net.busy_rejected")->value(),
            static_cast<uint64_t>(busy));
  // BUSY rejections are explainable from the event log.
  bool saw_event = false;
  for (const EventLog::Event& event : h.server->RecentEvents()) {
    if (event.type == EventLog::Type::kBusyRejected) saw_event = true;
  }
  EXPECT_TRUE(saw_event);
  // The server recovers once the backlog drains.
  auto after = h.client.Ping();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->code, NetResponseCode::kOk);
}

TEST(NetServerTest, ConcurrentRegionRepliesCarryTheirOwnVersion) {
  // Clients pull full regions over the wire while the test thread
  // publishes. Each reply's markers must share one z (a whole version),
  // that z must be the version the reply is labelled with (a client
  // asking for the delta from it would otherwise apply patches twice),
  // and no client may see its version go backwards.
  MapService service(SmallTileOptions());
  ASSERT_TRUE(service.Init(VersionMarkerRoad()).ok());
  TileServer::Options options;
  options.worker_threads = 2;
  TileServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 3;
  constexpr uint64_t kPublishes = 100;
  std::atomic<bool> stop{false};
  std::atomic<int> clients_started{0};
  std::atomic<uint64_t> replies{0}, torn{0}, mislabeled{0}, rollbacks{0},
      errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      NetClient client;
      bool connected = client.Connect("127.0.0.1", server.port()).ok();
      clients_started.fetch_add(1);
      if (!connected) {
        errors.fetch_add(1);
        return;
      }
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto response = client.GetRegion(kVersionMarkerBox);
        if (!response.ok()) {
          errors.fetch_add(1);
          return;
        }
        if (response->code != NetResponseCode::kOk) {
          errors.fetch_add(1);
          continue;
        }
        replies.fetch_add(1, std::memory_order_relaxed);
        auto view = TileView::Create(response->payload);
        if (!view.ok()) {
          errors.fetch_add(1);
          continue;
        }
        uint64_t version = MarkerVersion(*view);
        if (version == 0) torn.fetch_add(1, std::memory_order_relaxed);
        if (version != response->version) {
          mislabeled.fetch_add(1, std::memory_order_relaxed);
        }
        if (response->version < last) {
          rollbacks.fetch_add(1, std::memory_order_relaxed);
        }
        last = response->version;
      }
    });
  }
  while (clients_started.load() < kClients) std::this_thread::yield();
  for (uint64_t v = 2; v <= kPublishes + 1; ++v) {
    Status published = service.ApplyPatch(VersionMarkerPatch(v));
    EXPECT_TRUE(published.ok()) << published.ToString();
    if (!published.ok()) break;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_GE(replies.load(), static_cast<uint64_t>(kClients));
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(mislabeled.load(), 0u);
  EXPECT_EQ(rollbacks.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
}

TEST(NetServerTest, BusyAtPerConnectionCap) {
  FaultInjector faults(1);
  TileServer::Options options;
  options.worker_threads = 1;
  options.max_pending_requests = 100;
  options.max_inflight_per_connection = 1;
  Harness h(DelayedCompute(&faults, 200, options));

  for (int i = 0; i < 3; ++i) {
    NetRequest request;
    request.type = NetRequestType::kGetTile;
    request.request_id = static_cast<uint64_t>(i);
    request.tile = TileId{i, 0};
    ASSERT_TRUE(h.client.Send(request).ok());
  }
  int busy = 0;
  for (int i = 0; i < 3; ++i) {
    auto response = h.client.ReadResponse();
    ASSERT_TRUE(response.ok());
    if (response->code == NetResponseCode::kBusy) ++busy;
  }
  EXPECT_EQ(busy, 2);

  // A second connection is not throttled by the first one's cap.
  NetClient other;
  ASSERT_TRUE(other.Connect("127.0.0.1", h.server->port()).ok());
  auto response = other.Ping();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, NetResponseCode::kOk);
}

TEST(NetServerTest, ConditionalFetchNotModified) {
  Harness h;
  auto response =
      h.client.GetRegion(h.service.snapshot()->map.BoundingBox(), 1);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, NetResponseCode::kNotModified);
  EXPECT_EQ(response->version, 1u);
  EXPECT_TRUE(response->payload.empty());

  auto tile_response =
      h.client.GetTile(h.service.snapshot()->tiles.AllTiles().front(), 1);
  ASSERT_TRUE(tile_response.ok());
  EXPECT_EQ(tile_response->code, NetResponseCode::kNotModified);
}

TEST(NetServerTest, ConditionalFetchDeltaMatchesLocalApply) {
  Harness h;
  Aabb box = h.service.snapshot()->map.BoundingBox();

  // Client syncs fully at version 1.
  auto full = h.client.GetRegion(box);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->code, NetResponseCode::kOk);
  auto local = DeserializeMap(full->payload);
  ASSERT_TRUE(local.ok());

  // Server publishes version 2 (small in-tile move: the delta is tiny).
  ElementId sign = FirstLandmarkId(h.service.snapshot()->map);
  MapPatch patch;
  patch.moved_landmarks.push_back(
      {sign,
       h.service.snapshot()->map.FindLandmark(sign)->position +
           Vec3{0.5, 0.5, 0.0}});
  ASSERT_TRUE(h.service.ApplyPatch(patch).ok());
  ASSERT_EQ(h.service.version(), 2u);

  // "I have v1" now yields a delta reaching v2, far smaller than the
  // full region payload.
  auto delta_response = h.client.GetRegion(box, 1);
  ASSERT_TRUE(delta_response.ok());
  ASSERT_EQ(delta_response->code, NetResponseCode::kDelta);
  EXPECT_EQ(delta_response->version, 2u);
  EXPECT_LT(delta_response->payload.size(), full->payload.size() / 10);

  auto framed_patches = DecodeDeltaPayload(delta_response->payload);
  ASSERT_TRUE(framed_patches.ok());
  ASSERT_EQ(framed_patches->size(), 1u);
  auto wire_patch = DeserializePatch(framed_patches->front());
  ASSERT_TRUE(wire_patch.ok());
  ASSERT_TRUE(ApplyPatch(*wire_patch, &local.value()).ok());

  // The locally patched map matches a fresh full fetch of version 2 —
  // byte-identical once re-encoded as a v3 tile, the region reply format.
  auto fresh = h.client.GetRegion(box);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->code, NetResponseCode::kOk);
  EXPECT_EQ(EncodeTileV3(*local), fresh->payload);
  EXPECT_EQ(local->FindLandmark(sign)->position,
            h.service.snapshot()->map.FindLandmark(sign)->position);
}

TEST(NetServerTest, DeltaFallsBackToFullPastHistory) {
  MapService::Options service_options = SmallTileOptions();
  service_options.publish_history = 1;
  Harness h({}, service_options);
  ElementId sign = FirstLandmarkId(h.service.snapshot()->map);
  for (int i = 0; i < 3; ++i) {
    MapPatch patch;
    patch.moved_landmarks.push_back(
        {sign,
         h.service.snapshot()->map.FindLandmark(sign)->position +
             Vec3{0.1, 0.0, 0.0}});
    ASSERT_TRUE(h.service.ApplyPatch(patch).ok());
  }
  ASSERT_EQ(h.service.version(), 4u);

  // v1 -> v4 needs three publishes of history but only one is retained:
  // the server answers with a full fetch instead of a broken chain.
  auto response =
      h.client.GetRegion(h.service.snapshot()->map.BoundingBox(), 1);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, NetResponseCode::kOk);
  EXPECT_TRUE(DeserializeMap(response->payload).ok());

  // The still-retained last step serves as a delta.
  auto recent =
      h.client.GetRegion(h.service.snapshot()->map.BoundingBox(), 3);
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->code, NetResponseCode::kDelta);
}

TEST(NetServerTest, CorruptRequestBodyRejectedConnectionSurvives) {
  Harness h;
  // Valid framing, damaged body: flip one bit past the header.
  NetRequest request;
  request.type = NetRequestType::kPing;
  request.request_id = 9;
  std::string frame = EncodeRequestFrame(request);
  frame[kNetFrameHeaderSize + 2] ^= 0x04;
  ASSERT_TRUE(h.client.SendRaw(frame).ok());
  auto response = h.client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, NetResponseCode::kError);
  EXPECT_EQ(response->status, StatusCode::kDataLoss);
  EXPECT_GE(h.server->metrics().GetCounter("net.malformed_requests")->value(),
            1u);
  // The stream is still framed: the next request is served normally.
  auto after = h.client.Ping();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->code, NetResponseCode::kOk);
}

TEST(NetServerTest, ComputeDelayPolicySlowsOnlyFetches) {
  FaultInjector faults(1);
  Harness h(DelayedCompute(&faults, 50));
  // kDelay is invisible to the data and failure planes.
  std::string untouched;
  EXPECT_FALSE(faults.MaybeCorrupt(TileServer::kComputeFaultSite, "bytes",
                                   &untouched));
  EXPECT_TRUE(faults.MaybeFail(TileServer::kComputeFaultSite).ok());

  // Ping never reaches the compute site; a tile fetch sleeps there once.
  ASSERT_TRUE(h.client.Ping().ok());
  EXPECT_EQ(faults.InjectedCount(TileServer::kComputeFaultSite), 0u);
  auto started = std::chrono::steady_clock::now();
  auto response = h.client.GetTile(h.service.snapshot()->tiles.AllTiles()[0]);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, NetResponseCode::kOk);
  EXPECT_GE(std::chrono::steady_clock::now() - started,
            std::chrono::milliseconds(50));
  EXPECT_EQ(faults.InjectedCount(TileServer::kComputeFaultSite), 1u);
}

TEST(NetServerTest, RecvFaultInjectionRejectsWithoutKillingConnection) {
  FaultInjector faults(1234);
  faults.AddPolicy({TileServer::kRecvFaultSite, FaultKind::kBitFlip, 1.0});
  TileServer::Options options;
  options.fault_injector = &faults;
  Harness h(options);

  // Every request body is corrupted after framing: typed kDataLoss
  // errors, connection intact.
  for (int i = 0; i < 3; ++i) {
    auto response = h.client.Ping();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, NetResponseCode::kError);
    EXPECT_EQ(response->status, StatusCode::kDataLoss);
  }
  EXPECT_EQ(faults.InjectedCount(TileServer::kRecvFaultSite), 3u);

  faults.ClearPolicies();
  auto response = h.client.Ping();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, NetResponseCode::kOk);
}

TEST(NetServerTest, GarbageStreamClosesConnection) {
  Harness h;
  ASSERT_TRUE(h.client.SendRaw(std::string(64, 'Z')).ok());
  // Framing is unrecoverable: the server drops the connection.
  EXPECT_FALSE(h.client.ReadResponse().ok());
  // New connections still serve.
  NetClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", h.server->port()).ok());
  EXPECT_TRUE(fresh.Ping().ok());
}

TEST(NetServerTest, RequestTraceIsOneTreeRootedAtNetClientCall) {
  TraceRecorder& recorder = TraceRecorder::Global();
  TraceRecorder::Options trace_options;
  trace_options.enabled = true;
  trace_options.sample_every_n = 1;
  recorder.Configure(trace_options);

  {
    Harness h;
    auto response =
        h.client.GetRegion(h.service.snapshot()->map.BoundingBox());
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, NetResponseCode::kOk);
  }

  // The client call is the cross-process root; its context travels in
  // the request frame, so the server-side net.request joins the SAME
  // trace as a child instead of rooting a second one.
  uint64_t client_trace = 0;
  uint64_t client_span = 0;
  for (const TraceEvent& event : recorder.Snapshot()) {
    if (std::string_view(event.name) == "net_client.call" &&
        event.parent_span_id == 0) {
      client_trace = event.trace_id;
      client_span = event.span_id;
    }
  }
  ASSERT_NE(client_trace, 0u);
  uint64_t net_span = 0;
  for (const TraceEvent& event : recorder.Snapshot()) {
    if (std::string_view(event.name) == "net.request" &&
        event.trace_id == client_trace &&
        event.parent_span_id == client_span) {
      net_span = event.span_id;
    }
  }
  ASSERT_NE(net_span, 0u);
  // And the service endpoint's span hangs under net.request: one
  // request, one tree, three layers, two processes' worth of spans.
  bool service_child = false;
  for (const TraceEvent& event : recorder.Snapshot()) {
    if (std::string_view(event.name) == "map_service.get_region" &&
        event.trace_id == client_trace && event.parent_span_id == net_span) {
      service_child = true;
    }
  }
  EXPECT_TRUE(service_child);
  recorder.Configure(TraceRecorder::Options{});  // Back to disabled.
}

TEST(NetServerTest, TracePropagationOffKeepsServerTraceSeparate) {
  TraceRecorder& recorder = TraceRecorder::Global();
  TraceRecorder::Options trace_options;
  trace_options.enabled = true;
  trace_options.sample_every_n = 1;
  recorder.Configure(trace_options);

  {
    Harness h;
    h.client.set_propagate_trace(false);
    ASSERT_TRUE(h.client.Ping().ok());
  }

  // With propagation off the frame carries no trace block, so the server
  // roots its own trace — disjoint from the client's.
  uint64_t client_trace = 0;
  for (const TraceEvent& event : recorder.Snapshot()) {
    if (std::string_view(event.name) == "net_client.call") {
      client_trace = event.trace_id;
    }
  }
  ASSERT_NE(client_trace, 0u);
  bool server_rooted_fresh = false;
  for (const TraceEvent& event : recorder.Snapshot()) {
    if (std::string_view(event.name) == "net.request") {
      EXPECT_NE(event.trace_id, client_trace);
      if (event.parent_span_id == 0) server_rooted_fresh = true;
    }
  }
  EXPECT_TRUE(server_rooted_fresh);
  recorder.Configure(TraceRecorder::Options{});
}

TEST(NetServerTest, UnsampledTracePropagationAddsOnlyTheTraceBlock) {
  // Recorder on, head sampling and the slow path off: trace ids ride the
  // wire and nothing records. Propagation then costs each request frame
  // exactly the trace block, and no span on either side.
  TraceRecorder& recorder = TraceRecorder::Global();
  TraceRecorder::Options trace_options;
  trace_options.enabled = true;
  trace_options.sample_every_n = 0;
  trace_options.slow_threshold_s = 0.0;
  recorder.Configure(trace_options);
  const uint64_t recorded_before = recorder.recorded();

  Harness h;
  TileId id = h.service.snapshot()->tiles.AllTiles().front();
  Counter* bytes_in = h.server->metrics().GetCounter("net.bytes_in");
  constexpr uint64_t kCalls = 20;
  auto bytes_in_for = [&](bool propagate) {
    h.client.set_propagate_trace(propagate);
    uint64_t before = bytes_in->value();
    for (uint64_t i = 0; i < kCalls; ++i) {
      auto response = h.client.GetTile(id);
      EXPECT_TRUE(response.ok() && response->code == NetResponseCode::kOk);
    }
    return bytes_in->value() - before;
  };
  uint64_t untraced = bytes_in_for(false);
  uint64_t traced = bytes_in_for(true);
  EXPECT_EQ(traced, untraced + kCalls * kNetTraceBlockSize);
  EXPECT_EQ(recorder.recorded(), recorded_before);
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.Configure(TraceRecorder::Options{});
}

TEST(NetServerTest, KStatsServesJsonDocument) {
  Harness h;
  ASSERT_TRUE(h.client.Ping().ok());  // Tick at least one counter.
  auto response = h.client.FetchStats();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, NetResponseCode::kOk);
  const std::string& doc = response->payload;
  EXPECT_NE(doc.find("\"node\":{\"label\":\"hdmap\""), std::string::npos);
  EXPECT_NE(doc.find("\"health\":\"SERVING\""), std::string::npos);
  // No replication callback configured: the document says so typed-ly.
  EXPECT_NE(doc.find("\"replication\":null"), std::string::npos);
  EXPECT_NE(doc.find("\"events\":["), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(doc.find("net.requests"), std::string::npos);
}

TEST(NetServerTest, KStatsWithHostileStringsParsesBack) {
  const std::string hostile = "node \"7\" \\ x\n\x01" "\xc3\xa9";
  TileServer::Options options;
  options.stats_label = hostile;
  options.replication_status_json = [&](JsonWriter& out) {
    out.BeginObject().Key("role").String(hostile).EndObject();
  };
  options.extra_events = [&](size_t) {
    EventLog::Event event;
    event.seq = 1;
    event.unix_ms = 1;
    event.type = EventLog::Type::kInjectedFault;
    event.trace_id = 18446744073709551615ull;
    event.detail = hostile;
    return std::vector<EventLog::Event>{event};
  };
  Harness h(options);
  ASSERT_TRUE(h.client.Ping().ok());
  auto response = h.client.FetchStats();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, NetResponseCode::kOk);

  auto doc = ParseJson(response->payload);
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const JsonValue* node = doc->Find("node");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->GetString("label"), hostile);
  EXPECT_EQ(node->GetString("health"), "SERVING");
  EXPECT_EQ(node->GetU64("version"), h.service.version());
  ASSERT_NE(doc->Find("replication"), nullptr);
  EXPECT_EQ(doc->Find("replication")->GetString("role"), hostile);
  const JsonValue* events = doc->Find("events");
  ASSERT_TRUE(events != nullptr && events->is_array());
  bool hostile_event_seen = false;
  for (const JsonValue& event : events->array) {
    if (event.GetString("type") == "INJECTED_FAULT") {
      EXPECT_EQ(event.GetString("detail"), hostile);
      EXPECT_EQ(event.GetString("trace_id"), "18446744073709551615");
      hostile_event_seen = true;
    }
  }
  EXPECT_TRUE(hostile_event_seen);
  const JsonValue* metrics = doc->Find("metrics");
  ASSERT_TRUE(metrics != nullptr && metrics->is_object());
  bool requests_seen = false;
  for (const JsonValue& counter : metrics->Find("counters")->array) {
    if (counter.GetString("name") == "net.requests") {
      EXPECT_GE(counter.GetU64("value"), 1u);
      requests_seen = true;
    }
  }
  EXPECT_TRUE(requests_seen);
}

TEST(NetServerTest, KStatsServesPrometheusExposition) {
  Harness h;
  ASSERT_TRUE(h.client.Ping().ok());
  auto response = h.client.FetchStats(NetStatsFormat::kPrometheus);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, NetResponseCode::kOk);
  EXPECT_NE(response->payload.find("# HELP hdmap_"), std::string::npos);
  EXPECT_NE(response->payload.find("# TYPE hdmap_net_requests_total counter"),
            std::string::npos);
}

TEST(NetServerTest, SlowRpcWatchdogForceRecordsTrace) {
  TraceRecorder& recorder = TraceRecorder::Global();
  TraceRecorder::Options trace_options;
  trace_options.enabled = true;
  trace_options.sample_every_n = 0;  // Unsampled: only forced spans record.
  trace_options.slow_threshold_s = 0.0;
  recorder.Configure(trace_options);

  EventLog watchdog_log(16);
  {
    FaultInjector faults(1);
    Harness h(DelayedCompute(&faults, 20));  // Applies on the fetch path.
    h.client.set_slow_rpc_watchdog(/*budget_s=*/0.001, &watchdog_log);
    TileId id = h.service.snapshot()->tiles.AllTiles().front();
    auto response = h.client.GetTile(id);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, NetResponseCode::kOk);
  }

  // The budget was blown, so the watchdog appended a SLOW_REQUEST event
  // carrying the call's trace id — and force-recorded the span despite
  // sampling being off, so the id resolves in the ring.
  std::vector<EventLog::Event> events = watchdog_log.Recent();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventLog::Type::kSlowRequest);
  ASSERT_NE(events[0].trace_id, 0u);
  bool span_recorded = false;
  for (const TraceEvent& event : recorder.Snapshot()) {
    if (std::string_view(event.name) == "net_client.call" &&
        event.trace_id == events[0].trace_id) {
      span_recorded = true;
    }
  }
  EXPECT_TRUE(span_recorded);
  recorder.Configure(TraceRecorder::Options{});
}

TEST(NetServerTest, StopDrainsAdmittedRequests) {
  FaultInjector faults(1);
  TileServer::Options options;
  options.worker_threads = 2;
  auto h = std::make_unique<Harness>(DelayedCompute(&faults, 100, options));
  NetRequest request;
  request.type = NetRequestType::kGetTile;
  request.request_id = 7;
  request.tile = h->service.snapshot()->tiles.AllTiles().front();
  ASSERT_TRUE(h->client.Send(request).ok());
  // Wait for admission (the request counter ticks at execution start),
  // then stop while the handler is still inside its injected delay: the
  // worker pool drains its queue, so the admitted request still gets its
  // response.
  Counter* requests = h->server->metrics().GetCounter("net.requests");
  for (int i = 0; i < 500 && requests->value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(requests->value(), 1u);
  h->server->Stop();
  auto response = h->client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->request_id, 7u);
  EXPECT_EQ(response->code, NetResponseCode::kOk);
}

}  // namespace
}  // namespace hdmap
