#ifndef HDMAP_NET_PROTOCOL_H_
#define HDMAP_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/tile_store.h"
#include "geometry/aabb.h"

namespace hdmap {

/// Wire protocol of the framed-TCP tile server (net/tile_server.h): a
/// length-prefixed request/response framing whose payloads are the
/// existing CRC32 wire-framed serializations (core/wire_frame.h) carried
/// verbatim — a tile fetched over this protocol is byte-identical to the
/// blob in the server's TileStore, and the reply path never re-encodes
/// map content.
///
/// Frame layout (all integers little-endian):
///
///   request   u32 magic 'HDMQ' | u32 body_len | u32 crc32(body) | body
///   response  u32 magic 'HDMS' | u32 body_len | u32 crc32(meta) | body
///
/// Request body:
///
///   u8 type | u64 request_id | u64 have_version | [trace block]
///     | type-specific args
///     kPing       (no args)
///     kGetTile    i32 x | i32 y
///     kGetRegion  f64 min_x | f64 min_y | f64 max_x | f64 max_y
///     kReplicate  opaque replication payload (rest of body)
///     kCatchUp    opaque replication payload (rest of body)
///     kStats      u8 format (NetStatsFormat) | u32 max_events
///
/// Trace propagation (protocol v2): when the high bit of the type byte
/// (kNetTraceFlag) is set, a 17-byte trace block follows have_version:
///
///   u64 trace_id | u64 parent_span_id | u8 flags (bit0 = sampled)
///
/// and the type-specific args follow the block. An encoder with no
/// active trace context leaves the flag clear, producing bytes identical
/// to protocol v1 — so a v2 client talking to a v1 server interoperates
/// whenever propagation is off, and a v1 client's requests decode
/// unchanged on a v2 server. A flagged request reaching a v1 decoder
/// fails as a typed kError (unknown type >= 0x80) without losing
/// framing: the connection survives, only that request is refused.
///
/// kReplicate/kCatchUp are the replication plane (replication/wire.h
/// defines their payloads): a leader's WalShipper pushes WAL record
/// batches and catch-up snapshots to a follower's TileServer, which
/// routes them to its ReplicationHandler and acks in the response
/// payload. They share the framing, CRC, and connection machinery with
/// the client plane, but a server only accepts them (and only then
/// accepts bodies larger than kMaxNetRequestBody) when a replication
/// handler is configured.
///
/// Response body = meta | payload:
///
///   meta: u8 code | u8 status | u64 request_id | u64 version
///   payload by code:
///     kOk           framed SerializeMap bytes (region or tile), or empty
///                   (Ping)
///     kNotModified  empty — the client's have_version is current
///     kBusy         empty — admission control shed the request; retry
///     kDelta        framed patch sequence (EncodeDeltaPayload): apply in
///                   order to locally reach `version`
///     kError        human-readable message (status carries the code)
///
/// Integrity: the request CRC covers the whole body (requests are small
/// and not otherwise protected). The response CRC covers only the
/// 18-byte meta — kOk/kDelta payloads already carry their own embedded
/// frame CRCs (that is the point of shipping them verbatim), so a second
/// whole-payload CRC would charge every response a full extra checksum
/// pass for bytes that are re-verified at decode anyway.
///
/// request_id is an opaque client token echoed in the response meta;
/// clients use it to pair pipelined responses with requests. Responses to
/// one connection may arrive in any order (the server schedules them
/// across worker threads).
enum class NetRequestType : uint8_t {
  kPing = 0,
  kGetTile = 1,
  kGetRegion = 2,
  /// Leader -> follower: a batch of replication log records (or an empty
  /// batch as a heartbeat). Only served with a replication handler.
  kReplicate = 3,
  /// Leader -> follower: a full catch-up snapshot for a follower whose
  /// position was trimmed from the leader's log.
  kCatchUp = 4,
  /// Remote introspection: the node's metrics (Prometheus or JSON),
  /// recent events, health, and replication status in one response.
  /// Exempt from admission shedding so a scrape still answers under
  /// overload (the kBusy storm is exactly when you need it).
  kStats = 5,
};

/// High bit of the request type byte: a 17-byte trace block
/// (u64 trace_id | u64 parent_span_id | u8 flags) follows have_version.
inline constexpr uint8_t kNetTraceFlag = 0x80;
/// Low bits of the type byte (the actual NetRequestType).
inline constexpr uint8_t kNetTypeMask = 0x7F;
/// Bit0 of the trace-block flags byte: the trace was head-sampled.
inline constexpr uint8_t kNetTraceSampledBit = 0x01;
/// Size of the optional trace block.
inline constexpr size_t kNetTraceBlockSize = 17;

/// Payload format of a kStats request.
enum class NetStatsFormat : uint8_t {
  kJson = 0,        ///< Node-status JSON document (see DESIGN.md §13).
  kPrometheus = 1,  ///< MetricsRegistry::RenderPrometheus() text only.
};

enum class NetResponseCode : uint8_t {
  kOk = 0,
  kNotModified = 1,
  kBusy = 2,
  kDelta = 3,
  kError = 4,
};

/// One decoded request.
struct NetRequest {
  NetRequestType type = NetRequestType::kPing;
  /// Opaque client token, echoed in the response meta.
  uint64_t request_id = 0;
  /// Conditional fetch: the snapshot version the client already holds;
  /// 0 requests an unconditional full fetch.
  uint64_t have_version = 0;
  TileId tile;  ///< kGetTile only.
  Aabb box;     ///< kGetRegion only.
  /// kReplicate/kCatchUp only: opaque replication-plane payload, carried
  /// verbatim after the fixed prefix (replication/wire.h encodes it).
  std::string payload;
  /// Propagated trace context (0 = none); the server adopts it so its
  /// spans parent under the client's trace across the process boundary.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool trace_sampled = false;
  /// kStats only.
  NetStatsFormat stats_format = NetStatsFormat::kJson;
  uint32_t stats_max_events = 32;
};

/// One decoded response (client side).
struct NetResponse {
  NetResponseCode code = NetResponseCode::kOk;
  /// Error detail for kError (kOk otherwise).
  StatusCode status = StatusCode::kOk;
  uint64_t request_id = 0;
  /// Server snapshot version the response reflects (the version a kDelta
  /// payload reaches; the version kNotModified confirms).
  uint64_t version = 0;
  /// Raw payload bytes (see the code table above). For kError this is the
  /// message text.
  std::string payload;
};

inline constexpr uint32_t kNetRequestMagic = 0x514D4448;   // "HDMQ"
inline constexpr uint32_t kNetResponseMagic = 0x534D4448;  // "HDMS"
/// magic + body_len + crc.
inline constexpr size_t kNetFrameHeaderSize = 12;
/// code + status + request_id + version.
inline constexpr size_t kNetResponseMetaSize = 18;
/// Largest legal request body. Client requests are fixed-shape and tiny;
/// a larger claim is a protocol violation (or garbage on the port), not a
/// big request.
inline constexpr size_t kMaxNetRequestBody = 256;
/// Largest legal request body on a server with a replication handler:
/// kReplicate batches and kCatchUp snapshots carry map content (256 MiB
/// still guards allocation against a corrupt length field).
inline constexpr size_t kMaxNetReplicationBody = static_cast<size_t>(256)
                                                 << 20;
/// Largest legal response body a client will accept (1 GiB guards the
/// client against allocating on a corrupt length field).
inline constexpr size_t kMaxNetResponseBody = static_cast<size_t>(1)
                                              << 30;

/// Encodes a complete request frame (header + CRC'd body). The trace
/// block is emitted only when request.trace_id != 0; otherwise the bytes
/// are identical to protocol v1.
std::string EncodeRequestFrame(const NetRequest& request);

/// Same, with `ctx` injected as the request's trace fields (the
/// NetClient's choke point: every wrapper, retry attempt, and
/// replication batch routes through here, so an active ambient context
/// rides along without the call sites copying fields). Avoids copying
/// large replication payloads into a patched NetRequest.
std::string EncodeRequestFrame(const NetRequest& request,
                               const TraceContext& ctx);

/// Encodes a complete response frame. `payload` is appended verbatim
/// after the meta (zero re-encode; one copy into the output buffer).
std::string EncodeResponseFrame(NetResponseCode code, StatusCode status,
                                uint64_t request_id, uint64_t version,
                                std::string_view payload);

/// Incremental frame extraction over a connection's receive buffer.
enum class FrameParse {
  /// The buffer holds a prefix of a valid frame; read more bytes.
  kNeedMore,
  /// A complete frame sits at the front of the buffer.
  kFrame,
  /// The bytes at the front cannot be a frame of the expected kind (bad
  /// magic or an oversized body length): framing is lost and the
  /// connection cannot be resynchronized — close it.
  kViolation,
};

/// Examines the front of `buffer` for a frame with `expected_magic` and a
/// body no larger than `max_body`. On kFrame, sets `*frame_size` to the
/// total frame length (header + body) and `*body` to a view of the body
/// bytes inside `buffer`; the caller consumes `*frame_size` bytes. The
/// header CRC field is NOT checked here (its coverage differs between
/// requests and responses); Decode*Frame does that.
FrameParse ExtractFrame(std::string_view buffer, uint32_t expected_magic,
                        size_t max_body, size_t* frame_size,
                        std::string_view* body);

/// Decodes a request body whose header claimed `header_crc`. kDataLoss
/// when the CRC mismatches the body bytes (bit damage in transit — the
/// connection is still framed, so the server answers kError and keeps
/// it); kInvalidArgument for an unknown type or malformed args.
Result<NetRequest> DecodeRequestBody(std::string_view body,
                                     uint32_t header_crc);

/// Decodes a response body whose header claimed `header_crc` (covering
/// the meta only). kDataLoss on meta CRC mismatch or truncated meta.
Result<NetResponse> DecodeResponseBody(std::string_view body,
                                       uint32_t header_crc);

/// Packs framed SerializePatch payloads (PatchesSince output, in apply
/// order) into one kDelta payload: u32 count | count x (u32 len | bytes).
std::string EncodeDeltaPayload(const std::vector<std::string>& patches);

/// Unpacks a kDelta payload into the framed patch payloads. Each entry
/// still carries its own frame CRC; decode with DeserializePatch.
Result<std::vector<std::string>> DecodeDeltaPayload(std::string_view payload);

}  // namespace hdmap

#endif  // HDMAP_NET_PROTOCOL_H_
