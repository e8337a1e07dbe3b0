#include "net/protocol.h"

#include <cstring>

#include "core/binary_io.h"
#include "core/wire_frame.h"

namespace hdmap {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

uint32_t ReadU32At(std::string_view data, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

std::string WrapBody(uint32_t magic, std::string_view body, uint32_t crc) {
  std::string out;
  out.reserve(kNetFrameHeaderSize + body.size());
  AppendU32(&out, magic);
  AppendU32(&out, static_cast<uint32_t>(body.size()));
  AppendU32(&out, crc);
  out.append(body.data(), body.size());
  return out;
}

}  // namespace

std::string EncodeRequestFrame(const NetRequest& request) {
  TraceContext ctx;
  ctx.trace_id = request.trace_id;
  ctx.parent_span_id = request.parent_span_id;
  ctx.sampled = request.trace_sampled;
  return EncodeRequestFrame(request, ctx);
}

std::string EncodeRequestFrame(const NetRequest& request,
                               const TraceContext& ctx) {
  BufferWriter body;
  uint8_t type = static_cast<uint8_t>(request.type);
  if (ctx.active()) type |= kNetTraceFlag;
  body.WriteU8(type);
  body.WriteU64(request.request_id);
  body.WriteU64(request.have_version);
  if (ctx.active()) {
    body.WriteU64(ctx.trace_id);
    body.WriteU64(ctx.parent_span_id);
    body.WriteU8(ctx.sampled ? kNetTraceSampledBit : 0);
  }
  switch (request.type) {
    case NetRequestType::kPing:
      break;
    case NetRequestType::kGetTile:
      body.WriteI32(request.tile.x);
      body.WriteI32(request.tile.y);
      break;
    case NetRequestType::kGetRegion:
      body.WriteF64(request.box.min.x);
      body.WriteF64(request.box.min.y);
      body.WriteF64(request.box.max.x);
      body.WriteF64(request.box.max.y);
      break;
    case NetRequestType::kReplicate:
    case NetRequestType::kCatchUp:
      break;  // Opaque payload appended below (raw, not length-prefixed).
    case NetRequestType::kStats:
      body.WriteU8(static_cast<uint8_t>(request.stats_format));
      body.WriteU32(request.stats_max_events);
      break;
  }
  std::string bytes = body.Release();
  if (request.type == NetRequestType::kReplicate ||
      request.type == NetRequestType::kCatchUp) {
    bytes.append(request.payload);
  }
  return WrapBody(kNetRequestMagic, bytes, Crc32(bytes));
}

std::string EncodeResponseFrame(NetResponseCode code, StatusCode status,
                                uint64_t request_id, uint64_t version,
                                std::string_view payload) {
  BufferWriter meta;
  meta.WriteU8(static_cast<uint8_t>(code));
  meta.WriteU8(static_cast<uint8_t>(status));
  meta.WriteU64(request_id);
  meta.WriteU64(version);
  std::string out;
  out.reserve(kNetFrameHeaderSize + meta.size() + payload.size());
  AppendU32(&out, kNetResponseMagic);
  AppendU32(&out, static_cast<uint32_t>(meta.size() + payload.size()));
  AppendU32(&out, Crc32(meta.buffer()));
  out.append(meta.buffer());
  out.append(payload.data(), payload.size());
  return out;
}

FrameParse ExtractFrame(std::string_view buffer, uint32_t expected_magic,
                        size_t max_body, size_t* frame_size,
                        std::string_view* body) {
  if (buffer.size() < sizeof(uint32_t)) return FrameParse::kNeedMore;
  if (ReadU32At(buffer, 0) != expected_magic) return FrameParse::kViolation;
  if (buffer.size() < kNetFrameHeaderSize) return FrameParse::kNeedMore;
  uint32_t body_len = ReadU32At(buffer, 4);
  if (body_len > max_body) return FrameParse::kViolation;
  size_t total = kNetFrameHeaderSize + body_len;
  if (buffer.size() < total) return FrameParse::kNeedMore;
  *frame_size = total;
  *body = buffer.substr(kNetFrameHeaderSize, body_len);
  return FrameParse::kFrame;
}

Result<NetRequest> DecodeRequestBody(std::string_view body,
                                     uint32_t header_crc) {
  if (Crc32(body) != header_crc) {
    return Status::DataLoss("request body CRC mismatch");
  }
  BufferReader reader(body);
  NetRequest request;
  uint8_t raw_type = reader.ReadU8();
  bool traced = (raw_type & kNetTraceFlag) != 0;
  uint8_t type = raw_type & kNetTypeMask;
  request.request_id = reader.ReadU64();
  request.have_version = reader.ReadU64();
  if (traced) {
    request.trace_id = reader.ReadU64();
    request.parent_span_id = reader.ReadU64();
    request.trace_sampled = (reader.ReadU8() & kNetTraceSampledBit) != 0;
  }
  switch (type) {
    case static_cast<uint8_t>(NetRequestType::kPing):
      request.type = NetRequestType::kPing;
      break;
    case static_cast<uint8_t>(NetRequestType::kGetTile):
      request.type = NetRequestType::kGetTile;
      request.tile.x = reader.ReadI32();
      request.tile.y = reader.ReadI32();
      break;
    case static_cast<uint8_t>(NetRequestType::kGetRegion):
      request.type = NetRequestType::kGetRegion;
      request.box.min.x = reader.ReadF64();
      request.box.min.y = reader.ReadF64();
      request.box.max.x = reader.ReadF64();
      request.box.max.y = reader.ReadF64();
      break;
    case static_cast<uint8_t>(NetRequestType::kReplicate):
    case static_cast<uint8_t>(NetRequestType::kCatchUp): {
      // The rest of the body is the opaque replication payload; the
      // frame's body CRC (checked above) already covers it.
      request.type = static_cast<NetRequestType>(type);
      if (!reader.ok()) return reader.status();
      size_t prefix = 1 + sizeof(uint64_t) + sizeof(uint64_t) +
                      (traced ? kNetTraceBlockSize : 0);
      request.payload = std::string(body.substr(prefix));
      return request;
    }
    case static_cast<uint8_t>(NetRequestType::kStats): {
      request.type = NetRequestType::kStats;
      uint8_t format = reader.ReadU8();
      request.stats_max_events = reader.ReadU32();
      if (format > static_cast<uint8_t>(NetStatsFormat::kPrometheus)) {
        return Status::InvalidArgument("unknown stats format " +
                                       std::to_string(format));
      }
      request.stats_format = static_cast<NetStatsFormat>(format);
      break;
    }
    default:
      return Status::InvalidArgument("unknown request type " +
                                     std::to_string(type));
  }
  if (!reader.ok()) return reader.status();
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after request args");
  }
  return request;
}

Result<NetResponse> DecodeResponseBody(std::string_view body,
                                       uint32_t header_crc) {
  if (body.size() < kNetResponseMetaSize) {
    return Status::DataLoss("response meta truncated");
  }
  if (Crc32(body.substr(0, kNetResponseMetaSize)) != header_crc) {
    return Status::DataLoss("response meta CRC mismatch");
  }
  BufferReader reader(body);
  NetResponse response;
  uint8_t code = reader.ReadU8();
  uint8_t status = reader.ReadU8();
  response.request_id = reader.ReadU64();
  response.version = reader.ReadU64();
  if (code > static_cast<uint8_t>(NetResponseCode::kError)) {
    return Status::DataLoss("unknown response code " + std::to_string(code));
  }
  if (status > static_cast<uint8_t>(StatusCode::kDataLoss)) {
    return Status::DataLoss("unknown status code " + std::to_string(status));
  }
  response.code = static_cast<NetResponseCode>(code);
  response.status = static_cast<StatusCode>(status);
  response.payload = std::string(body.substr(kNetResponseMetaSize));
  return response;
}

std::string EncodeDeltaPayload(const std::vector<std::string>& patches) {
  BufferWriter writer;
  writer.WriteU32(static_cast<uint32_t>(patches.size()));
  for (const std::string& patch : patches) writer.WriteString(patch);
  return writer.Release();
}

Result<std::vector<std::string>> DecodeDeltaPayload(
    std::string_view payload) {
  BufferReader reader(payload);
  uint32_t count = reader.ReadU32();
  if (!reader.CheckCount(count, sizeof(uint32_t))) return reader.status();
  std::vector<std::string> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) out.push_back(reader.ReadString());
  if (!reader.ok()) return reader.status();
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes after delta payload");
  }
  return out;
}

}  // namespace hdmap
