#include "core/wire_frame.h"

#include <array>
#include <cstring>

namespace hdmap {

namespace {

// "HDFR" little-endian: distinct from every payload magic
// ("HDMF"/"HDMC"/"HDMP"/"HDM3"), so a bare payload never parses as a
// frame.
constexpr uint32_t kFrameMagic = 0x52464448;

// Slice-by-8 CRC tables: table[0] is the classic byte-at-a-time table;
// table[k][b] is the CRC contribution of byte b seen k positions earlier
// in an 8-byte chunk. Eight independent lookups replace the 8-iteration
// carry chain, so the kernel is limited by L1 loads, not by the serial
// dependency — the standard software formulation (Kounavis & Berry) that
// autovectorizes well and needs no CPU CRC instruction.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables =
    MakeCrcTables();

uint32_t ReadHeaderU32(std::string_view data, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

void AppendU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

uint32_t Crc32Bytewise(std::string_view data, uint32_t crc) {
  crc = ~crc;
  for (unsigned char byte : data) {
    crc = kCrcTables[0][(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32(std::string_view data, uint32_t crc) {
  crc = ~crc;
  const char* p = data.data();
  size_t n = data.size();
  // 8 bytes per iteration: fold the running CRC into the first word,
  // then combine eight independent table lookups. The u32 loads assume
  // little-endian byte order, like every other fixed-width field in the
  // wire format.
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = kCrcTables[7][lo & 0xFFu] ^ kCrcTables[6][(lo >> 8) & 0xFFu] ^
          kCrcTables[5][(lo >> 16) & 0xFFu] ^ kCrcTables[4][lo >> 24] ^
          kCrcTables[3][hi & 0xFFu] ^ kCrcTables[2][(hi >> 8) & 0xFFu] ^
          kCrcTables[1][(hi >> 16) & 0xFFu] ^ kCrcTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    crc = kCrcTables[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFFu] ^
          (crc >> 8);
  }
  return ~crc;
}

std::string WrapFrame(std::string_view payload) {
  std::string out;
  out.reserve(kWireFrameHeaderSize + payload.size());
  AppendU32(out, kFrameMagic);
  AppendU32(out, kWireFrameVersion);
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  AppendU32(out, Crc32(payload));
  out.append(payload.data(), payload.size());
  return out;
}

namespace {

Result<std::string_view> UnwrapFrameImpl(std::string_view data,
                                         bool verify_checksum) {
  if (data.size() < kWireFrameHeaderSize) {
    return Status::DataLoss("frame truncated: " +
                            std::to_string(data.size()) +
                            " bytes, header needs " +
                            std::to_string(kWireFrameHeaderSize));
  }
  if (ReadHeaderU32(data, 0) != kFrameMagic) {
    return Status::DataLoss("bad frame magic");
  }
  uint32_t version = ReadHeaderU32(data, 4);
  if (version != kWireFrameVersion) {
    return Status::DataLoss("unsupported frame version " +
                            std::to_string(version));
  }
  uint32_t length = ReadHeaderU32(data, 8);
  if (length != data.size() - kWireFrameHeaderSize) {
    return Status::DataLoss(
        "frame length mismatch: header claims " + std::to_string(length) +
        " payload bytes, buffer carries " +
        std::to_string(data.size() - kWireFrameHeaderSize));
  }
  std::string_view payload = data.substr(kWireFrameHeaderSize);
  if (verify_checksum) {
    uint32_t expected_crc = ReadHeaderU32(data, 12);
    uint32_t actual_crc = Crc32(payload);
    if (actual_crc != expected_crc) {
      return Status::DataLoss("frame checksum mismatch (payload corrupted)");
    }
  }
  return payload;
}

}  // namespace

Result<std::string_view> UnwrapFrame(std::string_view data) {
  return UnwrapFrameImpl(data, /*verify_checksum=*/true);
}

Result<std::string_view> UnwrapFrameTrusted(std::string_view data) {
  return UnwrapFrameImpl(data, /*verify_checksum=*/false);
}

}  // namespace hdmap
