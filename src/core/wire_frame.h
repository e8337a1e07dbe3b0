#ifndef HDMAP_CORE_WIRE_FRAME_H_
#define HDMAP_CORE_WIRE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace hdmap {

/// CRC32 (IEEE 802.3, reflected 0xEDB88320) of `data`. Pass a previous
/// return value as `crc` to checksum a logical payload split across
/// multiple buffers. Implemented with a slice-by-8 kernel (eight table
/// lookups per 8-byte chunk, no inter-byte dependency chain), which is
/// what makes the verify-once-then-serve-zero-copy read paths cheap on
/// multi-hundred-megabyte checkpoints.
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

/// Reference byte-at-a-time implementation. Same polynomial, same
/// result for every input — kept as the correctness oracle for the
/// slice-by-8 kernel (bench_micro_core's tier-2 CRC check compares the
/// two on random buffers and measures the speedup).
uint32_t Crc32Bytewise(std::string_view data, uint32_t crc = 0);

/// Size in bytes of the frame header prepended by WrapFrame: magic (u32),
/// frame version (u32), payload length (u32), payload CRC32 (u32), all
/// little-endian.
inline constexpr size_t kWireFrameHeaderSize = 16;

/// Current frame format version.
inline constexpr uint32_t kWireFrameVersion = 1;

/// Wraps `payload` in a checksummed frame: header (see
/// kWireFrameHeaderSize) followed by the payload bytes verbatim. The
/// output is a pure function of the payload, so framed serializations
/// stay byte-deterministic.
std::string WrapFrame(std::string_view payload);

/// Verifies `data` as a framed payload and returns a view of the payload
/// bytes (into `data`; no copy). kDataLoss when the header is truncated,
/// the magic or version is wrong, the payload length disagrees with the
/// buffer size, or the CRC32 does not match — i.e. on any truncation,
/// bit flip, or splice anywhere in the frame.
Result<std::string_view> UnwrapFrame(std::string_view data);

/// UnwrapFrame minus the checksum comparison: validates the header
/// (magic, version, length) and returns the payload view without
/// touching the payload bytes. For read paths that verified the CRC
/// once per generation (e.g. an mmap'd checkpoint at open) and then
/// serve the same immutable bytes zero-copy — re-hashing on every view
/// would defeat the point. Never use this on bytes that have not been
/// CRC-verified since they last changed.
Result<std::string_view> UnwrapFrameTrusted(std::string_view data);

}  // namespace hdmap

#endif  // HDMAP_CORE_WIRE_FRAME_H_
