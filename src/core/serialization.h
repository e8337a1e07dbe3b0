#ifndef HDMAP_CORE_SERIALIZATION_H_
#define HDMAP_CORE_SERIALIZATION_H_

#include <string>

#include "common/result.h"
#include "core/hd_map.h"
#include "core/map_patch.h"

namespace hdmap {

// Wire format note: all three serializers emit their payload inside a
// CRC32-protected frame (core/wire_frame.h), so truncation, bit flips,
// and splices anywhere in the buffer are detected as kDataLoss at decode
// time. The deserializers accept framed input only: a bare payload is
// kDataLoss. Framing adds a fixed 16-byte header and is deterministic:
// byte-identical inputs produce byte-identical framed outputs.

/// Full-fidelity binary serialization of an HdMap (all layers, double
/// precision, including dense survey payloads attached by the creation
/// pipelines). This is the "conventional HD map" representation whose
/// size Pannen et al. [44] report at ~10 MB/mile.
std::string SerializeMap(const HdMap& map);

/// Inverse of SerializeMap. Also decodes a framed v3 tile (EncodeTileV3
/// output, e.g. a GetRegion reply), dispatching on the payload magic.
Result<HdMap> DeserializeMap(std::string_view data);

/// Options for the compact vector-map encoding (Li et al. [60]): keep
/// lane topology, speed limits, and signs; simplify geometry and quantize
/// to centimeter deltas; drop dense survey payloads entirely.
struct CompactMapOptions {
  /// Douglas-Peucker tolerance applied to polylines before encoding.
  double simplify_tolerance = 0.05;  // meters
  /// Quantization step for delta-encoded coordinates.
  double quantum = 0.01;  // meters (centimeter grid)
};

/// Compact, navigation-sufficient encoding (two orders of magnitude
/// smaller than SerializeMap on survey-carrying maps).
std::string SerializeCompactMap(const HdMap& map,
                                const CompactMapOptions& options = {});

/// Decodes a compact map. Geometry is reconstructed to within the
/// quantization error; survey payloads are absent.
Result<HdMap> DeserializeCompactMap(std::string_view data);

/// Serializes a map changeset — the payload a vehicle/RSU uploads and a
/// map service broadcasts as an incremental update.
std::string SerializePatch(const MapPatch& patch);

/// Inverse of SerializePatch.
Result<MapPatch> DeserializePatch(std::string_view data);

}  // namespace hdmap

#endif  // HDMAP_CORE_SERIALIZATION_H_
