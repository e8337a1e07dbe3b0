#ifndef HDMAP_CORE_TILE_VIEW_H_
#define HDMAP_CORE_TILE_VIEW_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/elements.h"
#include "core/hd_map.h"
#include "core/ids.h"
#include "core/pinned_bytes.h"
#include "geometry/line_string.h"
#include "geometry/vec2.h"
#include "geometry/vec3.h"

namespace hdmap {

// ---------------------------------------------------------------------------
// Tile format v3: an offset-table layout where the wire-framed bytes ARE
// the queryable representation. The payload (inside the standard CRC32
// wire frame) is:
//
//   header   u32 magic "HDM3" | u32 version=3 | u32 num_sections=7 |
//            u32 reserved | 7 x {u32 count, u32 offset, u32 length} |
//            4 pad bytes  -> 104 bytes, 8-aligned end
//   sections landmarks, line_features, area_features, lanelets,
//            regulatory_elements, lane_bundles, map_nodes — strictly
//            contiguous, in that order, covering the rest of the payload
//
// Each section is a slot table of (count+1) u32 element-start offsets
// (off[0] == 0, strictly non-decreasing, relative to the section's data
// base) padded to an 8-byte boundary, followed by the element records.
// Every record size is a multiple of 8, so all fixed-width fields inside
// records sit at their natural alignment (loads still go through memcpy:
// the payload itself — e.g. an mmap'd checkpoint at an arbitrary file
// offset — is only guaranteed 8-aligned relative to the payload start).
//
// TileView::Create validates the whole structure in one O(elements)
// header pass — section contiguity, offset monotonicity, exact record
// sizes against the counts in each record's fixed header, strictly
// ascending ids per section — and fails closed (kDataLoss) on any
// violation. After Create succeeds, every accessor is a bounds-safe
// pointer offset: no per-read validation, no allocation, no copy.
// ---------------------------------------------------------------------------

/// Payload magic "HDM3" (little-endian), distinct from the v1 full
/// ("HDMF") and compact ("HDMC") magics so DeserializeMap can dispatch.
inline constexpr uint32_t kTileV3Magic = 0x334D4448;
inline constexpr uint32_t kTileV3Version = 3;

/// Encodes `map` as a framed v3 tile. Byte-deterministic: output is a
/// pure function of the map contents (elements iterate in id order).
std::string EncodeTileV3(const HdMap& map);

/// Whether TileView::Create re-verifies the frame CRC32. kTrust skips the
/// checksum (structural validation still runs) — only for bytes verified
/// once per generation and immutable since, e.g. an mmap'd checkpoint
/// that was CRC-checked when the generation was opened.
enum class FrameChecksum { kVerify, kTrust };

/// In-place view of a packed little-endian array (i64 ids, f64 scalars).
/// Reads go through memcpy — safe at any alignment, UBSan-clean.
template <typename T>
class PackedView {
 public:
  PackedView() = default;
  PackedView(const uint8_t* data, size_t count) : data_(data), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  T operator[](size_t i) const {
    T v;
    std::memcpy(&v, data_ + i * sizeof(T), sizeof(T));
    return v;
  }

  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(count_);
    for (size_t i = 0; i < count_; ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t count_ = 0;
};

/// In-place view of a packed polyline: `count` (f64 x, f64 y) pairs.
class PolylineView {
 public:
  PolylineView() = default;
  PolylineView(const uint8_t* data, size_t count) : data_(data), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  Vec2 operator[](size_t i) const {
    double x, y;
    std::memcpy(&x, data_ + i * 16, sizeof(x));
    std::memcpy(&y, data_ + i * 16 + 8, sizeof(y));
    return {x, y};
  }

  Vec2 front() const { return (*this)[0]; }
  Vec2 back() const { return (*this)[count_ - 1]; }

  std::vector<Vec2> ToPoints() const;
  LineString ToLineString() const { return LineString(ToPoints()); }

 private:
  const uint8_t* data_ = nullptr;
  size_t count_ = 0;
};

// Element views: zero-size-state accessors over one validated record.
// Field offsets are fixed by the format (see tile_view.cc layout notes).

class LandmarkView {
 public:
  ElementId id() const;
  LandmarkType type() const;
  Vec3 position() const;
  double reflectivity() const;
  std::string_view subtype() const;
  Landmark Materialize() const;

 private:
  friend class TileView;
  explicit LandmarkView(const uint8_t* rec) : rec_(rec) {}
  const uint8_t* rec_;
};

class LineFeatureView {
 public:
  ElementId id() const;
  LineType type() const;
  double reflectivity() const;
  PolylineView geometry() const;
  size_t num_survey_points() const;
  Vec3 survey_point(size_t i) const;  // Stored as 3 x f32, like v1.
  LineFeature Materialize() const;

 private:
  friend class TileView;
  explicit LineFeatureView(const uint8_t* rec) : rec_(rec) {}
  const uint8_t* rec_;
};

class AreaFeatureView {
 public:
  ElementId id() const;
  AreaType type() const;
  PolylineView vertices() const;
  AreaFeature Materialize() const;

 private:
  friend class TileView;
  explicit AreaFeatureView(const uint8_t* rec) : rec_(rec) {}
  const uint8_t* rec_;
};

class LaneletView {
 public:
  ElementId id() const;
  ElementId left_boundary_id() const;
  ElementId right_boundary_id() const;
  ElementId left_neighbor() const;
  ElementId right_neighbor() const;
  ElementId bundle_id() const;
  double speed_limit_mps() const;
  PolylineView centerline() const;
  PackedView<double> elevation_profile() const;
  PackedView<ElementId> successors() const;
  PackedView<ElementId> predecessors() const;
  PackedView<ElementId> regulatory_ids() const;
  Lanelet Materialize() const;

 private:
  friend class TileView;
  explicit LaneletView(const uint8_t* rec) : rec_(rec) {}
  const uint8_t* rec_;
};

class RegulatoryElementView {
 public:
  ElementId id() const;
  RegulatoryType type() const;
  double speed_limit_mps() const;
  ElementId anchor_id() const;
  PackedView<ElementId> lanelet_ids() const;
  RegulatoryElement Materialize() const;

 private:
  friend class TileView;
  explicit RegulatoryElementView(const uint8_t* rec) : rec_(rec) {}
  const uint8_t* rec_;
};

class LaneBundleView {
 public:
  ElementId id() const;
  ElementId from_node() const;
  ElementId to_node() const;
  PackedView<ElementId> lanelet_ids() const;
  LaneBundle Materialize() const;

 private:
  friend class TileView;
  explicit LaneBundleView(const uint8_t* rec) : rec_(rec) {}
  const uint8_t* rec_;
};

class MapNodeView {
 public:
  ElementId id() const;
  Vec2 position() const;
  PackedView<ElementId> bundle_ids() const;
  MapNode Materialize() const;

 private:
  friend class TileView;
  explicit MapNodeView(const uint8_t* rec) : rec_(rec) {}
  const uint8_t* rec_;
};

/// Read API over one v3 tile. A TileView does NOT own the bytes it
/// reads: the caller keeps the backing buffer alive for the view's
/// lifetime (pair with PinnedBytes — see PinnedTileView — when the
/// buffer's lifetime is shared). Copying a TileView is free.
class TileView {
 public:
  /// Empty view (all counts 0). Useful as a member default; Create is
  /// the only way to get a view over actual bytes.
  TileView() = default;

  /// Validates `bytes` — a wire-framed v3 tile (EncodeTileV3 output) —
  /// and returns a view over it. kDataLoss on any structural violation
  /// (fail closed: a successful Create guarantees every subsequent
  /// accessor stays in bounds). With FrameChecksum::kVerify (default)
  /// the frame CRC is checked too; kTrust skips only the checksum.
  static Result<TileView> Create(std::span<const uint8_t> bytes,
                                 FrameChecksum checksum = FrameChecksum::kVerify);
  static Result<TileView> Create(std::string_view bytes,
                                 FrameChecksum checksum = FrameChecksum::kVerify);

  size_t num_landmarks() const { return sections_[0].count; }
  size_t num_line_features() const { return sections_[1].count; }
  size_t num_area_features() const { return sections_[2].count; }
  size_t num_lanelets() const { return sections_[3].count; }
  size_t num_regulatory_elements() const { return sections_[4].count; }
  size_t num_lane_bundles() const { return sections_[5].count; }
  size_t num_map_nodes() const { return sections_[6].count; }
  size_t NumElements() const;

  LandmarkView landmark(size_t i) const { return LandmarkView(Slot(0, i)); }
  LineFeatureView line_feature(size_t i) const {
    return LineFeatureView(Slot(1, i));
  }
  AreaFeatureView area_feature(size_t i) const {
    return AreaFeatureView(Slot(2, i));
  }
  LaneletView lanelet(size_t i) const { return LaneletView(Slot(3, i)); }
  RegulatoryElementView regulatory_element(size_t i) const {
    return RegulatoryElementView(Slot(4, i));
  }
  LaneBundleView lane_bundle(size_t i) const {
    return LaneBundleView(Slot(5, i));
  }
  MapNodeView map_node(size_t i) const { return MapNodeView(Slot(6, i)); }

  /// Binary search by id (records are validated strictly ascending).
  std::optional<LaneletView> FindLanelet(ElementId id) const;
  std::optional<LandmarkView> FindLandmark(ElementId id) const;
  std::optional<LineFeatureView> FindLineFeature(ElementId id) const;

  /// Full decode into a heap HdMap — the residual path for callers that
  /// need mutation or spatial indexes. Equivalent to DeserializeMap on
  /// the SerializeMap encoding of the same map.
  Result<HdMap> Materialize() const;

 private:
  struct Section {
    uint32_t count = 0;
    const uint8_t* table = nullptr;  // (count+1) u32 slot offsets.
    const uint8_t* data = nullptr;   // Element records.
  };

  const uint8_t* Slot(size_t section, size_t i) const {
    const Section& s = sections_[section];
    uint32_t off;
    std::memcpy(&off, s.table + i * 4, sizeof(off));
    return s.data + off;
  }

  Section sections_[7];
};

/// A TileView bundled with the pin that keeps its bytes alive. This is
/// what the zero-copy read paths hand out: hold the PinnedTileView and
/// the view stays valid across tile replaces, snapshot swaps, and
/// checkpoint retention-deletes (see PinnedBytes).
struct PinnedTileView {
  PinnedBytes bytes;
  TileView view;
};

}  // namespace hdmap

#endif  // HDMAP_CORE_TILE_VIEW_H_
