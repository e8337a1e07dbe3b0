#include "core/tile_view.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/arena.h"
#include "core/wire_frame.h"

namespace hdmap {

// Record layouts (all offsets in bytes, all fields little-endian, every
// record size a multiple of 8):
//
//   Landmark    0:i64 id | 8,16,24:f64 x,y,z | 32:f64 reflectivity |
//               40:u32 type | 44:u32 subtype_len | 48: subtype bytes,
//               zero-padded to 8  -> 48 + align8(subtype_len)
//   LineFeature 0:i64 id | 8:f64 reflectivity | 16:u32 type |
//               20:u32 n_points | 24:u32 n_survey | 28:u32 pad |
//               32: points n x (f64,f64) | survey n x (f32,f32,f32),
//               zero-padded to 8  -> 32 + 16*np + align8(12*ns)
//   AreaFeature 0:i64 id | 8:u32 type | 12:u32 n_vertices |
//               16: vertices n x (f64,f64)  -> 16 + 16*n
//   Lanelet     0:i64 id | 8:i64 left_boundary | 16:i64 right_boundary |
//               24:i64 left_neighbor | 32:i64 right_neighbor |
//               40:i64 bundle | 48:f64 speed_limit | 56:u32 n_centerline |
//               60:u32 n_elevation | 64:u32 n_successors |
//               68:u32 n_predecessors | 72:u32 n_regulatory | 76:u32 pad |
//               80: centerline nc x (f64,f64) | elevation ne x f64 |
//               successors ns x i64 | predecessors np x i64 |
//               regulatory nr x i64  -> 80 + 16*nc + 8*(ne+ns+np+nr)
//   Regulatory  0:i64 id | 8:f64 speed_limit | 16:i64 anchor |
//               24:u32 type | 28:u32 n_lanelets | 32: ids n x i64
//   LaneBundle  0:i64 id | 8:i64 from_node | 16:i64 to_node | 24:u32 n |
//               28:u32 pad | 32: ids n x i64
//   MapNode     0:i64 id | 8:f64 x | 16:f64 y | 24:u32 n | 28:u32 pad |
//               32: ids n x i64

namespace {

constexpr size_t kHeaderSize = 104;  // 16 fixed + 7*12 directory + 4 pad.
constexpr size_t kNumSections = 7;

constexpr uint64_t Align8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

int64_t LoadI64(const uint8_t* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double LoadF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

float LoadF32(const uint8_t* p) {
  float v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// --- Encoder ---------------------------------------------------------------

void AppendU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendI64(std::string& out, int64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendF64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendF32(std::string& out, float v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PadTo8(std::string& out, size_t base) {
  size_t rel = out.size() - base;
  out.append(Align8(rel) - rel, '\0');
}

uint64_t LandmarkWireSize(const Landmark& lm) {
  return 48 + Align8(lm.subtype.size());
}
uint64_t LineFeatureWireSize(const LineFeature& lf) {
  return 32 + 16 * uint64_t{lf.geometry.size()} +
         Align8(12 * uint64_t{lf.survey_points.size()});
}
uint64_t AreaFeatureWireSize(const AreaFeature& af) {
  return 16 + 16 * uint64_t{af.geometry.size()};
}
uint64_t LaneletWireSize(const Lanelet& ll) {
  return 80 + 16 * uint64_t{ll.centerline.size()} +
         8 * (uint64_t{ll.elevation_profile.size()} + ll.successors.size() +
              ll.predecessors.size() + ll.regulatory_ids.size());
}
uint64_t RegulatoryWireSize(const RegulatoryElement& reg) {
  return 32 + 8 * uint64_t{reg.lanelet_ids.size()};
}
uint64_t LaneBundleWireSize(const LaneBundle& b) {
  return 32 + 8 * uint64_t{b.lanelet_ids.size()};
}
uint64_t MapNodeWireSize(const MapNode& n) {
  return 32 + 8 * uint64_t{n.bundle_ids.size()};
}

void AppendLandmark(std::string& out, const Landmark& lm) {
  size_t base = out.size();
  AppendI64(out, lm.id);
  AppendF64(out, lm.position.x);
  AppendF64(out, lm.position.y);
  AppendF64(out, lm.position.z);
  AppendF64(out, lm.reflectivity);
  AppendU32(out, static_cast<uint32_t>(lm.type));
  AppendU32(out, static_cast<uint32_t>(lm.subtype.size()));
  out.append(lm.subtype);
  PadTo8(out, base);
}

void AppendLineFeature(std::string& out, const LineFeature& lf) {
  size_t base = out.size();
  AppendI64(out, lf.id);
  AppendF64(out, lf.reflectivity);
  AppendU32(out, static_cast<uint32_t>(lf.type));
  AppendU32(out, static_cast<uint32_t>(lf.geometry.size()));
  AppendU32(out, static_cast<uint32_t>(lf.survey_points.size()));
  AppendU32(out, 0);
  for (const Vec2& p : lf.geometry.points()) {
    AppendF64(out, p.x);
    AppendF64(out, p.y);
  }
  for (const Vec3& p : lf.survey_points) {
    AppendF32(out, static_cast<float>(p.x));
    AppendF32(out, static_cast<float>(p.y));
    AppendF32(out, static_cast<float>(p.z));
  }
  PadTo8(out, base);
}

void AppendAreaFeature(std::string& out, const AreaFeature& af) {
  AppendI64(out, af.id);
  AppendU32(out, static_cast<uint32_t>(af.type));
  AppendU32(out, static_cast<uint32_t>(af.geometry.size()));
  for (const Vec2& p : af.geometry.vertices()) {
    AppendF64(out, p.x);
    AppendF64(out, p.y);
  }
}

void AppendIdArray(std::string& out, const std::vector<ElementId>& ids) {
  for (ElementId id : ids) AppendI64(out, id);
}

void AppendLanelet(std::string& out, const Lanelet& ll) {
  AppendI64(out, ll.id);
  AppendI64(out, ll.left_boundary_id);
  AppendI64(out, ll.right_boundary_id);
  AppendI64(out, ll.left_neighbor);
  AppendI64(out, ll.right_neighbor);
  AppendI64(out, ll.bundle_id);
  AppendF64(out, ll.speed_limit_mps);
  AppendU32(out, static_cast<uint32_t>(ll.centerline.size()));
  AppendU32(out, static_cast<uint32_t>(ll.elevation_profile.size()));
  AppendU32(out, static_cast<uint32_t>(ll.successors.size()));
  AppendU32(out, static_cast<uint32_t>(ll.predecessors.size()));
  AppendU32(out, static_cast<uint32_t>(ll.regulatory_ids.size()));
  AppendU32(out, 0);
  for (const Vec2& p : ll.centerline.points()) {
    AppendF64(out, p.x);
    AppendF64(out, p.y);
  }
  for (double e : ll.elevation_profile) AppendF64(out, e);
  AppendIdArray(out, ll.successors);
  AppendIdArray(out, ll.predecessors);
  AppendIdArray(out, ll.regulatory_ids);
}

void AppendRegulatory(std::string& out, const RegulatoryElement& reg) {
  AppendI64(out, reg.id);
  AppendF64(out, reg.speed_limit_mps);
  AppendI64(out, reg.anchor_id);
  AppendU32(out, static_cast<uint32_t>(reg.type));
  AppendU32(out, static_cast<uint32_t>(reg.lanelet_ids.size()));
  AppendIdArray(out, reg.lanelet_ids);
}

void AppendLaneBundle(std::string& out, const LaneBundle& b) {
  AppendI64(out, b.id);
  AppendI64(out, b.from_node);
  AppendI64(out, b.to_node);
  AppendU32(out, static_cast<uint32_t>(b.lanelet_ids.size()));
  AppendU32(out, 0);
  AppendIdArray(out, b.lanelet_ids);
}

void AppendMapNode(std::string& out, const MapNode& n) {
  AppendI64(out, n.id);
  AppendF64(out, n.position.x);
  AppendF64(out, n.position.y);
  AppendU32(out, static_cast<uint32_t>(n.bundle_ids.size()));
  AppendU32(out, 0);
  AppendIdArray(out, n.bundle_ids);
}

/// Encodes one section: slot table (scratch offsets live on `arena`, not
/// the global allocator), 8-byte pad, then the records. Returns
/// {count, offset, length} for the header directory.
template <typename Map, typename SizeFn, typename AppendFn>
std::array<uint32_t, 3> EncodeSection(std::string& out, Arena& arena,
                                      const Map& elements, SizeFn wire_size,
                                      AppendFn append) {
  uint32_t count = static_cast<uint32_t>(elements.size());
  uint32_t section_offset = static_cast<uint32_t>(out.size());

  using OffsetVec = std::vector<uint32_t, ArenaAllocator<uint32_t>>;
  OffsetVec offsets{ArenaAllocator<uint32_t>(&arena)};
  offsets.reserve(count + 1);
  uint64_t running = 0;
  offsets.push_back(0);
  for (const auto& [id, element] : elements) {
    running += wire_size(element);
    offsets.push_back(static_cast<uint32_t>(running));
  }

  size_t table_base = out.size();
  for (uint32_t off : offsets) AppendU32(out, off);
  PadTo8(out, table_base);

  for (const auto& [id, element] : elements) append(out, element);

  return {count, section_offset, static_cast<uint32_t>(out.size()) -
                                     section_offset};
}

// --- Validator -------------------------------------------------------------

/// One validated section: bounds-checks the slot table and every record
/// against `payload`, then records base pointers for the accessors.
struct SectionSpec {
  uint32_t count;
  uint32_t offset;
  uint32_t length;
};

Status SectionError(size_t index, const std::string& what) {
  return Status::DataLoss("tile v3 section " + std::to_string(index) + ": " +
                          what);
}

/// Exact wire size a record must have, derived from the counts in its
/// fixed header. `slot_size` has already been checked >= the fixed size.
uint64_t ExpectedRecordSize(size_t section, const uint8_t* rec) {
  switch (section) {
    case 0:  // Landmark.
      return 48 + Align8(LoadU32(rec + 44));
    case 1:  // LineFeature.
      return 32 + 16 * uint64_t{LoadU32(rec + 20)} +
             Align8(12 * uint64_t{LoadU32(rec + 24)});
    case 2:  // AreaFeature.
      return 16 + 16 * uint64_t{LoadU32(rec + 12)};
    case 3:  // Lanelet.
      return 80 + 16 * uint64_t{LoadU32(rec + 56)} +
             8 * (uint64_t{LoadU32(rec + 60)} + LoadU32(rec + 64) +
                  LoadU32(rec + 68) + LoadU32(rec + 72));
    case 4:  // RegulatoryElement.
      return 32 + 8 * uint64_t{LoadU32(rec + 28)};
    case 5:  // LaneBundle.
    case 6:  // MapNode.
      return 32 + 8 * uint64_t{LoadU32(rec + 24)};
    default:
      return 0;
  }
}

/// Minimum record size per section: the fixed-field prefix that
/// ExpectedRecordSize reads its counts from.
constexpr uint64_t kFixedRecordSize[kNumSections] = {48, 32, 16, 80,
                                                     32, 32, 32};

}  // namespace

// --- Public encoder --------------------------------------------------------

std::string EncodeTileV3(const HdMap& map) {
  std::string payload;
  payload.reserve(1024);
  payload.resize(kHeaderSize, '\0');

  Arena arena;
  std::array<std::array<uint32_t, 3>, kNumSections> directory;
  directory[0] = EncodeSection(payload, arena, map.landmarks(),
                               LandmarkWireSize, AppendLandmark);
  directory[1] = EncodeSection(payload, arena, map.line_features(),
                               LineFeatureWireSize, AppendLineFeature);
  directory[2] = EncodeSection(payload, arena, map.area_features(),
                               AreaFeatureWireSize, AppendAreaFeature);
  directory[3] = EncodeSection(payload, arena, map.lanelets(),
                               LaneletWireSize, AppendLanelet);
  directory[4] = EncodeSection(payload, arena, map.regulatory_elements(),
                               RegulatoryWireSize, AppendRegulatory);
  directory[5] = EncodeSection(payload, arena, map.lane_bundles(),
                               LaneBundleWireSize, AppendLaneBundle);
  directory[6] = EncodeSection(payload, arena, map.map_nodes(),
                               MapNodeWireSize, AppendMapNode);

  // Patch the header in place now that section extents are known.
  std::string header;
  header.reserve(kHeaderSize);
  AppendU32(header, kTileV3Magic);
  AppendU32(header, kTileV3Version);
  AppendU32(header, static_cast<uint32_t>(kNumSections));
  AppendU32(header, 0);  // Reserved.
  for (const auto& [count, offset, length] : directory) {
    AppendU32(header, count);
    AppendU32(header, offset);
    AppendU32(header, length);
  }
  header.append(kHeaderSize - header.size(), '\0');
  payload.replace(0, kHeaderSize, header);

  return WrapFrame(payload);
}

// --- Public view -----------------------------------------------------------

Result<TileView> TileView::Create(std::string_view bytes,
                                  FrameChecksum checksum) {
  return Create(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(bytes.data()),
                               bytes.size()),
      checksum);
}

Result<TileView> TileView::Create(std::span<const uint8_t> bytes,
                                  FrameChecksum checksum) {
  std::string_view framed(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
  HDMAP_ASSIGN_OR_RETURN(std::string_view payload,
                         checksum == FrameChecksum::kVerify
                             ? UnwrapFrame(framed)
                             : UnwrapFrameTrusted(framed));

  const uint8_t* base = reinterpret_cast<const uint8_t*>(payload.data());
  const uint64_t size = payload.size();
  if (size < kHeaderSize) {
    return Status::DataLoss("tile v3 payload truncated: " +
                            std::to_string(size) + " bytes");
  }
  if (size > UINT32_MAX) {
    return Status::DataLoss("tile v3 payload exceeds 4 GiB");
  }
  if (LoadU32(base) != kTileV3Magic) {
    return Status::DataLoss("bad magic: not a v3 tile payload");
  }
  if (LoadU32(base + 4) != kTileV3Version) {
    return Status::DataLoss("unsupported tile v3 version " +
                            std::to_string(LoadU32(base + 4)));
  }
  if (LoadU32(base + 8) != kNumSections || LoadU32(base + 12) != 0) {
    return Status::DataLoss("tile v3 header: bad section count or reserved");
  }

  SectionSpec specs[kNumSections];
  for (size_t s = 0; s < kNumSections; ++s) {
    const uint8_t* dir = base + 16 + s * 12;
    specs[s] = {LoadU32(dir), LoadU32(dir + 4), LoadU32(dir + 8)};
  }

  // Sections must tile the payload after the header exactly, in order —
  // contiguity makes overlapping or dangling sections unrepresentable.
  uint64_t expected_offset = kHeaderSize;
  for (size_t s = 0; s < kNumSections; ++s) {
    if (specs[s].offset != expected_offset) {
      return SectionError(s, "offset " + std::to_string(specs[s].offset) +
                                 " breaks contiguity (expected " +
                                 std::to_string(expected_offset) + ")");
    }
    expected_offset += specs[s].length;  // u64: cannot overflow 2 u32s * 7.
  }
  if (expected_offset != size) {
    return Status::DataLoss("tile v3 sections cover " +
                            std::to_string(expected_offset) + " of " +
                            std::to_string(size) + " payload bytes");
  }

  TileView view;
  for (size_t s = 0; s < kNumSections; ++s) {
    const uint64_t count = specs[s].count;
    const uint64_t table_bytes = Align8((count + 1) * 4);
    if (table_bytes > specs[s].length) {
      return SectionError(s, "slot table truncated");
    }
    const uint8_t* table = base + specs[s].offset;
    const uint8_t* data = table + table_bytes;
    const uint64_t data_len = specs[s].length - table_bytes;

    // Slot offsets: start at 0, non-decreasing, end exactly at the
    // section's data length. Monotonicity + the exact-size check below
    // make every record a disjoint in-bounds slice.
    if (LoadU32(table) != 0) {
      return SectionError(s, "first slot offset not 0");
    }
    uint64_t prev = 0;
    for (uint64_t i = 1; i <= count; ++i) {
      uint64_t off = LoadU32(table + i * 4);
      if (off < prev) {
        return SectionError(s, "slot offsets not monotonic at index " +
                                   std::to_string(i));
      }
      prev = off;
    }
    if (prev != data_len) {
      return SectionError(s, "slot table ends at " + std::to_string(prev) +
                                 ", data region is " +
                                 std::to_string(data_len) + " bytes");
    }

    // Per-record: the slot must be exactly the size implied by the
    // counts in the record's fixed header, and ids strictly ascend.
    int64_t prev_id = INT64_MIN;
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t off = LoadU32(table + i * 4);
      const uint64_t slot_size = LoadU32(table + (i + 1) * 4) - off;
      if (slot_size < kFixedRecordSize[s]) {
        return SectionError(s, "record " + std::to_string(i) +
                                   " smaller than fixed header");
      }
      const uint8_t* rec = data + off;
      if (ExpectedRecordSize(s, rec) != slot_size) {
        return SectionError(s, "record " + std::to_string(i) +
                                   " size disagrees with its counts");
      }
      int64_t id = LoadI64(rec);
      if (id <= prev_id) {
        return SectionError(s, "ids not strictly ascending at record " +
                                   std::to_string(i));
      }
      prev_id = id;
    }

    view.sections_[s] = Section{specs[s].count, table, data};
  }
  return view;
}

size_t TileView::NumElements() const {
  size_t n = 0;
  for (const Section& s : sections_) n += s.count;
  return n;
}

namespace {

/// Binary search over a validated section's strictly ascending ids.
/// Returns the record index, or count when absent.
size_t FindRecord(const uint8_t* table, const uint8_t* data, size_t count,
                  ElementId id) {
  size_t lo = 0;
  size_t hi = count;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    ElementId mid_id = LoadI64(data + LoadU32(table + mid * 4));
    if (mid_id == id) return mid;
    if (mid_id < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return count;
}

}  // namespace

std::optional<LaneletView> TileView::FindLanelet(ElementId id) const {
  const Section& s = sections_[3];
  size_t i = FindRecord(s.table, s.data, s.count, id);
  if (i == s.count) return std::nullopt;
  return lanelet(i);
}

std::optional<LandmarkView> TileView::FindLandmark(ElementId id) const {
  const Section& s = sections_[0];
  size_t i = FindRecord(s.table, s.data, s.count, id);
  if (i == s.count) return std::nullopt;
  return landmark(i);
}

std::optional<LineFeatureView> TileView::FindLineFeature(ElementId id) const {
  const Section& s = sections_[1];
  size_t i = FindRecord(s.table, s.data, s.count, id);
  if (i == s.count) return std::nullopt;
  return line_feature(i);
}

Result<HdMap> TileView::Materialize() const {
  HdMap map;
  for (size_t i = 0; i < num_landmarks(); ++i) {
    HDMAP_RETURN_IF_ERROR(map.AddLandmark(landmark(i).Materialize()));
  }
  for (size_t i = 0; i < num_line_features(); ++i) {
    HDMAP_RETURN_IF_ERROR(map.AddLineFeature(line_feature(i).Materialize()));
  }
  for (size_t i = 0; i < num_area_features(); ++i) {
    HDMAP_RETURN_IF_ERROR(map.AddAreaFeature(area_feature(i).Materialize()));
  }
  for (size_t i = 0; i < num_lanelets(); ++i) {
    HDMAP_RETURN_IF_ERROR(map.AddLanelet(lanelet(i).Materialize()));
  }
  for (size_t i = 0; i < num_regulatory_elements(); ++i) {
    HDMAP_RETURN_IF_ERROR(
        map.AddRegulatoryElement(regulatory_element(i).Materialize()));
  }
  for (size_t i = 0; i < num_lane_bundles(); ++i) {
    HDMAP_RETURN_IF_ERROR(map.AddLaneBundle(lane_bundle(i).Materialize()));
  }
  for (size_t i = 0; i < num_map_nodes(); ++i) {
    HDMAP_RETURN_IF_ERROR(map.AddMapNode(map_node(i).Materialize()));
  }
  return map;
}

// --- Element view accessors ------------------------------------------------

std::vector<Vec2> PolylineView::ToPoints() const {
  std::vector<Vec2> pts;
  pts.reserve(count_);
  for (size_t i = 0; i < count_; ++i) pts.push_back((*this)[i]);
  return pts;
}

ElementId LandmarkView::id() const { return LoadI64(rec_); }
LandmarkType LandmarkView::type() const {
  return static_cast<LandmarkType>(LoadU32(rec_ + 40));
}
Vec3 LandmarkView::position() const {
  return {LoadF64(rec_ + 8), LoadF64(rec_ + 16), LoadF64(rec_ + 24)};
}
double LandmarkView::reflectivity() const { return LoadF64(rec_ + 32); }
std::string_view LandmarkView::subtype() const {
  return {reinterpret_cast<const char*>(rec_ + 48), LoadU32(rec_ + 44)};
}
Landmark LandmarkView::Materialize() const {
  Landmark lm;
  lm.id = id();
  lm.type = type();
  lm.position = position();
  lm.reflectivity = reflectivity();
  lm.subtype = std::string(subtype());
  return lm;
}

ElementId LineFeatureView::id() const { return LoadI64(rec_); }
LineType LineFeatureView::type() const {
  return static_cast<LineType>(LoadU32(rec_ + 16));
}
double LineFeatureView::reflectivity() const { return LoadF64(rec_ + 8); }
PolylineView LineFeatureView::geometry() const {
  return {rec_ + 32, LoadU32(rec_ + 20)};
}
size_t LineFeatureView::num_survey_points() const {
  return LoadU32(rec_ + 24);
}
Vec3 LineFeatureView::survey_point(size_t i) const {
  const uint8_t* p = rec_ + 32 + 16 * uint64_t{LoadU32(rec_ + 20)} + i * 12;
  return {LoadF32(p), LoadF32(p + 4), LoadF32(p + 8)};
}
LineFeature LineFeatureView::Materialize() const {
  LineFeature lf;
  lf.id = id();
  lf.type = type();
  lf.reflectivity = reflectivity();
  lf.geometry = geometry().ToLineString();
  size_t n = num_survey_points();
  lf.survey_points.reserve(n);
  for (size_t i = 0; i < n; ++i) lf.survey_points.push_back(survey_point(i));
  return lf;
}

ElementId AreaFeatureView::id() const { return LoadI64(rec_); }
AreaType AreaFeatureView::type() const {
  return static_cast<AreaType>(LoadU32(rec_ + 8));
}
PolylineView AreaFeatureView::vertices() const {
  return {rec_ + 16, LoadU32(rec_ + 12)};
}
AreaFeature AreaFeatureView::Materialize() const {
  AreaFeature af;
  af.id = id();
  af.type = type();
  af.geometry = Polygon(vertices().ToPoints());
  return af;
}

ElementId LaneletView::id() const { return LoadI64(rec_); }
ElementId LaneletView::left_boundary_id() const { return LoadI64(rec_ + 8); }
ElementId LaneletView::right_boundary_id() const {
  return LoadI64(rec_ + 16);
}
ElementId LaneletView::left_neighbor() const { return LoadI64(rec_ + 24); }
ElementId LaneletView::right_neighbor() const { return LoadI64(rec_ + 32); }
ElementId LaneletView::bundle_id() const { return LoadI64(rec_ + 40); }
double LaneletView::speed_limit_mps() const { return LoadF64(rec_ + 48); }
PolylineView LaneletView::centerline() const {
  return {rec_ + 80, LoadU32(rec_ + 56)};
}
PackedView<double> LaneletView::elevation_profile() const {
  return {rec_ + 80 + 16 * uint64_t{LoadU32(rec_ + 56)}, LoadU32(rec_ + 60)};
}
PackedView<ElementId> LaneletView::successors() const {
  return {rec_ + 80 + 16 * uint64_t{LoadU32(rec_ + 56)} +
              8 * uint64_t{LoadU32(rec_ + 60)},
          LoadU32(rec_ + 64)};
}
PackedView<ElementId> LaneletView::predecessors() const {
  return {rec_ + 80 + 16 * uint64_t{LoadU32(rec_ + 56)} +
              8 * (uint64_t{LoadU32(rec_ + 60)} + LoadU32(rec_ + 64)),
          LoadU32(rec_ + 68)};
}
PackedView<ElementId> LaneletView::regulatory_ids() const {
  return {rec_ + 80 + 16 * uint64_t{LoadU32(rec_ + 56)} +
              8 * (uint64_t{LoadU32(rec_ + 60)} + LoadU32(rec_ + 64) +
                   LoadU32(rec_ + 68)),
          LoadU32(rec_ + 72)};
}
Lanelet LaneletView::Materialize() const {
  Lanelet ll;
  ll.id = id();
  ll.left_boundary_id = left_boundary_id();
  ll.right_boundary_id = right_boundary_id();
  ll.left_neighbor = left_neighbor();
  ll.right_neighbor = right_neighbor();
  ll.bundle_id = bundle_id();
  ll.speed_limit_mps = speed_limit_mps();
  ll.centerline = centerline().ToLineString();
  ll.elevation_profile = elevation_profile().ToVector();
  ll.successors = successors().ToVector();
  ll.predecessors = predecessors().ToVector();
  ll.regulatory_ids = regulatory_ids().ToVector();
  return ll;
}

ElementId RegulatoryElementView::id() const { return LoadI64(rec_); }
RegulatoryType RegulatoryElementView::type() const {
  return static_cast<RegulatoryType>(LoadU32(rec_ + 24));
}
double RegulatoryElementView::speed_limit_mps() const {
  return LoadF64(rec_ + 8);
}
ElementId RegulatoryElementView::anchor_id() const {
  return LoadI64(rec_ + 16);
}
PackedView<ElementId> RegulatoryElementView::lanelet_ids() const {
  return {rec_ + 32, LoadU32(rec_ + 28)};
}
RegulatoryElement RegulatoryElementView::Materialize() const {
  RegulatoryElement reg;
  reg.id = id();
  reg.type = type();
  reg.speed_limit_mps = speed_limit_mps();
  reg.anchor_id = anchor_id();
  reg.lanelet_ids = lanelet_ids().ToVector();
  return reg;
}

ElementId LaneBundleView::id() const { return LoadI64(rec_); }
ElementId LaneBundleView::from_node() const { return LoadI64(rec_ + 8); }
ElementId LaneBundleView::to_node() const { return LoadI64(rec_ + 16); }
PackedView<ElementId> LaneBundleView::lanelet_ids() const {
  return {rec_ + 32, LoadU32(rec_ + 24)};
}
LaneBundle LaneBundleView::Materialize() const {
  LaneBundle b;
  b.id = id();
  b.from_node = from_node();
  b.to_node = to_node();
  b.lanelet_ids = lanelet_ids().ToVector();
  return b;
}

ElementId MapNodeView::id() const { return LoadI64(rec_); }
Vec2 MapNodeView::position() const {
  return {LoadF64(rec_ + 8), LoadF64(rec_ + 16)};
}
PackedView<ElementId> MapNodeView::bundle_ids() const {
  return {rec_ + 32, LoadU32(rec_ + 24)};
}
MapNode MapNodeView::Materialize() const {
  MapNode n;
  n.id = id();
  n.position = position();
  n.bundle_ids = bundle_ids().ToVector();
  return n;
}

}  // namespace hdmap
