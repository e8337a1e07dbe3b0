#include "core/serialization.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/binary_io.h"
#include "core/tile_view.h"
#include "core/wire_frame.h"

namespace hdmap {

namespace {

constexpr uint32_t kFullMagic = 0x48444d46;     // "HDMF"
constexpr uint32_t kCompactMagic = 0x48444d43;  // "HDMC"
constexpr uint32_t kVersion = 1;

void WriteLineString(BufferWriter& w, const LineString& ls) {
  w.WriteU32(static_cast<uint32_t>(ls.size()));
  for (const Vec2& p : ls.points()) {
    w.WriteF64(p.x);
    w.WriteF64(p.y);
  }
}

/// Validates an untrusted element count against the bytes actually
/// remaining in the buffer (`min_element_size` is a lower bound on the
/// wire size of one element) and only then reserves the full amount. A
/// flipped count byte latches kDataLoss on the reader — every decode
/// loop here conditions on r.ok(), so nothing allocates or spins.
template <typename T>
void GuardedReserve(BufferReader& r, std::vector<T>& v, uint32_t claimed,
                    size_t min_element_size) {
  if (r.CheckCount(claimed, min_element_size)) v.reserve(claimed);
}

LineString ReadLineString(BufferReader& r) {
  uint32_t n = r.ReadU32();
  std::vector<Vec2> pts;
  GuardedReserve(r, pts, n, 16);  // 2 x F64 per point.
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    double x = r.ReadF64();
    double y = r.ReadF64();
    pts.push_back({x, y});
  }
  return LineString(std::move(pts));
}

void WriteIds(BufferWriter& w, const std::vector<ElementId>& ids) {
  w.WriteU32(static_cast<uint32_t>(ids.size()));
  for (ElementId id : ids) w.WriteI64(id);
}

std::vector<ElementId> ReadIds(BufferReader& r) {
  uint32_t n = r.ReadU32();
  std::vector<ElementId> ids;
  GuardedReserve(r, ids, n, 8);  // I64 per id.
  for (uint32_t i = 0; i < n && r.ok(); ++i) ids.push_back(r.ReadI64());
  return ids;
}

// Element codecs shared by the full-map format and the patch format (the
// byte layout is the historical full-map one).

void WriteLanelet(BufferWriter& w, const Lanelet& ll) {
  w.WriteI64(ll.id);
  w.WriteI64(ll.left_boundary_id);
  w.WriteI64(ll.right_boundary_id);
  WriteLineString(w, ll.centerline);
  w.WriteU32(static_cast<uint32_t>(ll.elevation_profile.size()));
  for (double z : ll.elevation_profile) w.WriteF64(z);
  w.WriteF64(ll.speed_limit_mps);
  WriteIds(w, ll.successors);
  WriteIds(w, ll.predecessors);
  w.WriteI64(ll.left_neighbor);
  w.WriteI64(ll.right_neighbor);
  WriteIds(w, ll.regulatory_ids);
  w.WriteI64(ll.bundle_id);
}

Lanelet ReadLanelet(BufferReader& r) {
  Lanelet ll;
  ll.id = r.ReadI64();
  ll.left_boundary_id = r.ReadI64();
  ll.right_boundary_id = r.ReadI64();
  ll.centerline = ReadLineString(r);
  uint32_t nz = r.ReadU32();
  GuardedReserve(r, ll.elevation_profile, nz, 8);  // F64 per sample.
  for (uint32_t j = 0; j < nz && r.ok(); ++j) {
    ll.elevation_profile.push_back(r.ReadF64());
  }
  ll.speed_limit_mps = r.ReadF64();
  ll.successors = ReadIds(r);
  ll.predecessors = ReadIds(r);
  ll.left_neighbor = r.ReadI64();
  ll.right_neighbor = r.ReadI64();
  ll.regulatory_ids = ReadIds(r);
  ll.bundle_id = r.ReadI64();
  return ll;
}

void WriteRegulatoryElement(BufferWriter& w, const RegulatoryElement& reg) {
  w.WriteI64(reg.id);
  w.WriteU8(static_cast<uint8_t>(reg.type));
  w.WriteF64(reg.speed_limit_mps);
  w.WriteI64(reg.anchor_id);
  WriteIds(w, reg.lanelet_ids);
}

RegulatoryElement ReadRegulatoryElement(BufferReader& r) {
  RegulatoryElement reg;
  reg.id = r.ReadI64();
  reg.type = static_cast<RegulatoryType>(r.ReadU8());
  reg.speed_limit_mps = r.ReadF64();
  reg.anchor_id = r.ReadI64();
  reg.lanelet_ids = ReadIds(r);
  return reg;
}

/// Delta-encodes a polyline on a `quantum` grid: absolute first point
/// (int32 quanta), then int16 deltas with an escape for large jumps.
void WriteQuantizedLineString(BufferWriter& w, const LineString& ls,
                              double quantum) {
  w.WriteU32(static_cast<uint32_t>(ls.size()));
  int64_t prev_qx = 0;
  int64_t prev_qy = 0;
  bool first = true;
  for (const Vec2& p : ls.points()) {
    int64_t qx = static_cast<int64_t>(std::llround(p.x / quantum));
    int64_t qy = static_cast<int64_t>(std::llround(p.y / quantum));
    if (first) {
      w.WriteI32(static_cast<int32_t>(qx));
      w.WriteI32(static_cast<int32_t>(qy));
      first = false;
    } else {
      int64_t dx = qx - prev_qx;
      int64_t dy = qy - prev_qy;
      if (dx >= INT16_MIN && dx <= INT16_MAX && dy >= INT16_MIN &&
          dy <= INT16_MAX) {
        w.WriteI16(static_cast<int16_t>(dx));
        w.WriteI16(static_cast<int16_t>(dy));
      } else {
        // Escape: INT16_MIN sentinel followed by absolute coordinates.
        w.WriteI16(INT16_MIN);
        w.WriteI16(0);
        w.WriteI32(static_cast<int32_t>(qx));
        w.WriteI32(static_cast<int32_t>(qy));
      }
    }
    prev_qx = qx;
    prev_qy = qy;
  }
}

LineString ReadQuantizedLineString(BufferReader& r, double quantum) {
  uint32_t n = r.ReadU32();
  std::vector<Vec2> pts;
  GuardedReserve(r, pts, n, 4);  // 2 x I16 delta per point (minimum).
  int64_t qx = 0;
  int64_t qy = 0;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    if (i == 0) {
      qx = r.ReadI32();
      qy = r.ReadI32();
    } else {
      int16_t dx = r.ReadI16();
      int16_t dy = r.ReadI16();
      if (dx == INT16_MIN && dy == 0) {
        qx = r.ReadI32();
        qy = r.ReadI32();
      } else {
        qx += dx;
        qy += dy;
      }
    }
    pts.push_back({static_cast<double>(qx) * quantum,
                   static_cast<double>(qy) * quantum});
  }
  return LineString(std::move(pts));
}

}  // namespace

std::string SerializeMap(const HdMap& map) {
  BufferWriter w;
  w.WriteU32(kFullMagic);
  w.WriteU32(kVersion);

  w.WriteU32(static_cast<uint32_t>(map.landmarks().size()));
  for (const auto& [id, lm] : map.landmarks()) {
    w.WriteI64(id);
    w.WriteU8(static_cast<uint8_t>(lm.type));
    w.WriteF64(lm.position.x);
    w.WriteF64(lm.position.y);
    w.WriteF64(lm.position.z);
    w.WriteF64(lm.reflectivity);
    w.WriteString(lm.subtype);
  }

  w.WriteU32(static_cast<uint32_t>(map.line_features().size()));
  for (const auto& [id, lf] : map.line_features()) {
    w.WriteI64(id);
    w.WriteU8(static_cast<uint8_t>(lf.type));
    w.WriteF64(lf.reflectivity);
    WriteLineString(w, lf.geometry);
    w.WriteU32(static_cast<uint32_t>(lf.survey_points.size()));
    for (const Vec3& p : lf.survey_points) {
      w.WriteF32(static_cast<float>(p.x));
      w.WriteF32(static_cast<float>(p.y));
      w.WriteF32(static_cast<float>(p.z));
    }
  }

  w.WriteU32(static_cast<uint32_t>(map.area_features().size()));
  for (const auto& [id, af] : map.area_features()) {
    w.WriteI64(id);
    w.WriteU8(static_cast<uint8_t>(af.type));
    w.WriteU32(static_cast<uint32_t>(af.geometry.size()));
    for (const Vec2& p : af.geometry.vertices()) {
      w.WriteF64(p.x);
      w.WriteF64(p.y);
    }
  }

  w.WriteU32(static_cast<uint32_t>(map.lanelets().size()));
  for (const auto& [id, ll] : map.lanelets()) {
    (void)id;
    WriteLanelet(w, ll);
  }

  w.WriteU32(static_cast<uint32_t>(map.regulatory_elements().size()));
  for (const auto& [id, reg] : map.regulatory_elements()) {
    (void)id;
    WriteRegulatoryElement(w, reg);
  }

  w.WriteU32(static_cast<uint32_t>(map.lane_bundles().size()));
  for (const auto& [id, b] : map.lane_bundles()) {
    w.WriteI64(id);
    w.WriteI64(b.from_node);
    w.WriteI64(b.to_node);
    WriteIds(w, b.lanelet_ids);
  }

  w.WriteU32(static_cast<uint32_t>(map.map_nodes().size()));
  for (const auto& [id, n] : map.map_nodes()) {
    w.WriteI64(id);
    w.WriteF64(n.position.x);
    w.WriteF64(n.position.y);
    WriteIds(w, n.bundle_ids);
  }

  return WrapFrame(w.buffer());
}

Result<HdMap> DeserializeMap(std::string_view data) {
  HDMAP_ASSIGN_OR_RETURN(std::string_view payload, UnwrapFrame(data));
  // Dispatch on the payload magic: v3 tiles are validated and
  // materialized by the view machinery (the frame CRC was just checked
  // above, so Create only runs the structural pass); everything else
  // falls through to the full-map decoder below.
  if (payload.size() >= sizeof(uint32_t)) {
    uint32_t magic = 0;
    std::memcpy(&magic, payload.data(), sizeof(magic));
    if (magic == kTileV3Magic) {
      HDMAP_ASSIGN_OR_RETURN(TileView view,
                             TileView::Create(data, FrameChecksum::kTrust));
      return view.Materialize();
    }
  }
  BufferReader r(payload);
  if (r.ReadU32() != kFullMagic) {
    return Status::DataLoss("bad magic: not a full HD map buffer");
  }
  if (r.ReadU32() != kVersion) {
    return Status::DataLoss("unsupported map version");
  }
  HdMap map;

  uint32_t num_landmarks = r.ReadU32();
  r.CheckCount(num_landmarks, 45);  // I64+U8+4xF64+string length.
  for (uint32_t i = 0; i < num_landmarks && r.ok(); ++i) {
    Landmark lm;
    lm.id = r.ReadI64();
    lm.type = static_cast<LandmarkType>(r.ReadU8());
    lm.position.x = r.ReadF64();
    lm.position.y = r.ReadF64();
    lm.position.z = r.ReadF64();
    lm.reflectivity = r.ReadF64();
    lm.subtype = r.ReadString();
    HDMAP_RETURN_IF_ERROR(map.AddLandmark(std::move(lm)));
  }

  uint32_t num_lines = r.ReadU32();
  r.CheckCount(num_lines, 25);  // I64+U8+F64+2 section counts.
  for (uint32_t i = 0; i < num_lines && r.ok(); ++i) {
    LineFeature lf;
    lf.id = r.ReadI64();
    lf.type = static_cast<LineType>(r.ReadU8());
    lf.reflectivity = r.ReadF64();
    lf.geometry = ReadLineString(r);
    uint32_t num_survey = r.ReadU32();
    GuardedReserve(r, lf.survey_points, num_survey, 12);  // 3 x F32.
    for (uint32_t j = 0; j < num_survey && r.ok(); ++j) {
      float x = r.ReadF32();
      float y = r.ReadF32();
      float z = r.ReadF32();
      lf.survey_points.push_back({x, y, z});
    }
    HDMAP_RETURN_IF_ERROR(map.AddLineFeature(std::move(lf)));
  }

  uint32_t num_areas = r.ReadU32();
  r.CheckCount(num_areas, 13);  // I64+U8+vertex count.
  for (uint32_t i = 0; i < num_areas && r.ok(); ++i) {
    AreaFeature af;
    af.id = r.ReadI64();
    af.type = static_cast<AreaType>(r.ReadU8());
    uint32_t nv = r.ReadU32();
    std::vector<Vec2> verts;
    GuardedReserve(r, verts, nv, 16);  // 2 x F64 per vertex.
    for (uint32_t j = 0; j < nv && r.ok(); ++j) {
      double x = r.ReadF64();
      double y = r.ReadF64();
      verts.push_back({x, y});
    }
    af.geometry = Polygon(std::move(verts));
    HDMAP_RETURN_IF_ERROR(map.AddAreaFeature(std::move(af)));
  }

  uint32_t num_lanelets = r.ReadU32();
  r.CheckCount(num_lanelets, 76);  // Fixed lanelet fields + counts.
  for (uint32_t i = 0; i < num_lanelets && r.ok(); ++i) {
    HDMAP_RETURN_IF_ERROR(map.AddLanelet(ReadLanelet(r)));
  }

  uint32_t num_regs = r.ReadU32();
  r.CheckCount(num_regs, 29);  // I64+U8+F64+I64+id count.
  for (uint32_t i = 0; i < num_regs && r.ok(); ++i) {
    HDMAP_RETURN_IF_ERROR(map.AddRegulatoryElement(ReadRegulatoryElement(r)));
  }

  uint32_t num_bundles = r.ReadU32();
  r.CheckCount(num_bundles, 28);  // 3 x I64 + id count.
  for (uint32_t i = 0; i < num_bundles && r.ok(); ++i) {
    LaneBundle b;
    b.id = r.ReadI64();
    b.from_node = r.ReadI64();
    b.to_node = r.ReadI64();
    b.lanelet_ids = ReadIds(r);
    HDMAP_RETURN_IF_ERROR(map.AddLaneBundle(std::move(b)));
  }

  uint32_t num_nodes = r.ReadU32();
  r.CheckCount(num_nodes, 28);  // I64+2xF64+id count.
  for (uint32_t i = 0; i < num_nodes && r.ok(); ++i) {
    MapNode n;
    n.id = r.ReadI64();
    n.position.x = r.ReadF64();
    n.position.y = r.ReadF64();
    n.bundle_ids = ReadIds(r);
    HDMAP_RETURN_IF_ERROR(map.AddMapNode(std::move(n)));
  }

  if (!r.ok()) return r.status();
  return map;
}

std::string SerializeCompactMap(const HdMap& map,
                                const CompactMapOptions& options) {
  BufferWriter w;
  w.WriteU32(kCompactMagic);
  w.WriteU32(kVersion);
  w.WriteF64(options.quantum);

  // Landmarks: signs/lights are navigation-relevant; keep quantized.
  w.WriteU32(static_cast<uint32_t>(map.landmarks().size()));
  for (const auto& [id, lm] : map.landmarks()) {
    w.WriteI64(id);
    w.WriteU8(static_cast<uint8_t>(lm.type));
    w.WriteI32(static_cast<int32_t>(std::llround(lm.position.x /
                                                 options.quantum)));
    w.WriteI32(static_cast<int32_t>(std::llround(lm.position.y /
                                                 options.quantum)));
    w.WriteI32(static_cast<int32_t>(std::llround(lm.position.z /
                                                 options.quantum)));
    w.WriteString(lm.subtype);
  }

  // Line features: simplified + quantized geometry; survey payloads are
  // dropped entirely — this is the bulk of the reduction [60].
  w.WriteU32(static_cast<uint32_t>(map.line_features().size()));
  for (const auto& [id, lf] : map.line_features()) {
    w.WriteI64(id);
    w.WriteU8(static_cast<uint8_t>(lf.type));
    WriteQuantizedLineString(
        w, lf.geometry.Simplified(options.simplify_tolerance),
        options.quantum);
  }

  // Lanelets: simplified + quantized centerlines, boundary refs,
  // topology and limits.
  w.WriteU32(static_cast<uint32_t>(map.lanelets().size()));
  for (const auto& [id, ll] : map.lanelets()) {
    w.WriteI64(id);
    w.WriteI64(ll.left_boundary_id);
    w.WriteI64(ll.right_boundary_id);
    WriteQuantizedLineString(
        w, ll.centerline.Simplified(options.simplify_tolerance),
        options.quantum);
    w.WriteF32(static_cast<float>(ll.speed_limit_mps));
    WriteIds(w, ll.successors);
    w.WriteI64(ll.left_neighbor);
    w.WriteI64(ll.right_neighbor);
  }
  return WrapFrame(w.buffer());
}

Result<HdMap> DeserializeCompactMap(std::string_view data) {
  HDMAP_ASSIGN_OR_RETURN(std::string_view payload, UnwrapFrame(data));
  BufferReader r(payload);
  if (r.ReadU32() != kCompactMagic) {
    return Status::DataLoss("bad magic: not a compact map buffer");
  }
  if (r.ReadU32() != kVersion) {
    return Status::DataLoss("unsupported compact map version");
  }
  double quantum = r.ReadF64();
  HdMap map;

  uint32_t num_landmarks = r.ReadU32();
  r.CheckCount(num_landmarks, 25);  // I64+U8+3xI32+string length.
  for (uint32_t i = 0; i < num_landmarks && r.ok(); ++i) {
    Landmark lm;
    lm.id = r.ReadI64();
    lm.type = static_cast<LandmarkType>(r.ReadU8());
    lm.position.x = static_cast<double>(r.ReadI32()) * quantum;
    lm.position.y = static_cast<double>(r.ReadI32()) * quantum;
    lm.position.z = static_cast<double>(r.ReadI32()) * quantum;
    lm.subtype = r.ReadString();
    HDMAP_RETURN_IF_ERROR(map.AddLandmark(std::move(lm)));
  }

  uint32_t num_compact_lines = r.ReadU32();
  r.CheckCount(num_compact_lines, 13);  // I64+U8+point count.
  for (uint32_t i = 0; i < num_compact_lines && r.ok(); ++i) {
    LineFeature lf;
    lf.id = r.ReadI64();
    lf.type = static_cast<LineType>(r.ReadU8());
    lf.geometry = ReadQuantizedLineString(r, quantum);
    HDMAP_RETURN_IF_ERROR(map.AddLineFeature(std::move(lf)));
  }

  uint32_t num_lanelets = r.ReadU32();
  r.CheckCount(num_lanelets, 52);  // Fixed compact-lanelet fields.
  // Successor links may reference lanelets not yet inserted; collect and
  // fix up predecessors afterwards.
  std::vector<std::pair<ElementId, std::vector<ElementId>>> successor_links;
  for (uint32_t i = 0; i < num_lanelets && r.ok(); ++i) {
    Lanelet ll;
    ll.id = r.ReadI64();
    ll.left_boundary_id = r.ReadI64();
    ll.right_boundary_id = r.ReadI64();
    ll.centerline = ReadQuantizedLineString(r, quantum);
    ll.speed_limit_mps = r.ReadF32();
    ll.successors = ReadIds(r);
    ll.left_neighbor = r.ReadI64();
    ll.right_neighbor = r.ReadI64();
    successor_links.emplace_back(ll.id, ll.successors);
    HDMAP_RETURN_IF_ERROR(map.AddLanelet(std::move(ll)));
  }
  if (!r.ok()) return r.status();
  // Rebuild predecessor links from the stored successor lists.
  for (const auto& [from, successors] : successor_links) {
    for (ElementId to : successors) {
      Lanelet* target = map.FindMutableLanelet(to);
      if (target != nullptr) {
        target->predecessors.push_back(from);
      }
    }
  }
  return map;
}


namespace {
constexpr uint32_t kPatchMagic = 0x48444d50;  // "HDMP"
// Version 2 added the relational-layer sections (updated/removed lanelets
// and regulatory elements); every persisted or shipped patch is v2.
constexpr uint32_t kPatchVersion = 2;
}  // namespace

std::string SerializePatch(const MapPatch& patch) {
  BufferWriter w;
  w.WriteU32(kPatchMagic);
  w.WriteU32(kPatchVersion);

  w.WriteU32(static_cast<uint32_t>(patch.added_landmarks.size()));
  for (const Landmark& lm : patch.added_landmarks) {
    w.WriteI64(lm.id);
    w.WriteU8(static_cast<uint8_t>(lm.type));
    w.WriteF64(lm.position.x);
    w.WriteF64(lm.position.y);
    w.WriteF64(lm.position.z);
    w.WriteF64(lm.reflectivity);
    w.WriteString(lm.subtype);
  }
  w.WriteU32(static_cast<uint32_t>(patch.removed_landmarks.size()));
  for (ElementId id : patch.removed_landmarks) w.WriteI64(id);
  w.WriteU32(static_cast<uint32_t>(patch.moved_landmarks.size()));
  for (const MapPatch::Move& mv : patch.moved_landmarks) {
    w.WriteI64(mv.id);
    w.WriteF64(mv.new_position.x);
    w.WriteF64(mv.new_position.y);
    w.WriteF64(mv.new_position.z);
  }
  w.WriteU32(static_cast<uint32_t>(patch.updated_line_features.size()));
  for (const LineFeature& lf : patch.updated_line_features) {
    w.WriteI64(lf.id);
    w.WriteU8(static_cast<uint8_t>(lf.type));
    w.WriteF64(lf.reflectivity);
    w.WriteU32(static_cast<uint32_t>(lf.geometry.size()));
    for (const Vec2& p : lf.geometry.points()) {
      w.WriteF64(p.x);
      w.WriteF64(p.y);
    }
  }
  w.WriteU32(static_cast<uint32_t>(patch.updated_lanelets.size()));
  for (const Lanelet& ll : patch.updated_lanelets) WriteLanelet(w, ll);
  w.WriteU32(static_cast<uint32_t>(patch.removed_lanelets.size()));
  for (ElementId id : patch.removed_lanelets) w.WriteI64(id);
  w.WriteU32(static_cast<uint32_t>(patch.updated_regulatory_elements.size()));
  for (const RegulatoryElement& reg : patch.updated_regulatory_elements) {
    WriteRegulatoryElement(w, reg);
  }
  w.WriteU32(static_cast<uint32_t>(patch.removed_regulatory_elements.size()));
  for (ElementId id : patch.removed_regulatory_elements) w.WriteI64(id);
  return WrapFrame(w.buffer());
}

Result<MapPatch> DeserializePatch(std::string_view data) {
  HDMAP_ASSIGN_OR_RETURN(std::string_view payload, UnwrapFrame(data));
  BufferReader r(payload);
  if (r.ReadU32() != kPatchMagic) {
    return Status::DataLoss("bad magic: not a map patch buffer");
  }
  if (r.ReadU32() != kPatchVersion) {
    return Status::DataLoss("unsupported patch version");
  }
  MapPatch patch;
  uint32_t num_added = r.ReadU32();
  GuardedReserve(r, patch.added_landmarks, num_added, 45);
  for (uint32_t i = 0; i < num_added && r.ok(); ++i) {
    Landmark lm;
    lm.id = r.ReadI64();
    lm.type = static_cast<LandmarkType>(r.ReadU8());
    lm.position.x = r.ReadF64();
    lm.position.y = r.ReadF64();
    lm.position.z = r.ReadF64();
    lm.reflectivity = r.ReadF64();
    lm.subtype = r.ReadString();
    patch.added_landmarks.push_back(std::move(lm));
  }
  uint32_t num_removed = r.ReadU32();
  GuardedReserve(r, patch.removed_landmarks, num_removed, 8);
  for (uint32_t i = 0; i < num_removed && r.ok(); ++i) {
    patch.removed_landmarks.push_back(r.ReadI64());
  }
  uint32_t num_moved = r.ReadU32();
  GuardedReserve(r, patch.moved_landmarks, num_moved, 32);  // I64+3xF64.
  for (uint32_t i = 0; i < num_moved && r.ok(); ++i) {
    MapPatch::Move mv;
    mv.id = r.ReadI64();
    mv.new_position.x = r.ReadF64();
    mv.new_position.y = r.ReadF64();
    mv.new_position.z = r.ReadF64();
    patch.moved_landmarks.push_back(mv);
  }
  uint32_t num_lines = r.ReadU32();
  GuardedReserve(r, patch.updated_line_features, num_lines, 21);
  for (uint32_t i = 0; i < num_lines && r.ok(); ++i) {
    LineFeature lf;
    lf.id = r.ReadI64();
    lf.type = static_cast<LineType>(r.ReadU8());
    lf.reflectivity = r.ReadF64();
    uint32_t n = r.ReadU32();
    std::vector<Vec2> pts;
    GuardedReserve(r, pts, n, 16);
    for (uint32_t j = 0; j < n && r.ok(); ++j) {
      double x = r.ReadF64();
      double y = r.ReadF64();
      pts.push_back({x, y});
    }
    lf.geometry = LineString(std::move(pts));
    patch.updated_line_features.push_back(std::move(lf));
  }
  uint32_t num_lanelets = r.ReadU32();
  GuardedReserve(r, patch.updated_lanelets, num_lanelets, 76);
  for (uint32_t i = 0; i < num_lanelets && r.ok(); ++i) {
    patch.updated_lanelets.push_back(ReadLanelet(r));
  }
  uint32_t num_removed_lanelets = r.ReadU32();
  GuardedReserve(r, patch.removed_lanelets, num_removed_lanelets, 8);
  for (uint32_t i = 0; i < num_removed_lanelets && r.ok(); ++i) {
    patch.removed_lanelets.push_back(r.ReadI64());
  }
  uint32_t num_regs = r.ReadU32();
  GuardedReserve(r, patch.updated_regulatory_elements, num_regs, 29);
  for (uint32_t i = 0; i < num_regs && r.ok(); ++i) {
    patch.updated_regulatory_elements.push_back(ReadRegulatoryElement(r));
  }
  uint32_t num_removed_regs = r.ReadU32();
  GuardedReserve(r, patch.removed_regulatory_elements, num_removed_regs,
                 8);
  for (uint32_t i = 0; i < num_removed_regs && r.ok(); ++i) {
    patch.removed_regulatory_elements.push_back(r.ReadI64());
  }
  if (!r.ok()) return r.status();
  return patch;
}

}  // namespace hdmap
