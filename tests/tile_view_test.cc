// Tests for tile format v3 and the span-based view API: in-place
// accessors must agree element-for-element with the source map,
// Materialize must be equivalent to a SerializeMap round trip, and
// TileView::Create must fail closed on every structural violation of the offset-table
// layout — targeted corruptions are re-framed with a VALID CRC so the
// structural validator (not the frame checksum) is what rejects them.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/serialization.h"
#include "core/tile_view.h"
#include "core/wire_frame.h"
#include "sim/road_network_generator.h"
#include "tests/test_worlds.h"

namespace hdmap {
namespace {

/// A small hand-built map exercising every section and every
/// variable-length field of the v3 format.
HdMap RichMap() {
  HdMap map;

  Landmark sign;
  sign.id = 10;
  sign.type = LandmarkType::kTrafficSign;
  sign.position = {1.0, 2.0, 3.5};
  sign.reflectivity = 0.7;
  sign.subtype = "speed_limit_50";
  EXPECT_TRUE(map.AddLandmark(sign).ok());
  Landmark hrl;
  hrl.id = 11;
  hrl.type = LandmarkType::kHighReflectiveLandmark;
  hrl.position = {-4.0, 9.0, 1.0};
  hrl.reflectivity = 0.99;
  EXPECT_TRUE(map.AddLandmark(hrl).ok());

  LineFeature left;
  left.id = 20;
  left.type = LineType::kSolidLaneMarking;
  left.reflectivity = 0.85;
  left.geometry = LineString({{0, 1}, {10, 1}, {20, 1.5}});
  left.survey_points = {{0.0, 1.0, 0.1}, {5.0, 1.0, 0.2}, {10.0, 1.1, 0.3}};
  EXPECT_TRUE(map.AddLineFeature(left).ok());
  LineFeature right;
  right.id = 21;
  right.type = LineType::kRoadEdge;
  right.reflectivity = 0.3;
  right.geometry = LineString({{0, -1}, {20, -1}});
  EXPECT_TRUE(map.AddLineFeature(right).ok());

  AreaFeature walk;
  walk.id = 30;
  walk.type = AreaType::kCrosswalk;
  walk.geometry = Polygon({{5, -2}, {6, -2}, {6, 2}, {5, 2}});
  EXPECT_TRUE(map.AddAreaFeature(walk).ok());

  Lanelet lane;
  lane.id = 40;
  lane.left_boundary_id = 20;
  lane.right_boundary_id = 21;
  lane.centerline = LineString({{0, 0}, {10, 0}, {20, 0.25}});
  lane.elevation_profile = {0.0, 0.5, 1.25};
  lane.speed_limit_mps = 13.89;
  lane.successors = {41};
  lane.regulatory_ids = {50};
  lane.bundle_id = 60;
  EXPECT_TRUE(map.AddLanelet(lane).ok());
  Lanelet next;
  next.id = 41;
  next.centerline = LineString({{20, 0.25}, {30, 0.5}});
  next.predecessors = {40};
  next.left_neighbor = 40;
  EXPECT_TRUE(map.AddLanelet(next).ok());

  RegulatoryElement limit;
  limit.id = 50;
  limit.type = RegulatoryType::kSpeedLimit;
  limit.speed_limit_mps = 13.89;
  limit.anchor_id = 10;
  limit.lanelet_ids = {40, 41};
  EXPECT_TRUE(map.AddRegulatoryElement(limit).ok());

  LaneBundle bundle;
  bundle.id = 60;
  bundle.from_node = 70;
  bundle.to_node = 71;
  bundle.lanelet_ids = {40, 41};
  EXPECT_TRUE(map.AddLaneBundle(bundle).ok());

  MapNode a;
  a.id = 70;
  a.position = {0, 0};
  a.bundle_ids = {60};
  EXPECT_TRUE(map.AddMapNode(a).ok());
  MapNode b;
  b.id = 71;
  b.position = {30, 0.5};
  b.bundle_ids = {60};
  EXPECT_TRUE(map.AddMapNode(b).ok());

  return map;
}

HdMap SmallTown() {
  Rng rng(17);
  TownOptions opt;
  opt.grid_rows = 2;
  opt.grid_cols = 2;
  opt.block_size = 120.0;
  auto town = GenerateTown(opt, rng);
  EXPECT_TRUE(town.ok()) << town.status().ToString();
  return std::move(town).value();
}

uint32_t ReadU32(const std::string& s, size_t off) {
  uint32_t v = 0;
  std::memcpy(&v, s.data() + off, sizeof(v));
  return v;
}

void WriteU32(std::string* s, size_t off, uint32_t v) {
  std::memcpy(s->data() + off, &v, sizeof(v));
}

/// The bare v3 payload (bytes after the 16-byte frame header).
std::string PayloadOf(std::string_view framed) {
  auto payload = UnwrapFrame(framed);
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  return std::string(payload.ok() ? *payload : std::string_view());
}

// Payload header layout (see tile_view.h): magic, version, num_sections,
// reserved, then 7 x {count, offset, length} directory entries.
constexpr size_t kDirBase = 16;
constexpr size_t kDirStride = 12;
size_t DirCountOff(size_t section) { return kDirBase + section * kDirStride; }
size_t DirOffsetOff(size_t section) {
  return kDirBase + section * kDirStride + 4;
}

/// Re-frames a (mutated) payload with a freshly computed, VALID CRC and
/// expects TileView::Create to reject it structurally.
void ExpectRejected(const std::string& payload, const char* what) {
  std::string framed = WrapFrame(payload);
  auto view = TileView::Create(std::string_view(framed));
  ASSERT_FALSE(view.ok()) << what;
  EXPECT_EQ(view.status().code(), StatusCode::kDataLoss) << what;
  // kTrust skips only the checksum — structural validation still runs.
  auto trusted =
      TileView::Create(std::string_view(framed), FrameChecksum::kTrust);
  EXPECT_FALSE(trusted.ok()) << what << " (kTrust)";
}

TEST(TileViewTest, ViewsMatchSourceMapElementForElement) {
  HdMap map = RichMap();
  std::string blob = EncodeTileV3(map);
  auto view = TileView::Create(std::string_view(blob));
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  ASSERT_EQ(view->num_landmarks(), map.landmarks().size());
  ASSERT_EQ(view->num_line_features(), map.line_features().size());
  ASSERT_EQ(view->num_area_features(), map.area_features().size());
  ASSERT_EQ(view->num_lanelets(), map.lanelets().size());
  ASSERT_EQ(view->num_regulatory_elements(),
            map.regulatory_elements().size());
  ASSERT_EQ(view->num_lane_bundles(), map.lane_bundles().size());
  ASSERT_EQ(view->num_map_nodes(), map.map_nodes().size());

  LandmarkView sign = *view->FindLandmark(10);
  EXPECT_EQ(sign.type(), LandmarkType::kTrafficSign);
  EXPECT_EQ(sign.position(), (Vec3{1.0, 2.0, 3.5}));
  EXPECT_EQ(sign.reflectivity(), 0.7);
  EXPECT_EQ(sign.subtype(), "speed_limit_50");
  EXPECT_EQ(view->FindLandmark(11)->subtype(), "");

  LineFeatureView lf = *view->FindLineFeature(20);
  EXPECT_EQ(lf.type(), LineType::kSolidLaneMarking);
  EXPECT_EQ(lf.reflectivity(), 0.85);
  ASSERT_EQ(lf.geometry().size(), 3u);
  EXPECT_EQ(lf.geometry()[2], (Vec2{20, 1.5}));
  ASSERT_EQ(lf.num_survey_points(), 3u);
  // Survey points are stored as 3 x f32 (like v1), so compare after the
  // same narrowing.
  EXPECT_EQ(lf.survey_point(1).x, static_cast<double>(5.0f));
  EXPECT_EQ(lf.survey_point(2).z, static_cast<double>(0.3f));

  LaneletView lane = *view->FindLanelet(40);
  EXPECT_EQ(lane.left_boundary_id(), 20u);
  EXPECT_EQ(lane.right_boundary_id(), 21u);
  EXPECT_EQ(lane.bundle_id(), 60u);
  EXPECT_EQ(lane.speed_limit_mps(), 13.89);
  ASSERT_EQ(lane.centerline().size(), 3u);
  EXPECT_EQ(lane.centerline().back(), (Vec2{20, 0.25}));
  EXPECT_EQ(lane.elevation_profile().ToVector(),
            (std::vector<double>{0.0, 0.5, 1.25}));
  EXPECT_EQ(lane.successors().ToVector(), (std::vector<ElementId>{41}));
  EXPECT_TRUE(lane.predecessors().empty());
  EXPECT_EQ(lane.regulatory_ids().ToVector(),
            (std::vector<ElementId>{50}));

  RegulatoryElementView reg = view->regulatory_element(0);
  EXPECT_EQ(reg.id(), 50u);
  EXPECT_EQ(reg.anchor_id(), 10u);
  EXPECT_EQ(reg.lanelet_ids().ToVector(),
            (std::vector<ElementId>{40, 41}));

  LaneBundleView bundle = view->lane_bundle(0);
  EXPECT_EQ(bundle.from_node(), 70u);
  EXPECT_EQ(bundle.to_node(), 71u);
  EXPECT_EQ(bundle.lanelet_ids().ToVector(),
            (std::vector<ElementId>{40, 41}));

  MapNodeView node = view->map_node(1);
  EXPECT_EQ(node.id(), 71u);
  EXPECT_EQ(node.position(), (Vec2{30, 0.5}));
  EXPECT_EQ(node.bundle_ids().ToVector(), (std::vector<ElementId>{60}));
}

TEST(TileViewTest, FindByIdHitsAndMisses) {
  HdMap map = SmallTown();
  std::string blob = EncodeTileV3(map);
  auto view = TileView::Create(std::string_view(blob));
  ASSERT_TRUE(view.ok());
  for (const auto& [id, ll] : map.lanelets()) {
    auto found = view->FindLanelet(id);
    ASSERT_TRUE(found.has_value()) << id;
    EXPECT_EQ(found->id(), id);
    EXPECT_EQ(found->centerline().size(), ll.centerline.size());
  }
  EXPECT_FALSE(view->FindLanelet(0).has_value());
  EXPECT_FALSE(view->FindLanelet(~0ull - 1).has_value());
  EXPECT_FALSE(view->FindLandmark(~0ull - 1).has_value());
  EXPECT_FALSE(view->FindLineFeature(~0ull - 1).has_value());
}

TEST(TileViewTest, MaterializeEquivalentToV1RoundTrip) {
  for (const HdMap& map : {RichMap(), SmallTown()}) {
    std::string blob = EncodeTileV3(map);
    auto view = TileView::Create(std::string_view(blob));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    auto mat = view->Materialize();
    ASSERT_TRUE(mat.ok()) << mat.status().ToString();
    // v1 bytes are a canonical fingerprint: Materialize must reproduce
    // exactly what a v1 round trip of the same map produces.
    EXPECT_EQ(SerializeMap(*mat), SerializeMap(map));
    // And re-encoding the materialized map reproduces the v3 bytes.
    EXPECT_EQ(EncodeTileV3(*mat), blob);
  }
}

TEST(TileViewTest, DeserializeMapDispatchesOnV3Magic) {
  HdMap map = RichMap();
  std::string blob = EncodeTileV3(map);
  auto decoded = DeserializeMap(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(SerializeMap(*decoded), SerializeMap(map));
}

TEST(TileViewTest, EncodeIsByteDeterministic) {
  HdMap a = SmallTown();
  HdMap b = SmallTown();
  EXPECT_EQ(EncodeTileV3(a), EncodeTileV3(b));
}

TEST(TileViewTest, EmptyMapEncodesAndViews) {
  HdMap empty;
  std::string blob = EncodeTileV3(empty);
  auto view = TileView::Create(std::string_view(blob));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->NumElements(), 0u);
  auto mat = view->Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(SerializeMap(*mat), SerializeMap(empty));
}

TEST(TileViewTest, TrustSkipsChecksumVerifyDoesNot) {
  std::string blob = EncodeTileV3(RichMap());
  // Scribble the stored CRC in the frame header (bytes 12..16): the
  // payload itself stays pristine.
  blob[13] = static_cast<char>(blob[13] ^ 0x5a);
  EXPECT_EQ(TileView::Create(std::string_view(blob)).status().code(),
            StatusCode::kDataLoss);
  auto trusted =
      TileView::Create(std::string_view(blob), FrameChecksum::kTrust);
  ASSERT_TRUE(trusted.ok()) << trusted.status().ToString();
  EXPECT_GT(trusted->NumElements(), 0u);
}

TEST(TileViewTest, UnframedPayloadRejected) {
  // Create accepts framed bytes only: the bare payload of a valid tile
  // is kDataLoss under either checksum mode.
  std::string payload = PayloadOf(EncodeTileV3(RichMap()));
  EXPECT_EQ(TileView::Create(std::string_view(payload)).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(TileView::Create(std::string_view(payload), FrameChecksum::kTrust)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

// --- Targeted offset-table corruptions (valid frame CRC each time) ---

TEST(TileViewCorruptionTest, WrongMagicOrVersionRejected) {
  std::string payload = PayloadOf(EncodeTileV3(RichMap()));
  std::string bad = payload;
  WriteU32(&bad, 0, 0xDEADBEEF);
  ExpectRejected(bad, "wrong magic");
  bad = payload;
  WriteU32(&bad, 4, 4);
  ExpectRejected(bad, "wrong version");
  bad = payload;
  WriteU32(&bad, 8, 8);
  ExpectRejected(bad, "wrong section count");
  bad = payload;
  WriteU32(&bad, 12, 1);
  ExpectRejected(bad, "nonzero reserved word");
}

TEST(TileViewCorruptionTest, TruncatedHeaderAndTablesRejected) {
  std::string payload = PayloadOf(EncodeTileV3(RichMap()));
  // Shorter than the fixed header.
  ExpectRejected(payload.substr(0, 64), "truncated header");
  // Cut inside the lanelet section's slot table: every later section
  // (and the table itself) now runs past the end of the payload.
  size_t lanelet_off = ReadU32(payload, DirOffsetOff(3));
  ExpectRejected(payload.substr(0, lanelet_off + 4),
                 "truncated slot table");
  // Drop the final 8 bytes: the last section no longer ends at the
  // payload end.
  ExpectRejected(payload.substr(0, payload.size() - 8),
                 "truncated final section");
}

TEST(TileViewCorruptionTest, CountInflationRejected) {
  std::string payload = PayloadOf(EncodeTileV3(RichMap()));
  for (size_t section = 0; section < 7; ++section) {
    std::string bad = payload;
    WriteU32(&bad, DirCountOff(section), 0x00FFFFFF);
    ExpectRejected(bad, "directory count inflated");
  }
}

TEST(TileViewCorruptionTest, OutOfRangeSlotOffsetsRejected) {
  std::string payload = PayloadOf(EncodeTileV3(RichMap()));
  size_t table = ReadU32(payload, DirOffsetOff(3));  // Lanelets.
  uint32_t count = ReadU32(payload, DirCountOff(3));
  ASSERT_GE(count, 2u);

  // off[0] must be exactly 0.
  std::string bad = payload;
  WriteU32(&bad, table, 8);
  ExpectRejected(bad, "first slot not at 0");

  // A slot pointing far past the section data.
  bad = payload;
  WriteU32(&bad, table + 4, 0xFFFFFFF0);
  ExpectRejected(bad, "slot offset out of range");

  // The terminator slot must land exactly on the section data length.
  bad = payload;
  WriteU32(&bad, table + 4 * count,
           ReadU32(payload, table + 4 * count) + 8);
  ExpectRejected(bad, "terminator past data end");
}

TEST(TileViewCorruptionTest, OverlappingSlotsRejected) {
  std::string payload = PayloadOf(EncodeTileV3(RichMap()));
  size_t table = ReadU32(payload, DirOffsetOff(3));
  uint32_t count = ReadU32(payload, DirCountOff(3));
  ASSERT_GE(count, 2u);
  // Make record 0 "end" after record 1 begins (off[1] > off[2]): the
  // slots now overlap / decrease.
  std::string bad = payload;
  WriteU32(&bad, table + 4, ReadU32(payload, table + 8) + 16);
  ExpectRejected(bad, "overlapping slots");
}

TEST(TileViewCorruptionTest, NonContiguousSectionsRejected) {
  std::string payload = PayloadOf(EncodeTileV3(RichMap()));
  // Shift section 1's recorded offset: sections must tile the payload
  // exactly, so any gap or overlap is rejected.
  std::string bad = payload;
  WriteU32(&bad, DirOffsetOff(1), ReadU32(payload, DirOffsetOff(1)) + 8);
  ExpectRejected(bad, "section gap");
  bad = payload;
  WriteU32(&bad, DirOffsetOff(1), ReadU32(payload, DirOffsetOff(1)) - 8);
  ExpectRejected(bad, "section overlap");
}

TEST(TileViewCorruptionTest, IdOrderViolationRejected) {
  HdMap map = RichMap();
  std::string payload = PayloadOf(EncodeTileV3(map));
  // Swap the two landmark ids in place (records are fixed-offset i64 at
  // the record head): ids are no longer strictly ascending.
  size_t table = ReadU32(payload, DirOffsetOff(0));
  uint32_t count = ReadU32(payload, DirCountOff(0));
  ASSERT_EQ(count, 2u);
  size_t data = table + ((4 * (count + 1) + 7) / 8) * 8;
  uint32_t off0 = ReadU32(payload, table);
  uint32_t off1 = ReadU32(payload, table + 4);
  std::string bad = payload;
  char tmp[8];
  std::memcpy(tmp, bad.data() + data + off0, 8);
  std::memcpy(bad.data() + data + off0, bad.data() + data + off1, 8);
  std::memcpy(bad.data() + data + off1, tmp, 8);
  ExpectRejected(bad, "ids out of order");
}

/// Randomized structural fuzz: mutate the BARE payload, then re-frame it
/// with a valid CRC, so every mutation reaches the offset-table
/// validator instead of dying at the frame check. Nothing may crash or
/// read out of bounds (run under the `sanitize` preset for teeth);
/// survivors must also Materialize cleanly.
TEST(TileViewCorruptionTest, ReframedPayloadFuzzNeverCrashes) {
  std::string payload = PayloadOf(EncodeTileV3(SmallTown()));
  Rng rng(0xF1A7);
  size_t iters = 300;
  if (const char* env = std::getenv("HDMAP_FUZZ_ITERS")) {
    long v = std::atol(env);
    if (v > 0) iters = static_cast<size_t>(v);
  }
  for (size_t i = 0; i < iters; ++i) {
    std::string bad = payload;
    int edits = rng.UniformInt(1, 6);
    for (int e = 0; e < edits; ++e) {
      switch (rng.UniformInt(0, 2)) {
        case 0: {  // Stamp a random u32 at a random 4-aligned offset.
          size_t pos = (rng.NextU32() % (bad.size() / 4)) * 4;
          WriteU32(&bad, pos, rng.NextU32());
          break;
        }
        case 1:  // Truncate.
          bad.resize(rng.NextU32() % bad.size());
          break;
        default: {  // Flip bits.
          size_t pos = rng.NextU32() % bad.size();
          bad[pos] = static_cast<char>(bad[pos] ^ (1u << (rng.NextU32() % 8)));
          break;
        }
      }
      if (bad.empty()) break;
    }
    std::string framed = WrapFrame(bad);  // Outlives the view below.
    auto view = TileView::Create(std::string_view(framed));
    if (view.ok()) {
      // A mutation that only hit dead bytes (padding) may survive; the
      // surviving view must still be fully traversable.
      (void)view->Materialize();
    }
  }
}

}  // namespace
}  // namespace hdmap
