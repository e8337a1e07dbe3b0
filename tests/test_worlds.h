#ifndef HDMAP_TESTS_TEST_WORLDS_H_
#define HDMAP_TESTS_TEST_WORLDS_H_

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "core/hd_map.h"
#include "core/map_patch.h"
#include "core/tile_view.h"
#include "sim/road_network_generator.h"

namespace hdmap {

/// A 1 km straight two-lane road along +x with markings, edges and
/// periodic signs: the shared fixture for localization/creation tests.
inline HdMap StraightRoad(double length = 1000.0, double sign_spacing = 60.0) {
  HdMap map;
  ElementId next = 1;
  auto line = [&](double y, LineType type, double refl) {
    LineFeature lf;
    lf.id = next++;
    lf.type = type;
    lf.reflectivity = refl;
    std::vector<Vec2> pts;
    for (double x = 0.0; x <= length; x += 10.0) pts.push_back({x, y});
    lf.geometry = LineString(std::move(pts));
    ElementId id = lf.id;
    (void)map.AddLineFeature(std::move(lf));
    return id;
  };
  ElementId left_edge = line(3.5, LineType::kRoadEdge, 0.3);
  ElementId center = line(0.0, LineType::kSolidLaneMarking, 0.85);
  ElementId right_edge = line(-3.5, LineType::kRoadEdge, 0.3);

  auto lane = [&](double y, ElementId lb, ElementId rb, bool reversed) {
    Lanelet ll;
    ll.id = next++;
    std::vector<Vec2> pts;
    for (double x = 0.0; x <= length; x += 10.0) pts.push_back({x, y});
    if (reversed) std::reverse(pts.begin(), pts.end());
    ll.centerline = LineString(std::move(pts));
    ll.left_boundary_id = lb;
    ll.right_boundary_id = rb;
    ElementId id = ll.id;
    (void)map.AddLanelet(std::move(ll));
    return id;
  };
  ElementId fwd = lane(-1.75, center, right_edge, false);
  ElementId bwd = lane(1.75, center, left_edge, true);
  (void)fwd;
  (void)bwd;

  // Periodic cross stop-lines (side-street mouths): these make the
  // longitudinal direction observable to marking-based localizers.
  for (double x = 100.0; x < length; x += 100.0) {
    LineFeature stop;
    stop.id = next++;
    stop.type = LineType::kStopLine;
    stop.reflectivity = 0.9;
    stop.geometry = LineString({{x, -3.3}, {x, 3.3}});
    (void)map.AddLineFeature(std::move(stop));
  }

  for (double x = sign_spacing / 2; x < length; x += sign_spacing) {
    Landmark sign;
    sign.id = next++;
    sign.type = LandmarkType::kTrafficSign;
    sign.subtype = "speed_limit_50";
    double side = (static_cast<int>(x / sign_spacing) % 2 == 0) ? 1.0 : -1.0;
    sign.position = {x, side * 5.0, 2.2};
    sign.reflectivity = 0.9;
    (void)map.AddLandmark(std::move(sign));
  }
  return map;
}

/// A small deterministic town.
inline HdMap SmallTownWorld(uint64_t seed = 17, int rows = 3, int cols = 3) {
  Rng rng(seed);
  TownOptions opt;
  opt.grid_rows = rows;
  opt.grid_cols = cols;
  auto town = GenerateTown(opt, rng);
  return town.ok() ? std::move(town).value() : HdMap();
}

/// Whole-version fixture: a 400 m StraightRoad carrying six marker
/// landmarks at x = 40 + 55 i whose z is the map version. The markers
/// straddle 100 m tiles, so a region stitched from two versions shows
/// markers that disagree on z. Every marker starts at z = 1, the version
/// Init publishes.
inline constexpr ElementId kFirstVersionMarkerId = 900001;
inline constexpr int kNumVersionMarkers = 6;
/// A query box spanning every marker (and several tile borders).
inline const Aabb kVersionMarkerBox{{0.0, -10.0}, {400.0, 12.0}};

inline Vec3 VersionMarkerPosition(int i, uint64_t version) {
  return {40.0 + 55.0 * i, 6.0, static_cast<double>(version)};
}

inline HdMap VersionMarkerRoad() {
  HdMap world = StraightRoad(400.0);
  for (int i = 0; i < kNumVersionMarkers; ++i) {
    Landmark marker;
    marker.id = kFirstVersionMarkerId + i;
    marker.type = LandmarkType::kTrafficSign;
    marker.subtype = "version_marker";
    marker.position = VersionMarkerPosition(i, 1);
    (void)world.AddLandmark(std::move(marker));
  }
  return world;
}

/// The patch publishing `version`: every marker moves to z = version.
inline MapPatch VersionMarkerPatch(uint64_t version) {
  MapPatch patch;
  for (int i = 0; i < kNumVersionMarkers; ++i) {
    patch.moved_landmarks.push_back(
        {kFirstVersionMarkerId + i, VersionMarkerPosition(i, version)});
  }
  return patch;
}

inline Vec3 MarkerPosition(const Landmark& marker) { return marker.position; }
inline Vec3 MarkerPosition(const LandmarkView& marker) {
  return marker.position();
}

/// The version every marker in `region` (an HdMap or a TileView)
/// carries, or 0 when a marker is missing or two disagree (a torn read).
template <typename Region>
uint64_t MarkerVersion(const Region& region) {
  uint64_t version = 0;
  for (int i = 0; i < kNumVersionMarkers; ++i) {
    auto marker = region.FindLandmark(kFirstVersionMarkerId + i);
    if (!marker) return 0;
    auto z = static_cast<uint64_t>(MarkerPosition(*marker).z);
    if (i > 0 && z != version) return 0;
    version = z;
  }
  return version;
}

}  // namespace hdmap

#endif  // HDMAP_TESTS_TEST_WORLDS_H_
