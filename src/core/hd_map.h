#ifndef HDMAP_CORE_HD_MAP_H_
#define HDMAP_CORE_HD_MAP_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/elements.h"
#include "core/ids.h"
#include "geometry/kd_tree.h"
#include "geometry/r_tree.h"

namespace hdmap {

/// Result of locating a position on the map at lane level.
struct LaneMatch {
  ElementId lanelet_id = kInvalidId;
  double arc_length = 0.0;     ///< s along the lanelet centerline.
  double signed_offset = 0.0;  ///< Lateral offset from the centerline.
  double distance = 0.0;       ///< |signed_offset|.
};

/// The HD map: a layered container (Lanelet2 [20]) of physical features
/// (landmarks, line features, areas), relational elements (lanelets,
/// regulatory elements) and topology, with spatial query support.
///
/// Mutations invalidate the internal spatial indexes; they are rebuilt
/// lazily on the next query. Iteration order over elements is by id
/// (deterministic).
class HdMap {
 public:
  HdMap() = default;

  // --- Mutation (construction & update pipelines) ---

  /// Adds an element. Fails with kAlreadyExists when the id is taken and
  /// kInvalidArgument for id 0.
  Status AddLandmark(Landmark landmark);
  Status AddLineFeature(LineFeature feature);
  Status AddAreaFeature(AreaFeature feature);
  Status AddLanelet(Lanelet lanelet);
  Status AddRegulatoryElement(RegulatoryElement element);
  Status AddLaneBundle(LaneBundle bundle);
  Status AddMapNode(MapNode node);

  /// Replace*: swaps an existing element wholesale (same id). kNotFound
  /// if absent. Remove*: erases an element; kNotFound if absent. Neither
  /// touches other elements that reference the id — callers own
  /// referential integrity (check with Validate()), matching Add*
  /// semantics.
  Status ReplaceLineFeature(LineFeature feature);
  Status ReplaceLanelet(Lanelet lanelet);
  Status ReplaceRegulatoryElement(RegulatoryElement element);

  Status RemoveLandmark(ElementId id);
  Status RemoveLanelet(ElementId id);
  Status RemoveRegulatoryElement(ElementId id);

  /// Replaces an existing landmark's position in-place.
  Status MoveLandmark(ElementId id, const Vec3& new_position);

  // --- Lookup ---

  /// Mutable lanelet access for construction/update pipelines (e.g.
  /// topology fix-up). Invalidates spatial indexes.
  Lanelet* FindMutableLanelet(ElementId id);

  /// Mutable node access for construction pipelines.
  MapNode* FindMutableMapNode(ElementId id);

  const Landmark* FindLandmark(ElementId id) const;
  const LineFeature* FindLineFeature(ElementId id) const;
  const Lanelet* FindLanelet(ElementId id) const;
  const RegulatoryElement* FindRegulatoryElement(ElementId id) const;
  const MapNode* FindMapNode(ElementId id) const;

  const std::map<ElementId, Landmark>& landmarks() const {
    return landmarks_;
  }
  const std::map<ElementId, LineFeature>& line_features() const {
    return line_features_;
  }
  const std::map<ElementId, AreaFeature>& area_features() const {
    return area_features_;
  }
  const std::map<ElementId, Lanelet>& lanelets() const { return lanelets_; }
  const std::map<ElementId, RegulatoryElement>& regulatory_elements() const {
    return regulatory_elements_;
  }
  const std::map<ElementId, LaneBundle>& lane_bundles() const {
    return lane_bundles_;
  }
  const std::map<ElementId, MapNode>& map_nodes() const {
    return map_nodes_;
  }

  size_t NumElements() const;

  // --- Spatial queries ---

  /// Lane-level match of a position: the nearest lanelet centerline within
  /// `max_distance`, or kNotFound.
  Result<LaneMatch> MatchToLane(const Vec2& position,
                                double max_distance = 10.0) const;

  /// Lanelets whose bounding box (expanded by margin) contains the point,
  /// filtered to those whose corridor actually contains it.
  std::vector<ElementId> LaneletsContaining(const Vec2& position) const;

  /// Lanelets intersecting the query box.
  std::vector<ElementId> LaneletsInBox(const Aabb& box) const;

  /// Landmarks within radius of the query point.
  std::vector<ElementId> LandmarksNear(const Vec2& position,
                                       double radius) const;

  /// Line features intersecting the query box.
  std::vector<ElementId> LineFeaturesInBox(const Aabb& box) const;

  /// Bounding box of all physical content.
  Aabb BoundingBox() const;

  /// The speed limit applying to a lanelet, considering regulatory
  /// elements (falls back to the lanelet's own attribute).
  double EffectiveSpeedLimit(ElementId lanelet_id) const;

  /// Validates referential integrity: boundary/successor/regulatory ids
  /// must resolve, topology must be symmetric. Returns the first problem
  /// found, or OK.
  Status Validate() const;

  /// Forces the lazy spatial indexes to build now. The spatial query
  /// methods build them on first use, which mutates internal state even
  /// through const access; a map shared read-only across threads (e.g. a
  /// published MapSnapshot) must call this once, before sharing, to make
  /// concurrent const queries data-race free.
  void BuildIndexes() const { EnsureIndexes(); }

 private:
  void InvalidateIndexes();
  void EnsureIndexes() const;

  std::map<ElementId, Landmark> landmarks_;
  std::map<ElementId, LineFeature> line_features_;
  std::map<ElementId, AreaFeature> area_features_;
  std::map<ElementId, Lanelet> lanelets_;
  std::map<ElementId, RegulatoryElement> regulatory_elements_;
  std::map<ElementId, LaneBundle> lane_bundles_;
  std::map<ElementId, MapNode> map_nodes_;

  // Lazily built spatial indexes.
  mutable bool indexes_valid_ = false;
  mutable RTree lanelet_index_;
  mutable RTree line_feature_index_;
  mutable KdTree landmark_index_;
};

}  // namespace hdmap

#endif  // HDMAP_CORE_HD_MAP_H_
