#include "core/hd_map.h"

#include <algorithm>
#include <string>

namespace hdmap {

namespace {

template <typename T>
Status AddTo(std::map<ElementId, T>& container, T element,
             const char* kind) {
  if (element.id == kInvalidId) {
    return Status::InvalidArgument(std::string(kind) + " id must not be 0");
  }
  auto [it, inserted] = container.emplace(element.id, std::move(element));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists(std::string(kind) + " id " +
                                 std::to_string(it->first) +
                                 " already exists");
  }
  return Status::Ok();
}

template <typename T>
const T* FindIn(const std::map<ElementId, T>& container, ElementId id) {
  auto it = container.find(id);
  return it == container.end() ? nullptr : &it->second;
}

}  // namespace

Status HdMap::AddLandmark(Landmark landmark) {
  InvalidateIndexes();
  return AddTo(landmarks_, std::move(landmark), "landmark");
}

Status HdMap::AddLineFeature(LineFeature feature) {
  InvalidateIndexes();
  return AddTo(line_features_, std::move(feature), "line feature");
}

Status HdMap::AddAreaFeature(AreaFeature feature) {
  InvalidateIndexes();
  return AddTo(area_features_, std::move(feature), "area feature");
}

Status HdMap::AddLanelet(Lanelet lanelet) {
  if (lanelet.centerline.size() < 2) {
    return Status::InvalidArgument(
        "lanelet centerline needs at least 2 points");
  }
  InvalidateIndexes();
  return AddTo(lanelets_, std::move(lanelet), "lanelet");
}

Status HdMap::AddRegulatoryElement(RegulatoryElement element) {
  return AddTo(regulatory_elements_, std::move(element),
               "regulatory element");
}

Status HdMap::AddLaneBundle(LaneBundle bundle) {
  return AddTo(lane_bundles_, std::move(bundle), "lane bundle");
}

Status HdMap::AddMapNode(MapNode node) {
  return AddTo(map_nodes_, std::move(node), "map node");
}

Status HdMap::ReplaceLineFeature(LineFeature feature) {
  auto it = line_features_.find(feature.id);
  if (it == line_features_.end()) {
    return Status::NotFound("line feature " + std::to_string(feature.id));
  }
  it->second = std::move(feature);
  InvalidateIndexes();
  return Status::Ok();
}

Status HdMap::ReplaceLanelet(Lanelet lanelet) {
  if (lanelet.centerline.size() < 2) {
    return Status::InvalidArgument(
        "lanelet centerline needs at least 2 points");
  }
  auto it = lanelets_.find(lanelet.id);
  if (it == lanelets_.end()) {
    return Status::NotFound("lanelet " + std::to_string(lanelet.id));
  }
  it->second = std::move(lanelet);
  InvalidateIndexes();
  return Status::Ok();
}

Status HdMap::ReplaceRegulatoryElement(RegulatoryElement element) {
  auto it = regulatory_elements_.find(element.id);
  if (it == regulatory_elements_.end()) {
    return Status::NotFound("regulatory element " +
                            std::to_string(element.id));
  }
  it->second = std::move(element);
  return Status::Ok();
}

Status HdMap::RemoveLandmark(ElementId id) {
  auto it = landmarks_.find(id);
  if (it == landmarks_.end()) {
    return Status::NotFound("landmark " + std::to_string(id));
  }
  landmarks_.erase(it);
  InvalidateIndexes();
  return Status::Ok();
}

Status HdMap::RemoveLanelet(ElementId id) {
  auto it = lanelets_.find(id);
  if (it == lanelets_.end()) {
    return Status::NotFound("lanelet " + std::to_string(id));
  }
  lanelets_.erase(it);
  InvalidateIndexes();
  return Status::Ok();
}

Status HdMap::RemoveRegulatoryElement(ElementId id) {
  auto it = regulatory_elements_.find(id);
  if (it == regulatory_elements_.end()) {
    return Status::NotFound("regulatory element " + std::to_string(id));
  }
  regulatory_elements_.erase(it);
  return Status::Ok();
}

Status HdMap::MoveLandmark(ElementId id, const Vec3& new_position) {
  auto it = landmarks_.find(id);
  if (it == landmarks_.end()) {
    return Status::NotFound("landmark " + std::to_string(id));
  }
  it->second.position = new_position;
  InvalidateIndexes();
  return Status::Ok();
}

Lanelet* HdMap::FindMutableLanelet(ElementId id) {
  auto it = lanelets_.find(id);
  if (it == lanelets_.end()) return nullptr;
  InvalidateIndexes();
  return &it->second;
}

MapNode* HdMap::FindMutableMapNode(ElementId id) {
  auto it = map_nodes_.find(id);
  return it == map_nodes_.end() ? nullptr : &it->second;
}

const Landmark* HdMap::FindLandmark(ElementId id) const {
  return FindIn(landmarks_, id);
}
const LineFeature* HdMap::FindLineFeature(ElementId id) const {
  return FindIn(line_features_, id);
}
const Lanelet* HdMap::FindLanelet(ElementId id) const {
  return FindIn(lanelets_, id);
}
const RegulatoryElement* HdMap::FindRegulatoryElement(ElementId id) const {
  return FindIn(regulatory_elements_, id);
}
const MapNode* HdMap::FindMapNode(ElementId id) const {
  return FindIn(map_nodes_, id);
}

size_t HdMap::NumElements() const {
  return landmarks_.size() + line_features_.size() + area_features_.size() +
         lanelets_.size() + regulatory_elements_.size() +
         lane_bundles_.size() + map_nodes_.size();
}

void HdMap::InvalidateIndexes() { indexes_valid_ = false; }

void HdMap::EnsureIndexes() const {
  if (indexes_valid_) return;
  std::vector<RTree::Entry> lanelet_entries;
  lanelet_entries.reserve(lanelets_.size());
  for (const auto& [id, ll] : lanelets_) {
    // Expand by a nominal half lane width so that QueryPoint from within
    // the lane body hits even for straight, axis-aligned lanes.
    lanelet_entries.push_back({ll.centerline.BoundingBox().Expanded(3.0), id});
  }
  lanelet_index_ = RTree(std::move(lanelet_entries));

  std::vector<RTree::Entry> line_entries;
  line_entries.reserve(line_features_.size());
  for (const auto& [id, lf] : line_features_) {
    line_entries.push_back({lf.geometry.BoundingBox(), id});
  }
  line_feature_index_ = RTree(std::move(line_entries));

  std::vector<KdTree::Entry> landmark_entries;
  landmark_entries.reserve(landmarks_.size());
  for (const auto& [id, lm] : landmarks_) {
    landmark_entries.push_back({lm.position.xy(), id});
  }
  landmark_index_ = KdTree(std::move(landmark_entries));
  indexes_valid_ = true;
}

Result<LaneMatch> HdMap::MatchToLane(const Vec2& position,
                                     double max_distance) const {
  EnsureIndexes();
  std::vector<int64_t> candidates =
      lanelet_index_.Query(Aabb::FromPoint(position, max_distance));
  LaneMatch best;
  double best_distance = max_distance;
  bool found = false;
  for (int64_t id : candidates) {
    const Lanelet& ll = lanelets_.at(id);
    LineStringProjection proj = ll.centerline.Project(position);
    if (proj.distance <= best_distance) {
      best_distance = proj.distance;
      best.lanelet_id = id;
      best.arc_length = proj.arc_length;
      best.signed_offset = proj.signed_offset;
      best.distance = proj.distance;
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound("no lanelet within max_distance");
  }
  return best;
}

std::vector<ElementId> HdMap::LaneletsContaining(const Vec2& position) const {
  EnsureIndexes();
  std::vector<ElementId> out;
  for (int64_t id : lanelet_index_.QueryPoint(position)) {
    const Lanelet& ll = lanelets_.at(id);
    // Treat the lane body as the corridor within half a lane width
    // (estimated from the boundary spacing when available, else 2 m).
    double half_width = 2.0;
    const LineFeature* left = FindLineFeature(ll.left_boundary_id);
    const LineFeature* right = FindLineFeature(ll.right_boundary_id);
    LineStringProjection proj = ll.centerline.Project(position);
    if (left != nullptr && right != nullptr && !left->geometry.empty() &&
        !right->geometry.empty()) {
      double width = left->geometry.DistanceTo(proj.point) +
                     right->geometry.DistanceTo(proj.point);
      half_width = width / 2.0;
    }
    if (proj.distance <= half_width &&
        proj.arc_length > 0.0 && proj.arc_length < ll.Length()) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<ElementId> HdMap::LaneletsInBox(const Aabb& box) const {
  EnsureIndexes();
  return lanelet_index_.Query(box);
}

std::vector<ElementId> HdMap::LandmarksNear(const Vec2& position,
                                            double radius) const {
  EnsureIndexes();
  std::vector<ElementId> out;
  for (const KdTree::Entry& e : landmark_index_.RadiusSearch(position,
                                                             radius)) {
    out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ElementId> HdMap::LineFeaturesInBox(const Aabb& box) const {
  EnsureIndexes();
  return line_feature_index_.Query(box);
}

Aabb HdMap::BoundingBox() const {
  Aabb box;
  for (const auto& [id, lf] : line_features_) {
    box.Extend(lf.geometry.BoundingBox());
  }
  for (const auto& [id, ll] : lanelets_) {
    box.Extend(ll.centerline.BoundingBox());
  }
  for (const auto& [id, lm] : landmarks_) {
    box.Extend(lm.position.xy());
  }
  for (const auto& [id, af] : area_features_) {
    box.Extend(af.geometry.BoundingBox());
  }
  return box;
}

double HdMap::EffectiveSpeedLimit(ElementId lanelet_id) const {
  const Lanelet* ll = FindLanelet(lanelet_id);
  if (ll == nullptr) return 0.0;
  double limit = ll->speed_limit_mps;
  for (ElementId reg_id : ll->regulatory_ids) {
    const RegulatoryElement* reg = FindRegulatoryElement(reg_id);
    if (reg != nullptr && reg->type == RegulatoryType::kSpeedLimit &&
        reg->speed_limit_mps > 0.0) {
      limit = std::min(limit, reg->speed_limit_mps);
    }
  }
  return limit;
}

Status HdMap::Validate() const {
  for (const auto& [id, ll] : lanelets_) {
    auto check_line = [&](ElementId line_id, const char* what) -> Status {
      if (line_id != kInvalidId && FindLineFeature(line_id) == nullptr) {
        return Status::FailedPrecondition(
            "lanelet " + std::to_string(id) + ": dangling " + what + " " +
            std::to_string(line_id));
      }
      return Status::Ok();
    };
    HDMAP_RETURN_IF_ERROR(check_line(ll.left_boundary_id, "left boundary"));
    HDMAP_RETURN_IF_ERROR(check_line(ll.right_boundary_id, "right boundary"));
    for (ElementId succ : ll.successors) {
      const Lanelet* s = FindLanelet(succ);
      if (s == nullptr) {
        return Status::FailedPrecondition(
            "lanelet " + std::to_string(id) + ": dangling successor " +
            std::to_string(succ));
      }
      if (std::find(s->predecessors.begin(), s->predecessors.end(), id) ==
          s->predecessors.end()) {
        return Status::FailedPrecondition(
            "topology asymmetry: " + std::to_string(id) + " -> " +
            std::to_string(succ) + " lacks back link");
      }
    }
    for (ElementId reg_id : ll.regulatory_ids) {
      if (FindRegulatoryElement(reg_id) == nullptr) {
        return Status::FailedPrecondition(
            "lanelet " + std::to_string(id) + ": dangling regulatory " +
            std::to_string(reg_id));
      }
    }
  }
  for (const auto& [id, reg] : regulatory_elements_) {
    for (ElementId ll_id : reg.lanelet_ids) {
      if (FindLanelet(ll_id) == nullptr) {
        return Status::FailedPrecondition(
            "regulatory " + std::to_string(id) + ": dangling lanelet " +
            std::to_string(ll_id));
      }
    }
  }
  for (const auto& [id, bundle] : lane_bundles_) {
    for (ElementId ll_id : bundle.lanelet_ids) {
      if (FindLanelet(ll_id) == nullptr) {
        return Status::FailedPrecondition(
            "bundle " + std::to_string(id) + ": dangling lanelet " +
            std::to_string(ll_id));
      }
    }
  }
  return Status::Ok();
}

}  // namespace hdmap
