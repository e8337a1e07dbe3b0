#include "core/tile_store.h"

#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace hdmap {

namespace {

uint64_t Part1By1(uint32_t x) {
  uint64_t v = x;
  v = (v | (v << 16)) & 0x0000FFFF0000FFFFull;
  v = (v | (v << 8)) & 0x00FF00FF00FF00FFull;
  v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0Full;
  v = (v | (v << 2)) & 0x3333333333333333ull;
  v = (v | (v << 1)) & 0x5555555555555555ull;
  return v;
}

std::string TileName(const TileId& id) {
  return "tile (" + std::to_string(id.x) + "," + std::to_string(id.y) + ")";
}

}  // namespace

uint64_t TileId::Morton() const {
  // Bias to keep coordinates non-negative.
  uint32_t bx = static_cast<uint32_t>(static_cast<int64_t>(x) + (1 << 30));
  uint32_t by = static_cast<uint32_t>(static_cast<int64_t>(y) + (1 << 30));
  return Part1By1(bx) | (Part1By1(by) << 1);
}

TileStore::TileStore(const Options& options)
    : tile_size_(options.tile_size_m),
      cache_capacity_(options.cache_capacity),
      faults_(options.fault_injector) {
  if (options.metrics != nullptr) {
    hits_exported_ = options.metrics->GetCounter("tile_store.cache_hits");
    misses_exported_ = options.metrics->GetCounter("tile_store.cache_misses");
    evictions_exported_ =
        options.metrics->GetCounter("tile_store.cache_evictions");
  }
}

TileStore::TileStore(const TileStore& other)
    : tile_size_(other.tile_size_),
      tiles_(other.tiles_),
      tile_ids_(other.tile_ids_),
      cache_capacity_(other.cache_capacity_),
      hits_exported_(other.hits_exported_),
      misses_exported_(other.misses_exported_),
      evictions_exported_(other.evictions_exported_),
      faults_(other.faults_) {}

TileStore& TileStore::operator=(const TileStore& other) {
  if (this == &other) return *this;
  tile_size_ = other.tile_size_;
  tiles_ = other.tiles_;
  tile_ids_ = other.tile_ids_;
  cache_capacity_ = other.cache_capacity_;
  hits_exported_ = other.hits_exported_;
  misses_exported_ = other.misses_exported_;
  evictions_exported_ = other.evictions_exported_;
  faults_ = other.faults_;
  CacheClear();
  ResetStats();
  return *this;
}

size_t TileStore::TotalBytes() const {
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  size_t total = 0;
  for (const auto& [key, blob] : tiles_) total += blob.size();
  return total;
}

TileId TileStore::TileAt(const Vec2& p) const {
  return TileId{static_cast<int32_t>(std::floor(p.x / tile_size_)),
                static_cast<int32_t>(std::floor(p.y / tile_size_))};
}

Result<std::pair<TileId, TileId>> TileStore::TileRangeForBox(
    const Aabb& box) const {
  // Tile indices stay in floating point until every check has passed:
  // casting a double outside int32 range (or NaN) to int32 is UB.
  constexpr double kMinIndex = std::numeric_limits<int32_t>::min();
  constexpr double kMaxIndex = std::numeric_limits<int32_t>::max();
  double lo_x = std::floor(box.min.x / tile_size_);
  double lo_y = std::floor(box.min.y / tile_size_);
  double hi_x = std::floor(box.max.x / tile_size_);
  double hi_y = std::floor(box.max.y / tile_size_);
  // Negated comparisons so NaN coordinates are rejected too.
  if (!(lo_x >= kMinIndex && hi_x <= kMaxIndex && lo_y >= kMinIndex &&
        hi_y <= kMaxIndex && lo_x <= hi_x && lo_y <= hi_y)) {
    return Status::InvalidArgument(
        "box coordinates outside the tileable range; likely a degenerate "
        "bounding box");
  }
  // Both indices fit in int32, so each span fits in int64 exactly. The
  // per-axis checks run before the multiplication, so the product is
  // only formed when both factors are <= kMaxTilesPerBox.
  int64_t span_x = static_cast<int64_t>(hi_x - lo_x) + 1;
  int64_t span_y = static_cast<int64_t>(hi_y - lo_y) + 1;
  if (span_x > kMaxTilesPerBox || span_y > kMaxTilesPerBox ||
      span_x * span_y > kMaxTilesPerBox) {
    return Status::InvalidArgument(
        "box covers " + std::to_string(span_x) + "x" +
        std::to_string(span_y) + " tiles (max " +
        std::to_string(kMaxTilesPerBox) +
        "); likely a degenerate bounding box");
  }
  return std::make_pair(
      TileId{static_cast<int32_t>(lo_x), static_cast<int32_t>(lo_y)},
      TileId{static_cast<int32_t>(hi_x), static_cast<int32_t>(hi_y)});
}

Status TileStore::AssignTiles(const HdMap& map,
                              const std::map<uint64_t, TileId>* only,
                              std::map<uint64_t, HdMap>* tile_maps,
                              std::map<uint64_t, TileId>* ids) const {
  Status box_error;  // First oversized-box failure, if any.
  auto tiles_for_box = [&](const Aabb& box) {
    std::vector<TileId> out;
    if (box.IsEmpty() || !box_error.ok()) return out;
    auto range = TileRangeForBox(box);
    if (!range.ok()) {
      box_error = Status::InvalidArgument("element " +
                                          range.status().message());
      return out;
    }
    const TileId lo = range->first;
    const TileId hi = range->second;
    for (int32_t ty = lo.y; ty <= hi.y; ++ty) {
      for (int32_t tx = lo.x; tx <= hi.x; ++tx) {
        TileId t{tx, ty};
        if (only != nullptr && only->count(t.Morton()) == 0) continue;
        out.push_back(t);
      }
    }
    return out;
  };

  for (const auto& [id, lm] : map.landmarks()) {
    for (const TileId& t : tiles_for_box(Aabb::FromPoint(lm.position.xy()))) {
      uint64_t key = t.Morton();
      ids->emplace(key, t);
      // Ignore AlreadyExists: an element can only land once per tile.
      (void)(*tile_maps)[key].AddLandmark(lm);
    }
  }
  for (const auto& [id, lf] : map.line_features()) {
    for (const TileId& t : tiles_for_box(lf.geometry.BoundingBox())) {
      uint64_t key = t.Morton();
      ids->emplace(key, t);
      (void)(*tile_maps)[key].AddLineFeature(lf);
    }
  }
  for (const auto& [id, af] : map.area_features()) {
    for (const TileId& t : tiles_for_box(af.geometry.BoundingBox())) {
      uint64_t key = t.Morton();
      ids->emplace(key, t);
      (void)(*tile_maps)[key].AddAreaFeature(af);
    }
  }
  for (const auto& [id, ll] : map.lanelets()) {
    for (const TileId& t : tiles_for_box(ll.centerline.BoundingBox())) {
      uint64_t key = t.Morton();
      ids->emplace(key, t);
      // Cross-tile references (successors, boundaries, regulatory ids) are
      // kept verbatim: a tile is self-contained for geometry but not for
      // topology, and LoadRegion reports any reference that stays
      // unresolved after stitching.
      (void)(*tile_maps)[key].AddLanelet(ll);
    }
  }
  for (const auto& [id, reg] : map.regulatory_elements()) {
    // A regulatory element rides with every lanelet it references, so any
    // region covering one of those lanelets sees the element (previously
    // only the first reference was tiled, and the element vanished from
    // regions covering the others).
    std::set<uint64_t> reg_keys;
    for (ElementId ll_id : reg.lanelet_ids) {
      const Lanelet* ll = map.FindLanelet(ll_id);
      if (ll == nullptr) continue;
      for (const TileId& t : tiles_for_box(ll->centerline.BoundingBox())) {
        reg_keys.insert(t.Morton());
      }
    }
    for (uint64_t key : reg_keys) {
      auto it = tile_maps->find(key);
      if (it == tile_maps->end()) continue;
      (void)it->second.AddRegulatoryElement(reg);
    }
  }
  return box_error;
}

Status TileStore::Build(const HdMap& map, size_t num_threads) {
  TraceSpan span("tile_store.build");
  {
    std::unique_lock<std::shared_mutex> lock(tiles_mu_);
    tiles_.clear();
    tile_ids_.clear();
  }
  CacheClear();

  // Phase 1 (sequential, deterministic): assign every element to the tiles
  // its bounding box intersects.
  std::map<uint64_t, HdMap> tile_maps;
  std::map<uint64_t, TileId> ids;
  Status assigned = AssignTiles(map, nullptr, &tile_maps, &ids);
  if (!assigned.ok()) return assigned;

  // Phase 2 (parallel): serialize each tile independently. Each task owns
  // one output slot, so the assembled result — and therefore the stored
  // bytes — do not depend on the thread count.
  std::vector<std::pair<uint64_t, const HdMap*>> work;
  work.reserve(tile_maps.size());
  for (const auto& [key, tile_map] : tile_maps) {
    work.emplace_back(key, &tile_map);
  }
  std::vector<std::string> blobs(work.size());
  ParallelFor(
      work.size(),
      [&](size_t i) { blobs[i] = EncodeTileV3(*work[i].second); },
      num_threads);

  std::unique_lock<std::shared_mutex> lock(tiles_mu_);
  for (size_t i = 0; i < work.size(); ++i) {
    uint64_t key = work[i].first;
    tiles_[key] = PinnedBytes::FromString(std::move(blobs[i]));
    tile_ids_[key] = ids[key];
  }
  return Status::Ok();
}

Status TileStore::RebuildTiles(const HdMap& map,
                               const std::vector<TileId>& tiles,
                               size_t num_threads) {
  if (tiles.empty()) return Status::Ok();
  TraceSpan span("tile_store.rebuild");

  std::map<uint64_t, TileId> requested;
  for (const TileId& t : tiles) requested.emplace(t.Morton(), t);

  // Same deterministic assignment as Build, restricted to the requested
  // tiles; everything outside `requested` keeps its serialized bytes.
  std::map<uint64_t, HdMap> tile_maps;
  std::map<uint64_t, TileId> ids;
  HDMAP_RETURN_IF_ERROR(AssignTiles(map, &requested, &tile_maps, &ids));

  std::vector<std::pair<uint64_t, const HdMap*>> work;
  work.reserve(tile_maps.size());
  for (const auto& [key, tile_map] : tile_maps) {
    work.emplace_back(key, &tile_map);
  }
  std::vector<std::string> blobs(work.size());
  ParallelFor(
      work.size(),
      [&](size_t i) { blobs[i] = EncodeTileV3(*work[i].second); },
      num_threads);

  {
    std::unique_lock<std::shared_mutex> lock(tiles_mu_);
    // Requested tiles with no remaining content disappear from the store
    // (exactly as a full Build would never have created them).
    for (const auto& [key, id] : requested) {
      (void)id;
      if (tile_maps.count(key) == 0) {
        tiles_.erase(key);
        tile_ids_.erase(key);
      }
    }
    for (size_t i = 0; i < work.size(); ++i) {
      uint64_t key = work[i].first;
      tiles_[key] = PinnedBytes::FromString(std::move(blobs[i]));
      tile_ids_[key] = ids[key];
    }
  }
  for (const auto& [key, id] : requested) {
    (void)id;
    CacheErase(key);
  }
  return Status::Ok();
}

void TileStore::PutTile(const TileId& id, const HdMap& tile_map) {
  PutRawTile(id, EncodeTileV3(tile_map));
}

void TileStore::PutRawTile(const TileId& id, std::string bytes) {
  PutPinnedTile(id, PinnedBytes::FromString(std::move(bytes)));
}

void TileStore::PutPinnedTile(const TileId& id, PinnedBytes bytes) {
  {
    std::unique_lock<std::shared_mutex> lock(tiles_mu_);
    tiles_[id.Morton()] = std::move(bytes);
    tile_ids_[id.Morton()] = id;
  }
  // After the bytes, not before: CacheErase bumps the mutation
  // generation, so any reader still validating the old payload has
  // observed an older generation and its verdict is dropped.
  CacheErase(id.Morton());
}

Result<PinnedTileView> TileStore::ValidatedView(const TileId& id,
                                                bool inject_faults,
                                                TraceSpan& span,
                                                uint64_t* gen) const {
  const uint64_t key = id.Morton();
  std::optional<PinnedTileView> cached;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (quarantined_.count(key) > 0) {
      // Expected repeat of an already-discovered corruption: don't force
      // it into the ring on every request, or it evicts the validate span
      // that found the corrupt bytes in the first place.
      span.SetStatus(StatusCode::kDataLoss, /*force=*/false);
      return Status::DataLoss(TileName(id) +
                              " quarantined after a failed validation");
    }
    // Generation first, blob second: if a Put* replaces the bytes after
    // this read, the verdicts below are installed against a stale
    // generation and dropped (worst case a wasted validation, never a
    // poisoned cache). Sampled under cache_mu_, so a cached view is
    // always of this generation's bytes.
    *gen = mutation_gen_.load(std::memory_order_acquire);
    auto it = view_cache_.find(key);
    if (it != view_cache_.end()) cached = it->second;
  }
  PinnedBytes bytes;
  bool injected = false;
  {
    TraceSpan raw_span("tile_store.raw_load");
    if (cached.has_value()) {
      bytes = cached->bytes;
    } else {
      std::shared_lock<std::shared_mutex> lock(tiles_mu_);
      auto it = tiles_.find(key);
      if (it == tiles_.end()) {
        raw_span.SetStatus(StatusCode::kNotFound);
        span.SetStatus(StatusCode::kNotFound);
        return Status::NotFound(TileName(id));
      }
      bytes = it->second;  // Pin: valid after the lock drops, forever.
    }
    std::string corrupted;
    if (inject_faults && faults_ != nullptr &&
        faults_->MaybeCorrupt(kLoadFaultSite, bytes.view(), &corrupted)) {
      bytes = PinnedBytes::FromString(std::move(corrupted));
      injected = true;
    }
  }
  if (cached.has_value() && !injected) return *std::move(cached);
  TraceSpan validate_span("tile_store.validate");
  auto view = TileView::Create(bytes.span());
  if (!view.ok()) {
    validate_span.SetStatus(view.status().code());
    span.SetStatus(view.status().code());
    // Corrupt bytes stay corrupt: remember the verdict so every later
    // read fails fast instead of re-validating.
    if (view.status().code() == StatusCode::kDataLoss) Quarantine(key, *gen);
    return view.status();
  }
  PinnedTileView pinned{std::move(bytes), *view};
  if (injected) return pinned;  // Not the store's bytes: never cached.
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (mutation_gen_.load(std::memory_order_relaxed) == *gen) {
    view_cache_.emplace(key, pinned);
  }
  return pinned;
}

Result<std::shared_ptr<const HdMap>> TileStore::LoadTileShared(
    const TileId& id) const {
  // Cache hits are deliberately span-free: they are the hot path of every
  // cached GetRegion (already counted by tile_store.cache_hits), and a
  // span's two clock reads would cost more than the lookup itself. Spans
  // cover the slow path only: miss -> validate -> materialize.
  if (auto cached = CacheLookup(id.Morton())) return cached;
  // Child span of whatever request is loading (GetRegion fans these out
  // across ParallelFor workers, so they nest under the request's root).
  TraceSpan span("tile_store.load");
  uint64_t gen = 0;
  HDMAP_ASSIGN_OR_RETURN(PinnedTileView pinned,
                         ValidatedView(id, /*inject_faults=*/true, span, &gen));
  TraceSpan decode_span("tile_store.decode");
  Result<HdMap> tile = pinned.view.Materialize();
  if (!tile.ok()) {
    decode_span.SetStatus(tile.status().code());
    span.SetStatus(tile.status().code());
    return tile.status();
  }
  auto shared = std::make_shared<const HdMap>(std::move(tile).value());
  CacheInsert(id.Morton(), shared, gen);
  return shared;
}

Result<HdMap> TileStore::LoadTile(const TileId& id) const {
  HDMAP_ASSIGN_OR_RETURN(std::shared_ptr<const HdMap> tile,
                         LoadTileShared(id));
  return HdMap(*tile);
}

Result<PinnedTileView> TileStore::GetTileView(const TileId& id) const {
  TraceSpan span("tile_store.view");
  uint64_t gen = 0;
  return ValidatedView(id, /*inject_faults=*/false, span, &gen);
}

Result<PinnedBytes> TileStore::RawTileBytes(const TileId& id) const {
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  auto it = tiles_.find(id.Morton());
  if (it == tiles_.end()) return Status::NotFound(TileName(id));
  return it->second;
}

std::map<uint64_t, std::string> TileStore::RawTilesCopy() const {
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  std::map<uint64_t, std::string> out;
  for (const auto& [key, blob] : tiles_) {
    out.emplace(key, std::string(blob.view()));
  }
  return out;
}

Result<std::vector<TileId>> TileStore::TileCoverage(const Aabb& box) const {
  std::vector<TileId> out;
  if (box.IsEmpty()) return out;
  auto range = TileRangeForBox(box);
  if (!range.ok()) {
    return Status::InvalidArgument("query " + range.status().message());
  }
  const TileId lo = range->first;
  const TileId hi = range->second;
  for (int32_t ty = lo.y; ty <= hi.y; ++ty) {
    for (int32_t tx = lo.x; tx <= hi.x; ++tx) {
      out.push_back(TileId{tx, ty});
    }
  }
  return out;
}

Result<std::vector<TileId>> TileStore::TilesInBox(const Aabb& box) const {
  std::vector<TileId> out;
  if (box.IsEmpty()) return out;
  auto range = TileRangeForBox(box);
  if (!range.ok()) {
    return Status::InvalidArgument("query " + range.status().message());
  }
  const TileId lo = range->first;
  const TileId hi = range->second;
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  for (int32_t ty = lo.y; ty <= hi.y; ++ty) {
    for (int32_t tx = lo.x; tx <= hi.x; ++tx) {
      TileId t{tx, ty};
      if (tiles_.count(t.Morton()) > 0) out.push_back(t);
    }
  }
  return out;
}

std::vector<TileId> TileStore::AllTiles() const {
  std::shared_lock<std::shared_mutex> lock(tiles_mu_);
  std::vector<TileId> out;
  out.reserve(tile_ids_.size());
  for (const auto& [key, id] : tile_ids_) {
    (void)key;
    out.push_back(id);
  }
  return out;
}

Result<HdMap> TileStore::LoadRegion(const Aabb& box, RegionReport* report,
                                    size_t num_threads,
                                    RegionReadMode mode) const {
  HDMAP_ASSIGN_OR_RETURN(std::vector<TileId> tile_list, TilesInBox(box));
  return StitchTiles(tile_list, report, num_threads, mode);
}

Result<HdMap> TileStore::LoadAll(size_t num_threads) const {
  return StitchTiles(AllTiles(), nullptr, num_threads,
                     RegionReadMode::kStrict);
}

Result<HdMap> TileStore::StitchTiles(const std::vector<TileId>& tile_list,
                                     RegionReport* report,
                                     size_t num_threads,
                                     RegionReadMode mode) const {
  // Fan out: deserialize (or fetch from cache) every tile concurrently.
  // Each task writes its own slot; stitching below is sequential in tile
  // order, so the stitched map is independent of thread timing.
  std::vector<Result<std::shared_ptr<const HdMap>>> loaded(
      tile_list.size(), Status::Internal("tile not loaded"));
  ParallelFor(
      tile_list.size(),
      [&](size_t i) { loaded[i] = LoadTileShared(tile_list[i]); },
      num_threads);

  TraceSpan stitch_span("tile_store.stitch");
  std::vector<TileId> corrupt_tiles;
  HdMap region;
  for (size_t i = 0; i < loaded.size(); ++i) {
    Result<std::shared_ptr<const HdMap>>& tile_result = loaded[i];
    if (!tile_result.ok()) {
      if (mode == RegionReadMode::kStrict) return tile_result.status();
      // Degraded mode: the tile is already quarantined by LoadTileShared;
      // record it and keep stitching the survivors. (tile_list is in
      // Morton order, so this list is deterministic too.)
      corrupt_tiles.push_back(tile_list[i]);
      continue;
    }
    const HdMap& tile = **tile_result;
    for (const auto& [id, lm] : tile.landmarks()) {
      (void)region.AddLandmark(lm);  // Duplicates across tiles are fine.
    }
    for (const auto& [id, lf] : tile.line_features()) {
      (void)region.AddLineFeature(lf);
    }
    for (const auto& [id, af] : tile.area_features()) {
      (void)region.AddAreaFeature(af);
    }
    for (const auto& [id, ll] : tile.lanelets()) {
      (void)region.AddLanelet(ll);
    }
    for (const auto& [id, reg] : tile.regulatory_elements()) {
      (void)region.AddRegulatoryElement(reg);
    }
  }

  if (report != nullptr) {
    report->unresolved_regulatory_refs.clear();
    for (const auto& [id, reg] : region.regulatory_elements()) {
      for (ElementId ll_id : reg.lanelet_ids) {
        if (region.FindLanelet(ll_id) == nullptr) {
          report->unresolved_regulatory_refs.emplace_back(id, ll_id);
        }
      }
    }
    report->corrupt_tiles = std::move(corrupt_tiles);
  }
  return region;
}

size_t TileStore::NumQuarantined() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return quarantined_.size();
}

TileStoreStats TileStore::stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return stats_;
}

void TileStore::ResetStats() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  stats_ = TileStoreStats{};
}

std::shared_ptr<const HdMap> TileStore::CacheLookup(uint64_t key) const {
  // A capacity-0 store has no cache at all; counting its loads as misses
  // would make stats read as a malfunctioning cache rather than a
  // disabled one.
  if (cache_capacity_ == 0) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++stats_.cache_misses;
    if (misses_exported_ != nullptr) misses_exported_->Increment();
    return nullptr;
  }
  ++stats_.cache_hits;
  if (hits_exported_ != nullptr) hits_exported_->Increment();
  lru_.splice(lru_.begin(), lru_, it->second.second);  // Move to front.
  return it->second.first;
}

void TileStore::CacheInsert(uint64_t key, std::shared_ptr<const HdMap> map,
                            uint64_t gen) const {
  if (cache_capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  // A Put* replaced some tile's bytes since this decode started; the
  // decoded map may be of the old payload, so don't cache it.
  if (mutation_gen_.load(std::memory_order_relaxed) != gen) return;
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Another thread deserialized the same tile first; keep its entry.
    return;
  }
  while (cache_.size() >= cache_capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.cache_evictions;
    if (evictions_exported_ != nullptr) evictions_exported_->Increment();
  }
  lru_.push_front(key);
  cache_.emplace(key, std::make_pair(std::move(map), lru_.begin()));
}

void TileStore::CacheErase(uint64_t key) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  // Invalidate any in-flight decode of the old bytes along with the
  // stored verdicts; new bytes get a fresh one.
  mutation_gen_.fetch_add(1, std::memory_order_release);
  quarantined_.erase(key);
  view_cache_.erase(key);
  auto it = cache_.find(key);
  if (it == cache_.end()) return;
  lru_.erase(it->second.second);
  cache_.erase(it);
}

void TileStore::CacheClear() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  mutation_gen_.fetch_add(1, std::memory_order_release);
  cache_.clear();
  lru_.clear();
  quarantined_.clear();
  view_cache_.clear();
}

void TileStore::Quarantine(uint64_t key, uint64_t gen) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  // Same staleness rule as CacheInsert: never quarantine bytes that were
  // replaced while this (failed) decode was in flight.
  if (mutation_gen_.load(std::memory_order_relaxed) != gen) return;
  quarantined_.insert(key);
}

}  // namespace hdmap
