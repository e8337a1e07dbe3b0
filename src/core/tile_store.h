#ifndef HDMAP_CORE_TILE_STORE_H_
#define HDMAP_CORE_TILE_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/hd_map.h"
#include "core/pinned_bytes.h"
#include "core/tile_view.h"

namespace hdmap {

class TraceSpan;

/// Tile coordinate in a uniform square tiling of the plane.
struct TileId {
  int32_t x = 0;
  int32_t y = 0;

  /// Morton (Z-order) code; the storage key. Interleaves offset-biased
  /// coordinates so nearby tiles get nearby keys.
  uint64_t Morton() const;

  friend bool operator==(const TileId& a, const TileId& b) {
    return a.x == b.x && a.y == b.y;
  }
  friend bool operator<(const TileId& a, const TileId& b) {
    return a.Morton() < b.Morton();
  }
};

/// Serving counters for the decoded-tile cache. Hits mean LoadTile /
/// LoadRegion skipped validation and Materialize entirely.
struct TileStoreStats {
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_evictions = 0;
};

/// Post-stitch integrity findings from LoadRegion. A regulatory element is
/// stitched into the region whenever any tile carrying one of its lanelets
/// is loaded, so elements near the region boundary may reference lanelets
/// that lie outside the queried box; those references are reported here
/// rather than silently kept dangling.
struct RegionReport {
  /// (regulatory element id, unresolvable lanelet id) pairs.
  std::vector<std::pair<ElementId, ElementId>> unresolved_regulatory_refs;
  /// Tiles that failed checksum/decode and were quarantined out of the
  /// stitch (partial mode only; in strict mode the load fails instead).
  /// Sorted by Morton key, i.e. deterministic across thread counts.
  std::vector<TileId> corrupt_tiles;
};

/// How LoadRegion treats a tile that fails checksum/decode.
enum class RegionReadMode {
  /// Serve what survives: quarantine the corrupt tile (skip it, count it
  /// in RegionReport::corrupt_tiles, never retry it into the cache) and
  /// stitch the rest. The production default — one bad tile must not
  /// take down a whole region.
  kAllowPartial,
  /// Fail the whole load with the tile's decode error.
  kStrict,
};

/// Keyed collection of serialized map tiles (the unit of distribution and
/// incremental update in production HD-map services; enables the
/// partitioned update workloads of Pannen et al. [44] and Qi et al. [47]).
/// Every tile is stored as a framed v3 tile (core/tile_view.h): the
/// framed bytes are the queryable representation, so GetTileView serves
/// them in place and LoadTile materializes from the same validated view.
///
/// Serving hot path: decoded tiles are kept in a bounded LRU cache, so
/// repeated LoadTile/LoadRegion calls over hot tiles skip Materialize.
/// Build and LoadRegion fan work out across threads; the serialized
/// output of Build is byte-identical regardless of thread count
/// (element-to-tile assignment is sequential and deterministic, only the
/// per-tile encoding is parallel).
///
/// Corruption resilience: tile payloads travel inside a CRC32 frame
/// (core/wire_frame.h), so a truncated or bit-flipped blob fails
/// validation with kDataLoss instead of producing a silently wrong tile;
/// so does a framed blob that is not a v3 tile. A failed tile is
/// quarantined (fail-fast on later loads, never cached) until its bytes
/// are replaced; LoadRegion can stitch around it (kAllowPartial).
///
/// Thread safety: concurrent const calls (LoadTile/LoadRegion/TilesInBox)
/// are safe with respect to the cache and quarantine set. Per-tile
/// replacement (PutTile/PutRawTile) is additionally safe against
/// concurrent readers: blob access is guarded by a shared mutex, and a
/// store-wide mutation generation keeps a reader that raced an old blob
/// from installing a stale cache entry or quarantine verdict over the new
/// bytes — the ingestion path can repair a quarantined tile while other
/// threads keep serving. Wholesale mutations (Build/RebuildTiles) and
/// copies still require external serialization against readers and other
/// writers.
class TileStore {
 public:
  /// Construction knobs. New knobs land here so signatures don't churn.
  struct Options {
    /// Edge length of one square tile, meters.
    double tile_size_m = 256.0;
    /// Max deserialized tiles kept in the LRU cache; 0 disables caching.
    size_t cache_capacity = 256;
    /// When set, cache hit/miss/eviction counters are additionally
    /// exported through this registry ("tile_store.cache_*"). Counters
    /// are cumulative across stores sharing a registry — copies of a
    /// store (e.g. successive MapSnapshot versions) keep feeding the same
    /// series. The registry must outlive the store.
    MetricsRegistry* metrics = nullptr;
    /// When set, every tile load passes through this injector at site
    /// "tile_store.load" (see common/fault_injection.h), so tests and
    /// benches can corrupt serialized tiles on demand with reproducible
    /// seeds. Must outlive the store; null disables injection.
    FaultInjector* fault_injector = nullptr;
  };

  /// FaultInjector site name instrumenting LoadTile/LoadRegion blob reads.
  static constexpr const char* kLoadFaultSite = "tile_store.load";

  /// Any single box (element bounding box in Build, query box in
  /// TilesInBox/LoadRegion) may cover at most this many tiles; larger
  /// boxes — usually a degenerate Aabb from a bad sensor fix — are
  /// rejected with kInvalidArgument instead of exploding memory.
  static constexpr int64_t kMaxTilesPerBox = 1 << 16;

  TileStore() : TileStore(Options{}) {}
  explicit TileStore(const Options& options);

  /// Copies configuration and serialized tiles; the copy starts with a
  /// cold cache and zeroed stats (but keeps the metrics binding). This is
  /// the copy-on-write step of snapshot publishing: tile bytes are
  /// immutable and reference-counted (PinnedBytes), so the copy shares
  /// them without duplicating a byte.
  TileStore(const TileStore& other);
  TileStore& operator=(const TileStore& other);

  double tile_size() const { return tile_size_; }
  size_t NumTiles() const { return tiles_.size(); }

  /// Total serialized bytes across tiles.
  size_t TotalBytes() const;

  TileId TileAt(const Vec2& p) const;

  /// Splits `map` into tiles: each element is assigned to every tile its
  /// bounding box intersects (border elements are duplicated, as in
  /// production tiling; a regulatory element rides with *every* lanelet
  /// it references). Per-tile serialization is spread over `num_threads`
  /// threads (0 = hardware concurrency). Replaces previous content and
  /// drops the cache. Fails with kInvalidArgument when an element's box
  /// covers more than kMaxTilesPerBox tiles.
  Status Build(const HdMap& map, size_t num_threads = 0);

  /// Re-derives only the given tiles from `map`, leaving every other
  /// tile's serialized bytes untouched: the incremental-update half of
  /// Build for a patch whose touched-tile set is known. A requested tile
  /// that ends up with no content is erased; every requested tile's cache
  /// entry is invalidated. Postcondition: if `tiles` covers every tile
  /// whose content changed, the store is byte-identical to a full
  /// Build(map).
  Status RebuildTiles(const HdMap& map, const std::vector<TileId>& tiles,
                      size_t num_threads = 0);

  /// Replaces one tile's payload with the v3 encoding of `tile_map` and
  /// invalidates that tile's cache and quarantine entries.
  void PutTile(const TileId& id, const HdMap& tile_map);

  /// Installs `bytes` verbatim as tile `id`'s payload — the ingestion
  /// path for tiles received over the wire from another store or service.
  /// Nothing is validated here; corrupt bytes, and framed bytes that are
  /// not a v3 tile, surface as kDataLoss (and quarantine) when the tile
  /// is first read. Invalidates the tile's cache and quarantine entries.
  void PutRawTile(const TileId& id, std::string bytes);

  /// Same as PutRawTile but zero-copy: `bytes` may be backed by an
  /// external owner (e.g. an mmap'd checkpoint), and the store pins it
  /// rather than copying it onto the heap.
  void PutPinnedTile(const TileId& id, PinnedBytes bytes);

  /// The tile as a heap HdMap: GetTileView's validation followed by
  /// TileView::Materialize (or a copy out of the decoded cache).
  /// kNotFound for absent tiles, kDataLoss (and quarantine) for corrupt
  /// ones.
  Result<HdMap> LoadTile(const TileId& id) const;

  /// Zero-copy read of one tile: validates the framed bytes once per
  /// payload generation (CRC + structural pass, cached per tile) and
  /// returns in-place accessors over them — no allocation, no decode.
  /// The returned view stays valid for its own lifetime even if the tile
  /// is replaced or the store destroyed (the PinnedTileView holds the
  /// pin). kNotFound for absent tiles, kDataLoss (and quarantine, exactly
  /// like LoadTile) for corrupt ones.
  Result<PinnedTileView> GetTileView(const TileId& id) const;

  /// The tile's serialized framed bytes, pinned — the serve-verbatim
  /// path (a network reply can hold the span with no copy and no lock).
  /// kNotFound for absent tiles. Thread-safe against Put*.
  Result<PinnedBytes> RawTileBytes(const TileId& id) const;

  /// Every tile id in the tiling intersecting `box`, present in the store
  /// or not (the touched-tile enumeration for incremental updates).
  /// kInvalidArgument when the box covers more than kMaxTilesPerBox tiles.
  Result<std::vector<TileId>> TileCoverage(const Aabb& box) const;

  /// Tile ids intersecting the query box (present tiles only).
  /// kInvalidArgument when the box covers more than kMaxTilesPerBox tiles.
  Result<std::vector<TileId>> TilesInBox(const Aabb& box) const;

  /// Every tile id present in the store, in Morton order.
  std::vector<TileId> AllTiles() const;

  /// Loads and stitches all tiles intersecting `box` into one map
  /// (duplicated border elements are inserted once). Tiles deserialize
  /// concurrently on `num_threads` threads (0 = hardware concurrency);
  /// stitching is sequential in tile order, so the result is
  /// deterministic. When `report` is non-null it receives post-stitch
  /// referential-integrity findings and the quarantined-tile list (see
  /// RegionReport). `mode` selects degraded-mode behaviour for tiles
  /// that fail checksum/decode: kAllowPartial (default) stitches the
  /// survivors and reports the corrupt tiles, kStrict fails the load.
  Result<HdMap> LoadRegion(
      const Aabb& box, RegionReport* report = nullptr,
      size_t num_threads = 0,
      RegionReadMode mode = RegionReadMode::kAllowPartial) const;

  /// Loads and stitches every tile in the store — the recovery path's
  /// whole-map read, with no query box and hence no kMaxTilesPerBox cap.
  /// Always strict: any tile failing checksum/decode fails the whole
  /// load (a recovered snapshot must be fully intact before it serves).
  Result<HdMap> LoadAll(size_t num_threads = 0) const;

  /// Tiles currently quarantined after a failed checksum/decode. A
  /// quarantined tile is reported instead of retried until its bytes are
  /// replaced (Build/RebuildTiles/PutTile/PutRawTile).
  size_t NumQuarantined() const;

  /// Snapshot of the cache counters (thread-safe).
  TileStoreStats stats() const;
  void ResetStats();

  size_t cache_capacity() const { return cache_capacity_; }

  /// Copy of every serialized blob, keyed by Morton code — byte-equality
  /// checks in tests/benches and other whole-store sweeps. Thread-safe
  /// (unlike the raw_tiles() reference accessor it replaces); prefer
  /// RawTileBytes for single tiles — it pins instead of copying.
  std::map<uint64_t, std::string> RawTilesCopy() const;

 private:
  /// Validated [lo, hi] tile range covered by `box`. Computes the tile
  /// indices in floating point first, rejecting coordinates whose tile
  /// index is not representable as int32 (the double->int32 cast in a
  /// plain TileAt call would be UB for e.g. a bad sensor fix at 1e18 m)
  /// and boxes spanning more than kMaxTilesPerBox tiles — each axis is
  /// checked before the spans are multiplied, so the product cannot
  /// overflow.
  Result<std::pair<TileId, TileId>> TileRangeForBox(const Aabb& box) const;

  /// The deterministic element->tile assignment phase of Build. When
  /// `only` is non-null, assignment is restricted to those Morton keys
  /// (the RebuildTiles path). Fails with kInvalidArgument on an oversized
  /// element box.
  Status AssignTiles(const HdMap& map,
                     const std::map<uint64_t, TileId>* only,
                     std::map<uint64_t, HdMap>* tile_maps,
                     std::map<uint64_t, TileId>* ids) const;

  /// The one validate-and-pin routine behind GetTileView and LoadTile:
  /// quarantine check, generation sample (into `*gen`), blob pin, then
  /// CRC + structural validation once per payload generation (the
  /// validated view is kept in view_cache_). A kDataLoss verdict
  /// quarantines the tile: later reads fail fast until its bytes are
  /// replaced. With `inject_faults`, the pinned bytes pass the
  /// kLoadFaultSite seam before a cached view is used; corrupted bytes
  /// are validated afresh and never cached. Failures are recorded on
  /// `span`, the caller's per-read span.
  Result<PinnedTileView> ValidatedView(const TileId& id, bool inject_faults,
                                       TraceSpan& span, uint64_t* gen) const;

  /// Cache-aware tile load; returns a shared snapshot that must only be
  /// read (never queried through the lazy-index API concurrently). A
  /// decoded-cache miss materializes from ValidatedView.
  Result<std::shared_ptr<const HdMap>> LoadTileShared(const TileId& id) const;

  /// Loads `tile_list` concurrently and stitches the survivors in tile
  /// order (deterministic): the shared body of LoadRegion and LoadAll.
  Result<HdMap> StitchTiles(const std::vector<TileId>& tile_list,
                            RegionReport* report, size_t num_threads,
                            RegionReadMode mode) const;

  std::shared_ptr<const HdMap> CacheLookup(uint64_t key) const;
  /// Installs a decode outcome (cache entry on success, quarantine on
  /// kDataLoss) observed at mutation generation `gen`; dropped when a
  /// Put* replaced the bytes since, so a racing reader cannot poison the
  /// new payload's state with the old payload's verdict.
  void CacheInsert(uint64_t key, std::shared_ptr<const HdMap> map,
                   uint64_t gen) const;
  void Quarantine(uint64_t key, uint64_t gen) const;
  /// Drops one tile's derived load state: cache entry and quarantine.
  void CacheErase(uint64_t key);
  /// Drops all derived load state: cache and quarantine set.
  void CacheClear();

  double tile_size_;
  // Blob map, guarded by tiles_mu_ for per-tile replacement vs reads
  // (wholesale Build/assignment still needs external serialization).
  // Blobs are immutable PinnedBytes: replacing a tile swaps the map
  // entry while readers holding the old pin keep a valid buffer.
  mutable std::shared_mutex tiles_mu_;
  std::map<uint64_t, PinnedBytes> tiles_;   // Morton key -> framed blob.
  std::map<uint64_t, TileId> tile_ids_;     // Morton key -> coordinates.
  // Bumped (under cache_mu_) by every mutation that replaces tile bytes;
  // lets in-flight loads detect that their verdict is stale.
  mutable std::atomic<uint64_t> mutation_gen_{0};

  // Bounded LRU cache of deserialized tiles, keyed by Morton code.
  // lru_ front = most recently used; entries hold their lru_ iterator.
  size_t cache_capacity_;
  mutable std::mutex cache_mu_;
  mutable std::list<uint64_t> lru_;
  mutable std::unordered_map<
      uint64_t, std::pair<std::shared_ptr<const HdMap>,
                          std::list<uint64_t>::iterator>>
      cache_;
  mutable TileStoreStats stats_;

  // Tiles whose payload failed checksum/decode, keyed by Morton code;
  // guarded by cache_mu_ (set during const loads, hence mutable).
  mutable std::set<uint64_t> quarantined_;

  // Validated-once views of tiles, keyed by Morton code; guarded by
  // cache_mu_ and invalidated with the decoded cache (CacheErase /
  // CacheClear). Entries are tiny (a pin plus section pointers) and
  // bounded by the tile count, so no LRU. The pinned bytes are the
  // store's own blobs — pinning them costs nothing extra.
  mutable std::unordered_map<uint64_t, PinnedTileView> view_cache_;

  // Optional registry export of the cache counters (null when unbound).
  Counter* hits_exported_ = nullptr;
  Counter* misses_exported_ = nullptr;
  Counter* evictions_exported_ = nullptr;

  // Optional fault-injection seam for tile loads (null when disabled).
  FaultInjector* faults_ = nullptr;
};

}  // namespace hdmap

#endif  // HDMAP_CORE_TILE_STORE_H_
