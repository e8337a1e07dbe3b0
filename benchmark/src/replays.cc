#include "replays.h"

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>

#include "core/tile_view.h"
#include "net/protocol.h"
#include "storage/snapshot_store.h"

namespace hdmap::bench {

namespace {

/// Keeps the compiler from discarding a replayed call's result.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over `n` timed calls of `reps` back-to-back fn(i) each, per call,
/// in microseconds.
template <typename Fn>
double MedianCallUs(size_t n, size_t reps, Fn&& fn) {
  Samples per_call;
  for (size_t i = 0; i < n; ++i) {
    Clock::time_point start = Clock::now();
    for (size_t r = 0; r < reps; ++r) fn(i);
    per_call.Add(SecondsSince(start) / static_cast<double>(reps));
  }
  return per_call.Median() * 1e6;
}

/// The tiles MapService::Publish re-serializes for `patch` (the patch
/// kinds the benchmark generates: landmark moves and lanelet updates),
/// evaluated against the pre-patch `map`.
std::vector<TileId> TouchedTiles(const MapPatch& patch, const HdMap& map,
                                 const TileStore& tiles) {
  std::vector<Aabb> boxes;
  for (const MapPatch::Move& move : patch.moved_landmarks) {
    if (const Landmark* lm = map.FindLandmark(move.id)) {
      boxes.push_back(Aabb::FromPoint(lm->position.xy()));
    }
    boxes.push_back(Aabb::FromPoint(move.new_position.xy()));
  }
  for (const Lanelet& ll : patch.updated_lanelets) {
    if (const Lanelet* old = map.FindLanelet(ll.id)) {
      boxes.push_back(old->centerline.BoundingBox());
    }
    boxes.push_back(ll.centerline.BoundingBox());
  }
  std::map<uint64_t, TileId> touched;
  for (const Aabb& box : boxes) {
    Result<std::vector<TileId>> coverage = tiles.TileCoverage(box);
    if (!coverage.ok()) continue;
    for (const TileId& t : *coverage) touched.emplace(t.Morton(), t);
  }
  std::vector<TileId> out;
  for (const auto& [key, t] : touched) out.push_back(t);
  return out;
}

}  // namespace

bool RunReplays(const ReplayInputs& in, Report* report, std::string* error) {
  std::shared_ptr<const MapSnapshot> snap = in.service->snapshot();
  const TileStore& tiles = snap->tiles;
  auto fail = [&](const std::string& what, const Status& status) {
    *error = what + ": " + status.ToString();
    return false;
  };

  // net: response framing over the workload's own reply payloads.
  std::vector<std::string> frames;
  frames.reserve(in.payloads.size());
  for (const std::string& payload : in.payloads) {
    frames.push_back(EncodeResponseFrame(NetResponseCode::kOk, StatusCode::kOk,
                                         1, snap->version, payload));
  }
  report->Add("net.encode_response_us",
              MedianCallUs(in.payloads.size(), 16, [&](size_t i) {
                Keep(EncodeResponseFrame(NetResponseCode::kOk, StatusCode::kOk,
                                         1, snap->version, in.payloads[i]));
              }),
              "us");
  bool decoded_ok = true;
  report->Add("net.decode_response_us",
              MedianCallUs(frames.size(), 16, [&](size_t i) {
                size_t frame_size = 0;
                std::string_view body;
                uint32_t crc = 0;
                std::memcpy(&crc, frames[i].data() + 8, sizeof(crc));
                decoded_ok &= ExtractFrame(frames[i], kNetResponseMagic,
                                           kMaxNetResponseBody, &frame_size,
                                           &body) == FrameParse::kFrame;
                Result<NetResponse> response = DecodeResponseBody(body, crc);
                decoded_ok &= response.ok();
                Keep(response);
              }),
              "us");
  if (!decoded_ok) {
    *error = "replayed response frames failed to decode";
    return false;
  }

  // service: the snapshot pointer load every request starts with.
  report->Add("service.snapshot_load_ns",
              MedianCallUs(200, 1000, [&](size_t) {
                Keep(in.service->snapshot());
              }) * 1e3,
              "ns");
  report->Add("core.raw_tile_bytes_ns",
              MedianCallUs(200, 1, [&](size_t) {
                for (const TileId& id : in.tiles) Keep(tiles.RawTileBytes(id));
              }) * 1e3 / static_cast<double>(in.tiles.size()),
              "ns");

  double bytes = 0;
  for (const TileId& id : in.tiles) {
    Result<PinnedBytes> raw = tiles.RawTileBytes(id);
    if (raw.ok()) bytes += static_cast<double>(raw->size());
  }
  report->Add("core.bytes_per_tile",
              Ratio(bytes, static_cast<double>(in.tiles.size())), "B");
  double region_tiles = 0;
  for (const Aabb& box : in.boxes) {
    Result<std::vector<TileId>> ids = tiles.TilesInBox(box);
    if (ids.ok()) region_tiles += static_cast<double>(ids->size());
  }
  report->Add("core.tiles_per_region",
              Ratio(region_tiles, static_cast<double>(in.boxes.size())),
              "count");

  // service + core: the region read path, end to end and stage by stage.
  Status status;
  report->Add("service.get_region_us",
              MedianCallUs(in.boxes.size(), 1, [&](size_t i) {
                Result<HdMap> region = in.service->GetRegion(in.boxes[i]);
                if (!region.ok()) status = region.status();
                Keep(region);
              }),
              "us");
  if (!status.ok()) return fail("GetRegion replay", status);
  Samples cold, warm;
  for (const Aabb& box : in.boxes) {
    TileStore fresh(tiles);  // Copies start with a cold cache.
    for (Samples* s : {&cold, &warm}) {
      Clock::time_point start = Clock::now();
      Result<HdMap> region = fresh.LoadRegion(box, nullptr, 1);
      s->Add(SecondsSince(start));
      if (!region.ok()) return fail("LoadRegion replay", region.status());
    }
  }
  report->Add("core.load_region_cold_us", cold.Median() * 1e6, "us");
  report->Add("core.load_region_warm_us", warm.Median() * 1e6, "us");
  {
    TileStore fresh(tiles);
    report->Add("core.decode_us_per_tile",
                MedianCallUs(in.tiles.size(), 1, [&](size_t i) {
                  Result<HdMap> tile = fresh.LoadTile(in.tiles[i]);
                  if (!tile.ok()) status = tile.status();
                  Keep(tile);
                }),
                "us");
    if (!status.ok()) return fail("LoadTile replay", status);
  }
  std::vector<HdMap> regions;
  for (const Aabb& box : in.boxes) {
    Result<HdMap> region = in.service->GetRegion(box);
    if (!region.ok()) return fail("GetRegion replay", region.status());
    regions.push_back(std::move(region).value());
  }
  std::vector<std::string> encoded(regions.size());
  report->Add("core.region_encode_us",
              MedianCallUs(regions.size(), 1, [&](size_t i) {
                encoded[i] = EncodeTileV3(regions[i]);
              }),
              "us");
  report->Add("core.view_verify_us",
              MedianCallUs(encoded.size(), 1, [&](size_t i) {
                Result<TileView> view =
                    TileView::Create(encoded[i], FrameChecksum::kVerify);
                if (!view.ok()) status = view.status();
                Keep(view);
              }),
              "us");
  if (!status.ok()) return fail("TileView::Create replay", status);

  // core: copy-on-write re-serialization of each patch's touched tiles.
  Samples rebuild;
  for (const MapPatch& patch : in.patches) {
    HdMap patched = snap->map;
    Status applied = ApplyPatch(patch, &patched);
    if (!applied.ok()) return fail("ApplyPatch replay", applied);
    std::vector<TileId> touched = TouchedTiles(patch, snap->map, tiles);
    TileStore copy(tiles);
    Clock::time_point start = Clock::now();
    Status rebuilt = copy.RebuildTiles(patched, touched,
                                       ServiceOptions().publish_threads);
    rebuild.Add(SecondsSince(start));
    if (!rebuilt.ok()) return fail("RebuildTiles replay", rebuilt);
  }
  report->Add("core.rebuild_tiles_ms", rebuild.Median() * 1e3, "ms");

  // service: publishes and the delta chain on a standalone in-memory
  // service over the workload's world.
  {
    MapService standalone(ServiceOptions());
    status = standalone.Init(*in.world);
    if (!status.ok()) return fail("standalone Init", status);
    Samples publish;
    for (const MapPatch& patch : in.patches) {
      Clock::time_point start = Clock::now();
      status = standalone.ApplyPatch(patch);
      publish.Add(SecondsSince(start));
      if (!status.ok()) return fail("ApplyPatch (publish) replay", status);
    }
    report->Add("service.publish_ms", publish.Median() * 1e3, "ms");
    uint64_t newest = standalone.version();
    report->Add("service.patches_since_us",
                MedianCallUs(static_cast<size_t>(newest - 1), 4, [&](size_t i) {
                  Result<std::vector<std::string>> delta =
                      standalone.PatchesSince(1 + i);
                  if (!delta.ok()) status = delta.status();
                  Keep(delta);
                }),
                "us");
    if (!status.ok()) return fail("PatchesSince replay", status);
  }

  // storage: durable staging (WAL append + fsync) and checkpoint writes,
  // with the replicated workload's durability settings.
  std::filesystem::remove_all(in.tmp_dir);
  {
    MapService::Options options = ServiceOptions();
    options.durability.data_dir = in.tmp_dir + "/durable";
    options.durability.fsync = FsyncMode::kAlways;
    options.durability.checkpoint_every_n_publishes = 16;
    MapService durable(options);
    status = durable.Init(*in.world);
    if (!status.ok()) return fail("durable Init", status);
    const size_t stages = std::max<size_t>(64, in.patches.size());
    report->Add("service.stage_patch_us",
                MedianCallUs(stages, 1, [&](size_t i) {
                  Status staged =
                      durable.StagePatch(in.patches[i % in.patches.size()]);
                  if (!staged.ok()) status = staged;
                }),
                "us");
    if (!status.ok()) return fail("StagePatch replay", status);
  }
  {
    SnapshotStore::Options options;
    options.data_dir = in.tmp_dir + "/checkpoints";
    options.fsync = FsyncMode::kAlways;
    SnapshotStore store(options);
    Samples writes;
    for (uint64_t v = 1; v <= 3; ++v) {
      Clock::time_point start = Clock::now();
      status = store.WriteCheckpoint(tiles, v, 0);
      writes.Add(SecondsSince(start));
      if (!status.ok()) return fail("WriteCheckpoint replay", status);
    }
    report->Add("storage.checkpoint_write_ms", writes.Median() * 1e3, "ms");
  }
  std::filesystem::remove_all(in.tmp_dir);
  return true;
}

}  // namespace hdmap::bench
