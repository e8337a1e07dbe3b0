// Seeded corruption fuzzing over every wire decoder. The contract under
// test: NO mutated input may crash, hang, or trigger a huge speculative
// allocation — every outcome is either a clean decode or a Status.
//
// Iteration count per (decoder, corruption family) pair comes from the
// HDMAP_FUZZ_ITERS environment variable; the default keeps the tier-1 run
// fast, and the tier-2 registration re-runs the binary at full size (see
// tests/CMakeLists.txt). The whole harness is deterministic from kSeed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "core/serialization.h"
#include "core/tile_store.h"
#include "core/tile_view.h"
#include "core/wire_frame.h"
#include "sim/road_network_generator.h"

namespace hdmap {
namespace {

constexpr uint64_t kSeed = 0xC0FFEE;

size_t FuzzIters() {
  const char* env = std::getenv("HDMAP_FUZZ_ITERS");
  if (env != nullptr) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 300;  // Tier-1 smoke size.
}

HdMap SmallTown() {
  Rng rng(11);
  TownOptions opt;
  opt.grid_rows = 2;
  opt.grid_cols = 2;
  opt.block_size = 120.0;
  auto town = GenerateTown(opt, rng);
  EXPECT_TRUE(town.ok()) << town.status().ToString();
  return std::move(town).value();
}

MapPatch SamplePatch(const HdMap& map) {
  MapPatch patch;
  Landmark lm;
  lm.id = 777001;
  lm.position = {5.0, 6.0, 7.0};
  patch.added_landmarks.push_back(lm);
  for (const auto& [id, ll] : map.lanelets()) {
    patch.updated_lanelets.push_back(ll);
    if (patch.updated_lanelets.size() >= 4) break;
  }
  for (const auto& [id, lmk] : map.landmarks()) {
    patch.removed_landmarks.push_back(id);
    if (patch.removed_landmarks.size() >= 4) break;
  }
  return patch;
}

/// One random structure-aware mutation of `blob`. Families:
///   0: flip 1-8 random bits
///   1: truncate to a random prefix
///   2: stamp 0xFFFFFFFF at a random 4-byte offset (count inflation)
///   3: splice the head of one random offset onto the tail of another
///   4: replace a run of bytes with random garbage
std::string Mutate(std::string_view blob, Rng& rng) {
  std::string m(blob);
  if (m.empty()) return m;
  switch (rng.UniformInt(0, 4)) {
    case 0: {
      int flips = rng.UniformInt(1, 8);
      for (int i = 0; i < flips; ++i) {
        size_t pos = rng.NextU32() % m.size();
        m[pos] = static_cast<char>(m[pos] ^ (1u << rng.UniformInt(0, 7)));
      }
      break;
    }
    case 1:
      m.resize(rng.NextU32() % m.size());
      break;
    case 2: {
      if (m.size() >= 4) {
        size_t pos = rng.NextU32() % (m.size() - 3);
        m[pos] = m[pos + 1] = m[pos + 2] = m[pos + 3] =
            static_cast<char>(0xFF);
      }
      break;
    }
    case 3: {
      size_t cut_a = rng.NextU32() % m.size();
      size_t cut_b = rng.NextU32() % m.size();
      m = m.substr(0, cut_a) + m.substr(cut_b);
      break;
    }
    default: {
      size_t pos = rng.NextU32() % m.size();
      size_t len = 1 + rng.NextU32() % 64;
      for (size_t i = pos; i < m.size() && i < pos + len; ++i) {
        m[i] = static_cast<char>(rng.NextU32());
      }
      break;
    }
  }
  return m;
}

/// Runs the mutation loop against one decoder over both the framed blob
/// and its payload mutated then re-framed with a valid CRC (so the frame
/// check passes and the in-decoder count guards are load-bearing).
template <typename Decoder>
void FuzzDecoder(std::string_view framed, Decoder decode,
                 const char* what) {
  auto unwrapped = UnwrapFrame(framed);
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status().ToString();
  std::string_view payload = *unwrapped;
  Rng rng(kSeed);
  size_t iters = FuzzIters();
  size_t framed_survivals = 0;
  for (size_t i = 0; i < iters; ++i) {
    // The decoder either succeeds (mutation hit dead bytes — possible
    // only on the re-framed path or an unluckily-patched CRC) or returns
    // a Status. Anything else (crash, sanitizer report, OOM) fails the
    // whole binary, which is the point.
    std::string bad_framed = Mutate(framed, rng);
    if (decode(bad_framed).ok()) ++framed_survivals;
    std::string reframed = WrapFrame(Mutate(payload, rng));
    (void)decode(reframed).ok();
  }
  // On the framed path a mutation can only survive by leaving the bytes
  // equivalent or forging a 32-bit CRC; at fuzz scale that means
  // essentially never. A rash of survivals here would mean the frame
  // check is not actually running.
  EXPECT_LE(framed_survivals, iters / 100 + 1) << what;
}

TEST(CorruptionFuzzTest, DeserializeMapNeverCrashes) {
  HdMap map = SmallTown();
  std::string blob = SerializeMap(map);
  FuzzDecoder(blob, [](std::string_view d) { return DeserializeMap(d); },
              "DeserializeMap");
}

TEST(CorruptionFuzzTest, DeserializeCompactMapNeverCrashes) {
  HdMap map = SmallTown();
  std::string blob = SerializeCompactMap(map);
  FuzzDecoder(blob,
              [](std::string_view d) { return DeserializeCompactMap(d); },
              "DeserializeCompactMap");
}

TEST(CorruptionFuzzTest, DeserializePatchNeverCrashes) {
  HdMap map = SmallTown();
  std::string blob = SerializePatch(SamplePatch(map));
  FuzzDecoder(blob, [](std::string_view d) { return DeserializePatch(d); },
              "DeserializePatch");
}

TEST(CorruptionFuzzTest, TileViewCreateNeverCrashes) {
  HdMap map = SmallTown();
  std::string blob = EncodeTileV3(map);
  FuzzDecoder(blob, [](std::string_view d) { return TileView::Create(d); },
              "TileView::Create");
}

// The offset-table family: mutate the BARE v3 payload and re-frame it
// with a freshly computed (valid) CRC, so every mutation reaches the
// structural validator — out-of-range offsets, overlapping slots,
// truncated tables — instead of dying at the frame checksum. Survivors
// must stay fully traversable (Materialize walks every record).
TEST(CorruptionFuzzTest, ReframedV3OffsetTablesNeverCrash) {
  HdMap map = SmallTown();
  std::string framed = EncodeTileV3(map);
  std::string payload(std::string_view(framed).substr(kWireFrameHeaderSize));
  Rng rng(kSeed ^ 0x33);
  size_t iters = FuzzIters();
  for (size_t i = 0; i < iters; ++i) {
    std::string bad = WrapFrame(Mutate(payload, rng));
    auto view = TileView::Create(std::string_view(bad));
    if (view.ok()) (void)view->Materialize();
  }
}

TEST(CorruptionFuzzTest, RawGarbageNeverCrashesAnyDecoder) {
  Rng rng(kSeed ^ 0x9999);
  size_t iters = FuzzIters();
  for (size_t i = 0; i < iters; ++i) {
    std::string garbage(rng.NextU32() % 256, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextU32());
    EXPECT_FALSE(DeserializeMap(garbage).ok() &&
                 DeserializeCompactMap(garbage).ok());
    (void)DeserializePatch(garbage);
  }
}

TEST(CorruptionFuzzTest, LoadRegionServesAroundMutatedTiles) {
  HdMap map = SmallTown();
  Aabb box = map.BoundingBox();
  TileStore pristine(TileStore::Options{.tile_size_m = 128.0});
  ASSERT_TRUE(pristine.Build(map).ok());
  auto present = pristine.TilesInBox(box);
  ASSERT_TRUE(present.ok());
  ASSERT_GT(present->size(), 1u);

  Rng rng(kSeed ^ 0x1234);
  // Tile count stays fixed per iteration, so scale the loop down.
  size_t iters = FuzzIters() / 10 + 10;
  for (size_t i = 0; i < iters; ++i) {
    TileStore store = pristine;  // Fresh cache + quarantine each round.
    // Mutate a random subset of tiles in place.
    size_t mutated = 0;
    for (const TileId& id : *present) {
      if (!rng.Bernoulli(0.5)) continue;
      store.PutRawTile(
          id, Mutate(pristine.RawTilesCopy().at(id.Morton()), rng));
      ++mutated;
    }
    RegionReport report;
    auto region = store.LoadRegion(box, &report);
    // Partial mode must always produce a stitched map; a mutation can at
    // worst empty it. Corrupt-tile count never exceeds what we touched
    // (a mutation may decode clean, never the other way around).
    ASSERT_TRUE(region.ok()) << region.status().ToString();
    EXPECT_LE(report.corrupt_tiles.size(), mutated);
    EXPECT_EQ(store.NumQuarantined(), report.corrupt_tiles.size());

    // Strict mode: fails iff something was corrupt.
    TileStore strict_store = store;
    auto strict = strict_store.LoadRegion(box, nullptr, 0,
                                          RegionReadMode::kStrict);
    EXPECT_EQ(strict.ok(), report.corrupt_tiles.empty());
  }
}

}  // namespace
}  // namespace hdmap
