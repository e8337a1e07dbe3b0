#include "storage/snapshot_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/trace.h"
#include "storage/mmap_file.h"
#include "core/binary_io.h"
#include "core/wire_frame.h"

namespace hdmap {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kManifestFormatVersion = 1;
constexpr const char* kManifestFile = "manifest.bin";

std::string VersionDirName(uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "v%020llu",
                static_cast<unsigned long long>(version));
  return buf;
}

std::string TileFileName(uint64_t morton) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx.tile",
                static_cast<unsigned long long>(morton));
  return buf;
}

/// Inverse of VersionDirName; false for anything else (tmp dirs, junk).
bool ParseVersionDirName(const std::string& name, uint64_t* version) {
  if (name.size() != 21 || name[0] != 'v') return false;
  uint64_t v = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *version = v;
  return true;
}

struct ManifestEntry {
  uint64_t morton = 0;
  TileId id;
  uint64_t size = 0;
};

struct Manifest {
  uint64_t version = 0;
  int64_t published_unix_ms = 0;
  double tile_size_m = 0.0;
  std::vector<ManifestEntry> entries;
};

Result<Manifest> ParseManifest(std::string_view framed) {
  HDMAP_ASSIGN_OR_RETURN(std::string_view payload, UnwrapFrame(framed));
  BufferReader reader(payload);
  uint32_t format = reader.ReadU32();
  if (reader.ok() && format != kManifestFormatVersion) {
    return Status::DataLoss("unsupported manifest format " +
                            std::to_string(format));
  }
  Manifest m;
  m.version = reader.ReadU64();
  m.published_unix_ms = reader.ReadI64();
  m.tile_size_m = reader.ReadF64();
  uint64_t count = reader.ReadU64();
  // 24 bytes per entry (morton + x + y + size).
  if (!reader.CheckCount(count, 24)) return reader.status();
  m.entries.reserve(count);
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    ManifestEntry e;
    e.morton = reader.ReadU64();
    e.id.x = reader.ReadI32();
    e.id.y = reader.ReadI32();
    e.size = reader.ReadU64();
    m.entries.push_back(e);
  }
  HDMAP_RETURN_IF_ERROR(reader.status());
  return m;
}

}  // namespace

SnapshotStore::SnapshotStore(Options options) : options_(std::move(options)) {
  if (options_.retention == 0) options_.retention = 1;
  if (options_.metrics != nullptr) {
    writes_ = options_.metrics->GetCounter("storage.checkpoint_writes");
    write_failures_ =
        options_.metrics->GetCounter("storage.checkpoint_failures");
    tiles_written_ = options_.metrics->GetCounter("storage.checkpoint_tiles");
    invalid_at_load_ =
        options_.metrics->GetCounter("storage.checkpoints_invalid");
    last_bytes_ = options_.metrics->GetGauge("storage.checkpoint_bytes");
    lat_write_ = options_.metrics->GetLatency("storage.checkpoint_write");
  }
}

std::string SnapshotStore::CheckpointsRoot() const {
  return options_.data_dir + "/checkpoints";
}

std::string SnapshotStore::CheckpointDir(uint64_t version) const {
  return CheckpointsRoot() + "/" + VersionDirName(version);
}

Status SnapshotStore::WriteCheckpoint(const TileStore& tiles,
                                      uint64_t version,
                                      int64_t published_unix_ms) {
  if (options_.data_dir.empty()) {
    return Status::FailedPrecondition("SnapshotStore has no data_dir");
  }
  TraceSpan span("storage.checkpoint_write");
  ScopedTimer timer(lat_write_);
  Status result = [&]() -> Status {
    FaultInjector* faults = options_.fault_injector;
    if (faults != nullptr) {
      HDMAP_RETURN_IF_ERROR(faults->MaybeFail(kWriteFaultSite));
    }
    std::error_code ec;
    fs::create_directories(CheckpointsRoot(), ec);
    if (ec) {
      return Status::Internal("create " + CheckpointsRoot() + ": " +
                              ec.message());
    }
    const std::string tmp_dir =
        CheckpointsRoot() + "/.tmp-" + VersionDirName(version);
    fs::remove_all(tmp_dir, ec);  // Leftover from a crashed write.
    fs::create_directory(tmp_dir, ec);
    if (ec) {
      return Status::Internal("create " + tmp_dir + ": " + ec.message());
    }

    // Tiles first, manifest last: a checkpoint without a readable
    // manifest is invalid by construction, so a crash inside this loop
    // can never produce a directory that validates.
    BufferWriter manifest;
    manifest.WriteU32(kManifestFormatVersion);
    manifest.WriteU64(version);
    manifest.WriteI64(published_unix_ms);
    manifest.WriteF64(tiles.tile_size());
    size_t total_bytes = 0;
    std::vector<TileId> ids = tiles.AllTiles();
    manifest.WriteU64(ids.size());
    for (const TileId& id : ids) {
      uint64_t morton = id.Morton();
      HDMAP_ASSIGN_OR_RETURN(PinnedBytes blob, tiles.RawTileBytes(id));
      manifest.WriteU64(morton);
      manifest.WriteI32(id.x);
      manifest.WriteI32(id.y);
      // The manifest records the intended length; an injected or real
      // torn tile write then disagrees with it and fails validation.
      manifest.WriteU64(blob.size());
      std::string_view bytes = blob.view();
      std::string corrupted;
      if (faults != nullptr &&
          faults->MaybeCorrupt(kWriteFaultSite, bytes, &corrupted)) {
        bytes = corrupted;
      }
      {
        TraceSpan tile_span("storage.checkpoint_tile_write");
        Status written = WriteFileRaw(
            tmp_dir + "/" + TileFileName(morton), bytes, options_.fsync);
        if (!written.ok()) {
          tile_span.SetStatus(written.code());
          return written;
        }
      }
      total_bytes += bytes.size();
      if (tiles_written_ != nullptr) tiles_written_->Increment();
    }

    std::string framed = WrapFrame(manifest.buffer());
    std::string_view manifest_bytes = framed;
    std::string corrupted;
    if (faults != nullptr &&
        faults->MaybeCorrupt(kManifestFaultSite, manifest_bytes,
                             &corrupted)) {
      manifest_bytes = corrupted;
    }
    {
      TraceSpan manifest_span("storage.manifest_write");
      Status written = WriteFileRaw(tmp_dir + "/" + kManifestFile,
                                    manifest_bytes, options_.fsync);
      if (!written.ok()) {
        manifest_span.SetStatus(written.code());
        return written;
      }
      total_bytes += manifest_bytes.size();
      Status synced = FsyncDir(tmp_dir, options_.fsync);
      if (!synced.ok()) {
        manifest_span.SetStatus(synced.code());
        return synced;
      }
    }

    // The commit point: everything is durable in the temp dir, flip it
    // visible with one rename.
    const std::string final_dir = CheckpointDir(version);
    fs::remove_all(final_dir, ec);  // Re-checkpoint of the same version.
    fs::rename(tmp_dir, final_dir, ec);
    if (ec) {
      return Status::Internal("rename " + tmp_dir + " -> " + final_dir +
                              ": " + ec.message());
    }
    HDMAP_RETURN_IF_ERROR(FsyncDir(CheckpointsRoot(), options_.fsync));
    if (last_bytes_ != nullptr) {
      last_bytes_->Set(static_cast<double>(total_bytes));
    }
    return Status::Ok();
  }();
  if (!result.ok()) {
    span.SetStatus(result.code());
    if (write_failures_ != nullptr) write_failures_->Increment();
    return result;
  }
  if (writes_ != nullptr) writes_->Increment();
  ApplyRetention();
  return Status::Ok();
}

std::vector<uint64_t> SnapshotStore::ListCheckpoints() const {
  std::vector<uint64_t> versions;
  std::error_code ec;
  fs::directory_iterator it(CheckpointsRoot(), ec);
  if (ec) return versions;
  for (const auto& entry : it) {
    uint64_t v = 0;
    if (entry.is_directory() &&
        ParseVersionDirName(entry.path().filename().string(), &v)) {
      versions.push_back(v);
    }
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

void SnapshotStore::ApplyRetention() const {
  std::error_code ec;
  // Sweep crashed writes' leftovers.
  fs::directory_iterator it(CheckpointsRoot(), ec);
  if (ec) return;
  for (const auto& entry : it) {
    std::string name = entry.path().filename().string();
    if (name.rfind(".tmp-", 0) == 0) fs::remove_all(entry.path(), ec);
  }
  std::vector<uint64_t> versions = ListCheckpoints();
  if (versions.size() <= options_.retention) return;
  size_t excess = versions.size() - options_.retention;
  for (size_t i = 0; i < excess; ++i) {
    fs::remove_all(CheckpointDir(versions[i]), ec);
  }
  (void)FsyncDir(CheckpointsRoot(), options_.fsync);
}

Result<RecoveredSnapshot> SnapshotStore::LoadCheckpoint(
    uint64_t version, const TileStore::Options& tile_options) const {
  TraceSpan span("storage.checkpoint_load");
  const std::string dir = CheckpointDir(version);
  HDMAP_ASSIGN_OR_RETURN(std::string framed,
                         ReadFileRaw(dir + "/" + kManifestFile));
  HDMAP_ASSIGN_OR_RETURN(Manifest manifest, ParseManifest(framed));
  if (manifest.version != version) {
    return Status::DataLoss("manifest in " + dir + " claims version " +
                            std::to_string(manifest.version));
  }
  TileStore::Options opts = tile_options;
  opts.tile_size_m = manifest.tile_size_m;
  RecoveredSnapshot out;
  out.version = manifest.version;
  out.published_unix_ms = manifest.published_unix_ms;
  out.tiles = TileStore(opts);
  for (const ManifestEntry& e : manifest.entries) {
    // Zero-copy recovery: the tile file is mmap'd and pinned into the
    // store instead of being copied onto the heap. The mapping outlives
    // retention-deletes of this checkpoint (POSIX unlink semantics), so
    // the recovered store needs no further relationship with the dir.
    HDMAP_ASSIGN_OR_RETURN(std::shared_ptr<MmapFile> file,
                           MmapFile::Open(dir + "/" + TileFileName(e.morton)));
    if (file->size() != e.size) {
      return Status::DataLoss(
          "tile " + TileFileName(e.morton) + " in " + dir + " is " +
          std::to_string(file->size()) + " bytes, manifest says " +
          std::to_string(e.size));
    }
    PinnedBytes blob =
        PinnedBytes::FromOwner(file, file->data(), file->size());
    out.tiles.PutPinnedTile(e.id, std::move(blob));
  }
  // Full validation + stitch: every tile must pass its frame CRC and
  // decode before the checkpoint is considered servable.
  HDMAP_ASSIGN_OR_RETURN(out.map, out.tiles.LoadAll());
  return out;
}

Result<MappedCheckpoint> SnapshotStore::OpenMapped(uint64_t version) const {
  TraceSpan span("storage.checkpoint_open_mapped");
  const std::string dir = CheckpointDir(version);
  HDMAP_ASSIGN_OR_RETURN(std::string framed,
                         ReadFileRaw(dir + "/" + kManifestFile));
  HDMAP_ASSIGN_OR_RETURN(Manifest manifest, ParseManifest(framed));
  if (manifest.version != version) {
    return Status::DataLoss("manifest in " + dir + " claims version " +
                            std::to_string(manifest.version));
  }
  MappedCheckpoint out;
  out.version = manifest.version;
  out.published_unix_ms = manifest.published_unix_ms;
  out.tile_size_m = manifest.tile_size_m;
  for (const ManifestEntry& e : manifest.entries) {
    HDMAP_ASSIGN_OR_RETURN(std::shared_ptr<MmapFile> file,
                           MmapFile::Open(dir + "/" + TileFileName(e.morton)));
    if (file->size() != e.size) {
      return Status::DataLoss(
          "tile " + TileFileName(e.morton) + " in " + dir + " is " +
          std::to_string(file->size()) + " bytes, manifest says " +
          std::to_string(e.size));
    }
    // The once-per-generation CRC check. Views over this tile use
    // FrameChecksum::kTrust from here on: the mapping is private and the
    // file only ever replaced wholesale, so the verified bytes cannot
    // change underneath the views.
    HDMAP_RETURN_IF_ERROR(UnwrapFrame(file->view()).status());
    out.tiles.emplace(
        e.morton, PinnedBytes::FromOwner(file, file->data(), file->size()));
    out.tile_ids.emplace(e.morton, e.id);
  }
  return out;
}

Result<PinnedTileView> MappedCheckpoint::View(uint64_t morton) const {
  auto it = tiles.find(morton);
  if (it == tiles.end()) {
    return Status::NotFound("tile key " + std::to_string(morton) +
                            " not in checkpoint v" + std::to_string(version));
  }
  HDMAP_ASSIGN_OR_RETURN(
      TileView view,
      TileView::Create(it->second.span(), FrameChecksum::kTrust));
  return PinnedTileView{it->second, view};
}

Result<RecoveredSnapshot> SnapshotStore::LoadNewestValid(
    const TileStore::Options& tile_options,
    size_t* checkpoints_skipped) const {
  if (checkpoints_skipped != nullptr) *checkpoints_skipped = 0;
  std::vector<uint64_t> versions = ListCheckpoints();
  Status last_error =
      Status::NotFound("no checkpoints under " + CheckpointsRoot());
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    auto loaded = LoadCheckpoint(*it, tile_options);
    if (loaded.ok()) return loaded;
    last_error = loaded.status();
    if (checkpoints_skipped != nullptr) ++(*checkpoints_skipped);
    if (invalid_at_load_ != nullptr) invalid_at_load_->Increment();
  }
  if (versions.empty()) return last_error;
  return Status(StatusCode::kNotFound,
                "no valid checkpoint among " +
                    std::to_string(versions.size()) + " on disk (last: " +
                    last_error.ToString() + ")");
}

}  // namespace hdmap
