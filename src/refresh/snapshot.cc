#include "refresh/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/status.h"
#include "io/checked_file.h"
#include "seqcube/view_store.h"

namespace sncube {
namespace {

// Exact match for "epoch_<digits>" directory names; quarantined dirs
// ("….quarantine") and stray files don't parse.
bool ParseEpochDirName(const std::string& name, std::uint64_t* epoch) {
  constexpr const char kPrefix[] = "epoch_";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.rfind(kPrefix, 0) != 0) return false;
  const std::string digits = name.substr(kPrefixLen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *epoch = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

}  // namespace

SnapshotManifest SnapshotStore::ReadManifest() const {
  SnapshotManifest manifest;
  for (const std::string& text : ReadSealedLines(ManifestPath())) {
    std::istringstream ls(text);
    std::string tag;
    std::uint64_t epoch = 0;
    int shard = 0;
    if (!(ls >> tag >> epoch)) break;
    if (tag == "prepare") {
      std::vector<std::uint32_t> masks;
      for (std::uint32_t mask = 0; ls >> mask;) masks.push_back(mask);
      if (masks.empty()) break;
      manifest.prepared[epoch] = std::move(masks);
    } else if (tag == "commit") {
      if (manifest.prepared.count(epoch) != 0) {
        manifest.committed.push_back(epoch);
      }
    } else if (tag != "commitshard" || !(ls >> shard)) {
      break;
    }
  }
  return manifest;
}

SnapshotStore::SnapshotStore(std::string dir, DiskModel& disk)
    : dir_(std::move(dir)), disk_(disk) {
  SNCUBE_CHECK_MSG(!dir_.empty(), "snapshot store needs a directory");
  std::filesystem::create_directories(dir_);
}

std::filesystem::path SnapshotStore::EpochDir(std::uint64_t epoch) const {
  return dir_ / ("epoch_" + std::to_string(epoch));
}

std::filesystem::path SnapshotStore::ViewPath(std::uint64_t epoch,
                                              ViewId id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "v%05x.snap", id.mask());
  return EpochDir(epoch) / name;
}

void SnapshotStore::AppendRecord(const std::string& text) {
  RetryTransientIo("snapshot manifest append",
                   [&] { AppendSealedLine(ManifestPath(), text, disk_); });
}

ViewResult SnapshotStore::ReadView(std::uint64_t epoch, ViewId id) {
  ByteBuffer bytes;
  RetryTransientIo("snapshot view read",
                   [&] { bytes = ReadSealedFile(ViewPath(epoch, id), disk_); });
  return DecodeViewFrame(bytes, epoch, id);
}

void SnapshotStore::WriteEpoch(std::uint64_t epoch, const CubeResult& cube,
                               const std::function<void()>& mid_write) {
  std::filesystem::create_directories(EpochDir(epoch));
  std::vector<std::uint32_t> masks;
  bool first = true;
  // Ordered map walk: file write order is ascending-mask deterministic.
  for (const auto& [id, vr] : cube.views) {
    const ByteBuffer bytes = EncodeViewFrame(epoch, vr);
    // Charge + persist inside the retry: a transient failure happens before
    // any bytes land, so a retry rewrites the file from scratch.
    RetryTransientIo("snapshot view write", [&] {
      WriteSealedFile(ViewPath(epoch, id), bytes, disk_);
    });
    masks.push_back(id.mask());
    if (first && mid_write) mid_write();
    first = false;
  }
  std::sort(masks.begin(), masks.end());
  std::ostringstream line;
  line << "prepare " << epoch;
  for (std::uint32_t m : masks) line << ' ' << m;
  AppendRecord(line.str());
}

void SnapshotStore::AppendCommitShard(std::uint64_t epoch, int shard) {
  AppendRecord("commitshard " + std::to_string(epoch) + ' ' +
               std::to_string(shard));
}

void SnapshotStore::AppendCommit(std::uint64_t epoch) {
  AppendRecord("commit " + std::to_string(epoch));
}

void SnapshotStore::RemoveEpochDirsBelow(std::uint64_t epoch) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    std::uint64_t e = 0;
    if (!ParseEpochDirName(entry.path().filename().string(), &e)) continue;
    if (e < epoch) std::filesystem::remove_all(entry.path(), ec);
  }
}

RecoveredSnapshot SnapshotStore::Recover() {
  RecoveredSnapshot out;
  const SnapshotManifest manifest = ReadManifest();
  const std::vector<std::uint64_t>& committed = manifest.committed;

  // 1. Newest committed epoch whose files all verify wins; a damaged one has
  //    every damaged frame quarantined, so nothing half-reads it later, and
  //    recovery falls back to the next older.
  for (auto it = committed.rbegin(); it != committed.rend(); ++it) {
    CubeResult cube;
    bool intact = true;
    for (std::uint32_t mask : manifest.prepared.at(*it)) {
      const ViewId id(mask);
      try {
        cube.views.emplace(id, ReadView(*it, id));
      } catch (const SncubeCorruptionError&) {
        if (auto target = QuarantineFile(ViewPath(*it, id))) {
          out.quarantined.push_back(std::move(*target));
        }
        intact = false;
      } catch (const SncubeIoError&) {
        intact = false;  // missing file: nothing to quarantine
      }
    }
    if (intact) {
      out.cube = std::move(cube);
      out.epoch = *it;
      out.has_cube = true;
      break;
    }
  }

  // 2. Quarantine half-installed epoch directories: on disk but never
  //    committed inside the durable prefix (crash mid-prepare or mid-commit,
  //    or records torn off the manifest tail).
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    std::uint64_t e = 0;
    if (!ParseEpochDirName(entry.path().filename().string(), &e)) continue;
    if (std::find(committed.begin(), committed.end(), e) != committed.end()) {
      continue;
    }
    const auto target = entry.path().string() + ".quarantine";
    std::filesystem::rename(entry.path(), target, ec);
    if (!ec) out.quarantined.push_back(target);
  }
  return out;
}

}  // namespace sncube
