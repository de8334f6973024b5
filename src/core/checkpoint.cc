#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "common/status.h"
#include "io/checked_file.h"
#include "obs/trace.h"
#include "seqcube/view_store.h"

namespace sncube {
namespace {

// Runs `op` (a simulated-disk charge) under RetryTransientIo, charging each
// wait before a retry — capped exponential backoff — to the rank's clock.
void WithBackoff(Comm& comm, const std::string& what,
                 const std::function<void()>& op) {
  double backoff = CheckpointManager::kBackoffInitialS;
  RetryTransientIo("checkpoint " + what, op, [&] {
    // The wait is real elapsed time on this rank, so it belongs on the
    // simulated clock (a straggler's waits stretch with its slowdown).
    comm.ChargeCpu(backoff);
    backoff = std::min(backoff * 2.0, CheckpointManager::kBackoffCapS);
  });
}

}  // namespace

CheckpointManager::CheckpointManager(const CheckpointOptions& opts, int rank)
    : opts_(opts), rank_(rank) {
  if (!enabled()) return;
  rank_dir_ = std::filesystem::path(opts_.dir) /
              ("rank" + std::to_string(rank_));
  std::filesystem::create_directories(rank_dir_);
}

std::filesystem::path CheckpointManager::ViewPath(int index, ViewId id) const {
  char name[48];
  std::snprintf(name, sizeof(name), "p%03d_v%05x.ckpt", index, id.mask());
  return rank_dir_ / name;
}

std::filesystem::path CheckpointManager::ManifestPath() const {
  return rank_dir_ / "progress.log";
}

std::vector<std::pair<int, std::vector<std::uint32_t>>>
CheckpointManager::ReadManifest() const {
  std::vector<std::pair<int, std::vector<std::uint32_t>>> entries;
  // Every line carries a CRC suffix; a line that fails verification — torn
  // mid-write, bit-flipped, or two appends fused by a torn newline — ends
  // the durable prefix, exactly like a crash-truncated tail.
  for (const std::string& text : ReadSealedLines(ManifestPath())) {
    std::istringstream ls(text);
    std::string tag;
    int index = -1;
    if (!(ls >> tag >> index) || tag != "part" || index < 0) break;
    std::vector<std::uint32_t> masks;
    std::uint32_t mask = 0;
    while (ls >> mask) masks.push_back(mask);
    if (masks.empty()) break;  // crash-truncated line: partition incomplete
    entries.emplace_back(index, std::move(masks));
  }
  return entries;
}

int CheckpointManager::LastCompletePartition() const {
  const auto entries = ReadManifest();
  int last = -1;
  for (const auto& [index, masks] : entries) last = std::max(last, index);
  return last;
}

void CheckpointManager::SavePartition(Comm& comm, int index,
                                      const CubeResult& partition_views) {
  SNCUBE_CHECK(enabled());
  SNCUBE_TRACE_SPAN_IDX("ckpt-save", index);
  std::vector<std::uint32_t> masks;
  // CubeResult::views is an ordered map, so this walk — and with it the
  // per-view CRC charges and the shard-file write order — is ascending-mask
  // deterministic on every rank and every run.
  for (const auto& [id, vr] : partition_views.views) {
    const ByteBuffer bytes =
        EncodeViewFrame(static_cast<std::uint64_t>(index), vr);
    // Sealing cost: one CRC pass over the shard, on the simulated clock so
    // integrity overhead is visible in the checkpoint phase tables.
    comm.ChargeCpu(static_cast<double>(bytes.size()) *
                   comm.cost().cpu_crc_byte_s);
    // The whole sealed write (charge + persist) sits inside the retry: a
    // transient failure happens before any bytes land, so retrying rewrites
    // the file from scratch — idempotent.
    WithBackoff(comm, "write", [&] {
      WriteSealedFile(ViewPath(index, id), bytes, comm.disk());
    });
    masks.push_back(id.mask());
  }
  // The ordered walk above already produced ascending masks; keep the sort
  // as a cheap belt-and-braces guarantee that the manifest stays canonical
  // even if the collection order ever changes.
  std::sort(masks.begin(), masks.end());

  // The manifest line is the commit point: written only after every view of
  // the partition is safely on disk. Same capped-backoff retry path as the
  // shard writes.
  std::ostringstream line;
  line << "part " << index;
  for (std::uint32_t m : masks) line << ' ' << m;
  const std::string text = line.str();
  comm.ChargeCpu(static_cast<double>(text.size()) *
                 comm.cost().cpu_crc_byte_s);
  WithBackoff(comm, "manifest append", [&] {
    AppendSealedLine(ManifestPath(), text, comm.disk());
  });
}

ViewResult CheckpointManager::ReadShard(Comm& comm, int index, ViewId id) {
  const std::filesystem::path path = ViewPath(index, id);
  const auto tag = static_cast<std::uint64_t>(index);
  if (opts_.verify_restore) {
    ByteBuffer bytes;
    WithBackoff(comm, "read",
                [&] { bytes = ReadSealedFile(path, comm.disk()); });
    // Verification cost: one CRC pass over the sealed shard.
    comm.ChargeCpu(static_cast<double>(bytes.size() + kFrameTrailerBytes) *
                   comm.cost().cpu_crc_byte_s);
    return DecodeViewFrame(bytes, tag, id);
  }
  // TEST-ONLY unverified path (opts_.verify_restore == false): reads the
  // sealed file raw and blindly drops the trailer without checking it —
  // deliberately re-opening the silent-corruption hole so the chaos
  // explorer has a real bug to find and shrink.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw SncubeIoError("checkpoint: missing view file " + path.string());
  }
  WithBackoff(comm, "read", [&] { comm.disk().ChargeRead(size); });
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw SncubeIoError("checkpoint: cannot open " + path.string());
  }
  ByteBuffer bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    throw SncubeIoError("checkpoint: short read from " + path.string());
  }
  bytes.resize(bytes.size() > kFrameTrailerBytes
                   ? bytes.size() - kFrameTrailerBytes
                   : 0);
  return DecodeViewFrame(bytes, tag, id);
}

void CheckpointManager::LoadPartition(Comm& comm, int index, CubeResult* out) {
  SNCUBE_CHECK(enabled());
  SNCUBE_TRACE_SPAN_IDX("ckpt-load", index);
  const auto entries = ReadManifest();
  const std::vector<std::uint32_t>* masks = nullptr;
  for (const auto& [i, m] : entries) {
    if (i == index) masks = &m;
  }
  if (masks == nullptr) {
    throw SncubeIoError("checkpoint: partition " + std::to_string(index) +
                        " not recorded complete for rank " +
                        std::to_string(rank_));
  }
  for (std::uint32_t mask : *masks) {
    const ViewId id(mask);
    out->views[id] = ReadShard(comm, index, id);
  }
}

int CheckpointManager::LastVerifiedPartition(Comm& comm) {
  if (!opts_.verify_restore) return LastCompletePartition();
  int last = -1;
  for (const auto& [index, masks] : ReadManifest()) {
    bool entry_ok = true;
    for (std::uint32_t mask : masks) {
      const ViewId id(mask);
      try {
        ReadShard(comm, index, id);
      } catch (const SncubeCorruptionError&) {
        // A manifest-named shard that fails verification is treated exactly
        // like a missing one — except the damaged bytes are quarantined.
        QuarantineFile(ViewPath(index, id));
        entry_ok = false;
      } catch (const SncubeIoError&) {
        entry_ok = false;  // missing or unreadable: partition incomplete
      }
      if (!entry_ok) break;
    }
    // Restore runs over the contiguous prefix 0..resume point, so the first
    // damaged entry ends what this rank can offer; the AllReduceMin
    // agreement then forces the cluster to recompute from there.
    if (!entry_ok) break;
    last = std::max(last, index);
  }
  return last;
}

}  // namespace sncube
