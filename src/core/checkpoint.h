// Checkpoint/restart for Procedure 1 (BuildParallelCube).
//
// The natural barrier in the parallel cube build is the end of a
// Di-partition: at that point every rank holds its fully merged shard of
// every view in the partition and no cross-rank state is in flight. After
// each completed partition, every rank persists its view shards plus a
// progress manifest into its own directory under the checkpoint root
// (`<dir>/rank<r>/`), through the io layer and charged to the rank's
// DiskModel — so checkpoint overhead appears honestly in simulated time.
//
// A restarted build (same checkpoint dir, same inputs, same options) agrees
// cluster-wide on the resume point — the minimum over ranks of each rank's
// last complete partition, so a rank that died mid-partition forces that
// partition to be recomputed everywhere — then restores the agreed prefix
// from disk and recomputes the rest. Because serialization round-trips rows
// exactly and the build is deterministic, the restarted result is
// byte-identical to a fault-free run.
//
// Durability protocol: view files of a partition are written first, the
// manifest line naming them is appended last. A crash between the two leaves
// an incomplete partition that the manifest never mentions, so restart
// simply recomputes it (stale files are overwritten). Transient disk errors
// (SncubeTransientIoError, e.g. from fault injection) are retried through
// io/checked_file.h's RetryTransientIo — kTransientIoRetries times, each
// wait a capped exponential backoff (kBackoffInitialS doubling to
// kBackoffCapS) charged to the simulated clock — before escalating to
// SncubeIoError, i.e. a rank failure. View writes, view reads and the
// manifest append all go through that retry.
//
// Layout: each view shard `p<index>_v<mask>.ckpt` is the view frame of
// seqcube/view_store.h — [u64 partition index][u8 selected][.sncv view] —
// sealed with a CRC32C trailer, and every manifest line carries a CRC
// suffix (io/checked_file.h). Restart verifies the manifest-named shards
// (LastVerifiedPartition) and treats a shard that fails verification
// exactly like a missing one: the damaged file is quarantined to
// `<file>.corrupt`, the verified prefix ends before that partition, and the
// cluster-wide AllReduceMin agreement forces the partition to be recomputed
// everywhere — still byte-identical, never a silently wrong cube.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "net/comm.h"
#include "seqcube/cube_result.h"

namespace sncube {

struct CheckpointOptions {
  // Checkpoint root directory; empty disables checkpointing entirely.
  std::string dir;
  // Verify shard checksums on restart (LastVerifiedPartition / LoadPartition).
  // TEST-ONLY escape hatch: disabling this deliberately re-opens the silent-
  // corruption path so the chaos explorer's shrinking can be demonstrated
  // against a real bug. Never disable in production code paths.
  bool verify_restore = true;

  bool enabled() const { return !dir.empty(); }
};

// One rank's handle on the checkpoint directory. Construction creates the
// rank directory (when enabled); all disk traffic is charged to the Comm
// passed per call.
class CheckpointManager {
 public:
  // Backoff before the first transient-error retry, in simulated seconds;
  // it doubles per retry up to the cap.
  static constexpr double kBackoffInitialS = 0.05;
  static constexpr double kBackoffCapS = 1.0;

  CheckpointManager(const CheckpointOptions& opts, int rank);

  bool enabled() const { return opts_.enabled(); }

  // Largest partition index recorded complete in this rank's manifest, -1
  // when none. Malformed manifest tails (crash-truncated or checksum-failing
  // lines) are treated as absent, not as errors. Trusts the manifest: does
  // not open the named shards.
  int LastCompletePartition() const;

  // Like LastCompletePartition, but additionally verifies every shard named
  // by the manifest prefix (checksum + header parse), charging the reads and
  // CRC work to `comm`. A shard that is named but missing or damaged ends
  // the verified prefix there; damaged files are quarantined to
  // `<file>.corrupt` so nothing can half-read them later. This is the resume
  // point fed into the cluster-wide AllReduceMin agreement.
  int LastVerifiedPartition(Comm& comm);

  // Persists every view of `partition_views` as partition `index`, then
  // appends the manifest line that makes the partition durable.
  void SavePartition(Comm& comm, int index, const CubeResult& partition_views);

  // Restores partition `index`'s views into `out`. Throws SncubeIoError /
  // SncubeCorruptionError when the checkpoint is missing or damaged.
  void LoadPartition(Comm& comm, int index, CubeResult* out);

 private:
  std::filesystem::path ViewPath(int index, ViewId id) const;
  std::filesystem::path ManifestPath() const;
  // Reads one shard through the checked io layer (or, with verify_restore
  // off, raw with the trailer blindly stripped) and decodes its frame.
  ViewResult ReadShard(Comm& comm, int index, ViewId id);
  // Manifest lines parsed as (partition index, view masks), in file order,
  // stopping at the first malformed line.
  std::vector<std::pair<int, std::vector<std::uint32_t>>> ReadManifest() const;

  CheckpointOptions opts_;
  int rank_;
  std::filesystem::path rank_dir_;
};

}  // namespace sncube
