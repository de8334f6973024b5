// CheckpointManager unit tests: save/load round-trip, manifest commit-point
// semantics, crash-truncation tolerance, transient-error retry with backoff
// charged to the simulated clock, and escalation after the retry budget.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/parallel_cube.h"
#include "io/disk.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "net/fault.h"
#include "relation/serialize.h"

namespace sncube {
namespace {

std::filesystem::path FreshDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_ckpt_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

// A small two-view partition result with recognizable contents.
CubeResult MakePartition() {
  CubeResult cube;
  ViewResult a;
  a.id = ViewId::FromDims({0, 1});
  a.order = {1, 0};
  a.selected = true;
  a.rel = Relation(2);
  a.rel.Append(std::vector<Key>{3, 1}, 10);
  a.rel.Append(std::vector<Key>{4, 1}, -7);
  cube.views[a.id] = a;
  ViewResult b;
  b.id = ViewId::FromDims({2});
  b.order = {2};
  b.selected = false;  // auxiliary views round-trip too
  b.rel = Relation(1);
  b.rel.Append(std::vector<Key>{9}, 42);
  cube.views[b.id] = b;
  return cube;
}

TEST(Checkpoint, DisabledWhenDirEmpty) {
  CheckpointOptions opts;
  EXPECT_FALSE(opts.enabled());
  CheckpointManager mgr(opts, 0);
  EXPECT_FALSE(mgr.enabled());
  EXPECT_EQ(mgr.LastCompletePartition(), -1);
}

TEST(Checkpoint, SaveLoadRoundTripPreservesViews) {
  const auto dir = FreshDir("roundtrip");
  const CubeResult cube = MakePartition();
  Cluster cluster(1);
  cluster.Run([&](Comm& comm) {
    CheckpointOptions opts;
    opts.dir = dir.string();
    CheckpointManager mgr(opts, comm.rank());
    EXPECT_EQ(mgr.LastCompletePartition(), -1);
    mgr.SavePartition(comm, 0, cube);
    mgr.SavePartition(comm, 2, cube);  // indices need not be contiguous
    EXPECT_EQ(mgr.LastCompletePartition(), 2);

    CubeResult restored;
    mgr.LoadPartition(comm, 0, &restored);
    ASSERT_EQ(restored.views.size(), cube.views.size());
    for (const auto& [id, vr] : cube.views) {
      const auto it = restored.views.find(id);
      ASSERT_NE(it, restored.views.end());
      EXPECT_EQ(it->second.order, vr.order);
      EXPECT_EQ(it->second.selected, vr.selected);
      EXPECT_EQ(it->second.rel, vr.rel);
      EXPECT_EQ(SerializeRelation(it->second.rel), SerializeRelation(vr.rel));
    }
    // Checkpoint traffic went through the io layer: blocks were charged.
    EXPECT_GT(comm.disk().blocks_total(), 0u);
  });
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ManifestLineIsTheCommitPoint) {
  const auto dir = FreshDir("commit");
  const CubeResult cube = MakePartition();
  Cluster cluster(1);
  cluster.Run([&](Comm& comm) {
    CheckpointOptions opts;
    opts.dir = dir.string();
    CheckpointManager mgr(opts, comm.rank());
    mgr.SavePartition(comm, 0, cube);

    // Simulate a crash after partition 1's view files hit disk but before
    // its manifest line: copy partition 0's files under partition-1 names.
    for (const auto& [id, vr] : cube.views) {
      char from[32];
      char to[32];
      std::snprintf(from, sizeof(from), "p%03d_v%05x.ckpt", 0, id.mask());
      std::snprintf(to, sizeof(to), "p%03d_v%05x.ckpt", 1, id.mask());
      std::filesystem::copy_file(dir / "rank0" / from, dir / "rank0" / to);
    }
    EXPECT_EQ(mgr.LastCompletePartition(), 0);  // 1 never committed
    CubeResult restored;
    EXPECT_THROW(mgr.LoadPartition(comm, 1, &restored), SncubeIoError);
  });
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, TruncatedManifestTailIsIgnoredNotFatal) {
  const auto dir = FreshDir("truncated");
  const CubeResult cube = MakePartition();
  Cluster cluster(1);
  cluster.Run([&](Comm& comm) {
    CheckpointOptions opts;
    opts.dir = dir.string();
    CheckpointManager mgr(opts, comm.rank());
    mgr.SavePartition(comm, 0, cube);
    mgr.SavePartition(comm, 1, cube);
    {
      // A crash mid-append leaves a half-written line at the tail.
      std::ofstream out(dir / "rank0" / "progress.log", std::ios::app);
      out << "part 2";  // no masks, no newline
    }
    EXPECT_EQ(mgr.LastCompletePartition(), 1);
    CubeResult restored;
    mgr.LoadPartition(comm, 1, &restored);  // committed entries still load
    EXPECT_EQ(restored.views.size(), cube.views.size());
  });
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, CorruptViewFileThrowsTypedCorruptionError) {
  const auto dir = FreshDir("corrupt");
  const CubeResult cube = MakePartition();
  Cluster cluster(1);
  cluster.Run([&](Comm& comm) {
    CheckpointOptions opts;
    opts.dir = dir.string();
    CheckpointManager mgr(opts, comm.rank());
    mgr.SavePartition(comm, 0, cube);
    // Flip a byte in one view file's magic, which follows the frame's
    // 8-byte partition tag and its selected byte.
    char name[32];
    std::snprintf(name, sizeof(name), "p%03d_v%05x.ckpt", 0,
                  cube.views.begin()->first.mask());
    const auto path = dir / "rank0" / name;
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(9);
    f.put('\x00');
    f.close();
    CubeResult restored;
    EXPECT_THROW(mgr.LoadPartition(comm, 0, &restored), SncubeCorruptionError);
  });
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, TransientDiskErrorsAreRetriedWithBackoffOnTheClock) {
  const auto dir = FreshDir("retry");
  const CubeResult cube = MakePartition();
  auto run = [&](const char* plan) {
    Cluster cluster(1);
    if (plan != nullptr) cluster.set_fault_plan(FaultPlan::Parse(plan));
    double local_time = 0;
    cluster.Run([&](Comm& comm) {
      CheckpointOptions opts;
      opts.dir = dir.string();
      CheckpointManager mgr(opts, comm.rank());
      mgr.SavePartition(comm, 0, cube);
      CubeResult restored;
      mgr.LoadPartition(comm, 0, &restored);
      EXPECT_EQ(restored.views.size(), cube.views.size());
      local_time = comm.LocalTime();
    });
    std::filesystem::remove_all(dir);
    return local_time;
  };
  const double clean = run(nullptr);
  // Rate 0.3 with 4 retries: some ops fail transiently and are retried (the
  // draws are deterministic under seed 11), none exhausts the budget.
  const double faulty = run("diskerr:0:0.3;seed:11");
  EXPECT_GT(faulty, clean);  // the backoff waits landed on the sim clock
}

TEST(Checkpoint, PersistentDiskErrorsEscalateAfterRetryBudget) {
  const auto dir = FreshDir("escalate");
  const CubeResult cube = MakePartition();
  Cluster cluster(1);
  cluster.set_fault_plan(FaultPlan::Parse("diskerr:0:1.0;seed:5"));
  cluster.Run([&](Comm& comm) {
    CheckpointOptions opts;
    opts.dir = dir.string();
    CheckpointManager mgr(opts, comm.rank());
    try {
      mgr.SavePartition(comm, 0, cube);
      ADD_FAILURE() << "persistent disk errors must escalate";
    } catch (const SncubeIoError& e) {
      EXPECT_NE(std::string(e.what()).find("4 retries"), std::string::npos);
    }
  });
  std::filesystem::remove_all(dir);
}

// S2 regression guard: the manifest append itself (not just the shard
// writes) must ride the capped-backoff transient-retry path. The hook fails
// exactly the manifest append's ChargeWrite — the third write of a two-view
// SavePartition — once.
TEST(Checkpoint, ManifestAppendIsRetriedOnTransientError) {
  class FailNthWriteOnce : public DiskFaultHook {
   public:
    explicit FailNthWriteOnce(int nth) : nth_(nth) {}
    bool NextOpFails(bool is_write) override {
      if (!is_write) return false;
      return writes_++ == nth_;
    }
    WriteFault NextWriteFault(std::size_t) override { return {}; }
    int writes() const { return writes_; }

   private:
    int nth_;
    int writes_ = 0;
  };

  const auto dir = FreshDir("manifest_retry");
  const CubeResult cube = MakePartition();
  Cluster cluster(1);
  cluster.Run([&](Comm& comm) {
    CheckpointOptions opts;
    opts.dir = dir.string();
    CheckpointManager mgr(opts, comm.rank());
    FailNthWriteOnce hook(2);  // writes 0,1 = the two shards; 2 = manifest
    comm.disk().set_fault_hook(&hook);
    const double before = comm.LocalTime();
    mgr.SavePartition(comm, 0, cube);
    comm.disk().set_fault_hook(nullptr);
    // The append failed once and was retried: one extra write op, and the
    // first backoff wait landed on the simulated clock.
    EXPECT_EQ(hook.writes(), 4);
    EXPECT_GE(comm.LocalTime() - before, CheckpointManager::kBackoffInitialS);
    // The retried append committed the partition, undamaged.
    EXPECT_EQ(mgr.LastCompletePartition(), 0);
    CubeResult restored;
    mgr.LoadPartition(comm, 0, &restored);
    EXPECT_EQ(restored.views.size(), cube.views.size());
  });
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, VerifiedResumeQuarantinesDamagedShard) {
  const auto dir = FreshDir("quarantine");
  const CubeResult cube = MakePartition();
  Cluster cluster(1);
  cluster.Run([&](Comm& comm) {
    CheckpointOptions opts;
    opts.dir = dir.string();
    CheckpointManager mgr(opts, comm.rank());
    mgr.SavePartition(comm, 0, cube);
    mgr.SavePartition(comm, 1, cube);
    EXPECT_EQ(mgr.LastVerifiedPartition(comm), 1);

    // Flip one payload byte in a partition-1 shard.
    char name[32];
    std::snprintf(name, sizeof(name), "p%03d_v%05x.ckpt", 1,
                  cube.views.begin()->first.mask());
    const auto path = dir / "rank0" / name;
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(10);
      const char flipped = static_cast<char>(f.peek() ^ 0x10);
      f.put(flipped);
    }
    // The manifest still claims partition 1, but verification ends the
    // usable prefix at 0 and quarantines the damaged file.
    EXPECT_EQ(mgr.LastCompletePartition(), 1);
    EXPECT_EQ(mgr.LastVerifiedPartition(comm), 0);
    EXPECT_TRUE(std::filesystem::exists(path.string() + ".corrupt"));
    EXPECT_FALSE(std::filesystem::exists(path));
    // The quarantined partition now loads as missing, not as wrong data.
    CubeResult restored;
    EXPECT_THROW(mgr.LoadPartition(comm, 1, &restored), SncubeIoError);
    // Partition 0 is untouched.
    mgr.LoadPartition(comm, 0, &restored);
    EXPECT_EQ(restored.views.size(), cube.views.size());
  });
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Torn-write crash points, end to end: a full p-rank build leaves a complete
// checkpoint; each scenario damages it the way a specific crash or silent
// fault would, and the restarted build must recover to a byte-identical
// cube — for p = 2 and p = 4.

using ShardBytes = std::vector<std::map<std::uint32_t, ByteBuffer>>;

ShardBytes BuildWithCheckpoint(const std::filesystem::path& dir, int p,
                               const DatasetSpec& spec, const Schema& schema) {
  ShardBytes shards(static_cast<std::size_t>(p));
  Cluster cluster(p);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, p, comm.rank());
    ParallelCubeOptions opts;
    opts.checkpoint.dir = dir.string();
    CubeResult cube = BuildParallelCube(comm, raw, schema, AllViews(3), opts);
    std::map<std::uint32_t, ByteBuffer> mine;
    for (const auto& [id, vr] : cube.views) {
      mine[id.mask()] = SerializeRelation(vr.rel);
    }
    std::lock_guard<std::mutex> lock(mu);
    shards[static_cast<std::size_t>(comm.rank())] = std::move(mine);
  });
  return shards;
}

// Largest manifest-named shard file of rank 0 (deterministic pick).
std::filesystem::path PickShardFile(const std::filesystem::path& dir) {
  std::filesystem::path best;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir / "rank0")) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.substr(name.size() - 5) == ".ckpt" &&
        (best.empty() || entry.path().string() > best.string())) {
      best = entry.path();
    }
  }
  EXPECT_FALSE(best.empty());
  return best;
}

TEST(CheckpointCrashPoints, AllTornWriteScenariosRestartByteIdentical) {
  DatasetSpec spec;
  spec.rows = 1000;
  spec.cardinalities = {8, 5, 3};
  spec.seed = 23;
  const Schema schema = spec.MakeSchema();

  for (int p : {2, 4}) {
    const auto dir = FreshDir("crashpoints_p" + std::to_string(p));
    const ShardBytes golden = BuildWithCheckpoint(dir, p, spec, schema);
    const auto manifest = dir / "rank0" / "progress.log";

    // Each scenario damages a pristine copy of the completed checkpoint, so
    // scenarios stay independent (a rebuild over a damaged dir appends new
    // manifest lines, which would compound across scenarios otherwise).
    const auto pristine = std::filesystem::path(dir.string() + "_pristine");
    std::filesystem::remove_all(pristine);
    std::filesystem::copy(dir, pristine,
                          std::filesystem::copy_options::recursive);
    auto restore_pristine = [&] {
      std::filesystem::remove_all(dir);
      std::filesystem::copy(pristine, dir,
                            std::filesystem::copy_options::recursive);
    };

    auto rebuild_and_compare = [&](const char* scenario) {
      const ShardBytes again = BuildWithCheckpoint(dir, p, spec, schema);
      ASSERT_EQ(again.size(), golden.size()) << scenario;
      for (std::size_t r = 0; r < golden.size(); ++r) {
        ASSERT_EQ(again[r].size(), golden[r].size()) << scenario;
        for (const auto& [mask, bytes] : golden[r]) {
          EXPECT_EQ(again[r].at(mask), bytes)
              << scenario << " rank " << r << " mask " << mask;
        }
      }
    };

    // (a) Shards written, manifest line absent: drop rank 0's last line, as
    // if the rank crashed after the view files but before the commit point.
    restore_pristine();
    {
      std::vector<std::string> lines;
      std::ifstream in(manifest);
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
      in.close();
      ASSERT_GT(lines.size(), 1u);
      std::ofstream out(manifest, std::ios::trunc);
      for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
        out << lines[i] << '\n';
      }
    }
    rebuild_and_compare("(a) manifest line absent");

    // (b) Manifest line torn mid-write: the tail of the file is cut inside
    // the last line (no newline, CRC suffix incomplete).
    restore_pristine();
    {
      const auto size = std::filesystem::file_size(manifest);
      ASSERT_GT(size, 7u);
      std::filesystem::resize_file(manifest, size - 7);
    }
    rebuild_and_compare("(b) manifest line torn");

    // (c) Shard named by the manifest but truncated on disk.
    restore_pristine();
    {
      const auto shard = PickShardFile(dir);
      const auto size = std::filesystem::file_size(shard);
      std::filesystem::resize_file(shard, size / 2);
    }
    rebuild_and_compare("(c) shard truncated");
    // The damaged shard was quarantined during the rebuild's verification.
    bool corrupt_seen = false;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir / "rank0")) {
      corrupt_seen |= entry.path().string().ends_with(".corrupt");
    }
    EXPECT_TRUE(corrupt_seen);

    // (d) Shard named by the manifest with one bit flipped mid-payload.
    restore_pristine();
    {
      const auto shard = PickShardFile(dir);
      std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
      const auto size = std::filesystem::file_size(shard);
      f.seekp(static_cast<std::streamoff>(size / 2));
      const char flipped = static_cast<char>(f.peek() ^ 0x01);
      f.put(flipped);
    }
    rebuild_and_compare("(d) shard bit-flipped");

    std::filesystem::remove_all(pristine);
    std::filesystem::remove_all(dir);
  }
}

TEST(Checkpoint, FullyCheckpointedBuildRestoresEveryPartition) {
  // Second build over a completed checkpoint dir restores every non-empty
  // partition and still produces the identical cube.
  const auto dir = FreshDir("full_restore");
  DatasetSpec spec;
  spec.rows = 1200;
  spec.cardinalities = {10, 5, 3};
  spec.seed = 17;
  const Schema schema = spec.MakeSchema();
  const int p = 2;

  auto build = [&](std::vector<CubeResult>* shards,
                   std::vector<ParallelCubeStats>* stats) {
    Cluster cluster(p);
    std::mutex mu;
    cluster.Run([&](Comm& comm) {
      const Relation raw = GenerateSlice(spec, p, comm.rank());
      ParallelCubeOptions opts;
      opts.checkpoint.dir = dir.string();
      ParallelCubeStats st;
      CubeResult cube =
          BuildParallelCube(comm, raw, schema, AllViews(3), opts, &st);
      std::lock_guard<std::mutex> lock(mu);
      (*shards)[static_cast<std::size_t>(comm.rank())] = std::move(cube);
      (*stats)[static_cast<std::size_t>(comm.rank())] = st;
    });
  };

  std::vector<CubeResult> first(p);
  std::vector<ParallelCubeStats> first_stats(p);
  build(&first, &first_stats);
  EXPECT_EQ(first_stats[0].partitions_restored, 0);

  std::vector<CubeResult> second(p);
  std::vector<ParallelCubeStats> second_stats(p);
  build(&second, &second_stats);
  EXPECT_EQ(second_stats[0].partitions_restored, second_stats[0].partitions);
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(second[r].views.size(), first[r].views.size());
    for (const auto& [id, vr] : first[r].views) {
      EXPECT_EQ(SerializeRelation(second[r].views.at(id).rel),
                SerializeRelation(vr.rel));
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sncube
