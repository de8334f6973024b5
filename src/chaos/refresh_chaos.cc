#include "chaos/refresh_chaos.h"

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <utility>

#include "common/status.h"
#include "data/generator.h"
#include "io/disk.h"
#include "lattice/lattice.h"
#include "refresh/delta.h"
#include "refresh/refresh.h"
#include "refresh/snapshot.h"
#include "seqcube/seq_cube.h"

namespace sncube {
namespace chaos {
namespace {

// Byte-identity over full cubes: same views, same orders, same selected
// flags, same rows. "" on match, else the first divergence.
std::string DiffCubes(const CubeResult& a, const CubeResult& b) {
  if (a.views.size() != b.views.size()) {
    return "view count " + std::to_string(a.views.size()) + " vs " +
           std::to_string(b.views.size());
  }
  auto ia = a.views.begin();
  for (const auto& [id, vb] : b.views) {
    const auto& [ida, va] = *ia++;
    if (ida != id) return "view set mismatch at mask " + std::to_string(id.mask());
    if (va.order != vb.order || va.selected != vb.selected) {
      return "view " + std::to_string(id.mask()) + " metadata mismatch";
    }
    if (!(va.rel == vb.rel)) {
      return "view " + std::to_string(id.mask()) + " rows differ (" +
             std::to_string(va.rel.size()) + " vs " +
             std::to_string(vb.rel.size()) + ")";
    }
  }
  return "";
}

}  // namespace

FaultPlan RandomRefreshPlan(Rng& rng, int shards, std::uint64_t requests) {
  SNCUBE_CHECK(shards >= 1 && requests >= 1);
  FaultPlan plan;
  do {
    plan = FaultPlan{};
    // Coordinator crash at a random swap phase — drawn most often, since
    // crash+recover is the behavior under search.
    if (rng.NextDouble() < 0.6) {
      FaultPlan::RefreshKill k;
      k.phase = static_cast<int>(rng.Below(6));
      plan.refresh_kills.push_back(k);
    }
    // Rank-0 disk clauses: the coordinator is rank 0 of its injector, so
    // these strike the snapshot view files and manifest appends.
    if (rng.NextDouble() < 0.3) {
      plan.disk_errors.push_back({0, 0.05 + 0.25 * rng.NextDouble()});
    }
    if (rng.NextDouble() < 0.3) {
      plan.bit_flips.push_back({0, 0.2 + 0.8 * rng.NextDouble()});
    }
    if (rng.NextDouble() < 0.3) {
      plan.torn_writes.push_back({0, 0.2 + 0.8 * rng.NextDouble()});
    }
    // Serve-tier churn: the swap must stay old-or-new even while shards
    // die, restart cold, and crawl.
    for (int s = 0; s < shards; ++s) {
      if (rng.NextDouble() < 0.25) {
        FaultPlan::ShardKill k;
        k.shard = s;
        k.from = rng.Below(requests);
        k.until = k.from + 1 + rng.Below(requests - k.from);
        plan.shard_kills.push_back(k);
      }
      if (rng.NextDouble() < 0.25) {
        FaultPlan::ShardSlow sl;
        sl.shard = s;
        sl.from = rng.Below(requests);
        sl.until = sl.from + 1 + rng.Below(requests - sl.from);
        sl.factor = 1.5 + 6.5 * rng.NextDouble();
        plan.shard_slows.push_back(sl);
      }
    }
  } while (plan.empty());
  plan.seed = rng.Next();
  return plan;
}

RefreshChaosTrial::RefreshChaosTrial(const RefreshChaosOptions& opts,
                                     int shards)
    : opts_(opts), shards_(shards) {
  const DatasetSpec spec = opts_.dataset();
  schema_ = spec.MakeSchema();
  pre_cube_ =
      SequentialCube(GenerateSlice(spec, 1, 0), schema_, AllViews(schema_.dims()));

  // The delta: same schema, disjoint seed stream. The post-refresh golden
  // cube is the fault-free refresh pipeline itself — what any crash-free
  // run must install bit-for-bit.
  DatasetSpec dspec = spec;
  dspec.rows = static_cast<std::int64_t>(opts_.delta_rows);
  dspec.seed = opts_.delta_seed;
  delta_ = GenerateSlice(dspec, 1, 0);
  post_cube_ =
      MergeDeltaCube(pre_cube_, ComputeDeltaCube(delta_, schema_, pre_cube_));

  WorkloadSpec wl = opts_.workload;
  wl.seed = opts_.seed * 0x9E3779B97F4A7C15ULL + 23;
  stream_ = MakeGoldenStream(pre_cube_, schema_, wl, opts_.requests,
                             {&pre_cube_, &post_cube_});

  root_ = opts_.snapshot_root.empty()
              ? (std::filesystem::temp_directory_path() /
                 ("sncube_refresh_chaos_" + std::to_string(::getpid())))
                    .string()
              : opts_.snapshot_root;
  std::filesystem::create_directories(root_);
}

std::optional<std::string> RefreshChaosTrial::Check(const FaultPlan& plan) {
  const std::string dir =
      root_ + "/chk" + std::to_string(shards_) + "_" +
      std::to_string(next_check_id_++);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // Typed failures are allowed throughout — refresh churn may retire a
  // pinned epoch (kEpochGone → unavailable) but never corrupt.
  std::optional<std::string> violation;
  std::size_t cursor = 0;
  const auto replay = [&](ServingTier& tier, std::size_t count,
                          const std::string& where) {
    if (!violation.has_value()) {
      violation = tier.Replay(stream_, &cursor, count, where);
    }
  };

  bool crashed = false;
  {
    ServingTier tier(pre_cube_, shards_, plan, /*pin_scatter_view=*/true,
                     opts_.pin_epoch);
    replay(tier, static_cast<std::size_t>(opts_.requests_before),
           "pre-refresh");

    FaultInjector injector(plan, /*rank=*/0);
    RefreshOptions refresh_opts;
    refresh_opts.dir = dir;
    refresh_opts.injector = &injector;
    refresh_opts.on_phase = [&](int phase) {
      replay(tier, static_cast<std::size_t>(opts_.requests_per_phase),
             "swap phase " + std::to_string(phase));
    };
    RefreshCoordinator coordinator(
        tier.shard_set(),
        std::shared_ptr<const CubeResult>(&pre_cube_,
                                          [](const CubeResult*) {}),
        schema_, std::move(refresh_opts));
    try {
      coordinator.Refresh(delta_);
    } catch (const InjectedFaultError&) {
      crashed = true;  // refreshkill: the simulated coordinator crash
    } catch (const SncubeIoError&) {
      crashed = true;  // diskerr escalation: snapshot write never landed
    }

    if (!crashed && !violation.has_value()) {
      // The installed cube must BE the post-refresh golden, and post-swap
      // traffic must keep answering old-or-new while old pins drain.
      const std::string diff = DiffCubes(*coordinator.current(), post_cube_);
      if (!diff.empty()) {
        violation = "completed refresh installed a cube differing from the "
                    "post-refresh golden: " + diff;
      }
      replay(tier, stream_.queries.size(), "post-refresh");
    }
    tier.shard_set().Shutdown();
  }

  if (crashed && !violation.has_value()) {
    // Simulated process restart: recover from the snapshot store alone; a
    // store with no committed (or no intact) epoch falls back to the
    // pre-refresh base cube, exactly like a restarted server would.
    DiskModel recovery_disk;
    SnapshotStore store(dir, recovery_disk);
    const RecoveredSnapshot rec = store.Recover();
    const CubeResult& served = rec.has_cube ? rec.cube : pre_cube_;
    const std::string vs_pre = DiffCubes(served, pre_cube_);
    const std::string vs_post = DiffCubes(served, post_cube_);
    if (!vs_pre.empty() && !vs_post.empty()) {
      violation = "recovered cube (epoch " + std::to_string(rec.epoch) +
                  ", has_cube=" + (rec.has_cube ? "1" : "0") +
                  ") is a BLEND — vs pre: " + vs_pre + "; vs post: " + vs_post;
    } else {
      // The remaining stream replays against the recovered state on a
      // fresh, fault-free serving tier (the plan's windows died with the
      // crashed process).
      ServingTier tier(served, shards_, FaultPlan{},
                       /*pin_scatter_view=*/true, opts_.pin_epoch);
      replay(tier, stream_.queries.size(), "post-recovery");
    }
  }

  std::filesystem::remove_all(dir, ec);
  return violation;
}

ChaosReport RunRefreshChaosSearch(const RefreshChaosOptions& opts) {
  const auto requests = static_cast<std::uint64_t>(opts.requests);
  return RunSearch(
      opts, {"refresh-chaos shards", 0x5246, requests,
             [&](Rng& rng, int shards) {
               return RandomRefreshPlan(rng, shards, requests);
             },
             [&](int shards) {
               return std::make_unique<RefreshChaosTrial>(opts, shards);
             }});
}

}  // namespace chaos
}  // namespace sncube
