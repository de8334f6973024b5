// Chaos search over online-refresh fault plans.
//
// The serve tier (chaos/serve_chaos.h) checks "no wrong answers" against
// ONE immutable cube. This tier attacks the hard part of src/refresh: a
// refresh swapping a new snapshot epoch into the serving tier UNDER
// TRAFFIC, with the coordinator crashing at arbitrary phases of the
// two-phase swap and rank-0 disk clauses corrupting the snapshot bytes.
// Its invariant:
//
//   OLD OR NEW, NEVER A BLEND. Every OK response — before, during, and
//   after the refresh, and after a crash + SnapshotStore::Recover restart —
//   is byte-identical to the PRE-refresh golden answer or the POST-refresh
//   golden answer for that query. A response mixing rows or measures from
//   both snapshots is the unforgivable outcome; so is a recovered cube that
//   equals neither golden cube.
//
// A trial replays the serve tier's fixed query stream, with both golden
// answers per request, through a ServingTier on its manual clock.
// RefreshOptions::on_phase injects a burst of that stream at entry to EVERY
// swap phase (prepare, between per-shard commits, pre-commit, post-commit),
// so requests interleave with each swap step deterministically. A
// refreshkill crash is followed by a simulated process restart: the shard
// set is torn down, SnapshotStore::Recover picks the newest committed epoch
// (or the caller falls back to the pre-refresh base cube), and the
// remaining stream replays against the recovered state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/search.h"
#include "chaos/serve_chaos.h"
#include "common/rng.h"
#include "net/fault.h"
#include "relation/schema.h"
#include "seqcube/cube_result.h"
#include "serve/workload.h"

namespace sncube {
namespace chaos {

// SearchOptions::sizes are shard counts (phase 3 has shards-1 distinct
// kill points); rows and cards describe the BASE dataset.
struct RefreshChaosOptions : SearchOptions {
  RefreshChaosOptions() { rows = 500; }
  // The insert-only delta ingested by the refresh (disjoint seed stream, so
  // the post-refresh cube differs from the base on most views).
  std::uint64_t delta_rows = 200;
  std::uint64_t delta_seed = 61;
  // Total deterministic query stream per trial run. The stream is consumed
  // in order: `requests_before` ahead of the refresh, `requests_per_phase`
  // at entry to each swap phase, and the remainder after the refresh
  // completes or after crash recovery.
  int requests = 120;
  int requests_before = 24;
  int requests_per_phase = 6;
  // Query mix the stream is sampled from.
  WorkloadSpec workload;
  // TEST-ONLY escape hatch (cf. ServeChaosOptions::pin_scatter_view): false
  // clears ShardSetOptions::pin_epoch, re-opening the naive single-phase
  // swap bug — mid-swap scatters answer each slice from whatever epoch its
  // shard last committed, blending two snapshots — so tests can prove this
  // harness catches and shrinks a real refresh corruption.
  bool pin_epoch = true;
  // Snapshot store scratch root; empty = system temp (pid-scoped).
  std::string snapshot_root;
};

// Draws one random refresh plan for `shards` shards over a `requests`-long
// stream: coordinator kills at random swap phases, rank-0 snapshot disk
// clauses (diskerr/bitflip/tornwrite), and serve-tier kill/slow windows so
// the swap runs under shard churn. Never empty; deterministic under `rng`.
// Exposed for tests.
FaultPlan RandomRefreshPlan(Rng& rng, int shards, std::uint64_t requests);

// One shard count's trial harness. Construction builds the base cube, runs
// one fault-free refresh pipeline to get the post-refresh golden cube, and
// precomputes the query stream with BOTH golden answers per request; all of
// it is reused across plans.
class RefreshChaosTrial final : public Trial {
 public:
  RefreshChaosTrial(const RefreshChaosOptions& opts, int shards);

  // Replays the stream around one Refresh() under `plan`. Returns
  // std::nullopt when every response (and the recovered cube, if the plan
  // crashed the coordinator) upholds old-or-new; otherwise a description of
  // the first blend.
  std::optional<std::string> Check(const FaultPlan& plan) override;

 private:
  RefreshChaosOptions opts_;
  int shards_;
  Schema schema_;
  CubeResult pre_cube_;
  Relation delta_;
  CubeResult post_cube_;
  GoldenStream stream_;              // goldens: {pre-refresh, post-refresh}
  std::string root_;                 // scratch root for snapshot stores
  std::uint64_t next_check_id_ = 0;  // distinct store dir per Check
};

// The refresh search; failures report the shard count in
// ChaosFailure::procs.
ChaosReport RunRefreshChaosSearch(const RefreshChaosOptions& opts);

}  // namespace chaos
}  // namespace sncube
