// Chaos search over build fault plans (the shared machinery: chaos/search.h).
//
// The integrity invariant this tier hammers on: whatever faults a build
// experiences — rank kills, stragglers, transient disk errors, silent bit
// flips, torn writes — a build that *completes* (possibly after restarts
// from its checkpoint directory) produces a cube byte-identical to a
// fault-free run. Corruption may abort a rank (typed, loud) and cost retry
// time; it must never survive into the output silently.
//
// Each plan is run as a trial: build under the plan, and on abort restart
// over the same checkpoint directory with a progressively stripped plan
// (kills first, then transient disk errors, then corruption), the way an
// operator would retry on progressively healthier hardware. A trial fails
// when the build cannot complete within the attempt budget or, worse,
// completes with bytes that differ from the fault-free golden build. A
// shrunk plan replays via `sncube build --fault-plan "<spec>"`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/search.h"
#include "common/rng.h"
#include "net/fault.h"

namespace sncube {
namespace chaos {

// SearchOptions::sizes are cluster sizes (ranks).
struct ChaosOptions : SearchOptions {
  // Build attempts per trial (first under the full plan, then stripped).
  int max_attempts = 4;
  // TEST-ONLY escape hatch (CheckpointOptions::verify_restore): false
  // re-opens the silent-corruption restore path so tests can demonstrate
  // the explorer finding and shrinking a real integrity bug.
  bool verify_restore = true;
  // Scratch root for per-trial checkpoint directories; empty uses a
  // pid-qualified directory under the system temp path.
  std::string scratch_dir;
};

// Draws one random plan over the full fault universe for a p-rank cluster;
// never empty, seeded from `rng` (deterministic). Exposed for tests.
FaultPlan RandomPlan(Rng& rng, int procs);

// One cluster size's trial harness. Construction runs the fault-free golden
// build once; Check reuses it across plans.
class ChaosTrial final : public Trial {
 public:
  ChaosTrial(const ChaosOptions& opts, int procs);

  // Runs one plan end-to-end: build under the plan over a fresh checkpoint
  // directory, restarting with progressively stripped plans on abort.
  // Returns std::nullopt when the trial upholds the invariant, otherwise a
  // human-readable reason (byte mismatch or non-completion).
  std::optional<std::string> Check(const FaultPlan& plan) override;

 private:
  using ShardBytes = std::vector<std::vector<std::pair<std::uint32_t,
                                                       std::string>>>;
  std::optional<std::string> BuildOnce(const FaultPlan& plan,
                                       const std::string& ckpt_dir,
                                       ShardBytes* out);

  ChaosOptions opts_;
  int procs_;
  ShardBytes golden_;
  std::uint64_t trial_counter_ = 0;
};

// The build search; failures report the cluster size in ChaosFailure::procs.
ChaosReport RunChaosSearch(const ChaosOptions& opts);

}  // namespace chaos
}  // namespace sncube
