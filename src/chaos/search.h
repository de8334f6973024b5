// The chaos search machinery every tier shares: one plan shrinker, one
// search loop and one report shape.
//
// A tier (build kill/restart, chaos/explorer.h; the sharded serving tier,
// chaos/serve_chaos.h; online refresh, chaos/refresh_chaos.h) brings only
// what really differs: its random plan generator and its trial, whose Check
// runs one plan and says whether the tier's invariant held. The search is a
// seeded random walk: per size (cluster ranks or shard count), `plans`
// plans are drawn and checked, and each failing plan is shrunk to a minimal
// reproducing spec. Every trial is deterministic given (plan, size), so the
// shrinker's decisions are sound and the shrunk plan's ToSpec() string is a
// complete bug report.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "net/fault.h"

namespace sncube {
namespace chaos {

// The options every tier's search takes.
struct SearchOptions {
  // Random plans to try per size.
  int plans = 16;
  // Master seed: plan generation derives from it; trials are deterministic.
  std::uint64_t seed = 1;
  // Sizes to exercise: cluster ranks (build) or shard counts (serve,
  // refresh). ChaosFailure::procs reports the size a failure was found at.
  std::vector<int> sizes = {2, 4};
  // Synthetic dataset the trials build cubes over.
  std::uint64_t rows = 600;
  std::vector<std::uint32_t> cards = {8, 5, 3};
  std::uint64_t data_seed = 29;
  // Progress lines to stderr.
  bool verbose = false;

  DatasetSpec dataset() const {
    DatasetSpec spec;
    spec.rows = static_cast<std::int64_t>(rows);
    spec.cardinalities = cards;
    spec.seed = data_seed;
    return spec;
  }
};

struct ChaosFailure {
  int procs = 0;       // the size the plan failed at
  FaultPlan plan;      // minimal reproducing plan (after shrinking)
  FaultPlan original;  // the plan the search first found failing
  std::string reason;  // what the trial observed
};

struct ChaosReport {
  int trials = 0;
  std::vector<ChaosFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string ToJson() const;
};

// One size's trial harness: construction runs the tier's golden run once,
// and Check reuses it across plans.
class Trial {
 public:
  Trial() = default;
  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;
  virtual ~Trial() = default;
  // std::nullopt when the tier's invariant held under `plan`, otherwise a
  // human-readable description of the violation.
  virtual std::optional<std::string> Check(const FaultPlan& plan) = 0;
};

// Shrinking stops halving a probability at this rate, and a slow or
// straggler factor at this multiplier.
inline constexpr double kRateFloor = 1e-4;
inline constexpr double kFactorFloor = 1.05;

// Shrinks a plan for which `still_fails` holds to a minimal plan for which
// it still holds. Phase 1 drops any one clause while the plan still fails,
// to a fixpoint, trying the clause families in FaultPlan's declaration
// order (the order ToSpec prints). Phase 2 halves every surviving number
// while the plan still fails: kill supersteps toward 0, straggler and slow
// factors toward 1, fault rates toward kRateFloor, and serve windows
// shorter, then earlier. `requests` is the run's request count; an endless
// window is first cut to half of [from, requests).
FaultPlan ShrinkPlan(const FaultPlan& plan, std::uint64_t requests,
                     const std::function<bool(const FaultPlan&)>& still_fails);

// What one tier brings to the search.
struct Tier {
  // Progress-line prefix, e.g. "serve-chaos shards".
  const char* label;
  // Added to the per-size RNG seed, so tiers draw distinct plan streams.
  std::uint64_t salt;
  // Request count of a trial's query stream (0 for build, which has none).
  std::uint64_t requests;
  std::function<FaultPlan(Rng&, int size)> draw;
  std::function<std::unique_ptr<Trial>(int size)> trial;
};

// The search: for each size, `opts.plans` plans drawn from a per-size RNG
// stream, each checked and, on failure, shrunk. Deterministic given the
// options.
ChaosReport RunSearch(const SearchOptions& opts, const Tier& tier);

}  // namespace chaos
}  // namespace sncube
