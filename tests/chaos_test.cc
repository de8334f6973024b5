// Chaos explorer tests: the smoke search upholds the integrity invariant on
// the hardened code (every completed trial byte-identical to fault-free),
// plan generation is deterministic, and — against the deliberately
// re-opened silent-corruption hole (verify_restore=false) — the explorer
// finds a real integrity bug and shrinks it to a minimal reproducing plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "chaos/explorer.h"
#include "chaos/refresh_chaos.h"
#include "chaos/search.h"
#include "chaos/serve_chaos.h"
#include "common/rng.h"

namespace sncube {
namespace {

std::size_t ClauseCount(const FaultPlan& plan) {
  return plan.kills.size() + plan.stragglers.size() +
         plan.disk_errors.size() + plan.bit_flips.size() +
         plan.torn_writes.size();
}

TEST(Chaos, RandomPlansAreDeterministicAndNeverEmpty) {
  Rng a(99), b(99);
  for (int i = 0; i < 32; ++i) {
    const FaultPlan pa = chaos::RandomPlan(a, 4);
    const FaultPlan pb = chaos::RandomPlan(b, 4);
    EXPECT_EQ(pa.ToSpec(), pb.ToSpec());
    EXPECT_FALSE(pa.empty());
    // Every generated plan round-trips through the spec grammar.
    EXPECT_EQ(FaultPlan::Parse(pa.ToSpec()).ToSpec(), pa.ToSpec());
  }
}

TEST(Chaos, SmokeSearchFindsNoIntegrityViolations) {
  chaos::ChaosOptions opts;
  opts.plans = 8;
  opts.seed = 11;
  opts.sizes = {2, 4};
  opts.rows = 400;
  const chaos::ChaosReport report = chaos::RunChaosSearch(opts);
  EXPECT_EQ(report.trials, 16);
  EXPECT_TRUE(report.ok()) << report.ToJson();
  EXPECT_NE(report.ToJson().find("\"failures\":[]"), std::string::npos);
}

TEST(Chaos, ShrinksSilentCorruptionBugToMinimalPlan) {
  // verify_restore=false re-opens the silent-corruption restore path: a
  // bit-flipped checkpoint shard whose manifest line survived is restored
  // without its checksum being looked at. The explorer must catch the
  // resulting wrong-or-stuck build and shrink the plan to its essence — the
  // kill that forces a restore plus the corruption clause, nothing else.
  chaos::ChaosOptions opts;
  opts.rows = 400;
  opts.verify_restore = false;
  chaos::ChaosTrial trial(opts, 2);

  std::optional<FaultPlan> failing;
  for (std::uint64_t seed = 1; seed <= 12 && !failing.has_value(); ++seed) {
    const FaultPlan plan = FaultPlan::Parse(
        "kill:1@12;bitflip:0:0.6;slow:1x2.0;diskerr:1:0.05;"
        "tornwrite:1:0.2;seed:" + std::to_string(seed));
    if (trial.Check(plan).has_value()) failing = plan;
  }
  ASSERT_TRUE(failing.has_value())
      << "no seed reproduced the silent-corruption bug";

  const FaultPlan minimal =
      chaos::ShrinkPlan(*failing, 0, [&](const FaultPlan& p) {
        return trial.Check(p).has_value();
      });
  EXPECT_LE(ClauseCount(minimal), 2u) << minimal.ToSpec();
  // The shrunk plan still reproduces, and its spec round-trips (it is a
  // complete, replayable bug report).
  EXPECT_TRUE(trial.Check(minimal).has_value());
  EXPECT_EQ(FaultPlan::Parse(minimal.ToSpec()).ToSpec(), minimal.ToSpec());

  // The same minimal plan is harmless against the hardened restore path:
  // verification quarantines the damaged shard and recomputes.
  chaos::ChaosOptions hardened_opts = opts;
  hardened_opts.verify_restore = true;
  chaos::ChaosTrial hardened(hardened_opts, 2);
  EXPECT_EQ(hardened.Check(minimal), std::nullopt);
}

TEST(ShrinkPlan, EveryClauseFamilyShrinksToWhatThePredicateNeedsAtItsFloor) {
  // A synthetic "still fails" predicate, no cluster: the bug needs a kill of
  // rank 1, a straggling rank 0, bit flips on rank 1, shard 2 down, shard 3
  // slow and a coordinator crash at swap phase 4 — at any superstep, factor,
  // rate or window. Everything else is noise the shrinker must drop.
  const auto needs = [](const FaultPlan& p) {
    const auto any = [](const auto& clauses, const auto& pred) {
      return std::any_of(clauses.begin(), clauses.end(), pred);
    };
    return any(p.kills, [](const auto& k) { return k.rank == 1; }) &&
           any(p.stragglers,
               [](const auto& s) { return s.rank == 0 && s.factor > 1; }) &&
           any(p.bit_flips,
               [](const auto& b) { return b.rank == 1 && b.rate > 0; }) &&
           any(p.shard_kills, [](const auto& k) { return k.shard == 2; }) &&
           any(p.shard_slows,
               [](const auto& s) { return s.shard == 3 && s.factor > 1; }) &&
           any(p.refresh_kills, [](const auto& k) { return k.phase == 4; });
  };
  const FaultPlan plan = FaultPlan::Parse(
      "kill:0@20;kill:1@17;slow:0x3;slow:1x2.5;diskerr:0:0.3;bitflip:1:0.6;"
      "tornwrite:0:0.2;shardkill:0:5-40;shardkill:2:30;shardslow:1:10-90:4;"
      "shardslow:3:50:6;refreshkill:2;refreshkill:4;seed:7");
  ASSERT_TRUE(needs(plan));
  const FaultPlan minimal = chaos::ShrinkPlan(plan, 100, needs);
  EXPECT_TRUE(needs(minimal));

  // Exactly the needed clauses survive...
  ASSERT_EQ(minimal.kills.size(), 1u);
  ASSERT_EQ(minimal.stragglers.size(), 1u);
  EXPECT_TRUE(minimal.disk_errors.empty());
  ASSERT_EQ(minimal.bit_flips.size(), 1u);
  EXPECT_TRUE(minimal.torn_writes.empty());
  ASSERT_EQ(minimal.shard_kills.size(), 1u);
  ASSERT_EQ(minimal.shard_slows.size(), 1u);
  ASSERT_EQ(minimal.refresh_kills.size(), 1u);
  EXPECT_EQ(minimal.refresh_kills[0].phase, 4);
  EXPECT_EQ(minimal.seed, 7u);
  // ...with every number at its floor: superstep 0, factors and rates one
  // halving from their floors, and windows (the endless ones included) one
  // request long at request 0.
  EXPECT_EQ(minimal.kills[0].rank, 1);
  EXPECT_EQ(minimal.kills[0].at_superstep, 0u);
  EXPECT_LE(minimal.stragglers[0].factor, chaos::kFactorFloor);
  EXPECT_GT(minimal.stragglers[0].factor, 1 + (chaos::kFactorFloor - 1) / 2);
  EXPECT_LE(minimal.bit_flips[0].rate, chaos::kRateFloor);
  EXPECT_GT(minimal.bit_flips[0].rate, chaos::kRateFloor / 2);
  EXPECT_EQ(minimal.shard_kills[0].from, 0u);
  EXPECT_EQ(minimal.shard_kills[0].until, 1u);
  EXPECT_EQ(minimal.shard_slows[0].from, 0u);
  EXPECT_EQ(minimal.shard_slows[0].until, 1u);
  EXPECT_LE(minimal.shard_slows[0].factor, chaos::kFactorFloor);

  // Deterministic, and the minimal plan is a replayable spec.
  EXPECT_EQ(chaos::ShrinkPlan(plan, 100, needs).ToSpec(), minimal.ToSpec());
  EXPECT_EQ(FaultPlan::Parse(minimal.ToSpec()).ToSpec(), minimal.ToSpec());
}

TEST(ShrinkPlan, NumbersStopAtTheSmallestValueThatStillFails) {
  // A kill that must come at superstep 5 or later and a window that must
  // cover request 12: halving stops one step before the failure vanishes.
  const auto needs = [](const FaultPlan& p) {
    return !p.kills.empty() && p.kills[0].at_superstep >= 5 &&
           !p.shard_kills.empty() && p.shard_kills[0].from <= 12 &&
           p.shard_kills[0].until > 12;
  };
  const FaultPlan minimal = chaos::ShrinkPlan(
      FaultPlan::Parse("kill:0@40;shardkill:1:5-40;seed:1"), 100, needs);
  EXPECT_EQ(minimal.ToSpec(), "kill:0@5;shardkill:1:5-13;seed:1");
}

std::size_t ServeClauseCount(const FaultPlan& plan) {
  return plan.shard_kills.size() + plan.shard_slows.size();
}

TEST(ServeChaos, RandomServePlansAreDeterministicAndRoundTrip) {
  Rng a(7), b(7);
  for (int i = 0; i < 32; ++i) {
    const FaultPlan pa = chaos::RandomServePlan(a, 4, 200);
    const FaultPlan pb = chaos::RandomServePlan(b, 4, 200);
    EXPECT_EQ(pa.ToSpec(), pb.ToSpec());
    EXPECT_FALSE(pa.empty());
    EXPECT_EQ(FaultPlan::Parse(pa.ToSpec()).ToSpec(), pa.ToSpec());
    for (const auto& k : pa.shard_kills) {
      EXPECT_GE(k.shard, 0);
      EXPECT_LT(k.shard, 4);
      EXPECT_LT(k.from, 200u);
      if (k.until != FaultPlan::kNoEnd) {
        EXPECT_GT(k.until, k.from);
      }
    }
    for (const auto& s : pa.shard_slows) {
      EXPECT_GE(s.factor, 1.5);
      EXPECT_GT(s.until, s.from);
    }
  }
}

TEST(ServeChaos, SmokeSearchFindsNoWrongAnswers) {
  // The serving-tier invariant under randomized kill/slow plans: every OK
  // response bit-equals the golden single-node answer; everything else is a
  // typed error or shed load. No wrong answers, ever.
  chaos::ServeChaosOptions opts;
  opts.plans = 3;
  opts.seed = 5;
  opts.sizes = {2, 3};
  opts.rows = 400;
  opts.requests = 80;
  const chaos::ChaosReport report = chaos::RunServeChaosSearch(opts);
  EXPECT_EQ(report.trials, 6);
  EXPECT_TRUE(report.ok()) << report.ToJson();
}

TEST(ServeChaos, UnpinnedScatterIsCaughtAsWrongAnswer) {
  // pin_scatter_view=false re-opens the scatter composition bug: slices
  // route sub-queries independently, and two slices answering the same
  // rollup from DIFFERENT materialized views drop or double-count facts.
  // The harness must catch that as a wrong answer — proving both that the
  // invariant check has teeth and that the from_view pin is load-bearing.
  chaos::ServeChaosOptions opts;
  opts.pin_scatter_view = false;
  // Sparse views are what make local routing diverge: with cardinalities
  // near the row count, a slice can hold fewer rows of a SUPERSET view than
  // of the exact view (hash imbalance over sparse groups), so its local
  // router picks a different view than its siblings and the merged rollup
  // drops or double-counts facts. Dense views never invert that order,
  // which is exactly why this bug survives small smoke tests.
  opts.rows = 200;
  opts.cards = {40, 30, 20};
  opts.requests = 100;
  opts.workload.alpha = 0.0;  // uniform: every pooled rollup gets sampled
  opts.plans = 6;
  opts.seed = 3;
  opts.sizes = {4};
  const chaos::ChaosReport report = chaos::RunServeChaosSearch(opts);
  ASSERT_FALSE(report.ok()) << "unpinned scatter produced no wrong answer";
  EXPECT_NE(report.failures[0].reason.find("WRONG"), std::string::npos);
  // The shrunk reproducer is still a valid, replayable spec.
  const FaultPlan& minimal = report.failures[0].plan;
  EXPECT_EQ(FaultPlan::Parse(minimal.ToSpec()).ToSpec(), minimal.ToSpec());
  EXPECT_LE(ServeClauseCount(minimal), ServeClauseCount(report.failures[0].original));

  // The identical search with the pin in place is clean.
  chaos::ServeChaosOptions pinned = opts;
  pinned.pin_scatter_view = true;
  EXPECT_TRUE(chaos::RunServeChaosSearch(pinned).ok());
}

std::size_t RefreshClauseCount(const FaultPlan& plan) {
  return plan.refresh_kills.size() + plan.shard_kills.size() +
         plan.shard_slows.size() + plan.disk_errors.size() +
         plan.bit_flips.size() + plan.torn_writes.size();
}

TEST(RefreshChaos, RandomRefreshPlansAreDeterministicAndRoundTrip) {
  Rng a(13), b(13);
  for (int i = 0; i < 32; ++i) {
    const FaultPlan pa = chaos::RandomRefreshPlan(a, 4, 120);
    const FaultPlan pb = chaos::RandomRefreshPlan(b, 4, 120);
    EXPECT_EQ(pa.ToSpec(), pb.ToSpec());
    EXPECT_FALSE(pa.empty());
    EXPECT_EQ(FaultPlan::Parse(pa.ToSpec()).ToSpec(), pa.ToSpec());
    for (const auto& k : pa.refresh_kills) {
      EXPECT_GE(k.phase, 0);
      EXPECT_LE(k.phase, 5);
    }
  }
}

TEST(RefreshChaos, SmokeSearchFindsNoBlends) {
  // The refresh invariant under randomized coordinator kills, snapshot
  // corruption, and shard churn: every OK response — before, during, after
  // the swap, and after crash recovery — is byte-identical to the pre- or
  // post-refresh golden. Old or new, never a blend.
  chaos::RefreshChaosOptions opts;
  opts.plans = 8;
  opts.seed = 21;
  opts.sizes = {2, 4};
  opts.rows = 400;
  opts.requests = 100;
  const chaos::ChaosReport report = chaos::RunRefreshChaosSearch(opts);
  EXPECT_EQ(report.trials, 16);
  EXPECT_TRUE(report.ok()) << report.ToJson();
}

TEST(RefreshChaos, UnpinnedEpochBlendIsCaughtAndShrunk) {
  // pin_epoch=false re-opens the naive single-phase swap: mid-commit-loop
  // each shard answers from whatever epoch it last adopted, so a scatter
  // straddling the commit frontier mixes two snapshots. The harness must
  // catch that as a blend and shrink the plan — proving the invariant check
  // has teeth and that end-to-end epoch pinning is load-bearing.
  chaos::RefreshChaosOptions opts;
  opts.pin_epoch = false;
  opts.plans = 6;
  opts.seed = 9;
  opts.sizes = {2};
  opts.rows = 400;
  opts.delta_rows = 200;
  opts.requests = 100;
  opts.workload.alpha = 0.0;  // uniform: scatters get sampled mid-swap
  const chaos::ChaosReport report = chaos::RunRefreshChaosSearch(opts);
  ASSERT_FALSE(report.ok()) << "unpinned epochs produced no blend";
  EXPECT_NE(report.failures[0].reason.find("BLEND"), std::string::npos)
      << report.failures[0].reason;
  const FaultPlan& minimal = report.failures[0].plan;
  // The shrunk reproducer round-trips and is no bigger than the original —
  // the bug lives in the swap itself, so ddmin strips the fault clauses
  // down to (near) nothing.
  EXPECT_EQ(FaultPlan::Parse(minimal.ToSpec()).ToSpec(), minimal.ToSpec());
  EXPECT_LE(RefreshClauseCount(minimal),
            RefreshClauseCount(report.failures[0].original));

  // The identical search with epoch pinning in place is clean.
  chaos::RefreshChaosOptions pinned = opts;
  pinned.pin_epoch = true;
  EXPECT_TRUE(chaos::RunRefreshChaosSearch(pinned).ok());
}

}  // namespace
}  // namespace sncube
