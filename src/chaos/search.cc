#include "chaos/search.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/jsonf.h"

namespace sncube {
namespace chaos {

std::string ChaosReport::ToJson() const {
  using obs::internal::AppendQuoted;
  std::string out =
      "{\"trials\":" + std::to_string(trials) + ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const ChaosFailure& f = failures[i];
    out += (i ? ",{\"procs\":" : "{\"procs\":") + std::to_string(f.procs);
    out += ",\"spec\":";
    AppendQuoted(out, f.plan.ToSpec());
    out += ",\"original\":";
    AppendQuoted(out, f.original.ToSpec());
    out += ",\"reason\":";
    AppendQuoted(out, f.reason);
    out += "}";
  }
  return out + "]}";
}

FaultPlan ShrinkPlan(const FaultPlan& plan, std::uint64_t requests,
                     const std::function<bool(const FaultPlan&)>& still_fails) {
  FaultPlan cur = plan;
  // Applies `mutate` to a copy of the plan and keeps the copy when it still
  // fails; true when it was kept.
  const auto keep_if_fails = [&](const auto& mutate) {
    FaultPlan cand = cur;
    mutate(cand);
    if (!still_fails(cand)) return false;
    cur = std::move(cand);
    return true;
  };

  // Phase 1, ddmin-style greedy clause removal to a fixpoint: a clause that
  // can be dropped with the failure persisting is irrelevant to the bug.
  // Each pass drops at most one clause and restarts from the first family.
  const auto drop_one = [&](auto member) {
    for (std::size_t i = 0; i < (cur.*member).size(); ++i) {
      if (keep_if_fails([&](FaultPlan& c) {
            (c.*member).erase((c.*member).begin() +
                              static_cast<std::ptrdiff_t>(i));
          })) {
        return true;
      }
    }
    return false;
  };
  while (drop_one(&FaultPlan::kills) || drop_one(&FaultPlan::stragglers) ||
         drop_one(&FaultPlan::disk_errors) ||
         drop_one(&FaultPlan::bit_flips) ||
         drop_one(&FaultPlan::torn_writes) ||
         drop_one(&FaultPlan::shard_kills) ||
         drop_one(&FaultPlan::shard_slows) ||
         drop_one(&FaultPlan::refresh_kills)) {
  }

  // Phase 2: push each surviving number toward its smallest reproducing
  // value, halving while the failure persists.
  for (std::size_t i = 0; i < cur.kills.size(); ++i) {
    while (cur.kills[i].at_superstep > 0 &&
           keep_if_fails([&](FaultPlan& c) { c.kills[i].at_superstep /= 2; })) {
    }
  }
  const auto halve_factors = [&](auto member) {
    for (std::size_t i = 0; i < (cur.*member).size(); ++i) {
      while ((cur.*member)[i].factor > kFactorFloor &&
             keep_if_fails([&](FaultPlan& c) {
               double& f = (c.*member)[i].factor;
               f = 1.0 + (f - 1.0) / 2;
             })) {
      }
    }
  };
  const auto halve_rates = [&](auto member) {
    for (std::size_t i = 0; i < (cur.*member).size(); ++i) {
      while ((cur.*member)[i].rate > kRateFloor &&
             keep_if_fails([&](FaultPlan& c) { (c.*member)[i].rate /= 2; })) {
      }
    }
  };
  // Serve windows: halve the length (an endless window first becomes
  // finite), then halve the start toward request 0 keeping the length.
  const auto shrink_windows = [&](auto member) {
    for (std::size_t i = 0; i < (cur.*member).size(); ++i) {
      for (;;) {
        const std::uint64_t from = (cur.*member)[i].from;
        const std::uint64_t until = (cur.*member)[i].until;
        const std::uint64_t end =
            until == FaultPlan::kNoEnd ? std::max(requests, from + 1) : until;
        const std::uint64_t len = end - from;
        if (len <= 1 || !keep_if_fails([&](FaultPlan& c) {
              (c.*member)[i].until = from + len / 2;
            })) {
          break;
        }
      }
      while ((cur.*member)[i].from > 0 && keep_if_fails([&](FaultPlan& c) {
               auto& w = (c.*member)[i];
               const std::uint64_t from = w.from / 2;
               if (w.until != FaultPlan::kNoEnd) {
                 w.until = from + (w.until - w.from);
               }
               w.from = from;
             })) {
      }
    }
  };
  halve_factors(&FaultPlan::stragglers);
  halve_rates(&FaultPlan::disk_errors);
  halve_rates(&FaultPlan::bit_flips);
  halve_rates(&FaultPlan::torn_writes);
  shrink_windows(&FaultPlan::shard_kills);
  shrink_windows(&FaultPlan::shard_slows);
  halve_factors(&FaultPlan::shard_slows);
  return cur;
}

ChaosReport RunSearch(const SearchOptions& opts, const Tier& tier) {
  ChaosReport report;
  for (const int size : opts.sizes) {
    const std::unique_ptr<Trial> trial = tier.trial(size);
    // Per-size stream, so adding a size never reshuffles the plans another
    // size already explored.
    Rng rng(opts.seed * 0x9E3779B97F4A7C15ULL +
            static_cast<std::uint64_t>(size) + tier.salt);
    for (int i = 0; i < opts.plans; ++i) {
      const FaultPlan plan = tier.draw(rng, size);
      ++report.trials;
      const auto reason = trial->Check(plan);
      if (opts.verbose) {
        std::fprintf(stderr, "%s=%d plan %d/%d [%s]: %s\n", tier.label, size,
                     i + 1, opts.plans, plan.ToSpec().c_str(),
                     reason ? reason->c_str() : "ok");
      }
      if (!reason.has_value()) continue;
      ChaosFailure failure;
      failure.procs = size;
      failure.original = plan;
      failure.reason = *reason;
      failure.plan = ShrinkPlan(plan, tier.requests, [&](const FaultPlan& p) {
        return trial->Check(p).has_value();
      });
      if (opts.verbose) {
        std::fprintf(stderr, "%s=%d plan %d shrunk to [%s]\n", tier.label,
                     size, i + 1, failure.plan.ToSpec().c_str());
      }
      report.failures.push_back(std::move(failure));
    }
  }
  return report;
}

}  // namespace chaos
}  // namespace sncube
