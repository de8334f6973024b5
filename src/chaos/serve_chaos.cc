#include "chaos/serve_chaos.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/status.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "seqcube/seq_cube.h"

namespace sncube {
namespace chaos {

FaultPlan RandomServePlan(Rng& rng, int shards, std::uint64_t requests) {
  SNCUBE_CHECK(shards >= 1 && requests >= 1);
  FaultPlan plan;
  do {
    plan = FaultPlan{};
    for (int s = 0; s < shards; ++s) {
      if (rng.NextDouble() < 0.4) {
        FaultPlan::ShardKill k;
        k.shard = s;
        k.from = rng.Below(requests);
        // Mostly finite windows (the shard restarts mid-run, exercising
        // recovery + cache invalidation); sometimes a permanent outage.
        if (rng.NextDouble() < 0.75) {
          k.until = k.from + 1 + rng.Below(requests - k.from);
        }
        plan.shard_kills.push_back(k);
      }
      if (rng.NextDouble() < 0.4) {
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

GoldenStream MakeGoldenStream(
    const CubeResult& base, const Schema& schema, const WorkloadSpec& workload,
    int requests, const std::vector<const CubeResult*>& answers_from) {
  const QueryMix mix(base, schema, workload);
  Rng draw(workload.seed + 1);
  GoldenStream stream;
  for (int i = 0; i < requests; ++i) stream.queries.push_back(mix.Sample(draw));
  stream.goldens.resize(stream.queries.size());
  for (const CubeResult* cube : answers_from) {
    const CubeQueryEngine engine(*cube);
    for (std::size_t i = 0; i < stream.queries.size(); ++i) {
      stream.goldens[i].push_back(engine.Execute(stream.queries[i]).rel);
    }
  }
  return stream;
}

namespace {

ShardSetOptions ChaosShardSetOptions(int shards, ServeClock* clock,
                                     bool pin_epoch) {
  ShardSetOptions opts;
  opts.shards = shards;
  opts.clock = clock;
  opts.server.workers = 2;
  opts.pin_epoch = pin_epoch;
  return opts;
}

RouterOptions ChaosRouterOptions(bool pin_scatter_view) {
  RouterOptions opts;
  opts.per_try_us = 1000;     // trips when slowdown > ~6x nominal
  opts.hedge_delay_us = 400;  // hedges on mildly slow tries
  opts.max_tries = 3;
  opts.backoff.base_us = 500;
  opts.backoff.cap_us = 4000;
  opts.breaker.failure_threshold = 4;
  opts.breaker.window_us = 100000;
  opts.breaker.cooldown_us = 2000;
  opts.probe_every = 16;
  opts.pin_scatter_view = pin_scatter_view;
  return opts;
}

}  // namespace

ServingTier::ServingTier(const CubeResult& cube, int shards,
                         const FaultPlan& plan, bool pin_scatter_view,
                         bool pin_epoch)
    : shard_set_(cube, ChaosShardSetOptions(shards, &clock_, pin_epoch), plan),
      router_(shard_set_, ChaosRouterOptions(pin_scatter_view)) {}

std::optional<std::string> ServingTier::Replay(const GoldenStream& stream,
                                               std::size_t* cursor,
                                               std::size_t count,
                                               const std::string& where) {
  for (; count > 0 && *cursor < stream.queries.size(); --count) {
    // Virtual inter-arrival gap: lets breaker cooldowns elapse mid-run so
    // recovery (open → half-open → closed) is exercised deterministically.
    clock_.Advance(200);
    const std::size_t i = (*cursor)++;
    const RouterResult r = router_.Execute(stream.queries[i]);
    if (r.outcome != RouterOutcome::kOk) continue;  // typed — allowed
    const std::vector<Relation>& goldens = stream.goldens[i];
    if (r.answer != nullptr &&
        std::find(goldens.begin(), goldens.end(), r.answer->rel) !=
            goldens.end()) {
      continue;
    }
    std::ostringstream os;
    os << "request " << i << " (" << where << ", epoch " << r.epoch << ", "
       << (r.scatter ? "scatter" : "point");
    if (r.answer == nullptr) {
      os << ") reported ok with no answer";
      return os.str();
    }
    // Against one golden a mismatch is a wrong answer; against the pre- and
    // post-refresh goldens it is a blend of the two snapshots.
    os << ", view mask " << r.answer->answered_from.mask() << ") returned "
       << (goldens.size() == 1 ? "a WRONG answer" : "a BLEND") << ": "
       << r.answer->rel.size() << " rows match no golden (";
    for (std::size_t g = 0; g < goldens.size(); ++g) {
      os << (g ? ", " : "") << goldens[g].size() << " rows";
    }
    os << ")";
    return os.str();
  }
  return std::nullopt;
}

ServeChaosTrial::ServeChaosTrial(const ServeChaosOptions& opts, int shards)
    : opts_(opts), shards_(shards) {
  const DatasetSpec spec = opts_.dataset();
  const Schema schema = spec.MakeSchema();
  cube_ = SequentialCube(GenerateSlice(spec, 1, 0), schema,
                         AllViews(schema.dims()));
  WorkloadSpec wl = opts_.workload;
  wl.seed = opts_.seed * 0x9E3779B97F4A7C15ULL + 17;
  stream_ = MakeGoldenStream(cube_, schema, wl, opts_.requests, {&cube_});
}

std::optional<std::string> ServeChaosTrial::Check(const FaultPlan& plan) {
  ServingTier tier(cube_, shards_, plan, opts_.pin_scatter_view,
                   /*pin_epoch=*/true);
  std::size_t cursor = 0;
  return tier.Replay(stream_, &cursor, stream_.queries.size(), "serve");
}

ChaosReport RunServeChaosSearch(const ServeChaosOptions& opts) {
  const auto requests = static_cast<std::uint64_t>(opts.requests);
  return RunSearch(
      opts, {"serve-chaos shards", 0x5157, requests,
             [&](Rng& rng, int shards) {
               return RandomServePlan(rng, shards, requests);
             },
             [&](int shards) {
               return std::make_unique<ServeChaosTrial>(opts, shards);
             }});
}

}  // namespace chaos
}  // namespace sncube
