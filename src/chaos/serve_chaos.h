// Chaos search over serve-tier fault plans, and the serving-tier harness it
// shares with the refresh search (chaos/refresh_chaos.h).
//
// The build tier (chaos/explorer.h) hammers on integrity: a completed
// build is byte-identical to a fault-free one. This tier's invariant is the
// router's contract:
//
//   NO WRONG ANSWERS, EVER. Every Router::Execute response is either
//   bit-correct (equal to the single-engine golden answer over the full
//   cube), a typed error (failed / timed out / unavailable), or an explicit
//   shed. Degraded service is acceptable under faults; silent corruption of
//   an answer is the one unforgivable outcome.
//
// A trial replays a fixed query stream through a Router over a ShardSet
// driven by a ManualServeClock, under a serve fault plan (shardkill/
// shardslow windows keyed on request sequence numbers — see net/fault.h).
// Determinism is total: virtual time only advances through policy sleeps,
// injected slowness and the fixed inter-arrival gap, so a given (plan,
// seed) replays bit-for-bit, which makes plan shrinking sound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/search.h"
#include "common/rng.h"
#include "net/fault.h"
#include "query/engine.h"
#include "relation/schema.h"
#include "seqcube/cube_result.h"
#include "serve/retry_policy.h"
#include "serve/router.h"
#include "serve/shard_set.h"
#include "serve/workload.h"

namespace sncube {
namespace chaos {

// A fixed request stream with each request's golden answers. The same
// queries replay, in the same order, against every candidate plan, so a
// shrink step only ever changes the faults, never the traffic.
struct GoldenStream {
  std::vector<Query> queries;
  // goldens[i]: the answers to queries[i] that uphold the invariant.
  std::vector<std::vector<Relation>> goldens;
};

// Samples `requests` queries from a QueryMix over `base` (seeded from
// `workload.seed`) and answers each over every cube of `answers_from`.
GoldenStream MakeGoldenStream(
    const CubeResult& base, const Schema& schema, const WorkloadSpec& workload,
    int requests, const std::vector<const CubeResult*>& answers_from);

// The sharded serving tier under one plan: a ShardSet and a Router on a
// fresh ManualServeClock, with the chaos policy preset (tight per-try
// deadlines, hedging, a twitchy breaker).
class ServingTier {
 public:
  // pin_scatter_view and pin_epoch are the TEST-ONLY holes the two searches
  // re-open (RouterOptions::pin_scatter_view, ShardSetOptions::pin_epoch).
  ServingTier(const CubeResult& cube, int shards, const FaultPlan& plan,
              bool pin_scatter_view, bool pin_epoch);

  ShardSet& shard_set() { return shard_set_; }

  // Replays up to `count` requests of `stream` from `*cursor` on, advancing
  // the cursor, and holds every OK response to one of its request's
  // goldens; typed errors and sheds are allowed. Returns the first
  // violation, described with `where` (the trial phase it happened in).
  std::optional<std::string> Replay(const GoldenStream& stream,
                                    std::size_t* cursor, std::size_t count,
                                    const std::string& where);

 private:
  ManualServeClock clock_;
  ShardSet shard_set_;
  Router router_;
};

// SearchOptions::sizes are shard counts.
struct ServeChaosOptions : SearchOptions {
  // Router requests per trial; fault windows are drawn inside [0, requests).
  int requests = 200;
  // Query mix the requests are sampled from.
  WorkloadSpec workload;
  // TEST-ONLY escape hatch (cf. ChaosOptions::verify_restore): false stops
  // the router from pinning one view across a scatter (RouterOptions::
  // pin_scatter_view), re-opening the mixed-view wrong-answer bug so tests
  // can demonstrate this harness catching and shrinking a real corruption.
  bool pin_scatter_view = true;
};

// Draws one random serve plan for `shards` shards over a `requests`-long
// run: kill windows (sometimes endless) and slowdown windows per shard.
// Never empty; deterministic under `rng`. Exposed for tests.
FaultPlan RandomServePlan(Rng& rng, int shards, std::uint64_t requests);

// One shard count's trial harness. Construction builds the cube once and
// answers every request of the stream over it.
class ServeChaosTrial final : public Trial {
 public:
  ServeChaosTrial(const ServeChaosOptions& opts, int shards);

  // Replays the stream through a fresh ServingTier under `plan`. Returns
  // std::nullopt when every response upholds the invariant, otherwise a
  // description of the first wrong answer.
  std::optional<std::string> Check(const FaultPlan& plan) override;

 private:
  ServeChaosOptions opts_;
  int shards_;
  CubeResult cube_;
  GoldenStream stream_;
};

// The serve search; failures report the shard count in ChaosFailure::procs.
ChaosReport RunServeChaosSearch(const ServeChaosOptions& opts);

}  // namespace chaos
}  // namespace sncube
