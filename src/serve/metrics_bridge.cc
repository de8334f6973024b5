#include "serve/metrics_bridge.h"

namespace sncube {

void AbsorbServerStats(obs::MetricsRegistry& registry,
                       const CubeServer& server) {
  const StatsSnapshot s = server.Stats();
  registry.GetCounter("serve.accepted").Add(s.accepted);
  registry.GetCounter("serve.rejected").Add(s.rejected);
  registry.GetCounter("serve.completed").Add(s.completed);
  registry.GetCounter("serve.failed").Add(s.failed);
  registry.GetCounter("serve.timed_out").Add(s.timed_out);
  registry.GetCounter("serve.deadline_exceeded_in_flight")
      .Add(s.deadline_exceeded_in_flight);
  registry.GetCounter("serve.cache.hits").Add(s.cache.hits);
  registry.GetCounter("serve.cache.misses").Add(s.cache.misses);
  registry.GetCounter("serve.cache.inserts").Add(s.cache.inserts);
  registry.GetCounter("serve.cache.evictions").Add(s.cache.evictions);
  registry.GetCounter("serve.cache.invalidations").Add(s.cache.invalidations);
  registry.GetGauge("serve.cache.bytes").Set(static_cast<double>(s.cache.bytes));
  registry.GetGauge("serve.cache.entries")
      .Set(static_cast<double>(s.cache.entries));
  registry.GetGauge("serve.cache.hit_rate").Set(s.hit_rate());
  registry.GetGauge("serve.queue_depth").Set(static_cast<double>(s.queue_depth));
  registry.GetHistogram("serve.latency_us").Merge(server.latency_histogram());
}

void AbsorbRouterStats(obs::MetricsRegistry& registry, const Router& router) {
  const RouterStatsSnapshot s = router.Stats();
  registry.GetCounter("serve.router.requests").Add(s.requests);
  registry.GetCounter("serve.router.ok").Add(s.ok);
  registry.GetCounter("serve.router.failed").Add(s.failed);
  registry.GetCounter("serve.router.timed_out").Add(s.timed_out);
  registry.GetCounter("serve.router.shed").Add(s.shed);
  registry.GetCounter("serve.router.unavailable").Add(s.unavailable);
  registry.GetCounter("serve.router.point_queries").Add(s.point_queries);
  registry.GetCounter("serve.router.scatter_queries").Add(s.scatter_queries);
  registry.GetCounter("serve.router.retries").Add(s.retries);
  registry.GetCounter("serve.router.hedges").Add(s.hedges);
  registry.GetCounter("serve.router.hedge_wins").Add(s.hedge_wins);
  registry.GetCounter("serve.router.budget_exhausted").Add(s.budget_exhausted);
  registry.GetCounter("serve.router.probes").Add(s.probes);
  std::uint64_t opened = 0, half_opened = 0, closed = 0, open_now = 0;
  for (const auto& h : s.shard_health) {
    opened += h.breaker_opened;
    half_opened += h.breaker_half_opened;
    closed += h.breaker_closed;
    if (h.state == BreakerState::kOpen) ++open_now;
  }
  registry.GetCounter("serve.router.breaker.opened").Add(opened);
  registry.GetCounter("serve.router.breaker.half_opened").Add(half_opened);
  registry.GetCounter("serve.router.breaker.closed").Add(closed);
  registry.GetGauge("serve.router.breaker.open_shards")
      .Set(static_cast<double>(open_now));
  registry.GetHistogram("serve.router.ok_latency_us")
      .Merge(router.ok_latency_histogram());
  registry.GetHistogram("serve.router.error_latency_us")
      .Merge(router.error_latency_histogram());
}

}  // namespace sncube
