// serve_load — closed-loop load driver for the concurrent serving layer.
//
// Builds a cube in memory, then replays a Zipf-skewed query mix (the hot
// dashboard-traffic model of serve/workload.h) against CubeServer with a
// configurable number of closed-loop clients: each client issues its next
// query only after the previous answer returns, the classic closed-loop
// throughput/latency experiment. A single-threaded engine loop over the
// same query sequence is the baseline, so the headline number is the
// serving layer's speedup over one thread — worker parallelism plus the
// sharded result cache.
//
// Emits BENCH_serve.json: one JSON record with throughput, speedup, cache
// hit rate, rejection count, and p50/p95/p99 latency. Knobs (env):
//   SNCUBE_SERVE_WORKERS  worker threads      (default 8)
//   SNCUBE_SERVE_CLIENTS  closed-loop clients (default 16)
//   SNCUBE_SERVE_QUERIES  total queries       (default 30000)
//   SNCUBE_SERVE_ALPHA    query-popularity Zipf exponent (default 1.0)
//   SNCUBE_SCALE          scales the cube's row count as everywhere else
//
// A second phase — the CHURN bench — reruns the same mix through the
// resilient sharded tier (ShardSet + Router, DESIGN.md §12) under a seeded
// fault plan that kills one shard and slows another mid-run, and verifies
// the router's contract live: every kOk answer is compared bit-for-bit
// against a precomputed golden answer for its pool query, so the headline
// number is wrong_answers == 0 under churn. Emits BENCH_serve_shard.json
// with per-outcome counts and the router's ok/error latency quantiles.
// Extra knob: SNCUBE_SERVE_SHARDS (default 4).
//
// A third phase — the REFRESH bench — reruns the mix through a fresh
// fault-free sharded tier while a background RefreshCoordinator ingests
// deterministic deltas and two-phase-swaps new snapshot epochs in
// mid-run (DESIGN.md §14). Per-epoch golden answers are precomputed by
// rolling the same deltas offline, and every kOk answer must bit-match
// SOME epoch's golden — old or new, never a blend — so the headline
// number is again wrong_answers == 0. Emits BENCH_refresh.json. Extra
// knob: SNCUBE_SERVE_REFRESHES (default 4).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/timer.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/fault.h"
#include "query/engine.h"
#include "refresh/delta.h"
#include "refresh/refresh.h"
#include "seqcube/seq_cube.h"
#include "serve/query_key.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_set.h"
#include "serve/workload.h"

using namespace sncube;

int main() {
  // A mid-size cube: big enough that engine execution costs real time,
  // small enough to build in seconds inside a container.
  DatasetSpec spec;
  spec.rows = BenchRows(200000, 1000000);
  spec.cardinalities = {256, 128, 64, 32, 16, 8};
  spec.seed = 42;
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const CubeResult cube = SequentialCube(raw, schema, AllViews(schema.dims()));
  std::printf("cube: %llu rows across %zu views\n",
              static_cast<unsigned long long>(cube.TotalRows()),
              cube.views.size());

  WorkloadSpec wspec;
  wspec.alpha = EnvDouble("SNCUBE_SERVE_ALPHA", 1.0);
  wspec.pool_size = 256;
  const QueryMix mix(cube, schema, wspec);

  const int workers = static_cast<int>(EnvInt("SNCUBE_SERVE_WORKERS", 8));
  const int clients = static_cast<int>(EnvInt("SNCUBE_SERVE_CLIENTS", 16));
  const std::int64_t queries = EnvInt("SNCUBE_SERVE_QUERIES", 30000);

  // Baseline: one thread, bare engine, same popularity distribution.
  // Capped so cold large scans don't make the baseline take minutes.
  const std::int64_t base_n = std::min<std::int64_t>(queries, 5000);
  const CubeQueryEngine engine(cube);
  double base_qps = 0;
  {
    Rng rng(7);
    WallTimer t;
    for (std::int64_t i = 0; i < base_n; ++i) {
      engine.Execute(mix.Sample(rng));
    }
    base_qps = static_cast<double>(base_n) / t.Seconds();
  }
  std::printf("baseline single-thread engine: %.0f q/s\n", base_qps);

  ServerOptions opts;
  opts.workers = workers;
  opts.queue_depth = 1024;
  opts.cache_bytes = 256u << 20;
  CubeServer server(cube, opts);

  // Warm the cache: one pass over the whole pool so the measured window
  // exercises the steady state ("warm cache" in the acceptance criterion).
  for (const Query& q : mix.pool()) server.Execute(q);

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(1000003ULL * static_cast<std::uint64_t>(c + 1));
      const std::int64_t n =
          queries / clients + (c < queries % clients ? 1 : 0);
      for (std::int64_t i = 0; i < n; ++i) {
        server.Execute(mix.Sample(rng));
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = timer.Seconds();
  server.Shutdown();

  const StatsSnapshot stats = server.Stats();
  const double qps = static_cast<double>(queries) / wall_s;
  const double speedup = qps / base_qps;
  std::printf("served %lld queries in %.3f s: %.0f q/s (%.1fx single-thread),"
              " hit rate %.3f, p50 %.0f us, p95 %.0f us, p99 %.0f us,"
              " rejected %llu\n",
              static_cast<long long>(queries), wall_s, qps, speedup,
              stats.hit_rate(), stats.latency.p50_us, stats.latency.p95_us,
              stats.latency.p99_us,
              static_cast<unsigned long long>(stats.rejected));

  std::ofstream os("BENCH_serve.json");
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"bench\":\"serve_load\",\"workers\":%d,\"clients\":%d,"
                "\"queries\":%lld,\"alpha\":%.2f,\"wall_s\":%.4f,"
                "\"qps\":%.0f,\"single_thread_qps\":%.0f,\"speedup\":%.2f,",
                workers, clients, static_cast<long long>(queries),
                wspec.alpha, wall_s, qps, base_qps, speedup);
  os << buf << "\"stats\":" << stats.ToJson() << "}\n";
  std::printf("wrote BENCH_serve.json\n");

  // ---- Churn phase: the sharded tier under kill/slow faults. ----
  const int shards = static_cast<int>(EnvInt("SNCUBE_SERVE_SHARDS", 4));

  // Golden answers for the whole pool from the single full-cube engine;
  // every router answer is checked against these during the run.
  std::map<std::string, Relation> golden;
  for (const Query& q : mix.pool()) {
    Query bare = q;
    bare.from_view.reset();
    golden.emplace(CanonicalQueryKey(q), engine.Execute(bare).rel);
  }

  // Seeded churn: shard 1 dies for the middle third of the run (then comes
  // back with cold caches), shard 2 runs 3x slow for the first two thirds.
  // Windows key on router request sequence numbers, so the plan means the
  // same thing at any request rate.
  char plan_spec[128];
  std::snprintf(plan_spec, sizeof plan_spec,
                "shardkill:1:%lld-%lld;shardslow:2:0-%lld:3.0;seed:9",
                static_cast<long long>(queries / 3),
                static_cast<long long>(2 * queries / 3),
                static_cast<long long>(2 * queries / 3));

  ShardSetOptions sopts;
  sopts.shards = shards;
  sopts.server.workers = std::max(1, workers / 2);
  sopts.server.queue_depth = 1024;
  sopts.server.cache_bytes = (256u << 20) / static_cast<unsigned>(shards);
  ShardSet shard_set(cube, sopts, FaultPlan::Parse(plan_spec));

  RouterOptions ropts;
  ropts.per_try_us = 200000;
  ropts.max_tries = 3;
  ropts.hedge_delay_us = 20000;
  ropts.retry_budget_ratio = 0.5;
  ropts.breaker.failure_threshold = 5;
  ropts.breaker.cooldown_us = 50000;
  ropts.probe_every = 64;
  Router router(shard_set, ropts);

  std::atomic<std::uint64_t> wrong{0};
  WallTimer churn_timer;
  std::vector<std::thread> churn_threads;
  churn_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    churn_threads.emplace_back([&, c] {
      Rng rng(2000003ULL * static_cast<std::uint64_t>(c + 1));
      const std::int64_t n =
          queries / clients + (c < queries % clients ? 1 : 0);
      for (std::int64_t i = 0; i < n; ++i) {
        const Query& q = mix.Sample(rng);
        const RouterResult r = router.Execute(q);
        if (r.outcome == RouterOutcome::kOk &&
            !(r.answer->rel == golden.at(CanonicalQueryKey(q)))) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : churn_threads) t.join();
  const double churn_wall_s = churn_timer.Seconds();
  const RouterStatsSnapshot rstats = router.Stats();
  std::uint64_t invalidations = 0;
  for (int s = 0; s < shards; ++s) {
    invalidations += shard_set.primary_server(s).Stats().cache.invalidations;
    invalidations += shard_set.replica_server(s).Stats().cache.invalidations;
  }
  shard_set.Shutdown();

  std::printf("churn (%d shards, plan \"%s\"): %llu/%llu ok, %llu retries, "
              "%llu hedges, %llu shed, wrong answers %llu, ok p99 %.0f us\n",
              shards, plan_spec,
              static_cast<unsigned long long>(rstats.ok),
              static_cast<unsigned long long>(rstats.requests),
              static_cast<unsigned long long>(rstats.retries),
              static_cast<unsigned long long>(rstats.hedges),
              static_cast<unsigned long long>(rstats.shed),
              static_cast<unsigned long long>(wrong.load()),
              rstats.ok_latency.p99_us);

  std::ofstream shard_os("BENCH_serve_shard.json");
  std::snprintf(buf, sizeof buf,
                "{\"bench\":\"serve_shard\",\"shards\":%d,\"clients\":%d,"
                "\"queries\":%lld,\"plan\":\"%s\",\"wall_s\":%.4f,"
                "\"qps\":%.0f,\"wrong_answers\":%llu,"
                "\"cache_invalidations\":%llu,",
                shards, clients, static_cast<long long>(queries), plan_spec,
                churn_wall_s,
                static_cast<double>(queries) / churn_wall_s,
                static_cast<unsigned long long>(wrong.load()),
                static_cast<unsigned long long>(invalidations));
  shard_os << buf << "\"router\":" << rstats.ToJson() << "}\n";
  std::printf("wrote BENCH_serve_shard.json\n");

  // ---- Refresh phase: online epoch swaps under live traffic. ----
  const int refreshes = static_cast<int>(EnvInt("SNCUBE_SERVE_REFRESHES", 4));
  const std::int64_t delta_rows = std::max<std::int64_t>(1, spec.rows / 10);
  // The k-th refresh ingests this exact delta — deterministic, so the
  // offline golden roll below and the live coordinator see identical rows.
  const auto refresh_delta = [&](int e) {
    DatasetSpec dspec = spec;
    dspec.rows = delta_rows;
    dspec.seed = 4242 + static_cast<std::uint64_t>(e);
    return GenerateDataset(dspec);
  };

  // Per-epoch golden answers for the whole pool, rolled one epoch at a
  // time (only one cube held in memory beyond the base).
  std::map<std::string, std::vector<Relation>> refresh_golden;
  {
    CubeResult rolling;
    const CubeResult* cur = &cube;  // epoch 0 = the base cube
    for (int e = 0; e <= refreshes; ++e) {
      if (e > 0) {
        const Relation delta = refresh_delta(e);
        rolling = MergeDeltaCube(
            *cur, ComputeDeltaCube(delta, schema, *cur));
        cur = &rolling;
      }
      const CubeQueryEngine epoch_engine(*cur);
      for (const Query& q : mix.pool()) {
        Query bare = q;
        bare.from_view.reset();
        refresh_golden[CanonicalQueryKey(q)].push_back(
            epoch_engine.Execute(bare).rel);
      }
    }
  }

  ShardSet refresh_set(cube, sopts, FaultPlan());
  Router refresh_router(refresh_set, ropts);

  const std::string snap_dir =
      (std::filesystem::temp_directory_path() /
       ("sncube_bench_refresh_" + std::to_string(::getpid()))).string();
  RefreshOptions refresh_opts;
  refresh_opts.dir = snap_dir;
  RefreshCoordinator coordinator(
      refresh_set,
      std::shared_ptr<const CubeResult>(&cube, [](const CubeResult*) {}),
      schema, refresh_opts);

  // The coordinator paces itself off the routed-query count: refresh e
  // starts once e/(R+1) of the traffic has been answered, so every epoch
  // serves a slice of the run and the last slice lands post-refresh.
  std::atomic<std::int64_t> processed{0};
  std::atomic<std::uint64_t> wrong_refresh{0};
  WallTimer refresh_timer;
  std::thread refresher([&] {
    for (int e = 1; e <= refreshes; ++e) {
      const std::int64_t threshold =
          static_cast<std::int64_t>(e) * queries / (refreshes + 1);
      while (processed.load(std::memory_order_acquire) < threshold) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      coordinator.Refresh(refresh_delta(e));
    }
  });
  std::vector<std::thread> refresh_threads;
  refresh_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    refresh_threads.emplace_back([&, c] {
      Rng rng(3000003ULL * static_cast<std::uint64_t>(c + 1));
      const std::int64_t n =
          queries / clients + (c < queries % clients ? 1 : 0);
      for (std::int64_t i = 0; i < n; ++i) {
        const Query& q = mix.Sample(rng);
        const RouterResult r = refresh_router.Execute(q);
        if (r.outcome == RouterOutcome::kOk) {
          const auto& goldens = refresh_golden.at(CanonicalQueryKey(q));
          bool match = false;
          for (const Relation& g : goldens) {
            if (r.answer->rel == g) { match = true; break; }
          }
          if (!match) wrong_refresh.fetch_add(1, std::memory_order_relaxed);
        }
        processed.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (auto& t : refresh_threads) t.join();
  refresher.join();
  const double refresh_wall_s = refresh_timer.Seconds();
  const RouterStatsSnapshot refresh_rstats = refresh_router.Stats();
  const std::uint64_t epochs_installed = refresh_set.serving_epoch();
  refresh_set.Shutdown();
  std::error_code ec;
  std::filesystem::remove_all(snap_dir, ec);

  std::printf("refresh (%d shards, %d refreshes, %lld-row deltas): "
              "%llu/%llu ok, epochs installed %llu, wrong answers %llu, "
              "ok p99 %.0f us\n",
              shards, refreshes, static_cast<long long>(delta_rows),
              static_cast<unsigned long long>(refresh_rstats.ok),
              static_cast<unsigned long long>(refresh_rstats.requests),
              static_cast<unsigned long long>(epochs_installed),
              static_cast<unsigned long long>(wrong_refresh.load()),
              refresh_rstats.ok_latency.p99_us);

  std::ofstream refresh_os("BENCH_refresh.json");
  std::snprintf(buf, sizeof buf,
                "{\"bench\":\"serve_refresh\",\"shards\":%d,\"clients\":%d,"
                "\"queries\":%lld,\"refreshes\":%d,\"delta_rows\":%lld,"
                "\"wall_s\":%.4f,\"qps\":%.0f,\"epochs_installed\":%llu,"
                "\"wrong_answers\":%llu,",
                shards, clients, static_cast<long long>(queries), refreshes,
                static_cast<long long>(delta_rows), refresh_wall_s,
                static_cast<double>(queries) / refresh_wall_s,
                static_cast<unsigned long long>(epochs_installed),
                static_cast<unsigned long long>(wrong_refresh.load()));
  refresh_os << buf << "\"router\":" << refresh_rstats.ToJson() << "}\n";
  std::printf("wrote BENCH_refresh.json\n");

  if (wrong.load() != 0 || wrong_refresh.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu wrong answers under churn, %llu under refresh\n",
                 static_cast<unsigned long long>(wrong.load()),
                 static_cast<unsigned long long>(wrong_refresh.load()));
    return 1;
  }
  return 0;
}
