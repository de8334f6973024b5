#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "lattice/lattice.h"
#include "obs/metrics_registry.h"
#include "query/engine.h"
#include "seqcube/seq_cube.h"
#include "serve/query_key.h"
#include "serve/result_cache.h"
#include "serve/retry_policy.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace sncube {
namespace {

QueryAnswer MakeAnswer(std::size_t rows) {
  QueryAnswer a;
  a.rel = Relation(1);
  for (std::size_t r = 0; r < rows; ++r) {
    const Key k = static_cast<Key>(r);
    a.rel.Append(std::span<const Key>(&k, 1), 1);
  }
  return a;
}

TEST(QueryKey, FilterOrderAndDuplicatesAreCanonicalized) {
  Query a;
  a.group_by = ViewId::FromDims({0, 2});
  a.filters = {{.dim = 3, .value = 7}, {.dim = 1, .value = 4}};
  Query b = a;
  b.filters = {{.dim = 1, .value = 4},
               {.dim = 3, .value = 7},
               {.dim = 1, .value = 4}};  // reordered + duplicated
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));
}

TEST(QueryKey, DistinguishesEveryAnswerChangingField) {
  Query base;
  base.group_by = ViewId::FromDims({0, 1});
  const std::string k = CanonicalQueryKey(base);

  Query q = base;
  q.group_by = ViewId::FromDims({0});
  EXPECT_NE(CanonicalQueryKey(q), k);

  q = base;
  q.filters = {{.dim = 2, .value = 1}};
  EXPECT_NE(CanonicalQueryKey(q), k);

  q = base;
  q.top_k = 5;
  EXPECT_NE(CanonicalQueryKey(q), k);
}

TEST(ResultCache, HitAfterPutAndMissBefore) {
  ResultCache cache(1 << 20, 4);
  EXPECT_EQ(cache.Get("k1"), nullptr);
  cache.Put("k1", std::make_shared<const QueryAnswer>(MakeAnswer(3)));
  const auto hit = cache.Get("k1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rel.size(), 3u);
  const CacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // One shard so eviction order is fully observable. Budget fits two of the
  // three entries (each entry ≈ rel bytes + key + 128 overhead).
  const QueryAnswer proto = MakeAnswer(8);
  const std::size_t entry = CacheEntryBytes("a", proto);
  ResultCache cache(2 * entry + entry / 2, 1);

  cache.Put("a", std::make_shared<const QueryAnswer>(MakeAnswer(8)));
  cache.Put("b", std::make_shared<const QueryAnswer>(MakeAnswer(8)));
  ASSERT_NE(cache.Get("a"), nullptr);  // touch "a" → "b" becomes LRU
  cache.Put("c", std::make_shared<const QueryAnswer>(MakeAnswer(8)));

  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);  // evicted
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(ResultCache, OversizedAnswerIsNotCached) {
  ResultCache cache(256, 1);
  cache.Put("big", std::make_shared<const QueryAnswer>(MakeAnswer(1000)));
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ResultCache, HitKeepsAnswerAliveAcrossEviction) {
  const QueryAnswer proto = MakeAnswer(8);
  ResultCache cache(CacheEntryBytes("a", proto) + 64, 1);
  cache.Put("a", std::make_shared<const QueryAnswer>(MakeAnswer(8)));
  const auto held = cache.Get("a");
  ASSERT_NE(held, nullptr);
  cache.Put("b", std::make_shared<const QueryAnswer>(MakeAnswer(8)));  // evicts "a"
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(held->rel.size(), 8u);  // still valid through the shared_ptr
}

TEST(LatencyHistogramTest, QuantilesOrderedAndBounded) {
  obs::Histogram h;
  for (std::uint64_t us = 1; us <= 1000; ++us) h.Record(us);
  const obs::HistogramSnapshot s = h.Read();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  // Power-of-two buckets: each quantile within 2x of the true value.
  EXPECT_GE(s.p50, 250.0);
  EXPECT_LE(s.p50, 1024.0);
  EXPECT_GE(s.p99, 512.0);
  EXPECT_LE(s.p99, 2048.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<std::uint64_t>(i % 4096));
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.Read().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

struct ServeFixture : ::testing::Test {
  void SetUp() override {
    spec.rows = 3000;
    spec.cardinalities = {16, 8, 4, 3};
    spec.seed = 11;
    raw = GenerateDataset(spec);
    schema = spec.MakeSchema();
    cube = SequentialCube(raw, schema, AllViews(4));
  }

  DatasetSpec spec;
  Relation raw;
  Schema schema;
  CubeResult cube;
};

TEST_F(ServeFixture, ExecuteMatchesEngine) {
  CubeServer server(cube, {.workers = 2, .queue_depth = 32});
  const CubeQueryEngine engine(cube);
  Query q;
  q.group_by = ViewId::FromDims({0, 2});
  const auto served = server.Execute(q);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->rel, engine.Execute(q).rel);
  EXPECT_EQ(served->answered_from, engine.Execute(q).answered_from);
}

TEST_F(ServeFixture, RepeatedQueryHitsCache) {
  CubeServer server(cube, {.workers = 2, .queue_depth = 32});
  Query q;
  q.group_by = ViewId::FromDims({1});
  ASSERT_NE(server.Execute(q), nullptr);
  ASSERT_NE(server.Execute(q), nullptr);
  const StatsSnapshot s = server.Stats();
  EXPECT_EQ(s.cache.misses, 1u);
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST_F(ServeFixture, UnroutableQueryFailsGracefully) {
  const CubeResult partial =
      SequentialCube(raw, schema, {ViewId::FromDims({0, 1})});
  CubeServer server(partial, {.workers = 2, .queue_depth = 32});
  Query q;
  q.group_by = ViewId::FromDims({3});  // nothing covers D3
  EXPECT_EQ(server.Execute(q), nullptr);
  const StatsSnapshot s = server.Stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 0u);
}

TEST_F(ServeFixture, QueueFullRejectsInsteadOfBlocking) {
  // No workers can make progress until we release them: occupy the pool
  // with requests that block on a latch, then overfill the queue.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  CubeServer server(cube, {.workers = 1, .queue_depth = 2});
  Query q;
  q.group_by = ViewId::FromDims({0});

  // First submit occupies the worker (blocking callback), next two fill the
  // queue; the one after that must be rejected.
  std::atomic<int> done{0};
  auto blocker = [&](std::shared_ptr<const QueryAnswer>, QueryOutcome) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    done.fetch_add(1);
  };
  ASSERT_EQ(server.Submit(q, blocker), SubmitStatus::kAccepted);
  // Wait until the worker picked it up (queue drained to 0), so queue
  // capacity is deterministic below.
  while (server.Stats().queue_depth != 0) std::this_thread::yield();

  auto counter = [&](std::shared_ptr<const QueryAnswer>, QueryOutcome) {
    done.fetch_add(1);
  };
  ASSERT_EQ(server.Submit(q, counter), SubmitStatus::kAccepted);
  ASSERT_EQ(server.Submit(q, counter), SubmitStatus::kAccepted);
  EXPECT_EQ(server.Submit(q, counter), SubmitStatus::kRejected);
  EXPECT_EQ(server.Stats().rejected, 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  server.Shutdown();  // graceful: drains the two queued requests
  EXPECT_EQ(done.load(), 3);
  EXPECT_EQ(server.Submit(q, counter), SubmitStatus::kShutdown);
}

TEST_F(ServeFixture, DeadlineExpiredRequestTimesOutWithoutExecuting) {
  // One worker, held on a latch; a request queued behind it waits past the
  // configured deadline and must be dropped at dequeue: callback runs with
  // kTimedOut and a null answer, no query work is done for it. The deadline
  // runs on a manual clock, so only the test moves time.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> first_done{false};

  ManualServeClock clock;
  CubeServer server(cube, {.workers = 1,
                           .queue_depth = 8,
                           .deadline = std::chrono::milliseconds(20),
                           .clock = &clock});
  Query q;
  q.group_by = ViewId::FromDims({0});

  ASSERT_EQ(server.Submit(q,
                          [&](std::shared_ptr<const QueryAnswer>,
                              QueryOutcome) {
                            first_done.store(true);
                            std::unique_lock<std::mutex> lock(mu);
                            cv.wait(lock, [&] { return release; });
                          }),
            SubmitStatus::kAccepted);
  // The first request's deadline checks are behind it once its callback
  // runs, so the clock below cannot time it out.
  while (!first_done.load()) std::this_thread::yield();

  std::shared_ptr<const QueryAnswer> late_answer;
  QueryOutcome late_outcome = QueryOutcome::kOk;
  std::atomic<bool> late_done{false};
  ASSERT_EQ(server.Submit(q,
                          [&](std::shared_ptr<const QueryAnswer> a,
                              QueryOutcome o) {
                            late_answer = std::move(a);
                            late_outcome = o;
                            late_done.store(true);
                          }),
            SubmitStatus::kAccepted);

  // Age the queued request past its deadline, then free the worker.
  clock.Advance(50000);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  server.Shutdown();

  ASSERT_TRUE(late_done.load());
  EXPECT_EQ(late_answer, nullptr);
  EXPECT_EQ(late_outcome, QueryOutcome::kTimedOut);
  const StatsSnapshot s = server.Stats();
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.failed, 0u);
  // Stats JSON carries the new counter.
  EXPECT_NE(s.ToJson().find("\"timed_out\":1"), std::string::npos);

  // A fresh server with the same deadline but an idle worker serves the
  // identical query fine — the deadline only sheds requests that waited.
  CubeServer fresh(cube, {.workers = 1,
                          .deadline = std::chrono::milliseconds(20),
                          .clock = &clock});
  EXPECT_NE(fresh.Execute(q), nullptr);
}

TEST_F(ServeFixture, ConcurrentClientsMatchSingleThreadedAnswers) {
  // N client threads × M queries each against the server; every answer must
  // equal the single-threaded engine's answer for the same query.
  constexpr int kClients = 8;
  constexpr int kPerClient = 60;

  const CubeQueryEngine engine(cube);
  WorkloadSpec wspec;
  wspec.pool_size = 64;
  wspec.alpha = 1.0;
  const QueryMix mix(cube, schema, wspec);

  // Ground truth, computed once, single-threaded.
  std::vector<QueryAnswer> expected;
  expected.reserve(mix.pool().size());
  for (const Query& q : mix.pool()) expected.push_back(engine.Execute(q));

  CubeServer server(cube, {.workers = 4, .queue_depth = 1024,
                           .cache_bytes = 1u << 20, .cache_shards = 4});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) * 7919 + 1);
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t idx = rng.Below(mix.pool().size());
        const auto got = server.Execute(mix.pool()[idx]);
        if (got == nullptr || got->rel != expected[idx].rel) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const StatsSnapshot s = server.Stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_GT(s.cache.hits, 0u);  // 64-query pool, 480 requests → must re-hit
  EXPECT_EQ(s.latency.count, s.completed + s.failed);
}

TEST_F(ServeFixture, ShutdownIsIdempotentAndDrains) {
  auto server = std::make_unique<CubeServer>(
      cube, ServerOptions{.workers = 2, .queue_depth = 64});
  Query q;
  q.group_by = ViewId::FromDims({0, 1});
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    server->Submit(q, [&](std::shared_ptr<const QueryAnswer> a, QueryOutcome) {
      if (a != nullptr) done.fetch_add(1);
    });
  }
  server->Shutdown();
  EXPECT_EQ(done.load(), 20);  // graceful shutdown ran every callback
  server->Shutdown();          // idempotent
  server.reset();              // destructor after explicit shutdown is fine
}

// Shutdown blocks EVERY caller until quiescence, not just the first. The
// pre-PR-3 protocol early-returned for concurrent callers while the first
// was still joining workers — a destructor racing an explicit Shutdown()
// could then free members under a live worker (the bug -Wthread-safety
// surfaced when the join moved under mu_).
TEST_F(ServeFixture, ConcurrentShutdownCallersAllWaitForQuiescence) {
  CubeServer server(cube, {.workers = 3, .queue_depth = 128});
  Query q;
  q.group_by = ViewId::FromDims({0, 1});
  std::atomic<int> callbacks{0};
  std::uint64_t submitted = 0;
  for (int i = 0; i < 60; ++i) {
    const SubmitStatus st = server.Submit(
        q, [&](std::shared_ptr<const QueryAnswer>, QueryOutcome) {
          callbacks.fetch_add(1);
        });
    if (st == SubmitStatus::kAccepted) ++submitted;
  }
  std::vector<std::thread> closers;
  closers.reserve(4);
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&] {
      server.Shutdown();
      // Whichever caller returns, the server must already be quiescent:
      // every accepted request's callback has run.
      EXPECT_EQ(callbacks.load(), static_cast<int>(submitted));
    });
  }
  for (auto& t : closers) t.join();
  EXPECT_EQ(server.Submit(q, nullptr), SubmitStatus::kShutdown);
  const StatsSnapshot s = server.Stats();
  EXPECT_EQ(s.completed + s.failed + s.timed_out, submitted);
}

TEST_F(ServeFixture, InFlightDeadlineCountsSeparatelyFromQueuedExpiry) {
  // The first execution is held past the deadline by the test hook, so the
  // deadline expires IN FLIGHT: kTimedOut with a null answer, counted in
  // both timed_out and deadline_exceeded_in_flight. The freshly computed
  // answer still lands in the cache — the client's retry gets a hit.
  std::atomic<bool> slow_once{true};
  ManualServeClock clock;
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 8;
  opts.deadline = std::chrono::milliseconds(10);
  opts.clock = &clock;
  opts.pre_execute_hook = [&](const Query&) {
    if (slow_once.exchange(false)) clock.Advance(40000);
  };
  CubeServer server(cube, opts);
  Query q;
  q.group_by = ViewId::FromDims({0, 1});

  EXPECT_EQ(server.Execute(q), nullptr);  // held in flight past the deadline
  {
    const StatsSnapshot s = server.Stats();
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.deadline_exceeded_in_flight, 1u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_NE(s.ToJson().find("\"deadline_exceeded_in_flight\":1"),
              std::string::npos);
  }

  // Retry: the hook no longer stalls, and the answer computed by the timed
  // out request is already cached.
  EXPECT_NE(server.Execute(q), nullptr);
  const StatsSnapshot s = server.Stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_EQ(s.deadline_exceeded_in_flight, 1u);  // unchanged
}

TEST_F(ServeFixture, QueuedExpiryDoesNotCountAsInFlight) {
  // Re-pin the distinction from the other side: a request whose deadline
  // expires while still QUEUED increments timed_out only.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> first_done{false};
  ManualServeClock clock;
  CubeServer server(cube, {.workers = 1,
                           .queue_depth = 8,
                           .deadline = std::chrono::milliseconds(15),
                           .clock = &clock});
  Query q;
  q.group_by = ViewId::FromDims({2});
  ASSERT_EQ(server.Submit(q,
                          [&](std::shared_ptr<const QueryAnswer>,
                              QueryOutcome) {
                            first_done.store(true);
                            std::unique_lock<std::mutex> lock(mu);
                            cv.wait(lock, [&] { return release; });
                          }),
            SubmitStatus::kAccepted);
  while (!first_done.load()) std::this_thread::yield();
  std::atomic<bool> done{false};
  ASSERT_EQ(server.Submit(q,
                          [&](std::shared_ptr<const QueryAnswer>,
                              QueryOutcome) { done.store(true); }),
            SubmitStatus::kAccepted);
  clock.Advance(40000);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  server.Shutdown();
  ASSERT_TRUE(done.load());
  const StatsSnapshot s = server.Stats();
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.deadline_exceeded_in_flight, 0u);
}

TEST_F(ServeFixture, InvalidateCacheForcesRecomputeAndCountsDrops) {
  CubeServer server(cube, {.workers = 2, .queue_depth = 32});
  Query q;
  q.group_by = ViewId::FromDims({1, 3});
  ASSERT_NE(server.Execute(q), nullptr);  // miss + insert
  ASSERT_NE(server.Execute(q), nullptr);  // hit
  server.InvalidateCache();
  ASSERT_NE(server.Execute(q), nullptr);  // recompute after the wipe
  const StatsSnapshot s = server.Stats();
  EXPECT_EQ(s.cache.invalidations, 1u);
  EXPECT_EQ(s.cache.misses, 2u);
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_NE(s.ToJson().find("\"invalidations\":1"), std::string::npos);
}

TEST_F(ServeFixture, WorkloadQueriesAreAllRoutable) {
  WorkloadSpec wspec;
  wspec.pool_size = 128;
  const QueryMix mix(cube, schema, wspec);
  const CubeQueryEngine engine(cube);
  EXPECT_EQ(mix.pool().size(), 128u);
  for (const Query& q : mix.pool()) {
    EXPECT_NO_THROW(engine.Route(q));
  }
}

TEST_F(ServeFixture, WorkloadIsDeterministicUnderSeed) {
  WorkloadSpec wspec;
  wspec.pool_size = 32;
  wspec.seed = 99;
  const QueryMix a(cube, schema, wspec);
  const QueryMix b(cube, schema, wspec);
  ASSERT_EQ(a.pool().size(), b.pool().size());
  for (std::size_t i = 0; i < a.pool().size(); ++i) {
    EXPECT_EQ(CanonicalQueryKey(a.pool()[i]), CanonicalQueryKey(b.pool()[i]));
  }
}

}  // namespace
}  // namespace sncube
