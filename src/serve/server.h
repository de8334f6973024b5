// CubeServer — concurrent query serving over an immutable materialized cube.
//
// The paper materializes the cube so that "subsequent OLAP queries" are
// cheap; this layer is where those queries actually land. A CubeServer owns
// a fixed pool of worker threads draining one bounded FIFO request queue:
//
//   clients ── Submit ──▶ [bounded queue] ──▶ workers ──▶ cache / engine
//                │ full?                            │
//                └─ kRejected (admission control)   └─ callback(answer)
//
// Admission control is reject-on-overflow: when the queue holds
// `queue_depth` requests, Submit fails fast with kRejected instead of
// blocking the client — under overload a bounded queue plus rejection keeps
// tail latency flat where an unbounded queue would grow it without limit.
//
// The read path is lock-free with respect to the cube: CubeQueryEngine is
// logically const over an immutable CubeResult (see the thread-safety
// contract in query/engine.h), so any number of workers execute queries
// concurrently with no synchronization on cube data. Shared mutable state is
// confined to the request queue (one mutex), the sharded result cache
// (per-shard mutexes), and atomic metrics.
//
// Shutdown() is graceful: already-accepted requests are drained and their
// callbacks run; subsequent Submits return kShutdown.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "serve/lock_order.h"
#include "serve/result_cache.h"
#include "serve/retry_policy.h"
#include "serve/wall_clock.h"

namespace sncube {

struct ServerOptions {
  int workers = 4;                          // worker threads (>= 1)
  std::size_t queue_depth = 256;            // max queued requests (>= 1)
  std::size_t cache_bytes = 64u << 20;      // result cache budget; 0 = off
  int cache_shards = 16;
  // Per-request deadline, measured from Submit (millisecond literals convert
  // implicitly). A request still queued when its deadline expires is dropped
  // at dequeue: its callback runs with kTimedOut and a null answer, and no
  // query work is done for it. A request whose deadline expires WHILE
  // executing also reports kTimedOut with a null answer — the client stopped
  // waiting, so handing it the late answer would misreport the request as
  // served within budget — and is additionally counted in
  // deadline_exceeded_in_flight. Zero disables deadlines. Under overload this
  // sheds exactly the requests whose answers the client has already given up
  // on.
  std::chrono::microseconds deadline{0};
  // Clock the deadline is measured on; borrowed, must outlive the server.
  // Null = a wall clock. Read only when `deadline` is nonzero. ShardSet
  // passes its own clock, so under a ManualServeClock shard-side deadlines
  // run on virtual time. Latency histograms always use steady_clock.
  ServeClock* clock = nullptr;
  // When set, every worker records a wall-clock span trace ("request" →
  // "cache-lookup"/"query-exec"/...; rank = worker index) and deposits it
  // here when it retires at Shutdown. The sink must outlive the server.
  // Null (the default) keeps the hot path trace-free.
  obs::TraceSink* trace = nullptr;
  // Snapshot epoch this server's cube belongs to (src/refresh). Every cache
  // entry is stamped with it, so a shared or recycled ResultCache can never
  // serve this epoch's answers to a request pinned to another epoch.
  std::uint64_t epoch = 0;
  // Test-only: runs on the worker thread after the dequeue deadline check
  // passes and before the cache lookup / query execution. Lets tests hold a
  // request in flight deterministically (e.g. to pin the
  // deadline_exceeded_in_flight path without timing races). Null in
  // production.
  std::function<void(const Query&)> pre_execute_hook = nullptr;
};

enum class SubmitStatus : std::uint8_t {
  kAccepted,   // enqueued; callback will run on a worker thread
  kRejected,   // queue full — overload, client should back off
  kShutdown,   // server is stopping; no new work accepted
};

// How an accepted request terminated (second callback argument).
enum class QueryOutcome : std::uint8_t {
  kOk,        // answer is non-null
  kFailed,    // execution threw (e.g. no covering view); answer is null
  kTimedOut,  // deadline expired (queued or in flight); answer is null
};

// Point-in-time view of the server's counters, printable as JSON.
struct StatsSnapshot {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;        // queries that threw (e.g. no covering view)
  std::uint64_t timed_out = 0;     // deadline expired (queued or in flight)
  // Subset of timed_out: the deadline expired while the query was executing,
  // not while it sat in the queue. A high ratio here means per-query work —
  // not queueing — is what blows the budget, so shrinking the queue won't
  // help; the deadline or the query cost has to change.
  std::uint64_t deadline_exceeded_in_flight = 0;
  std::uint64_t queue_depth = 0;   // current
  std::uint64_t queue_depth_max = 0;  // configured bound
  CacheStats cache;
  obs::HistogramSnapshot latency;  // µs, end-to-end: Submit → callback done

  double hit_rate() const {
    const std::uint64_t lookups = cache.hits + cache.misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache.hits) / lookups;
  }
  // Single-line JSON record (the shape BENCH_serve.json embeds).
  std::string ToJson() const;
};

class CubeServer {
 public:
  // The cube must outlive the server and MUST NOT be mutated while the
  // server is running — all workers read it without locks.
  explicit CubeServer(const CubeResult& cube, ServerOptions options = {});
  ~CubeServer();

  CubeServer(const CubeServer&) = delete;
  CubeServer& operator=(const CubeServer&) = delete;

  // Asynchronous entry point. On kAccepted the callback runs exactly once on
  // a worker thread with the answer (cached or freshly computed) and the
  // outcome; on execution error or an expired deadline the answer is nullptr
  // and the outcome says which. On kRejected/kShutdown the callback never
  // runs.
  using Callback =
      std::function<void(std::shared_ptr<const QueryAnswer>, QueryOutcome)>;
  SubmitStatus Submit(const Query& query, Callback done) SNCUBE_EXCLUDES(mu_);

  // Synchronous convenience: Submit + wait. Returns nullptr when the request
  // was rejected (overload), shut out, or failed to execute.
  std::shared_ptr<const QueryAnswer> Execute(const Query& query);

  // Drains accepted requests, then joins the workers. Idempotent, and
  // blocking for every caller: any Shutdown call (including a concurrent
  // second one, e.g. the destructor racing an explicit Shutdown) returns
  // only after the queue is drained and all worker threads have exited — so
  // returning from Shutdown always means the server is fully quiescent.
  void Shutdown() SNCUBE_EXCLUDES(mu_);

  StatsSnapshot Stats() const SNCUBE_EXCLUDES(mu_);
  const ServerOptions& options() const { return options_; }

  // Drops every cached answer (CacheStats::invalidations counts them). The
  // sharded serving tier calls this when the shard restarts after a fault:
  // the cache was filled against the pre-restart snapshot. Safe to call
  // concurrently with serving.
  void InvalidateCache() { cache_.Clear(); }

  // The raw latency histogram, for export into a MetricsRegistry
  // (serve/metrics_bridge.h). Safe to read concurrently with serving.
  const obs::Histogram& latency_histogram() const { return latency_; }

 private:
  struct Request {
    Query query;
    std::string key;
    Callback done;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t submitted_us = 0;  // on the deadline clock, when one is set
  };

  void WorkerLoop(int worker) SNCUBE_EXCLUDES(mu_);
  void Process(Request& req);
  ServeClock& DeadlineClock() const;
  // True when a deadline is set and `req` has outlived it.
  bool Expired(const Request& req) const;

  const ServerOptions options_;
  CubeQueryEngine engine_;
  ResultCache cache_;
  obs::Histogram latency_;
  // Shared trace epoch for all workers (immutable after construction; only
  // read when options_.trace is set).
  WallClockSource trace_clock_;

  // Server layer of the serve lock hierarchy (serve/lock_order.h): guards
  // queue admission and shutdown state; cache-shard locks may be taken below
  // it (workers hold nothing while calling into the cache today), never
  // above it.
  mutable Mutex mu_ SNCUBE_ACQUIRED_AFTER(kServerLayer)
      SNCUBE_ACQUIRED_BEFORE(kCacheLayer);
  CondVar queue_cv_;    // signaled on enqueue and on shutdown
  CondVar drained_cv_;  // signaled when the last live worker exits
  std::deque<Request> queue_ SNCUBE_GUARDED_BY(mu_);
  bool stopping_ SNCUBE_GUARDED_BY(mu_) = false;
  // Workers still running WorkerLoop. Shutdown waits for this to reach zero
  // before joining, so every Shutdown caller blocks until quiescence.
  int live_workers_ SNCUBE_GUARDED_BY(mu_) = 0;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> deadline_exceeded_in_flight_{0};

  // Joined (and cleared) under mu_ by whichever Shutdown caller gets there
  // first; by then live_workers_ == 0, so no worker needs mu_ again and
  // joining under the lock cannot deadlock.
  std::vector<std::thread> workers_ SNCUBE_GUARDED_BY(mu_);
};

}  // namespace sncube
