#include "serve/server.h"

#include <optional>
#include <sstream>

#include "common/status.h"
#include "serve/query_key.h"

namespace sncube {

std::string StatsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"accepted\":" << accepted << ",\"rejected\":" << rejected
     << ",\"completed\":" << completed << ",\"failed\":" << failed
     << ",\"timed_out\":" << timed_out
     << ",\"deadline_exceeded_in_flight\":" << deadline_exceeded_in_flight
     << ",\"queue_depth\":" << queue_depth
     << ",\"queue_depth_max\":" << queue_depth_max
     << ",\"cache\":{\"hits\":" << cache.hits << ",\"misses\":" << cache.misses
     << ",\"inserts\":" << cache.inserts
     << ",\"evictions\":" << cache.evictions
     << ",\"invalidations\":" << cache.invalidations
     << ",\"bytes\":" << cache.bytes
     << ",\"entries\":" << cache.entries << ",\"hit_rate\":" << hit_rate()
     << "},\"latency_us\":{\"count\":" << latency.count
     << ",\"mean\":" << latency.mean_us() << ",\"p50\":" << latency.p50_us
     << ",\"p95\":" << latency.p95_us << ",\"p99\":" << latency.p99_us
     << ",\"max\":" << latency.max_us << "}}";
  return os.str();
}

CubeServer::CubeServer(const CubeResult& cube, ServerOptions options)
    : options_(options),
      engine_(cube),
      cache_(options.cache_bytes, options.cache_shards) {
  SNCUBE_CHECK(options_.workers >= 1);
  SNCUBE_CHECK(options_.queue_depth >= 1);
  // Spawned workers immediately contend for mu_ in WorkerLoop, so they park
  // until construction releases the lock — no worker observes a
  // half-initialized pool.
  MutexLock lock(mu_);
  live_workers_ = options_.workers;
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

CubeServer::~CubeServer() { Shutdown(); }

SubmitStatus CubeServer::Submit(const Query& query, Callback done) {
  Request req;
  req.query = query;
  req.key = CanonicalQueryKey(query);
  req.done = std::move(done);
  req.enqueued = std::chrono::steady_clock::now();
  if (options_.deadline.count() > 0) {
    req.submitted_us = DeadlineClock().NowMicros();
  }
  {
    MutexLock lock(mu_);
    if (stopping_) return SubmitStatus::kShutdown;
    if (queue_.size() >= options_.queue_depth) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return SubmitStatus::kRejected;
    }
    queue_.push_back(std::move(req));
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  queue_cv_.NotifyOne();
  return SubmitStatus::kAccepted;
}

std::shared_ptr<const QueryAnswer> CubeServer::Execute(const Query& query) {
  Mutex mu;
  CondVar cv;
  std::shared_ptr<const QueryAnswer> result;
  bool ready = false;
  const SubmitStatus st =
      Submit(query, [&](std::shared_ptr<const QueryAnswer> answer,
                        QueryOutcome /*outcome*/) {
        MutexLock lock(mu);
        result = std::move(answer);
        ready = true;
        cv.NotifyOne();
      });
  if (st != SubmitStatus::kAccepted) return nullptr;
  MutexLock lock(mu);
  while (!ready) cv.Wait(mu);
  return result;
}

void CubeServer::WorkerLoop(int worker) {
  // Per-worker trace recorder (worker index doubles as the trace "rank").
  // Thread-confined for the worker's whole life; absorbed into the sink
  // exactly once, after the worker leaves the serving loop.
  std::optional<obs::TraceRecorder> recorder;
  if (options_.trace != nullptr) recorder.emplace(worker, &trace_clock_);
  obs::ThreadRecorderScope trace_scope(recorder ? &*recorder : nullptr);

  for (;;) {
    Request req;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(mu_);
      if (queue_.empty()) {
        // Stopping and fully drained: retire. The last worker out wakes
        // every Shutdown caller blocked on quiescence.
        if (--live_workers_ == 0) drained_cv_.NotifyAll();
        break;
      }
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    Process(req);
  }
  if (recorder) options_.trace->Absorb(recorder->Finish());
}

void CubeServer::Process(Request& req) {
  SNCUBE_TRACE_SPAN("request");
  // Deadline check at dequeue: a request that already waited past its
  // deadline is dropped without doing the query work — the client stopped
  // waiting, so executing it would only delay requests that can still make
  // their deadlines.
  if (Expired(req)) {
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    if (req.done) req.done(nullptr, QueryOutcome::kTimedOut);
    return;
  }

  if (options_.pre_execute_hook) options_.pre_execute_hook(req.query);

  std::shared_ptr<const QueryAnswer> answer;
  bool execution_failed = false;
  {
    SNCUBE_TRACE_SPAN("cache-lookup");
    answer = cache_.Get(req.key, options_.epoch);
  }
  if (answer == nullptr) {
    try {
      answer = std::make_shared<const QueryAnswer>(engine_.Execute(req.query));
      cache_.Put(req.key, answer, options_.epoch);
    } catch (const SncubeError&) {
      execution_failed = true;  // e.g. no materialized view covers the query
    }
  }
  // Account before the callback runs: a client that wakes on the callback
  // (CubeServer::Execute) must observe its own request in Stats(), and the
  // callback body is client time, not serving latency.
  const auto elapsed = std::chrono::steady_clock::now() - req.enqueued;
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  latency_.Record(static_cast<std::uint64_t>(us));
  QueryOutcome outcome = QueryOutcome::kOk;
  if (execution_failed) {
    outcome = QueryOutcome::kFailed;
    answer = nullptr;
    failed_.fetch_add(1, std::memory_order_relaxed);
  } else if (Expired(req)) {
    // The query finished, but past its deadline: the client already gave up,
    // so delivering the answer would misreport it as served in budget. The
    // freshly computed answer stays in the cache — a retry will hit it.
    outcome = QueryOutcome::kTimedOut;
    answer = nullptr;
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    deadline_exceeded_in_flight_.fetch_add(1, std::memory_order_relaxed);
  } else {
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (req.done) req.done(std::move(answer), outcome);
}

ServeClock& CubeServer::DeadlineClock() const {
  static WallServeClock wall_clock;
  return options_.clock != nullptr ? *options_.clock : wall_clock;
}

bool CubeServer::Expired(const Request& req) const {
  return options_.deadline.count() > 0 &&
         DeadlineClock().NowMicros() - req.submitted_us >
             static_cast<std::uint64_t>(options_.deadline.count());
}

void CubeServer::Shutdown() {
  // Every caller — not just the first — blocks until the queue is drained
  // and the workers have exited. The old early-return for concurrent
  // callers let a destructor racing an explicit Shutdown() return (and
  // destroy members) while the first caller was still joining workers that
  // touch those members; -Wthread-safety forced the join under mu_, which
  // in turn forced this wait-for-quiescence protocol.
  MutexLock lock(mu_);
  stopping_ = true;
  queue_cv_.NotifyAll();
  while (live_workers_ > 0) drained_cv_.Wait(mu_);
  // live_workers_ == 0: every worker is past its last touch of server
  // state, so joining under mu_ cannot deadlock and only waits out thread
  // epilogues. Concurrent callers serialize here; the loser joins an empty
  // vector.
  for (auto& w : workers_) {
    // sncheck:allow(blocking-under-lock): join runs only after live_workers_ == 0 — every worker is past its last touch of server state, so this waits out thread epilogues, never worker progress
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

StatsSnapshot CubeServer::Stats() const {
  StatsSnapshot s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.deadline_exceeded_in_flight =
      deadline_exceeded_in_flight_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    s.queue_depth = queue_.size();
  }
  s.queue_depth_max = options_.queue_depth;
  s.cache = cache_.Stats();
  s.latency = latency_.Snapshot();
  return s;
}

}  // namespace sncube
