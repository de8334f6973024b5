#include "serve/router.h"

#include <sstream>
#include <utility>

#include "common/status.h"
#include "relation/aggregate.h"

namespace sncube {

namespace {

RouterOutcome MapOutcome(TryOutcome o) {
  switch (o) {
    case TryOutcome::kOk: return RouterOutcome::kOk;
    case TryOutcome::kError: return RouterOutcome::kFailed;
    case TryOutcome::kTimedOut: return RouterOutcome::kTimedOut;
    case TryOutcome::kRejected:
    case TryOutcome::kShardDown:
    // The pinned epoch retired mid-request (a long-stalled request outlived
    // two refresh swaps). No shard still hosts it, so it surfaces as
    // unavailability — the client re-issues and pins the current epoch.
    case TryOutcome::kEpochGone: return RouterOutcome::kUnavailable;
  }
  return RouterOutcome::kFailed;
}

void AppendLatency(std::ostringstream& os, const char* name,
                   const obs::HistogramSnapshot& l) {
  os << "\"" << name << "\":{\"count\":" << l.count
     << ",\"mean\":" << l.mean() << ",\"p50\":" << l.p50
     << ",\"p95\":" << l.p95 << ",\"p99\":" << l.p99
     << ",\"max\":" << l.max << "}";
}

}  // namespace

const char* RouterOutcomeName(RouterOutcome o) {
  switch (o) {
    case RouterOutcome::kOk: return "ok";
    case RouterOutcome::kFailed: return "failed";
    case RouterOutcome::kTimedOut: return "timed_out";
    case RouterOutcome::kShed: return "shed";
    case RouterOutcome::kUnavailable: return "unavailable";
  }
  return "unknown";
}

std::string RouterStatsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"requests\":" << requests << ",\"ok\":" << ok
     << ",\"failed\":" << failed << ",\"timed_out\":" << timed_out
     << ",\"shed\":" << shed << ",\"unavailable\":" << unavailable
     << ",\"point_queries\":" << point_queries
     << ",\"scatter_queries\":" << scatter_queries
     << ",\"retries\":" << retries << ",\"hedges\":" << hedges
     << ",\"hedge_wins\":" << hedge_wins
     << ",\"budget_exhausted\":" << budget_exhausted
     << ",\"probes\":" << probes << ",\"shards\":[";
  for (std::size_t s = 0; s < shard_health.size(); ++s) {
    const auto& h = shard_health[s];
    if (s != 0) os << ",";
    os << "{\"state\":\"" << BreakerStateName(h.state)
       << "\",\"tries\":" << h.tries << ",\"failures\":" << h.failures
       << ",\"breaker_opened\":" << h.breaker_opened
       << ",\"breaker_half_opened\":" << h.breaker_half_opened
       << ",\"breaker_closed\":" << h.breaker_closed << "}";
  }
  os << "],";
  AppendLatency(os, "ok_latency_us", ok_latency);
  os << ",";
  AppendLatency(os, "error_latency_us", error_latency);
  os << "}";
  return os.str();
}

Router::Router(ShardSet& shards, RouterOptions options)
    : shards_(shards),
      options_(options),
      clock_(shards.clock()),
      budget_(options.retry_budget_ratio, options.retry_budget_burst),
      shedder_(options.shedder) {
  health_.reserve(static_cast<std::size_t>(shards_.shards()));
  for (int s = 0; s < shards_.shards(); ++s) {
    health_.push_back(std::make_unique<ShardHealth>(options_.breaker));
  }
}

void Router::ProbeShards() {
  // Probes replay the current sequence number against the fault windows, so
  // a probe and the request that triggered it see the same epoch.
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
  for (int s = 0; s < shards_.shards(); ++s) {
    const std::uint64_t now = clock_.NowMicros();
    auto& h = *health_[static_cast<std::size_t>(s)];
    // An OPEN breaker still cooling down refuses the probe too — the
    // cooldown IS the probe rate limit.
    if (!h.AllowRequest(now)) continue;
    probes_.fetch_add(1, std::memory_order_relaxed);
    if (shards_.Ping(s, seq)) {
      h.OnSuccess(now);
    } else {
      h.OnFailure(now);
    }
  }
}

TryResult Router::TryOnce(int preferred, int other, int slice,
                          const Query& sub, std::uint64_t seq,
                          std::uint64_t epoch, int* shard_tried) {
  *shard_tried = -1;
  const std::uint64_t now = clock_.NowMicros();
  int target = -1;
  if (health_[static_cast<std::size_t>(preferred)]->AllowRequest(now)) {
    target = preferred;
  } else if (other != preferred &&
             health_[static_cast<std::size_t>(other)]->AllowRequest(now)) {
    target = other;
  }
  if (target < 0) return TryResult{};  // both holders breaker-gated
  *shard_tried = target;
  TryResult res = shards_.ExecuteOnShard(target, slice, sub, seq, epoch);
  if (options_.per_try_us > 0 && res.outcome == TryOutcome::kOk &&
      res.latency_us > options_.per_try_us) {
    // Per-try deadline: the answer arrived too late to count. Discarding a
    // correct answer is always safe — the retry path recomputes it.
    res.outcome = TryOutcome::kTimedOut;
    res.answer = nullptr;
  }
  return res;
}

TryResult Router::ExecuteSliceWithPolicy(int slice, const Query& sub,
                                         std::uint64_t seq,
                                         std::uint64_t epoch, int* tries) {
  const int primary = shards_.PrimaryShardOf(slice);
  const int replica = shards_.ReplicaShardOf(slice);
  TryResult last;
  last.outcome = TryOutcome::kShardDown;
  for (int attempt = 0; attempt < options_.max_tries; ++attempt) {
    if (attempt > 0) {
      // Every retry is paid for from the global budget, so a dead tier
      // cannot amplify client load more than (1 + ratio)-fold.
      if (!budget_.TrySpend()) {
        budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      clock_.SleepMicros(options_.backoff.DelayMicros(attempt - 1));
    }
    // Alternate holders: a dead primary fails over on the first retry.
    const int preferred = (attempt % 2 == 0) ? primary : replica;
    const int other = (attempt % 2 == 0) ? replica : primary;
    int tried = -1;
    TryResult res = TryOnce(preferred, other, slice, sub, seq, epoch, &tried);
    if (tried < 0) {
      // Nothing was sent: both holders' breakers refused. That is pressure
      // (the tier is failing work fast); backoff may outlast a cooldown.
      shedder_.Note(true);
      last.outcome = TryOutcome::kShardDown;
      last.answer = nullptr;
      continue;
    }
    ++*tries;
    const std::uint64_t now = clock_.NowMicros();
    switch (res.outcome) {
      case TryOutcome::kOk: {
        health_[static_cast<std::size_t>(tried)]->OnSuccess(now);
        shedder_.Note(false);
        if (options_.hedge_delay_us > 0 &&
            res.latency_us >= options_.hedge_delay_us) {
          // Sequential hedge: the try succeeded but was straggler-slow, so
          // ask the other holder too and keep the faster answer. Both
          // copies hold identical slice data, so this can only trade
          // latency, never correctness.
          const int hedge_target = (tried == primary) ? replica : primary;
          if (hedge_target != tried &&
              health_[static_cast<std::size_t>(hedge_target)]->AllowRequest(
                  now) &&
              budget_.TrySpend()) {
            hedges_.fetch_add(1, std::memory_order_relaxed);
            ++*tries;
            TryResult hr =
                shards_.ExecuteOnShard(hedge_target, slice, sub, seq, epoch);
            if (options_.per_try_us > 0 && hr.outcome == TryOutcome::kOk &&
                hr.latency_us > options_.per_try_us) {
              hr.outcome = TryOutcome::kTimedOut;
              hr.answer = nullptr;
            }
            const std::uint64_t now2 = clock_.NowMicros();
            if (hr.outcome == TryOutcome::kOk) {
              health_[static_cast<std::size_t>(hedge_target)]->OnSuccess(now2);
              if (hr.latency_us < res.latency_us) {
                hedge_wins_.fetch_add(1, std::memory_order_relaxed);
                res = std::move(hr);
              }
            } else if (hr.outcome != TryOutcome::kError) {
              health_[static_cast<std::size_t>(hedge_target)]->OnFailure(now2);
            }
          }
        }
        return res;
      }
      case TryOutcome::kError:
        // The shard answered with a deterministic execution error; a
        // different copy of the same data would say the same. Healthy
        // shard, non-retryable error.
        health_[static_cast<std::size_t>(tried)]->OnSuccess(now);
        return res;
      case TryOutcome::kEpochGone:
        // The pinned epoch is retired everywhere — retrying any copy gives
        // the same answer, and the shard itself responded promptly, so this
        // must not trip the breaker (refresh churn is not shard illness).
        health_[static_cast<std::size_t>(tried)]->OnSuccess(now);
        return res;
      case TryOutcome::kRejected:
      case TryOutcome::kTimedOut:
      case TryOutcome::kShardDown:
        health_[static_cast<std::size_t>(tried)]->OnFailure(now);
        shedder_.Note(true);
        last = std::move(res);
        break;
    }
  }
  return last;
}

RouterResult Router::Execute(const Query& query) {
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  budget_.OnRequest();
  if (options_.probe_every > 0 && seq > 0 &&
      seq % static_cast<std::uint64_t>(options_.probe_every) == 0) {
    ProbeShards();
  }
  const std::uint64_t t0 = clock_.NowMicros();
  RouterResult out;
  // The request's epoch pin: read ONCE, then used for routing and every
  // shard try. A refresh finalize that lands after this line affects only
  // later requests — this one runs entirely against its pinned snapshot.
  const std::uint64_t epoch = shards_.serving_epoch();
  out.epoch = epoch;

  const auto account = [&] {
    const std::uint64_t elapsed = clock_.NowMicros() - t0;
    switch (out.outcome) {
      case RouterOutcome::kOk:
        ok_.fetch_add(1, std::memory_order_relaxed);
        ok_latency_.Record(elapsed);
        break;
      case RouterOutcome::kFailed:
        failed_.fetch_add(1, std::memory_order_relaxed);
        error_latency_.Record(elapsed);
        break;
      case RouterOutcome::kTimedOut:
        timed_out_.fetch_add(1, std::memory_order_relaxed);
        error_latency_.Record(elapsed);
        break;
      case RouterOutcome::kShed:
        // Sheds are immediate refusals; their ~0 latency would only skew
        // the error distribution.
        shed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case RouterOutcome::kUnavailable:
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        error_latency_.Record(elapsed);
        break;
    }
  };

  ViewId view;
  try {
    view = shards_.RouteOnFull(query, epoch);
  } catch (const SncubeError&) {
    out.outcome = RouterOutcome::kFailed;
    account();
    return out;
  }

  // POINT when the answer provably lives on one slice: the empty view's
  // row is on slice 0 by convention, and a filter on the answering view's
  // leading dimension pins the leading-key hash. Everything else SCATTERS.
  int slice = -1;
  if (view.empty()) {
    slice = 0;
  } else {
    const int leading = view.DimList().front();
    for (const auto& f : query.filters) {
      if (f.dim == leading) {
        slice = SliceOfLeadingKey(f.value, shards_.shards());
        break;
      }
    }
  }
  out.scatter = slice < 0;
  if (out.scatter) {
    scatter_queries_.fetch_add(1, std::memory_order_relaxed);
  } else {
    point_queries_.fetch_add(1, std::memory_order_relaxed);
  }

  // Shedding order is strict: rollup scatters go first (level 1), point
  // lookups only under severe overload (level 2).
  const int level = shedder_.Level();
  if ((out.scatter && level >= 1) || (!out.scatter && level >= 2)) {
    out.outcome = RouterOutcome::kShed;
    account();
    return out;
  }

  Query sub = query;
  // All slices must answer from the same view — see shard_set.h. The
  // pin_scatter_view escape hatch exists only so the chaos harness can
  // prove this line is load-bearing.
  if (out.scatter ? options_.pin_scatter_view : true) sub.from_view = view;
  if (!out.scatter) {
    const TryResult r =
        ExecuteSliceWithPolicy(slice, sub, seq, epoch, &out.tries);
    out.outcome = MapOutcome(r.outcome);
    if (r.outcome == TryOutcome::kOk) out.answer = r.answer;
  } else {
    // Partials must carry every group: top-k is re-applied after the merge
    // (a group outside one slice's local top-k can win globally).
    sub.top_k = 0;
    Relation merged(query.group_by.dim_count());
    const std::vector<int> cols = IdentityOrder(merged.width());
    std::uint64_t scanned = 0;
    out.outcome = RouterOutcome::kOk;
    for (int sl = 0; sl < shards_.shards(); ++sl) {
      const TryResult r =
          ExecuteSliceWithPolicy(sl, sub, seq, epoch, &out.tries);
      if (r.outcome != TryOutcome::kOk) {
        // All-or-nothing: a partial scatter answer would silently drop the
        // failed slice's facts — the one wrong-answer mode this tier must
        // never have. Fail typed instead.
        out.outcome = MapOutcome(r.outcome);
        break;
      }
      try {
        merged = MergeSortedAggregate(merged, r.answer->rel, cols);
      } catch (const SncubeInputError&) {
        out.outcome = RouterOutcome::kFailed;  // the SUM leaves int64
        break;
      }
      scanned += r.answer->rows_scanned;
    }
    if (out.outcome == RouterOutcome::kOk) {
      auto ans = std::make_shared<QueryAnswer>();
      ans->rel = TopKByMeasure(merged, query.top_k);
      ans->answered_from = view;
      ans->rows_scanned = scanned;
      out.answer = std::move(ans);
    }
  }
  account();
  return out;
}

RouterStatsSnapshot Router::Stats() const {
  RouterStatsSnapshot s;
  s.ok = ok_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.unavailable = unavailable_.load(std::memory_order_relaxed);
  s.requests = s.ok + s.failed + s.timed_out + s.shed + s.unavailable;
  s.point_queries = point_queries_.load(std::memory_order_relaxed);
  s.scatter_queries = scatter_queries_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.hedges = hedges_.load(std::memory_order_relaxed);
  s.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  s.budget_exhausted = budget_exhausted_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.shard_health.reserve(health_.size());
  for (const auto& h : health_) s.shard_health.push_back(h->Snap());
  s.ok_latency = ok_latency_.Read();
  s.error_latency = error_latency_.Read();
  return s;
}

}  // namespace sncube
