// Unified metrics: one typed counter/gauge/histogram sink for every layer.
//
// Before PR 4 each layer kept its own incompatible counters — net/metrics.h
// per-phase structs, DiskModel block counts, serve's StatsSnapshot, ad-hoc
// timers inside bench binaries. MetricsRegistry is the
// single sink they all report into (directly, or via the absorb adapters in
// obs/export.h), under one naming scheme (DESIGN.md §10):
//
//   <layer>.<noun>[_<unit>]     — dotted lowercase, unit suffix when not a
//                                 plain count: net.bytes_sent, run.sim_time_s,
//                                 disk.blocks_written, serve.cache.hits,
//                                 serve.latency_us.
//
// Instruments are cheap and thread-safe (single atomics; the registry map is
// mutex-guarded only on name lookup), and references returned by Get* stay
// valid for the registry's lifetime — resolve once, bump forever. Export is
// deterministic: ToJson() orders by name and prints doubles with fixed
// precision, so registry output can be golden-tested.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sncube::obs {

// Monotone event count.
class Counter {
 public:
  void Add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Last-written value (also supports accumulation for absorbed sums).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double prev = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(prev, prev + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

// Lock-free power-of-two-bucket histogram: bucket i holds [2^(i-1), 2^i),
// bucket 0 holds {0}; Read() interpolates p50/p95/p99 inside the winning
// bucket, with ≤2× worst-case error — the right trade for an overload
// signal. Record() takes no lock and allocates nothing, so it is safe from
// any number of threads on the serving hot path (CubeServer and Router
// record their latencies here). Unit is whatever the metric name says (µs
// for latencies, bytes for sizes).
//
// Every operation is deliberately std::memory_order_relaxed:
//
//   * No Record() publishes data that a Read() dereferences — the counters
//     ARE the data, so there is no acquire/release pairing to make.
//   * Each counter is individually monotone, so a relaxed Read() is some
//     valid histogram. Cross-counter skew (a value counted in sum_ whose
//     bucket increment is not yet visible) can transiently shift mean vs.
//     quantiles by one sample — irrelevant to an overload signal.
//   * max_ uses a relaxed compare-exchange loop: a lost race re-reads the
//     new maximum, so correctness comes from CAS atomicity, not ordering.
//
// If a reader ever needs "snapshot at least as new as X", add an explicit
// fence then — do not upgrade these orders speculatively.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(std::uint64_t value);

  // Adds `other`'s bucket counts and sum and raises the max to its max, so
  // quantiles survive the transfer (e.g. absorbing a server's latencies
  // into a registry, serve/metrics_bridge.h).
  void Merge(const Histogram& other);

  HistogramSnapshot Read() const;

 private:
  void RaiseMax(std::uint64_t m);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// Named instrument registry. Get* creates on first use; the returned
// reference is stable for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name) SNCUBE_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) SNCUBE_EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name) SNCUBE_EXCLUDES(mu_);

  // Deterministic JSON object: {"counters":{...},"gauges":{...},
  // "histograms":{...}} with names sorted and fixed-precision doubles.
  std::string ToJson() const SNCUBE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // unique_ptr keeps instrument addresses stable across map rebalancing.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SNCUBE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      SNCUBE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SNCUBE_GUARDED_BY(mu_);
};

}  // namespace sncube::obs
