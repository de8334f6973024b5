#include "obs/metrics_registry.h"

#include <bit>
#include <cmath>

#include "obs/jsonf.h"

namespace sncube::obs {
namespace {

// Bucket i covers [2^(i-1), 2^i); bucket 0 is exactly 0.
double BucketLower(int i) { return i == 0 ? 0.0 : std::ldexp(1.0, i - 1); }
double BucketUpper(int i) { return i == 0 ? 1.0 : std::ldexp(1.0, i); }

}  // namespace

void Histogram::Record(std::uint64_t value) {
  const int bucket = value == 0 ? 0 : static_cast<int>(std::bit_width(value));
  buckets_[static_cast<std::size_t>(bucket < kBuckets ? bucket : kBuckets - 1)]
      .fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  RaiseMax(value);
}

void Histogram::Merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  RaiseMax(other.max_.load(std::memory_order_relaxed));
}

void Histogram::RaiseMax(std::uint64_t m) {
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < m &&
         !max_.compare_exchange_weak(prev, m, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Read() const {
  std::array<std::uint64_t, kBuckets> counts;
  HistogramSnapshot snap;
  for (int i = 0; i < kBuckets; ++i) {
    counts[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    snap.count += counts[static_cast<std::size_t>(i)];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;

  const auto quantile = [&](double q) {
    const double target = q * static_cast<double>(snap.count);
    std::uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      if (static_cast<double>(cum + c) >= target) {
        const double within =
            (target - static_cast<double>(cum)) / static_cast<double>(c);
        return BucketLower(i) + within * (BucketUpper(i) - BucketLower(i));
      }
      cum += c;
    }
    return static_cast<double>(snap.max);
  };
  snap.p50 = quantile(0.50);
  snap.p95 = quantile(0.95);
  snap.p99 = quantile(0.99);
  return snap;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::ToJson() const {
  using internal::AppendQuoted;
  using internal::AppendSeconds;
  using internal::AppendU64;

  std::string out = "{\"counters\":{";
  {
    MutexLock lock(mu_);
    bool first = true;
    for (const auto& [name, c] : counters_) {
      if (!first) out += ',';
      first = false;
      AppendQuoted(out, name);
      out += ':';
      AppendU64(out, c->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
      if (!first) out += ',';
      first = false;
      AppendQuoted(out, name);
      out += ':';
      AppendSeconds(out, g->value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
      if (!first) out += ',';
      first = false;
      AppendQuoted(out, name);
      const HistogramSnapshot s = h->Read();
      out += ":{\"count\":";
      AppendU64(out, s.count);
      out += ",\"sum\":";
      AppendU64(out, s.sum);
      out += ",\"max\":";
      AppendU64(out, s.max);
      out += ",\"p50\":";
      AppendSeconds(out, s.p50);
      out += ",\"p95\":";
      AppendSeconds(out, s.p95);
      out += ",\"p99\":";
      AppendSeconds(out, s.p99);
      out += '}';
    }
  }
  out += "}}";
  return out;
}

}  // namespace sncube::obs
