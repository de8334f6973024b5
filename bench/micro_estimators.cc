// Micro-benchmarks for the view-size estimators: throughput of building
// FM sketches vs the (free) analytic formula, Hungarian-matched tree
// construction under each, and the accuracy trade-off that drives the
// global-schedule-tree quality (Section 2.3: "Pipesort and most other
// methods make statistical estimates of the view sizes").
#include <benchmark/benchmark.h>

#include "data/generator.h"
#include "lattice/estimate.h"
#include "lattice/lattice.h"
#include "relation/aggregate.h"
#include "relation/sort.h"
#include "schedule/pipesort.h"

namespace sncube {
namespace {

void BM_AnalyticEstimateAllViews(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const Schema schema(std::vector<std::uint32_t>(d, 64));
  const AnalyticEstimator est(schema, 1e6);
  const auto views = AllViews(d);
  for (auto _ : state) {
    double total = 0;
    for (ViewId v : views) total += est.EstimateRows(v);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AnalyticEstimateAllViews)->Arg(8)->Arg(10);

void BM_FmSketchAllViews(benchmark::State& state) {
  const int d = 6;
  DatasetSpec spec;
  spec.rows = state.range(0);
  spec.cardinalities.assign(d, 32);
  spec.seed = 3;
  const Relation data = GenerateDataset(spec);
  std::vector<int> rel_dims;
  for (int i = 0; i < d; ++i) rel_dims.push_back(i);
  const auto views = AllViews(d);
  for (auto _ : state) {
    FmViewEstimator est(data, rel_dims, views, 64);
    benchmark::DoNotOptimize(est.EstimateRows(ViewId::Full(d)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(views.size()));
}
BENCHMARK(BM_FmSketchAllViews)->Arg(5000)->Arg(20000);

// Accuracy sweep reported through counters: mean relative error of both
// estimators against exact distinct counts on skewed data.
void BM_EstimatorAccuracy(benchmark::State& state) {
  const int d = 5;
  DatasetSpec spec;
  spec.rows = 30000;
  spec.cardinalities = {64, 32, 16, 8, 4};
  spec.alphas.assign(5, static_cast<double>(state.range(0)) / 10.0);
  spec.seed = 4;
  const Relation data = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  std::vector<int> rel_dims{0, 1, 2, 3, 4};
  const auto views = AllViews(d);

  double analytic_err = 0;
  double fm_err = 0;
  for (auto _ : state) {
    const AnalyticEstimator analytic(schema, static_cast<double>(spec.rows));
    const FmViewEstimator fm(data, rel_dims, views, 128);
    analytic_err = fm_err = 0;
    for (ViewId v : views) {
      if (v.empty()) continue;
      const auto dims = v.DimList();
      const std::vector<int> cols(dims.begin(), dims.end());
      const auto actual = static_cast<double>(
          SortAndAggregate(data, cols).size());
      analytic_err += std::abs(analytic.EstimateRows(v) - actual) / actual;
      fm_err += std::abs(fm.EstimateRows(v) - actual) / actual;
    }
    benchmark::DoNotOptimize(analytic_err + fm_err);
  }
  state.counters["analytic_mean_rel_err"] =
      analytic_err / static_cast<double>(views.size() - 1);
  state.counters["fm_mean_rel_err"] =
      fm_err / static_cast<double>(views.size() - 1);
}
BENCHMARK(BM_EstimatorAccuracy)->Arg(0)->Arg(10)->Arg(20);

}  // namespace
}  // namespace sncube

BENCHMARK_MAIN();
