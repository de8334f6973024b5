#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>

#include "core/merge_partitions.h"
#include "core/onedim_baseline.h"
#include "core/workpart_baseline.h"
#include "core/parallel_cube.h"
#include "core/sample_sort.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "relation/sort.h"
#include "seqcube/cube_result.h"

namespace sncube {
namespace {

// ---------------------------------------------------------------------------
// SampledRowsLessEq: the Section 2.4 sample read in place

// The sampling array as Section 2.4 keeps it while a view is written row by
// row: fill at stride 1; when full, keep every other sample and double the
// stride. Returns the final stride and samples.
std::pair<std::size_t, std::vector<KeyTuple>> StrideDoublingSample(
    const std::vector<KeyTuple>& rows, std::size_t capacity) {
  std::size_t stride = 1;
  std::vector<KeyTuple> samples;
  for (std::size_t count = 0; count < rows.size(); ++count) {
    if (count % stride != 0) continue;
    if (samples.size() == capacity) {
      for (std::size_t i = 0; 2 * i < capacity; ++i) samples[i] = samples[2 * i];
      samples.resize((capacity + 1) / 2);
      stride *= 2;
    }
    if (count % stride == 0) samples.push_back(rows[count]);
  }
  return {stride, samples};
}

TEST(SampledRows, MatchesStrideDoublingArray) {
  Rng rng(2403);
  const Key domains[] = {1, 3, 10, 100};  // few values: heavy duplicates
  for (std::size_t capacity : {2, 3, 7, 64, 400}) {
    for (int width = 1; width <= 3; ++width) {
      // Sort by the columns in reverse so `cols` is not the storage order.
      std::vector<int> cols = IdentityOrder(width);
      std::reverse(cols.begin(), cols.end());
      const std::size_t edges[] = {0, capacity, capacity + 1, 2 * capacity + 1};
      for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = trial < 4 ? edges[trial] : rng.Below(5001);
        const Key domain = domains[rng.Below(4)];
        Relation rel(width);
        std::vector<Key> keys(static_cast<std::size_t>(width));
        for (std::size_t r = 0; r < n; ++r) {
          for (Key& k : keys) k = static_cast<Key>(rng.Below(domain));
          rel.Append(keys, 1);
        }
        rel = SortRelation(rel, cols);

        // Probe every distinct key and its ±1 neighbours in each column.
        std::vector<KeyTuple> rows;
        std::set<KeyTuple> probes = {KeyTuple(keys.size(), 0)};
        for (std::size_t r = 0; r < n; ++r) {
          rows.push_back(TupleAt(rel, r, cols));
          for (std::size_t c = 0; c < keys.size(); ++c) {
            for (Key delta : {0u, 1u, ~0u}) {  // +0, +1, -1 (mod 2^32)
              KeyTuple probe = rows.back();
              probe[c] += delta;
              probes.insert(probe);
            }
          }
        }
        const auto [stride, samples] = StrideDoublingSample(rows, capacity);
        ASSERT_EQ(SampleStride(n, capacity), stride)
            << "n=" << n << " capacity=" << capacity;
        for (const KeyTuple& key : probes) {
          const auto kept = static_cast<std::size_t>(
              std::upper_bound(samples.begin(), samples.end(), key) -
              samples.begin());
          ASSERT_EQ(SampledRowsLessEq(rel, cols, key, capacity),
                    std::min(n, kept * stride))
              << "n=" << n << " capacity=" << capacity << " width=" << width;
        }
      }
    }
  }
}

// SampledRowsLessEq over `rel` sorted in storage column order.
std::size_t Estimate(const Relation& rel, const KeyTuple& key,
                     std::size_t capacity) {
  return SampledRowsLessEq(rel, IdentityOrder(rel.width()), key, capacity);
}

Relation OneColumn(const std::vector<Key>& keys) {
  Relation rel(1);
  for (Key k : keys) rel.Append(std::vector<Key>{k}, 1);
  return rel;
}

TEST(SampledRows, ExactWhileUnderCapacity) {
  std::vector<Key> keys;
  for (Key k = 0; k < 50; ++k) keys.push_back(k * 2);
  const Relation rel = OneColumn(keys);
  EXPECT_EQ(SampleStride(rel.size(), 100), 1u);
  // Rows <= 20: keys 0,2,...,20 → 11 rows, exact at stride 1.
  EXPECT_EQ(Estimate(rel, {20}, 100), 11u);
  EXPECT_EQ(Estimate(rel, {1000}, 100), 50u);
  EXPECT_EQ(Estimate(rel, {0}, 100), 1u);
}

TEST(SampledRows, StrideDoublesAndStaysAccurate) {
  const std::size_t capacity = 64;
  const std::size_t n = 10000;
  std::vector<Key> keys;
  for (Key k = 0; k < n; ++k) keys.push_back(k);
  const Relation rel = OneColumn(keys);
  const std::size_t stride = SampleStride(n, capacity);
  EXPECT_GT(stride, 1u);
  EXPECT_LE(stride, 2 * n / capacity);
  for (Key probe : {0u, 777u, 5000u, 9999u}) {
    EXPECT_NEAR(static_cast<double>(Estimate(rel, {probe}, capacity)),
                static_cast<double>(probe + 1), static_cast<double>(stride))
        << "probe=" << probe;
  }
}

TEST(SampledRows, MultiColumnLexicographic) {
  Relation rel(2);
  for (Key a = 0; a < 10; ++a) {
    for (Key b = 0; b < 10; ++b) rel.Append(std::vector<Key>{a, b}, 1);
  }
  EXPECT_NEAR(static_cast<double>(Estimate(rel, {4, 9}, 16)), 50.0,
              static_cast<double>(SampleStride(rel.size(), 16)));
}

TEST(SampledRows, SkewedDuplicatesStillBounded) {
  // 5000 rows of key 7 then 5000 of key 9.
  std::vector<Key> keys(5000, 7);
  keys.resize(10000, 9);
  const Relation rel = OneColumn(keys);
  const auto stride = static_cast<double>(SampleStride(rel.size(), 32));
  EXPECT_NEAR(static_cast<double>(Estimate(rel, {7}, 32)), 5000.0, stride);
  EXPECT_NEAR(static_cast<double>(Estimate(rel, {8}, 32)), 5000.0, stride);
}

// ---------------------------------------------------------------------------
// RelativeImbalance

TEST(Imbalance, Definition) {
  EXPECT_DOUBLE_EQ(RelativeImbalance({100, 100, 100}), 0.0);
  // avg 100; max deviation (130-100)/100.
  EXPECT_DOUBLE_EQ(RelativeImbalance({70, 100, 130}), 0.3);
  EXPECT_DOUBLE_EQ(RelativeImbalance({0, 0}), 0.0);
  // One empty, one full: avg 50 → max((100-50)/50,(50-0)/50) = 1.
  EXPECT_DOUBLE_EQ(RelativeImbalance({0, 100}), 1.0);
}

// ---------------------------------------------------------------------------
// AdaptiveSampleSort

struct SortOutcome {
  std::vector<Relation> shards;
  std::vector<SampleSortStats> stats;
};

SortOutcome RunSampleSort(int p, const std::vector<Relation>& inputs,
                          const std::vector<int>& cols, double gamma) {
  Cluster cluster(p);
  SortOutcome out;
  out.shards.resize(p);
  out.stats.resize(p);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    SampleSortStats stats;
    Relation shard = AdaptiveSampleSort(comm, Relation(inputs[comm.rank()]),
                                        cols, gamma, &stats);
    std::lock_guard<std::mutex> lock(mu);
    out.shards[comm.rank()] = std::move(shard);
    out.stats[comm.rank()] = stats;
  });
  return out;
}

void ExpectGloballySorted(const std::vector<Relation>& shards,
                          const std::vector<int>& cols) {
  for (std::size_t r = 0; r < shards.size(); ++r) {
    EXPECT_TRUE(IsSorted(shards[r], cols)) << "rank " << r;
  }
  const Relation* prev = nullptr;
  for (const auto& shard : shards) {
    if (shard.empty()) continue;
    if (prev != nullptr) {
      EXPECT_LE(CompareRows(*prev, prev->size() - 1, cols, shard, 0, cols), 0);
    }
    prev = &shard;
  }
}

TEST(SampleSort, SortsAndBalancesUniform) {
  const int p = 4;
  Rng rng(77);
  std::vector<Relation> inputs(p, Relation(2));
  std::size_t total = 0;
  for (int r = 0; r < p; ++r) {
    const int n = 400 + static_cast<int>(rng.Below(200));
    for (int i = 0; i < n; ++i) {
      inputs[r].Append(std::vector<Key>{static_cast<Key>(rng.Below(1000)),
                                        static_cast<Key>(rng.Below(10))},
                       1);
    }
    total += inputs[r].size();
  }
  const auto cols = IdentityOrder(2);
  const auto out = RunSampleSort(p, inputs, cols, 0.01);

  ExpectGloballySorted(out.shards, cols);
  std::size_t got = 0;
  std::vector<std::uint64_t> sizes;
  for (const auto& s : out.shards) {
    got += s.size();
    sizes.push_back(s.size());
  }
  EXPECT_EQ(got, total);
  // Either the first h-relation was balanced, or the shift ran and made it
  // perfectly even.
  if (out.stats[0].shifted) {
    EXPECT_LE(RelativeImbalance(sizes), 0.01 + 1e-9);
  } else {
    EXPECT_LE(out.stats[0].imbalance_before_shift, 0.01 + 1e-9);
  }
}

TEST(SampleSort, MultisetPreserved) {
  const int p = 3;
  Rng rng(78);
  std::vector<Relation> inputs(p, Relation(1));
  Relation all(1);
  for (int r = 0; r < p; ++r) {
    for (int i = 0; i < 300; ++i) {
      const Key k = static_cast<Key>(rng.Below(50));
      inputs[r].Append(std::vector<Key>{k}, r * 1000 + i);
      all.Append(std::vector<Key>{k}, r * 1000 + i);
    }
  }
  const std::vector<int> cols{0};
  const auto out = RunSampleSort(p, inputs, cols, 0.01);
  Relation combined(1);
  for (const auto& s : out.shards) combined.Concat(Relation(s));
  // Same multiset of (key, measure) pairs.
  auto normalize = [](const Relation& rel) {
    std::vector<std::pair<Key, Measure>> v;
    for (std::size_t i = 0; i < rel.size(); ++i) {
      v.emplace_back(rel.key(i, 0), rel.measure(i));
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(normalize(combined), normalize(all));
}

TEST(SampleSort, SkewTriggersShift) {
  // Every row has the same key: the first h-relation dumps everything on one
  // rank; the shift must rebalance to within a row.
  const int p = 4;
  std::vector<Relation> inputs(p, Relation(1));
  for (int r = 0; r < p; ++r) {
    for (int i = 0; i < 250; ++i) inputs[r].Append(std::vector<Key>{42}, 1);
  }
  const std::vector<int> cols{0};
  const auto out = RunSampleSort(p, inputs, cols, 0.01);
  EXPECT_TRUE(out.stats[0].shifted);
  for (const auto& s : out.shards) EXPECT_EQ(s.size(), 250u);
}

TEST(SampleSort, EmptyInputsEverywhere) {
  const int p = 3;
  std::vector<Relation> inputs(p, Relation(1));
  const std::vector<int> cols{0};
  const auto out = RunSampleSort(p, inputs, cols, 0.01);
  for (const auto& s : out.shards) EXPECT_TRUE(s.empty());
}

TEST(SampleSort, SingleProcessor) {
  std::vector<Relation> inputs(1, Relation(1));
  inputs[0].Append(std::vector<Key>{3}, 1);
  inputs[0].Append(std::vector<Key>{1}, 2);
  const std::vector<int> cols{0};
  const auto out = RunSampleSort(1, inputs, cols, 0.01);
  ASSERT_EQ(out.shards[0].size(), 2u);
  EXPECT_EQ(out.shards[0].key(0, 0), 1u);
}

// ---------------------------------------------------------------------------
// Parallel cube: the master end-to-end property.

struct ParallelRun {
  std::vector<CubeResult> shards;  // per rank
  std::vector<ParallelCubeStats> stats;
};

ParallelRun RunParallelCube(int p, const DatasetSpec& spec,
                            const std::vector<ViewId>& selected,
                            const ParallelCubeOptions& opts) {
  const Schema schema = spec.MakeSchema();
  Cluster cluster(p);
  ParallelRun run;
  run.shards.resize(p);
  run.stats.resize(p);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, p, comm.rank());
    ParallelCubeStats stats;
    CubeResult cube =
        BuildParallelCube(comm, raw, schema, selected, opts, &stats);
    std::lock_guard<std::mutex> lock(mu);
    run.shards[comm.rank()] = std::move(cube);
    run.stats[comm.rank()] = stats;
  });
  return run;
}

// Concatenated shards must equal the brute-force group-by of the whole
// data set, with no group straddling a rank boundary.
void ExpectCubeCorrect(const ParallelRun& run, const DatasetSpec& spec,
                       const std::vector<ViewId>& selected) {
  const Relation whole = GenerateDataset(spec);
  for (ViewId v : selected) {
    Relation combined(v.dim_count());
    std::size_t nonempty = 0;
    const ViewResult* prev = nullptr;
    for (const auto& shard : run.shards) {
      const auto it = shard.views.find(v);
      ASSERT_NE(it, shard.views.end()) << "missing view on a rank";
      const ViewResult& vr = it->second;
      const auto cols = ColumnsOf(v, vr.order);
      EXPECT_TRUE(IsSorted(vr.rel, cols));
      if (!vr.rel.empty()) {
        if (prev != nullptr && !prev->rel.empty()) {
          // Strict inequality: groups never straddle rank boundaries.
          const auto pcols = ColumnsOf(v, prev->order);
          EXPECT_LT(CompareRows(prev->rel, prev->rel.size() - 1, pcols,
                                vr.rel, 0, cols),
                    0)
              << "group straddles ranks, view mask=" << v.mask();
        }
        prev = &it->second;
        ++nonempty;
      }
      combined.Concat(Relation(vr.rel));
    }
    const Relation expected = BruteForceView(whole, v);
    const Relation actual = CanonicalizeRows(combined);
    ASSERT_EQ(actual.size(), expected.size()) << "view mask=" << v.mask();
    EXPECT_EQ(actual, expected) << "view mask=" << v.mask();
    (void)nonempty;
  }
}

DatasetSpec CubeSpec(std::int64_t rows, std::uint64_t seed,
                     std::vector<double> alphas = {}) {
  DatasetSpec spec;
  spec.rows = rows;
  spec.cardinalities = {40, 12, 6, 4};
  spec.alphas = std::move(alphas);
  spec.seed = seed;
  return spec;
}

TEST(ParallelCube, FullCubeMatchesBruteForceAcrossP) {
  const auto selected = AllViews(4);
  for (int p : {1, 2, 4, 5}) {
    const auto spec = CubeSpec(4000, 100 + p);
    ParallelCubeOptions opts;
    const auto run = RunParallelCube(p, spec, selected, opts);
    ExpectCubeCorrect(run, spec, selected);
  }
}

TEST(ParallelCube, SkewedDataStillCorrect) {
  const auto selected = AllViews(4);
  for (double alpha : {1.0, 3.0}) {
    const auto spec = CubeSpec(3000, 200, {alpha, alpha, 0.0, 0.0});
    const auto run = RunParallelCube(4, spec, selected, ParallelCubeOptions{});
    ExpectCubeCorrect(run, spec, selected);
  }
}

TEST(ParallelCube, LocalTreeModeCorrect) {
  const auto selected = AllViews(4);
  const auto spec = CubeSpec(3000, 300, {2.0, 0.0, 0.0, 0.0});
  ParallelCubeOptions opts;
  opts.tree_mode = TreeMode::kLocal;
  opts.estimator = EstimatorKind::kFm;
  const auto run = RunParallelCube(4, spec, selected, opts);
  ExpectCubeCorrect(run, spec, selected);
}

TEST(ParallelCube, PartialCubeSelections) {
  const std::vector<ViewId> selected{
      ViewId::Full(4), ViewId::FromDims({0, 2}), ViewId::FromDims({1, 3}),
      ViewId::FromDims({2}), ViewId::Empty()};
  for (auto strategy : {PartialStrategy::kPrunedPipesort,
                        PartialStrategy::kGreedyLattice}) {
    const auto spec = CubeSpec(2500, 400);
    ParallelCubeOptions opts;
    opts.partial_strategy = strategy;
    const auto run = RunParallelCube(3, spec, selected, opts);
    ExpectCubeCorrect(run, spec, selected);
    // No auxiliary views in the output.
    for (const auto& shard : run.shards) {
      EXPECT_EQ(shard.views.size(), selected.size());
    }
  }
}

TEST(ParallelCube, ForceCase3AblationCorrect) {
  const auto selected = AllViews(4);
  const auto spec = CubeSpec(2000, 500);
  ParallelCubeOptions opts;
  opts.force_case3 = true;
  const auto run = RunParallelCube(4, spec, selected, opts);
  ExpectCubeCorrect(run, spec, selected);
  EXPECT_EQ(run.stats[0].merge.case2_views, 0);
}

TEST(ParallelCube, GammaSweepCorrect) {
  const auto selected = AllViews(4);
  for (double gamma : {0.01, 0.05, 0.5}) {
    const auto spec = CubeSpec(2000, 600);
    ParallelCubeOptions opts;
    opts.gamma_merge = gamma;
    const auto run = RunParallelCube(4, spec, selected, opts);
    ExpectCubeCorrect(run, spec, selected);
  }
}

TEST(ParallelCube, MergeCasesAllExercised) {
  // d=4 cube, moderate skew: expect a mix of prefix (Case 1) and non-prefix
  // views, with Case 2 dominating on balanced data.
  const auto spec = CubeSpec(4000, 700);
  const auto run =
      RunParallelCube(4, spec, AllViews(4), ParallelCubeOptions{});
  const auto& merge = run.stats[0].merge;
  EXPECT_GT(merge.case1_views, 0);
  EXPECT_GT(merge.case2_views + merge.case3_views, 0);
  // Full cube of d=4: 16 views across 4 partitions.
  EXPECT_EQ(merge.case1_views + merge.case2_views + merge.case3_views, 16);
}

TEST(ParallelCube, SimulatedTimeDropsWithP) {
  // Needs enough local computation to amortize communication — the paper
  // makes the same observation about small inputs (Section 4.1), and at
  // n = 6000 the simulated cluster indeed shows no speedup.
  const auto selected = AllViews(4);
  DatasetSpec spec = CubeSpec(60000, 800);
  double t2 = 0;
  double t8 = 0;
  {
    Cluster cluster(2);
    cluster.Run([&](Comm& comm) {
      const Relation raw = GenerateSlice(spec, 2, comm.rank());
      BuildParallelCube(comm, raw, spec.MakeSchema(), selected);
    });
    t2 = cluster.SimTimeSeconds();
  }
  {
    Cluster cluster(8);
    cluster.Run([&](Comm& comm) {
      const Relation raw = GenerateSlice(spec, 8, comm.rank());
      BuildParallelCube(comm, raw, spec.MakeSchema(), selected);
    });
    t8 = cluster.SimTimeSeconds();
  }
  EXPECT_LT(t8, t2);
}

TEST(ParallelCube, SignedMeasureSums) {
  // Signed, distinguishable measures: sums cancel and go negative, across
  // every Merge-Partitions case a 3-rank build reaches.
  DatasetSpec spec = CubeSpec(1500, 900);
  const auto selected = AllViews(4);
  const Schema schema = spec.MakeSchema();
  Cluster cluster(3);
  std::vector<CubeResult> shards(3);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    Relation raw = GenerateSlice(spec, 3, comm.rank());
    // Distinguishable measures derived from row content.
    for (std::size_t r = 0; r < raw.size(); ++r) {
      raw.measure(r) = static_cast<Measure>((raw.key(r, 0) * 7 + r) % 101) - 50;
    }
    CubeResult cube = BuildParallelCube(comm, raw, schema, selected);
    std::lock_guard<std::mutex> lock(mu);
    shards[comm.rank()] = std::move(cube);
  });
  // Rebuild the whole measured data set the same way.
  Relation whole(4);
  for (int r = 0; r < 3; ++r) {
    Relation slice = GenerateSlice(spec, 3, r);
    for (std::size_t i = 0; i < slice.size(); ++i) {
      slice.measure(i) =
          static_cast<Measure>((slice.key(i, 0) * 7 + i) % 101) - 50;
    }
    whole.Concat(std::move(slice));
  }
  for (ViewId v : selected) {
    Relation combined(v.dim_count());
    for (const auto& shard : shards) {
      combined.Concat(Relation(shard.views.at(v).rel));
    }
    EXPECT_EQ(CanonicalizeRows(combined), BruteForceView(whole, v))
        << "view mask=" << v.mask();
  }
}

// ---------------------------------------------------------------------------
// One-dimension baseline

TEST(OneDimBaseline, CorrectButImbalancedUnderSkew) {
  DatasetSpec spec;
  spec.rows = 3000;
  spec.cardinalities = {8, 6, 4};  // |D0| = 8 with p = 4
  spec.alphas = {2.5, 0.0, 0.0};
  spec.seed = 1000;
  const Schema schema = spec.MakeSchema();
  const int p = 4;
  Cluster cluster(p);
  std::vector<CubeResult> shards(p);
  std::vector<OneDimStats> stats(p);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, p, comm.rank());
    OneDimStats st;
    CubeResult cube = OneDimPartitionCube(comm, raw, schema, &st);
    std::lock_guard<std::mutex> lock(mu);
    shards[comm.rank()] = std::move(cube);
    stats[comm.rank()] = st;
  });

  const Relation whole = GenerateDataset(spec);
  for (ViewId v : AllViews(3)) {
    Relation combined(v.dim_count());
    for (const auto& shard : shards) {
      combined.Concat(Relation(shard.views.at(v).rel));
    }
    EXPECT_EQ(CanonicalizeRows(combined), BruteForceView(whole, v))
        << "view mask=" << v.mask();
  }
  // Zipf(2.5) on D0 concentrates most rows on the rank owning value 0.
  EXPECT_GT(stats[0].partition_imbalance, 0.5);
  EXPECT_GT(stats[0].merged_views, 0);
}

TEST(WorkPartitionBaseline, CorrectAndSingleOwnerPerView) {
  DatasetSpec spec;
  spec.rows = 4000;
  spec.cardinalities = {16, 8, 6, 4};
  spec.seed = 1100;
  const Schema schema = spec.MakeSchema();
  const Relation whole = GenerateDataset(spec);
  const int p = 4;

  Cluster cluster(p);
  std::vector<CubeResult> shards(p);
  std::vector<WorkPartitionStats> stats(p);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    WorkPartitionStats st;
    CubeResult cube = WorkPartitionCube(comm, whole, schema, &st);
    std::lock_guard<std::mutex> lock(mu);
    shards[static_cast<std::size_t>(comm.rank())] = std::move(cube);
    stats[static_cast<std::size_t>(comm.rank())] = st;
  });

  for (ViewId v : AllViews(4)) {
    int owners = 0;
    Relation combined(v.dim_count());
    for (const auto& shard : shards) {
      const ViewResult& vr = shard.views.at(v);
      if (!vr.rel.empty()) {
        ++owners;
        combined.Concat(Relation(vr.rel));
      }
    }
    // Whole views on exactly one processor (no distribution — the family's
    // drawback); content exact.
    EXPECT_LE(owners, 1) << "view mask=" << v.mask();
    EXPECT_EQ(CanonicalizeRows(combined),
              BruteForceView(whole, v))
        << "view mask=" << v.mask();
  }
  EXPECT_GT(stats[0].pipelines, 1);
  // LPT on 4 ranks with several pipelines should be reasonably balanced.
  EXPECT_LT(stats[0].estimated_imbalance, 1.0);
}

TEST(WorkPartitionBaseline, DeterministicAssignmentAcrossRanks) {
  DatasetSpec spec;
  spec.rows = 1000;
  spec.cardinalities = {8, 4, 3};
  spec.seed = 1101;
  const Schema schema = spec.MakeSchema();
  const Relation whole = GenerateDataset(spec);
  Cluster cluster(3);
  std::vector<WorkPartitionStats> stats(3);
  cluster.Run([&](Comm& comm) {
    WorkPartitionStats st;
    WorkPartitionCube(comm, whole, schema, &st);
    stats[static_cast<std::size_t>(comm.rank())] = st;
  });
  EXPECT_EQ(stats[0].pipelines, stats[1].pipelines);
  EXPECT_DOUBLE_EQ(stats[0].estimated_imbalance, stats[2].estimated_imbalance);
}

}  // namespace
}  // namespace sncube
