#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "data/generator.h"
#include "lattice/estimate.h"
#include "lattice/fm_sketch.h"
#include "lattice/lattice.h"
#include "lattice/view_id.h"
#include "relation/aggregate.h"
#include "relation/sort.h"

namespace sncube {
namespace {

TEST(ViewId, BasicSetOperations) {
  ViewId v = ViewId::FromDims({0, 2, 3});
  EXPECT_EQ(v.dim_count(), 3);
  EXPECT_TRUE(v.Contains(0));
  EXPECT_FALSE(v.Contains(1));
  EXPECT_EQ(v.DimList(), (std::vector<int>{0, 2, 3}));
  EXPECT_TRUE(v.Without(2).IsProperSubsetOf(v));
  EXPECT_EQ(v.With(1), ViewId::FromDims({0, 1, 2, 3}));
  EXPECT_TRUE(ViewId::Empty().IsSubsetOf(v));
  EXPECT_FALSE(v.IsSubsetOf(ViewId::Empty()));
}

TEST(ViewId, FullAndEmpty) {
  EXPECT_EQ(ViewId::Full(4).mask(), 0b1111u);
  EXPECT_EQ(ViewId::Full(4).dim_count(), 4);
  EXPECT_TRUE(ViewId::Empty().empty());
  EXPECT_EQ(ViewId::Empty().dim_count(), 0);
}

TEST(ViewId, NamesMatchPaperConvention) {
  Schema schema({256, 128, 64, 32});
  EXPECT_EQ(ViewId::FromDims({0, 1, 2, 3}).Name(schema), "ABCD");
  EXPECT_EQ(ViewId::FromDims({0, 2}).Name(schema), "AC");
  EXPECT_EQ(ViewId::Empty().Name(schema), "all");
}

TEST(ViewId, PartitionIndexIsLeadingDimension) {
  const int d = 4;
  EXPECT_EQ(ViewId::FromDims({0, 1, 2, 3}).PartitionIndex(d), 0);  // ABCD
  EXPECT_EQ(ViewId::FromDims({0, 2}).PartitionIndex(d), 0);        // AC
  EXPECT_EQ(ViewId::FromDims({1, 2, 3}).PartitionIndex(d), 1);     // BCD
  EXPECT_EQ(ViewId::FromDims({2, 3}).PartitionIndex(d), 2);        // CD
  EXPECT_EQ(ViewId::FromDims({3}).PartitionIndex(d), 3);           // D
  EXPECT_EQ(ViewId::Empty().PartitionIndex(d), 3);                 // all
}

TEST(Lattice, AllViewsCount) {
  EXPECT_EQ(AllViews(4).size(), 16u);
  EXPECT_EQ(AllViews(8).size(), 256u);
}

TEST(Lattice, PartitionsMatchFigure3) {
  // Figure 3 (d = 4): A-partition = {ABCD, ABC, ABD, ACD, AB, AC, AD, A},
  // B = {BCD, BC, BD, B}, C = {CD, C}, D = {D, all}.
  const auto parts = PartitionViews(AllViews(4), 4);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].size(), 8u);
  EXPECT_EQ(parts[1].size(), 4u);
  EXPECT_EQ(parts[2].size(), 2u);
  EXPECT_EQ(parts[3].size(), 2u);

  // Every view appears in exactly one partition.
  std::set<std::uint32_t> seen;
  for (const auto& part : parts) {
    for (ViewId v : part) EXPECT_TRUE(seen.insert(v.mask()).second);
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(Lattice, PartitionRoots) {
  const auto parts = PartitionViews(AllViews(4), 4);
  EXPECT_EQ(PartitionRoot(parts[0]), ViewId::FromDims({0, 1, 2, 3}));  // ABCD
  EXPECT_EQ(PartitionRoot(parts[1]), ViewId::FromDims({1, 2, 3}));     // BCD
  EXPECT_EQ(PartitionRoot(parts[2]), ViewId::FromDims({2, 3}));        // CD
  EXPECT_EQ(PartitionRoot(parts[3]), ViewId::FromDims({3}));           // D
}

TEST(Lattice, PartialCubePartitionRootIsUnionOfSelected) {
  // Selected views {AC, C} → C-partition contains only C; A-partition {AC}.
  const std::vector<ViewId> selected{ViewId::FromDims({0, 2}),
                                     ViewId::FromDims({2})};
  const auto parts = PartitionViews(selected, 4);
  EXPECT_EQ(PartitionRoot(parts[0]), ViewId::FromDims({0, 2}));
  EXPECT_TRUE(parts[1].empty());
  EXPECT_EQ(PartitionRoot(parts[2]), ViewId::FromDims({2}));
}

TEST(Lattice, ChildrenAndParents) {
  ViewId v = ViewId::FromDims({0, 2});
  const auto children = LatticeChildren(v);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0], ViewId::FromDims({2}));
  EXPECT_EQ(children[1], ViewId::FromDims({0}));

  const auto parents = LatticeParents(v, 4);
  ASSERT_EQ(parents.size(), 2u);
  EXPECT_EQ(parents[0], ViewId::FromDims({0, 1, 2}));
  EXPECT_EQ(parents[1], ViewId::FromDims({0, 2, 3}));
}

TEST(Lattice, LevelSizesAreBinomials) {
  EXPECT_EQ(LatticeLevel(4, 0).size(), 1u);
  EXPECT_EQ(LatticeLevel(4, 2).size(), 6u);
  EXPECT_EQ(LatticeLevel(4, 4).size(), 1u);
  EXPECT_EQ(LatticeLevel(8, 4).size(), 70u);
}

TEST(FmSketch, EstimatesWithinTolerance) {
  FmSketch sketch(128);
  const int distinct = 20000;
  for (int i = 0; i < distinct; ++i) {
    // Each key added several times; estimate counts distinct only.
    sketch.Add(HashValue(static_cast<std::uint64_t>(i)));
    sketch.Add(HashValue(static_cast<std::uint64_t>(i)));
  }
  const double est = sketch.Estimate();
  EXPECT_GT(est, distinct * 0.7);
  EXPECT_LT(est, distinct * 1.3);
}

TEST(FmSketch, MergeEqualsUnion) {
  FmSketch a(64);
  FmSketch b(64);
  FmSketch u(64);
  for (int i = 0; i < 5000; ++i) {
    const auto h = HashValue(static_cast<std::uint64_t>(i));
    if (i % 2 == 0) a.Add(h);
    if (i % 2 == 1) b.Add(h);
    u.Add(h);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Estimate(), u.Estimate());
}

TEST(FmSketch, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FmSketch(63), SncubeError);
}

TEST(AnalyticEstimator, SmallUniverseSaturates) {
  Schema schema({4, 2});
  AnalyticEstimator est(schema, 1e6);
  // 1M uniform rows over an 8-cell space: essentially all cells occupied.
  EXPECT_NEAR(est.EstimateRows(ViewId::Full(2)), 8.0, 1e-3);
  EXPECT_NEAR(est.EstimateRows(ViewId::FromDims({1})), 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(est.EstimateRows(ViewId::Empty()), 1.0);
}

TEST(AnalyticEstimator, SparseUniverseNearRowCount) {
  Schema schema({100000, 100000});
  AnalyticEstimator est(schema, 1000);
  // 1000 rows over 10^10 cells: virtually no collisions.
  EXPECT_NEAR(est.EstimateRows(ViewId::Full(2)), 1000.0, 1.0);
}

TEST(AnalyticEstimator, MatchesEmpiricalUniform) {
  DatasetSpec spec;
  spec.rows = 50000;
  spec.cardinalities = {64, 32, 8};
  Relation data = GenerateDataset(spec);
  Schema schema = spec.MakeSchema();
  AnalyticEstimator est(schema, static_cast<double>(spec.rows));

  for (ViewId v : AllViews(3)) {
    if (v.empty()) continue;
    const auto dims = v.DimList();
    const Relation agg = SortAndAggregate(data, dims);
    const double predicted = est.EstimateRows(v);
    EXPECT_NEAR(predicted, static_cast<double>(agg.size()),
                0.05 * static_cast<double>(agg.size()) + 2.0)
        << "view mask=" << v.mask();
  }
}

TEST(FmViewEstimator, TracksActualDistinctCounts) {
  DatasetSpec spec;
  spec.rows = 30000;
  spec.cardinalities = {128, 16, 4};
  spec.alphas = {1.5, 0.0, 0.0};  // skewed leading dimension
  Relation data = GenerateDataset(spec);

  const std::vector<int> rel_dims{0, 1, 2};
  const auto views = AllViews(3);
  FmViewEstimator est(data, rel_dims, views, 128);

  for (ViewId v : views) {
    if (v.empty()) continue;
    const auto dims = v.DimList();
    const Relation agg = SortAndAggregate(data, dims);
    const double predicted = est.EstimateRows(v);
    const auto actual = static_cast<double>(agg.size());
    EXPECT_GT(predicted, actual * 0.55) << "view mask=" << v.mask();
    EXPECT_LT(predicted, actual * 1.8) << "view mask=" << v.mask();
  }
}

TEST(FmViewEstimator, WorksOnProjectedRelations) {
  // A Di-root relation whose columns are global dims {1, 3}.
  Relation rel(2);
  for (Key a = 0; a < 10; ++a) {
    for (Key b = 0; b < 5; ++b) {
      rel.Append(std::vector<Key>{a, b}, 1);
    }
  }
  const std::vector<int> rel_dims{1, 3};
  const std::vector<ViewId> views{ViewId::FromDims({1, 3}),
                                  ViewId::FromDims({3})};
  FmViewEstimator est(rel, rel_dims, views, 64);
  EXPECT_GT(est.EstimateRows(views[0]), 25.0);
  EXPECT_LT(est.EstimateRows(views[1]), 25.0);
}

TEST(ViewId, MaxDimsBoundary) {
  const ViewId v = ViewId::Full(ViewId::kMaxDims);
  EXPECT_EQ(v.dim_count(), ViewId::kMaxDims);
  EXPECT_TRUE(v.Contains(ViewId::kMaxDims - 1));
  EXPECT_THROW(ViewId::FromDims({ViewId::kMaxDims}), SncubeError);
  EXPECT_THROW(ViewId::Full(ViewId::kMaxDims + 1), SncubeError);
}

TEST(ViewId, NameFallsBackToSchemaNamesBeyond26Dims) {
  // d <= 26 uses letters; verify the letter convention at the boundary of
  // what the paper's figures use.
  Schema schema({64, 32, 16, 8, 4, 2});
  EXPECT_EQ(ViewId::FromDims({0, 5}).Name(schema), "AF");
}

TEST(Lattice, PartitionOfEmptySelectionIsEmpty) {
  const auto parts = PartitionViews({}, 4);
  for (const auto& part : parts) EXPECT_TRUE(part.empty());
  EXPECT_EQ(PartitionRoot({}), ViewId::Empty());
}

}  // namespace
}  // namespace sncube
