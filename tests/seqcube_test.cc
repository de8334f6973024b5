#include <gtest/gtest.h>

#include <algorithm>

#include "data/generator.h"
#include "lattice/lattice.h"
#include "relation/sort.h"
#include "schedule/pipesort.h"
#include "seqcube/cube_result.h"
#include "seqcube/pipeline.h"
#include "seqcube/seq_cube.h"

namespace sncube {
namespace {

// Compares a computed view against the brute-force group-by, ignoring row
// order.
void ExpectViewCorrect(const Relation& raw, const ViewResult& vr) {
  const Relation expected = BruteForceView(raw, vr.id);
  const Relation actual = CanonicalizeRows(vr.rel);
  ASSERT_EQ(actual.size(), expected.size()) << "view mask=" << vr.id.mask();
  EXPECT_EQ(actual, expected) << "view mask=" << vr.id.mask();
}

DatasetSpec SmallSpec(std::int64_t rows, std::uint64_t seed = 5) {
  DatasetSpec spec;
  spec.rows = rows;
  spec.cardinalities = {16, 8, 4, 3};
  spec.seed = seed;
  return spec;
}

TEST(ComputeRootData, FullRootEqualsBruteForce) {
  const auto spec = SmallSpec(5000);
  const Relation raw = GenerateDataset(spec);
  const ViewId root = ViewId::Full(4);
  Relation data = ComputeRootData(raw, root, root.DimList());
  EXPECT_EQ(CanonicalizeRows(data), BruteForceView(raw, root));
  EXPECT_TRUE(IsSorted(data, IdentityOrder(4)));
}

TEST(ComputeRootData, SubsetRootInPermutedOrder) {
  const auto spec = SmallSpec(3000);
  const Relation raw = GenerateDataset(spec);
  const ViewId root = ViewId::FromDims({1, 3});
  const std::vector<int> order{3, 1};  // sort by D3 then D1
  Relation data = ComputeRootData(raw, root, order);
  EXPECT_EQ(data.width(), 2);
  // Canonical layout: column 0 = dim 1, column 1 = dim 3; sorted by (3,1) =
  // columns (1,0).
  EXPECT_TRUE(IsSorted(data, std::vector<int>{1, 0}));
  EXPECT_EQ(CanonicalizeRows(data), BruteForceView(raw, root));
}

TEST(ComputeRootData, EmptyRootTotalsEverything) {
  const auto spec = SmallSpec(1000);
  const Relation raw = GenerateDataset(spec);
  Relation data =
      ComputeRootData(raw, ViewId::Empty(), {});
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data.measure(0), 1000);  // measures are all 1
}

TEST(Pipeline, ExecutesAPartitionCorrectly) {
  const auto spec = SmallSpec(4000);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const auto parts = PartitionViews(AllViews(4), 4);
  const ViewId root = PartitionRoot(parts[0]);
  AnalyticEstimator est(schema, 4000);
  const ScheduleTree tree =
      BuildPipesortTree(parts[0], root, root.DimList(), est);

  Relation root_data =
      ComputeRootData(raw, root, root.DimList());
  ExecStats stats;
  const CubeResult cube =
      ExecuteScheduleTree(tree, std::move(root_data), nullptr, &stats);
  ASSERT_EQ(cube.views.size(), 8u);
  for (const auto& [id, vr] : cube.views) {
    ExpectViewCorrect(raw, vr);
    // Rows must be sorted in the view's declared order.
    EXPECT_TRUE(IsSorted(vr.rel, ColumnsOf(vr.id, vr.order)));
  }
  EXPECT_GT(stats.scans, 0u);
  EXPECT_GT(stats.rows_emitted, 0u);
}

TEST(Pipeline, RejectsUnsortedRootData) {
  const Schema schema({8, 4});
  AnalyticEstimator est(schema, 100);
  const ViewId root = ViewId::Full(2);
  const ScheduleTree tree =
      BuildPipesortTree(AllViews(2), root, root.DimList(), est);
  Relation unsorted(2);
  unsorted.Append(std::vector<Key>{5, 0}, 1);
  unsorted.Append(std::vector<Key>{1, 0}, 1);
  EXPECT_THROW(
      ExecuteScheduleTree(tree, std::move(unsorted)),
      SncubeError);
}

TEST(Pipeline, EmptyRootDataYieldsEmptyViews) {
  const Schema schema({8, 4});
  AnalyticEstimator est(schema, 0);
  const ViewId root = ViewId::Full(2);
  const ScheduleTree tree =
      BuildPipesortTree(AllViews(2), root, root.DimList(), est);
  const CubeResult cube =
      ExecuteScheduleTree(tree, Relation(2));
  for (const auto& [id, vr] : cube.views) EXPECT_TRUE(vr.rel.empty());
}

TEST(SequentialPipesort, FullCubeMatchesBruteForce) {
  const auto spec = SmallSpec(6000, 11);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  ExecStats stats;
  const CubeResult cube =
      SequentialPipesortCube(raw, schema, nullptr, &stats);
  ASSERT_EQ(cube.views.size(), 16u);
  for (const auto& [id, vr] : cube.views) {
    ExpectViewCorrect(raw, vr);
  }
  // The pipelined execution must sort far fewer times than one sort per
  // view.
  EXPECT_LT(stats.sorts, 16u);
}

TEST(SequentialPipesort, WithDiskAccounting) {
  const auto spec = SmallSpec(2000);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  DiskModel disk({.block_bytes = 4096, .memory_bytes = 1 << 20});
  const CubeResult cube =
      SequentialPipesortCube(raw, schema, &disk);
  EXPECT_EQ(cube.views.size(), 16u);
  EXPECT_GT(disk.blocks_read(), 0u);
  EXPECT_GT(disk.blocks_written(), 0u);
}

TEST(SequentialCube, PartitionedFullCubeMatchesPipesort) {
  const auto spec = SmallSpec(3000, 21);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const CubeResult a = SequentialPipesortCube(raw, schema);
  const CubeResult b = SequentialCube(raw, schema, AllViews(4));
  ASSERT_EQ(a.views.size(), b.views.size());
  for (const auto& [id, vr] : a.views) {
    const auto it = b.views.find(id);
    ASSERT_NE(it, b.views.end());
    EXPECT_EQ(CanonicalizeRows(vr.rel), CanonicalizeRows(it->second.rel));
  }
}

TEST(SequentialCube, PartialSelection) {
  const auto spec = SmallSpec(3000, 31);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const std::vector<ViewId> selected{
      ViewId::FromDims({0, 1}), ViewId::FromDims({1, 2}),
      ViewId::FromDims({3}), ViewId::Empty()};
  for (auto strategy : {PartialStrategy::kPrunedPipesort,
                        PartialStrategy::kGreedyLattice}) {
    const CubeResult cube =
        SequentialCube(raw, schema, selected, nullptr, nullptr, strategy);
    for (ViewId v : selected) {
      const auto it = cube.views.find(v);
      ASSERT_NE(it, cube.views.end()) << "missing selected view";
      EXPECT_TRUE(it->second.selected);
      ExpectViewCorrect(raw, it->second);
    }
    // Auxiliaries, when present, are flagged and also correct.
    for (const auto& [id, vr] : cube.views) {
      if (std::find(selected.begin(), selected.end(), id) == selected.end()) {
        EXPECT_FALSE(vr.selected);
        ExpectViewCorrect(raw, vr);
      }
    }
  }
}

TEST(SequentialCube, SignedMeasureSums) {
  DatasetSpec spec = SmallSpec(2000, 41);
  Relation raw = GenerateDataset(spec);
  // Give rows distinguishable signed measures.
  for (std::size_t r = 0; r < raw.size(); ++r) {
    raw.measure(r) = static_cast<Measure>(r % 97) - 48;
  }
  const Schema schema = spec.MakeSchema();
  const CubeResult cube = SequentialCube(raw, schema, AllViews(4));
  for (const auto& [id, vr] : cube.views) {
    ExpectViewCorrect(raw, vr);
  }
}

TEST(SequentialCube, HeadlineRowCountsScale) {
  // Sanity: the cube is much bigger than the input (the paper's 2M rows →
  // ≈227M cube rows at d = 8; here a scaled-down shape check).
  DatasetSpec spec = DatasetSpec::PaperDefault(20000);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const CubeResult cube = SequentialCube(raw, schema, AllViews(8));
  EXPECT_EQ(cube.views.size(), 256u);
  EXPECT_GT(cube.TotalRows(), raw.size() * 10);
}

}  // namespace
}  // namespace sncube
