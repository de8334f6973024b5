#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "relation/aggregate.h"
#include "relation/csv.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "relation/serialize.h"
#include "relation/sort.h"

namespace sncube {
namespace {

Relation MakeRel(std::initializer_list<std::pair<std::vector<Key>, Measure>> rows) {
  const int w = rows.size() == 0 ? 0 : static_cast<int>(rows.begin()->first.size());
  Relation rel(w);
  for (const auto& [keys, m] : rows) rel.Append(keys, m);
  return rel;
}

TEST(Schema, SortsByDecreasingCardinality) {
  Schema s({10, 300, 50}, {"x", "y", "z"});
  EXPECT_EQ(s.dims(), 3);
  EXPECT_EQ(s.cardinality(0), 300u);
  EXPECT_EQ(s.cardinality(1), 50u);
  EXPECT_EQ(s.cardinality(2), 10u);
  EXPECT_EQ(s.name(0), "y");
  EXPECT_EQ(s.name(1), "z");
  EXPECT_EQ(s.name(2), "x");
}

TEST(Schema, StableForTies) {
  Schema s({6, 6, 8}, {"a", "b", "c"});
  EXPECT_EQ(s.name(0), "c");
  EXPECT_EQ(s.name(1), "a");
  EXPECT_EQ(s.name(2), "b");
}

TEST(Schema, DefaultNames) {
  Schema s({4, 2});
  EXPECT_EQ(s.name(0), "D0");
  EXPECT_EQ(s.name(1), "D1");
}

TEST(Schema, RejectsZeroCardinality) {
  EXPECT_THROW(Schema({4, 0}), SncubeError);
}

TEST(Relation, AppendAndAccess) {
  Relation rel(3);
  rel.Append(std::vector<Key>{1, 2, 3}, 10);
  rel.Append(std::vector<Key>{4, 5, 6}, 20);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.key(0, 0), 1u);
  EXPECT_EQ(rel.key(1, 2), 6u);
  EXPECT_EQ(rel.measure(1), 20);
  EXPECT_EQ(rel.RowBytes(), 3 * 4 + 8u);
  EXPECT_EQ(rel.ByteSize(), 2 * (3 * 4 + 8u));
}

TEST(Relation, ConcatMovesRows) {
  Relation a = MakeRel({{{1, 1}, 5}});
  Relation b = MakeRel({{{2, 2}, 6}, {{3, 3}, 7}});
  a.Concat(std::move(b));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.key(2, 0), 3u);
  EXPECT_EQ(b.size(), 0u);
}

TEST(Relation, CompareRowsLexicographic) {
  Relation rel = MakeRel({{{1, 9}, 0}, {{2, 0}, 0}, {{1, 9}, 0}});
  EXPECT_LT(CompareRows(rel, 0, rel, 1), 0);
  EXPECT_GT(CompareRows(rel, 1, rel, 0), 0);
  EXPECT_EQ(CompareRows(rel, 0, rel, 2), 0);
}

TEST(Relation, CompareRowsWithColumnOrders) {
  Relation rel = MakeRel({{{1, 9}, 0}, {{9, 1}, 0}});
  const std::vector<int> second{1};
  // Comparing by column 1 only: row0 has 9, row1 has 1.
  EXPECT_GT(CompareRows(rel, 0, second, rel, 1, second), 0);
}

TEST(Sort, SortsByGivenColumns) {
  Relation rel = MakeRel({{{3, 1}, 1}, {{1, 2}, 2}, {{2, 0}, 3}});
  const auto cols = IdentityOrder(2);
  Relation sorted = SortRelation(rel, cols);
  EXPECT_TRUE(IsSorted(sorted, cols));
  EXPECT_EQ(sorted.key(0, 0), 1u);
  EXPECT_EQ(sorted.measure(0), 2);
  EXPECT_EQ(sorted.key(2, 0), 3u);
}

TEST(Sort, RespectsColumnPermutation) {
  Relation rel = MakeRel({{{1, 9}, 1}, {{2, 1}, 2}});
  const std::vector<int> order{1, 0};  // sort by second column first
  Relation sorted = SortRelation(rel, order);
  EXPECT_EQ(sorted.key(0, 1), 1u);
  EXPECT_EQ(sorted.key(1, 1), 9u);
  EXPECT_TRUE(IsSorted(sorted, order));
}

TEST(Sort, StableOnEqualKeys) {
  Relation rel = MakeRel({{{5, 1}, 1}, {{5, 2}, 2}, {{5, 3}, 3}});
  const std::vector<int> first{0};
  Relation sorted = SortRelation(rel, first);
  EXPECT_EQ(sorted.measure(0), 1);
  EXPECT_EQ(sorted.measure(1), 2);
  EXPECT_EQ(sorted.measure(2), 3);
}

TEST(Sort, RandomizedMatchesStdSort) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Relation rel(3);
    std::vector<std::vector<Key>> raw;
    for (int i = 0; i < 200; ++i) {
      std::vector<Key> keys{static_cast<Key>(rng.Below(5)),
                            static_cast<Key>(rng.Below(5)),
                            static_cast<Key>(rng.Below(5))};
      raw.push_back(keys);
      rel.Append(keys, i);
    }
    const auto cols = IdentityOrder(3);
    Relation sorted = SortRelation(rel, cols);
    std::sort(raw.begin(), raw.end());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      for (int c = 0; c < 3; ++c) EXPECT_EQ(sorted.key(i, c), raw[i][c]);
    }
  }
}

TEST(Aggregate, SumsDuplicateGroups) {
  Relation rel = MakeRel({{{1, 1}, 5}, {{1, 1}, 7}, {{1, 2}, 1}, {{2, 1}, 2}});
  const auto cols = IdentityOrder(2);
  Relation agg = SortAndAggregate(rel, cols);
  ASSERT_EQ(agg.size(), 3u);
  EXPECT_EQ(agg.measure(0), 12);  // (1,1)
  EXPECT_EQ(agg.measure(1), 1);   // (1,2)
  EXPECT_EQ(agg.measure(2), 2);   // (2,1)
}

TEST(Aggregate, PrefixProjection) {
  Relation rel = MakeRel({{{1, 1}, 5}, {{1, 2}, 7}, {{2, 9}, 1}});
  const std::vector<int> prefix{0};
  Relation agg = SortAndAggregate(rel, prefix);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg.width(), 1);
  EXPECT_EQ(agg.key(0, 0), 1u);
  EXPECT_EQ(agg.measure(0), 12);
  EXPECT_EQ(agg.measure(1), 1);
}

TEST(Aggregate, SumsSignedMeasures) {
  // Distinguishable signed measures: a sum that cancels to zero, one that
  // ends negative, and a lone negative row.
  Relation rel = MakeRel({{{1}, 5}, {{2}, -4}, {{1}, -7}, {{1}, 2},
                          {{3}, -9}, {{2}, 1}});
  const Relation agg = SortAndAggregate(rel, IdentityOrder(1));
  ASSERT_EQ(agg.size(), 3u);
  EXPECT_EQ(agg.measure(0), 0);   // 5 - 7 + 2
  EXPECT_EQ(agg.measure(1), -3);  // -4 + 1
  EXPECT_EQ(agg.measure(2), -9);
}

// The SUM is exact up to the int64 bounds and a typed error one past them,
// on every combine path: the group scan, the duplicate collapse and the
// sorted merge.
TEST(Aggregate, SumOverflowIsTypedInputError) {
  constexpr Measure kMax = std::numeric_limits<Measure>::max();
  constexpr Measure kMin = std::numeric_limits<Measure>::min();
  const auto cols = IdentityOrder(1);

  const Relation at_max = MakeRel({{{1}, kMax - 1}, {{1}, 1}});
  EXPECT_EQ(SortAndAggregate(at_max, cols).measure(0), kMax);
  EXPECT_EQ(CollapseSorted(at_max).measure(0), kMax);
  const Relation at_min = MakeRel({{{1}, kMin + 1}, {{1}, -1}});
  EXPECT_EQ(SortAndAggregate(at_min, cols).measure(0), kMin);

  const Relation over = MakeRel({{{1}, kMax}, {{1}, 1}});
  EXPECT_THROW(SortAndAggregate(over, cols), SncubeInputError);
  EXPECT_THROW(CollapseSorted(over), SncubeInputError);
  const Relation under = MakeRel({{{1}, kMin}, {{1}, -1}});
  EXPECT_THROW(SortAndAggregate(under, cols), SncubeInputError);
  EXPECT_THROW(MergeSortedAggregate(MakeRel({{{1}, kMax}}),
                                    MakeRel({{{1}, 1}}), cols),
               SncubeInputError);
  try {
    SortAndAggregate(over, cols);
  } catch (const SncubeInputError& e) {
    EXPECT_NE(std::string(e.what()).find("SUM overflows int64"),
              std::string::npos);
  }
}

TEST(Aggregate, EmptyInput) {
  Relation rel(2);
  const auto cols = IdentityOrder(2);
  EXPECT_EQ(AggregateSortedPrefix(rel, cols).size(), 0u);
}

TEST(Aggregate, ColumnPermutationProjectsInThatOrder) {
  Relation rel = MakeRel({{{1, 9}, 4}});
  const std::vector<int> order{1, 0};
  Relation agg = SortAndAggregate(rel, order);
  EXPECT_EQ(agg.key(0, 0), 9u);  // column order follows `order`
  EXPECT_EQ(agg.key(0, 1), 1u);
}

TEST(Aggregate, MergeSortedAggregateCombinesAcross) {
  // All columns ascending: the router's scatter merge. The permuted-order
  // merge that refresh uses is covered in refresh_test.cc.
  const Relation a = MakeRel({{{1, 1}, 5}, {{3, 3}, 1}});
  const Relation b = MakeRel({{{1, 1}, 2}, {{2, 2}, 9}});
  const Relation merged = MergeSortedAggregate(a, b, IdentityOrder(2));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.measure(0), 7);
  EXPECT_EQ(merged.key(1, 0), 2u);
  EXPECT_EQ(merged.key(2, 0), 3u);
}

TEST(Aggregate, MergeWithEmptySide) {
  Relation a = MakeRel({{{1}, 5}});
  Relation b(1);
  Relation merged = MergeSortedAggregate(a, b, IdentityOrder(1));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.measure(0), 5);
}

TEST(Aggregate, CollapseSorted) {
  Relation rel = MakeRel({{{1}, 1}, {{1}, 2}, {{2}, 3}});
  Relation collapsed = CollapseSorted(rel);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed.measure(0), 3);
}

TEST(Aggregate, CountGroups) {
  Relation rel = MakeRel({{{1, 1}, 0}, {{1, 2}, 0}, {{2, 2}, 0}});
  const std::vector<int> first{0};
  EXPECT_EQ(CountGroups(rel, first), 2u);
  EXPECT_EQ(CountGroups(rel, IdentityOrder(2)), 3u);
}

TEST(Serialize, RoundTrip) {
  Relation rel = MakeRel({{{1, 2, 3}, -7}, {{4, 5, 6}, 1234567890123}});
  ByteBuffer bytes = SerializeRelation(rel);
  EXPECT_EQ(bytes.size(), rel.ByteSize());
  Relation back = DeserializeRelation(bytes, 3);
  EXPECT_EQ(back, rel);
}

TEST(Serialize, PartialRange) {
  Relation rel = MakeRel({{{1}, 1}, {{2}, 2}, {{3}, 3}});
  ByteBuffer bytes;
  SerializeRows(rel, 1, 3, bytes);
  Relation back = DeserializeRelation(bytes, 1);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.key(0, 0), 2u);
}

TEST(Serialize, RejectsPartialRows) {
  Relation rel(2);
  ByteBuffer bad(7);
  EXPECT_THROW(DeserializeRows(bad, rel), SncubeError);
}

TEST(Serialize, EmptyRelation) {
  Relation rel(4);
  ByteBuffer bytes = SerializeRelation(rel);
  EXPECT_TRUE(bytes.empty());
  EXPECT_EQ(DeserializeRelation(bytes, 4).size(), 0u);
}

TEST(Csv, RoundTrip) {
  Relation rel = MakeRel({{{1, 2}, 30}, {{4, 5}, -60}});
  std::stringstream ss;
  WriteCsv(ss, rel, {"a", "b"});
  Relation back = ReadCsv(ss);
  EXPECT_EQ(back, rel);
}

TEST(Csv, HeaderOnly) {
  std::stringstream ss("a,b,measure\n");
  Relation rel = ReadCsv(ss);
  EXPECT_EQ(rel.width(), 2);
  EXPECT_EQ(rel.size(), 0u);
}

// ReadCsv must reject `csv` with a SncubeInputError naming `place`.
void ExpectRejected(const std::string& csv, const std::string& place) {
  std::stringstream ss(csv);
  try {
    ReadCsv(ss);
    ADD_FAILURE() << "accepted: " << csv;
  } catch (const SncubeInputError& e) {
    EXPECT_NE(std::string(e.what()).find(place), std::string::npos) << e.what();
  }
}

TEST(Csv, RejectsNegativeKey) {
  ExpectRejected("a,b,measure\n1,2,3\n-1,2,3\n", "line 3, column 1:");
}

TEST(Csv, RejectsOversizedKey) {
  ExpectRejected("a,b,measure\n1,99999999999,3\n", "line 2, column 2:");
  ExpectRejected("a,measure\n4294967296,1\n", "line 2, column 1:");
}

TEST(Csv, RejectsNonNumericKey) {
  for (const char* cell : {"x", "1x", " 1", "+1", "1.5"}) {
    ExpectRejected(std::string("a,b,measure\n1,") + cell + ",3\n",
                   "line 2, column 2:");
  }
}

TEST(Csv, RejectsEmptyCell) {
  ExpectRejected("a,b,measure\n1,,3\n", "line 2, column 2:");
}

TEST(Csv, RejectsRaggedRow) {
  ExpectRejected("", "line 1, column 1:");  // no header
  ExpectRejected("a,b,measure\n1,2,3\n\n1,2\n", "line 4, column 3:");
  ExpectRejected("a,b,measure\n1,2,3,4\n", "line 2, column 4:");
}

TEST(Csv, MeasureIsAWholeInt64) {
  ExpectRejected("a,measure\n1,9223372036854775808\n", "line 2, column 2:");
  ExpectRejected("a,measure\n1,12abc\n", "line 2, column 2:");
  // Both ranges' extremes load, and CRLF line ends are accepted.
  std::stringstream ss("a,measure\r\n4294967295,-9223372036854775808\r\n");
  EXPECT_EQ(ReadCsv(ss), MakeRel({{{std::numeric_limits<Key>::max()},
                                   std::numeric_limits<Measure>::min()}}));
}

}  // namespace
}  // namespace sncube
