#include "relation/aggregate.h"

#include <string>

#include "common/status.h"

namespace sncube {

void ThrowSumOverflow(Measure a, Measure b) {
  throw SncubeInputError("SUM overflows int64: " + std::to_string(a) + " + " +
                         std::to_string(b));
}

namespace {

bool SamePrefix(const Relation& rel, std::size_t a, std::size_t b,
                std::span<const int> cols) {
  for (int c : cols) {
    if (rel.key(a, c) != rel.key(b, c)) return false;
  }
  return true;
}

}  // namespace

Relation AggregateSortedPrefix(const Relation& sorted,
                               std::span<const int> cols) {
  Relation out(static_cast<int>(cols.size()));
  if (sorted.empty()) return out;
  SNCUBE_DCHECK(IsSorted(sorted, cols));

  std::vector<Key> group(cols.size());
  auto load_group = [&](std::size_t row) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      group[i] = sorted.key(row, cols[i]);
    }
  };

  load_group(0);
  Measure acc = sorted.measure(0);
  for (std::size_t row = 1; row < sorted.size(); ++row) {
    if (SamePrefix(sorted, row - 1, row, cols)) {
      acc = CombineMeasure(acc, sorted.measure(row));
    } else {
      out.Append(group, acc);
      load_group(row);
      acc = sorted.measure(row);
    }
  }
  out.Append(group, acc);
  return out;
}

Relation SortAndAggregate(const Relation& rel, std::span<const int> cols) {
  return AggregateSortedPrefix(SortRelation(rel, cols), cols);
}

Relation MergeSortedAggregate(const Relation& a, const Relation& b,
                              std::span<const int> cols) {
  SNCUBE_CHECK(a.width() == b.width());
  Relation out(a.width());
  out.Reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = CompareRows(a, i, cols, b, j, cols);
    if (cmp < 0) {
      out.AppendRow(a, i++);
    } else if (cmp > 0) {
      out.AppendRow(b, j++);
    } else {
      out.Append(a.RowKeys(i), CombineMeasure(a.measure(i), b.measure(j)));
      ++i;
      ++j;
    }
  }
  while (i < a.size()) out.AppendRow(a, i++);
  while (j < b.size()) out.AppendRow(b, j++);
  return out;
}

Relation CollapseSorted(const Relation& sorted) {
  Relation out(sorted.width());
  if (sorted.empty()) return out;
  out.Reserve(sorted.size());
  std::size_t run = 0;
  Measure acc = sorted.measure(0);
  for (std::size_t row = 1; row < sorted.size(); ++row) {
    if (CompareRows(sorted, run, sorted, row) == 0) {
      acc = CombineMeasure(acc, sorted.measure(row));
    } else {
      out.Append(sorted.RowKeys(run), acc);
      run = row;
      acc = sorted.measure(row);
    }
  }
  out.Append(sorted.RowKeys(run), acc);
  return out;
}

std::size_t CountGroups(const Relation& sorted, std::span<const int> cols) {
  if (sorted.empty()) return 0;
  std::size_t groups = 1;
  for (std::size_t row = 1; row < sorted.size(); ++row) {
    if (!SamePrefix(sorted, row - 1, row, cols)) ++groups;
  }
  return groups;
}

}  // namespace sncube
