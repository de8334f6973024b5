// In-memory sorting of relations, and searches over sorted ones.
//
// SortedPermutation computes the row order without moving data;
// ApplyPermutation gathers rows into a fresh relation. SortRelation is the
// composition. Sort orders are given as column-position lists so a view can
// be sorted in any attribute permutation (Pipesort pipelines depend on
// re-sorting a view in the order its parent dictates).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <ranges>
#include <span>
#include <vector>

#include "relation/relation.h"

namespace sncube {

// One row's values at a set of column positions, as pivots and range
// boundaries travel. Its own < and == order equal-length tuples as RowLess.
using KeyTuple = std::vector<Key>;

// An owned copy of row `row` of `rel` read at `cols`.
inline KeyTuple TupleAt(const Relation& rel, std::size_t row,
                        std::span<const int> cols) {
  KeyTuple t;
  t.reserve(cols.size());
  for (int c : cols) t.push_back(rel.key(row, c));
  return t;
}

// Orders row indices of one relation lexicographically by `cols`, with no
// tie-break: stability comes from stable_sort and left-first merges.
struct RowLess {
  RowLess(const Relation& rel, std::span<const int> sort_cols)
      : keys(rel.raw_keys()),
        width(static_cast<std::size_t>(rel.width())),
        cols(sort_cols) {}

  bool operator()(std::uint32_t a, std::uint32_t b) const {
    const Key* ra = keys + static_cast<std::size_t>(a) * width;
    const Key* rb = keys + static_cast<std::size_t>(b) * width;
    for (int c : cols) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return false;
  }

  const Key* keys;
  std::size_t width;
  std::span<const int> cols;
};

// Row indices of `rel` in ascending lexicographic order of columns `cols`.
// The sort is stable so equal keys keep their input order (determinism).
inline std::vector<std::uint32_t> SortedPermutation(
    const Relation& rel, std::span<const int> cols) {
  std::vector<std::uint32_t> perm(rel.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), RowLess(rel, cols));
  return perm;
}

// Row `row` of `rel` read at `cols` against `key` (same length): <0, 0, >0.
inline int CompareRowKey(const Relation& rel, std::size_t row,
                         std::span<const int> cols, std::span<const Key> key) {
  SNCUBE_DCHECK(cols.size() == key.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const Key k = rel.key(row, cols[i]);
    if (k != key[i]) return k < key[i] ? -1 : 1;
  }
  return 0;
}

// First row in [lo, hi) of `rel`, sorted ascending by `cols`, whose tuple is
// >= `key` (LowerBoundRow) or > `key` (UpperBoundRow); hi when none is.
inline std::size_t LowerBoundRow(const Relation& rel, std::size_t lo,
                                 std::size_t hi, std::span<const int> cols,
                                 std::span<const Key> key) {
  return *std::ranges::partition_point(
      std::views::iota(lo, hi),
      [&](std::size_t row) { return CompareRowKey(rel, row, cols, key) < 0; });
}

inline std::size_t UpperBoundRow(const Relation& rel, std::size_t lo,
                                 std::size_t hi, std::span<const int> cols,
                                 std::span<const Key> key) {
  return *std::ranges::partition_point(
      std::views::iota(lo, hi),
      [&](std::size_t row) { return CompareRowKey(rel, row, cols, key) <= 0; });
}

// Gathers rows of `rel` in permutation order into a new relation.
inline Relation ApplyPermutation(const Relation& rel,
                                 std::span<const std::uint32_t> perm) {
  Relation out(rel.width());
  out.Reserve(perm.size());
  for (std::uint32_t row : perm) out.AppendRow(rel, row);
  return out;
}

// Sorts `rel` by the given column order (all remaining columns are NOT tie
// broken; pass every column when total order matters).
inline Relation SortRelation(const Relation& rel, std::span<const int> cols) {
  return ApplyPermutation(rel, SortedPermutation(rel, cols));
}

// Convenience: identity column order 0..width-1.
inline std::vector<int> IdentityOrder(int width) {
  std::vector<int> cols(static_cast<std::size_t>(width));
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

// Reorders columns: output column j = input column perm[j]. Rows keep their
// order and measures. Used to bring a relation produced in some sort order
// back to the canonical column layout.
inline Relation PermuteColumns(const Relation& rel,
                               std::span<const int> perm) {
  Relation out(static_cast<int>(perm.size()));
  out.Reserve(rel.size());
  std::vector<Key> keys(perm.size());
  for (std::size_t row = 0; row < rel.size(); ++row) {
    for (std::size_t j = 0; j < perm.size(); ++j) {
      keys[j] = rel.key(row, perm[j]);
    }
    out.Append(keys, rel.measure(row));
  }
  return out;
}

// True when rows are in ascending lexicographic `cols` order.
inline bool IsSorted(const Relation& rel, std::span<const int> cols) {
  for (std::size_t i = 1; i < rel.size(); ++i) {
    if (CompareRows(rel, i - 1, cols, rel, i, cols) > 0) return false;
  }
  return true;
}

}  // namespace sncube
