// Materialized cube: the set of ROLAP view tables the algorithms produce.
//
// Every view relation stores its columns in CANONICAL order (ascending
// global dimension index = decreasing cardinality), regardless of the sort
// order its rows are in; `order` records that sort order. Keeping one column
// convention makes views comparable across processors, schedule trees, and
// algorithms — only row order differs, and that is explicit.
//
// Lifecycle contract: a CubeResult is MUTABLE while an algorithm builds it
// and IMMUTABLE once handed to readers (CubeQueryEngine, CubeServer). The
// serving layer's lock-free concurrent reads rely on no one touching
// `views` after construction — see DESIGN.md ("Immutability of CubeResult").
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "lattice/view_id.h"
#include "relation/relation.h"
#include "relation/types.h"

namespace sncube {

struct ViewResult {
  ViewId id;
  std::vector<int> order;  // global dims; rows are sorted by this order
  Relation rel;            // canonical column layout
  bool selected = true;
};

struct CubeResult {
  // Ordered map on purpose: every `for (auto& [id, vr] : views)` walk —
  // checkpointing, merge planning, serialization — visits views in
  // ascending mask order on every rank and every run, so iteration order
  // can never leak into cube bytes or simulated costs (the sncheck
  // `unordered-iter` rule holds this line). View counts are ≤ 2^d, d ≤ 16;
  // per-view (not per-row) lookups make the O(log n) irrelevant.
  std::map<ViewId, ViewResult> views;

  std::uint64_t TotalRows(bool selected_only = true) const;
  std::uint64_t TotalBytes(bool selected_only = true) const;
};

// Column positions (within a view's canonical layout) corresponding to a
// dimension sequence. E.g. view {A,C,D} stored as [A,C,D]; dims (C,A) →
// columns (1,0).
std::vector<int> ColumnsOf(ViewId view, const std::vector<int>& dims);

// Reference implementation: GROUP BY the view's dimensions over `raw` with a
// full sort — the ground truth the optimized paths are tested against.
// Result is in canonical order, rows sorted canonically.
Relation BruteForceView(const Relation& raw, ViewId view);

// Normalizes a view relation for comparison: rows re-sorted canonically.
Relation CanonicalizeRows(const Relation& rel);

}  // namespace sncube
