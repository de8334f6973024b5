// Projection + SUM aggregation: the GROUP-BY primitive the cube is made of.
//
// AggregateSortedPrefix consumes a relation sorted in some column order and
// emits, for a prefix of that order, one row per distinct prefix with
// summed measures — a single linear scan, which is exactly the "scan" edge
// of a schedule tree. SortAndAggregate adds the re-sort, which is the "sort"
// edge.
#pragma once

#include <span>
#include <vector>

#include "relation/relation.h"
#include "relation/sort.h"
#include "relation/types.h"

namespace sncube {

// `sorted` must be sorted by `cols` (prefix of its sort order suffices).
// Produces a relation of width cols.size(): the projected group keys in the
// order given by `cols`, one row per group, measures summed.
Relation AggregateSortedPrefix(const Relation& sorted,
                               std::span<const int> cols);

// Sorts `rel` by `cols` and aggregates; the generic GROUP-BY cols.
Relation SortAndAggregate(const Relation& rel, std::span<const int> cols);

// Merges two relations of identical width that are BOTH sorted
// lexicographically by column positions `cols` (every column, in some
// order), summing rows with equal keys. Output stays sorted by `cols`. The
// refresh merge passes a view's stored order; the router's scatter merge
// passes IdentityOrder(width).
Relation MergeSortedAggregate(const Relation& a, const Relation& b,
                              std::span<const int> cols);

// In-place duplicate collapse of a fully sorted relation (all columns).
Relation CollapseSorted(const Relation& sorted);

// Counts distinct `cols` prefixes of a sorted relation without materializing.
std::size_t CountGroups(const Relation& sorted, std::span<const int> cols);

}  // namespace sncube
