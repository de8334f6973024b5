// Merge–Partitions (Procedure 3): agglomerate, for every view of one
// Di-partition, the p per-processor fragments into one globally sorted,
// evenly distributed view.
//
// Per view the procedure classifies (Figure 4):
//
//  * Case 1 — prefix views (sort order = prefix of the partition's global
//    sort order). Fragments already form a global sort; only duplicate
//    groups straddling rank boundaries need fixing. We generalize the
//    paper's "send the first item to the left neighbour" to groups spanning
//    any number of ranks: an all-gather of first/last keys identifies each
//    boundary group's owning (leftmost) rank and one h-relation routes the
//    single boundary row of every other rank to it.
//  * Case 2 — non-prefix views whose projected distribution is still
//    balanced (estimated imbalance ≤ γ from the sampled views): each rank
//    keeps the key range ending at its own last element; overlaps are routed
//    to their owners with one h-relation and merged locally.
//  * Case 3 — non-prefix views too imbalanced for overlap routing: a full
//    re-sort via Adaptive–Sample–Sort (γ = 3%), followed by local
//    agglomeration and a Case-1 boundary fixup.
//
// The Case 2/3 decision uses |v'j| sizes ESTIMATED from the Section 2.4
// sample of each view (1/p % accuracy), never a rescan of the views.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/comm.h"
#include "relation/relation.h"
#include "relation/types.h"
#include "seqcube/cube_result.h"

namespace sncube {

// The sampling array of Section 2.4.
//
// While a processor writes a view vj to its local disk, the view's final
// size is unknown, so a fixed sample size cannot be pre-planned. The paper's
// trick: keep an array of `capacity` rows; fill it with the first rows at
// stride 1, and whenever it fills, drop every other sample and double the
// stride. The surviving samples are always equally spaced over everything
// written so far, so "rows ≤ key" is estimable to within one stride — with
// capacity = 100·p that is the 1/p% accuracy Merge–Partitions needs to pick
// Case 2 vs Case 3 without rescanning the view on disk.
//
// After n rows the stride s is the smallest power of two with
// ceil(n/s) ≤ capacity, and the samples are rows 0, s, 2s, … . The paper
// keeps this array while writing the view; because the view is in memory
// here, the same sample is read in place, and the sim clock still charges
// nothing for it.
inline constexpr int kSampleCapacityFactor = 100;  // capacity = 100·p

// Stride of the sample of `rows` rows in an array of `capacity` (>= 1).
std::size_t SampleStride(std::size_t rows, std::size_t capacity);

// The sample's estimate of how many rows of `sorted` (ascending by `cols`)
// have a tuple <= `key`: min(n, s · #{k : row k·s <= key}). Within one
// stride of the exact count.
std::size_t SampledRowsLessEq(const Relation& sorted,
                              std::span<const int> cols,
                              std::span<const Key> key, std::size_t capacity);

struct MergeOptions {
  // Balance threshold γ distinguishing Case 2 from Case 3 (paper: 3%).
  double gamma = 0.03;
  // Ablation switch: treat every non-prefix view as Case 3.
  bool force_case3 = false;
};

struct MergeStats {
  int case1_views = 0;
  int case2_views = 0;
  int case3_views = 0;
  // Views whose fragments arrived in differing sort orders (local schedule
  // trees) and had to be re-sorted before merging.
  int resorted_views = 0;

  MergeStats& operator+=(const MergeStats& o) {
    case1_views += o.case1_views;
    case2_views += o.case2_views;
    case3_views += o.case3_views;
    resorted_views += o.resorted_views;
    return *this;
  }
};

// Merges every SELECTED view of `cube` in place (this rank's fragment →
// this rank's shard of the merged view); auxiliary views are erased.
// `root_order` is the partition's global sort order from Step 1b. All ranks
// must call with the same view set. Collective.
void MergePartitions(Comm& comm, CubeResult& cube,
                     const std::vector<int>& root_order,
                     const MergeOptions& opts, MergeStats* stats = nullptr);

}  // namespace sncube
