// The single-dimension data-partitioning baseline the paper argues against
// (Section 2.2, citing [17, 9]).
//
// Raw rows are range-partitioned on the leading dimension D0 only. Views
// containing D0 then need no merge — each rank's fragment covers a disjoint
// D0 range — which is the scheme's selling point. Everything else is its
// weakness, and this implementation reproduces it faithfully:
//
//  * views NOT containing D0 are still partial per rank and must be merged
//    globally (done here with a sample-sort + agglomerate pass);
//  * parallelism is capped at |D0|: with p > |D0| whole ranks idle;
//  * skew on D0 lands entire hot values on single ranks — no rebalancing.
//
// bench/ablation_onedim compares this against Procedure 1 as p approaches
// and passes |D0| and under α0 skew.
#pragma once

#include "core/parallel_cube.h"

namespace sncube {

struct OneDimStats {
  // Imbalance of the per-rank raw slice sizes after partitioning on D0.
  double partition_imbalance = 0;
  // Views that still required a global merge (no D0).
  int merged_views = 0;
};

// Computes the full cube with D0-only partitioning. Same output contract as
// BuildParallelCube (per-rank shards of every view).
CubeResult OneDimPartitionCube(Comm& comm, const Relation& local_raw,
                               const Schema& schema,
                               OneDimStats* stats = nullptr);

}  // namespace sncube
