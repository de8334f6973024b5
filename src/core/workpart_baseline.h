// The work-partitioning baseline — the OTHER family of parallel cube
// methods from the paper's introduction ([3, 5, 15, 16, 18]).
//
// Work partitioning assigns different VIEW COMPUTATIONS to different
// processors: the schedule tree's pipelines are distributed by estimated
// cost (LPT — longest processing time first), and each processor computes
// its pipelines independently, re-sorting the raw data once per pipeline
// head. No merge phase exists because every view is produced whole on one
// processor. The catches, faithfully reproduced:
//
//  * every processor needs the ENTIRE raw data set — the method presumes a
//    shared disk (the expensive hardware the paper's shared-nothing design
//    avoids). Here each rank is handed the full relation, and every
//    pipeline's raw sort charges full-size I/O on the rank that runs it;
//  * load balance is only as good as the size ESTIMATES driving the
//    assignment — skew that concentrates actual work in a few pipelines
//    shows up directly as idle processors;
//  * finished views live wholly on single ranks, so subsequent parallel
//    query processing starts unbalanced (the paper's output contract —
//    every view evenly distributed — is deliberately violated by design).
//
// bench/ablation_workpartition compares this against Procedure 1.
#pragma once

#include "core/parallel_cube.h"

namespace sncube {

struct WorkPartitionStats {
  int pipelines = 0;            // assignment units in the schedule tree
  double estimated_imbalance = 0;  // I() of per-rank assigned cost estimates
};

// Computes the full cube with pipeline-level work partitioning. `shared_raw`
// is the whole raw data set (the shared disk); every rank receives the same
// relation. Returns this rank's views (views assigned elsewhere are present
// with empty relations so all ranks agree on the view set).
CubeResult WorkPartitionCube(Comm& comm, const Relation& shared_raw,
                             const Schema& schema,
                             WorkPartitionStats* stats = nullptr);

}  // namespace sncube
