// Delta ingestion for online cube refresh (DESIGN.md §14).
//
// A DELTA is a relation of newly arrived facts in the schema's canonical
// layout — insert-only, the OLAP-warehouse norm. Because the cube's SUM
// distributes over a disjoint union of fact sets (sum(base ∪ delta) =
// sum(base) + sum(delta)), a refresh never re-scans the base facts: it cubes
// the (small) delta with the very same Section 3 machinery the initial build
// used — partial schedule tree over the base cube's views, Pipesort per edge
// — and then merges the delta cube into the base cube view by view with one
// linear merge pass per view.
//
// The merge is ORDER-PRESERVING: each merged view keeps the base view's sort
// order (delta rows are re-sorted to it first), so a refreshed cube is
// drop-in for every consumer that relies on view order — slice partitioning
// (serve/shard_set.h keeps slices sorted because the source view is),
// scatter merging (MergeSortedAggregate), and golden byte comparisons.
#pragma once

#include <vector>

#include "io/disk.h"
#include "relation/schema.h"
#include "schedule/partial.h"
#include "seqcube/cube_result.h"
#include "seqcube/pipeline.h"

namespace sncube {

// Cubes the delta over every view of `base` (auxiliaries included), reusing
// the Section 3 partial build (BuildPartialTree + pipelined execution).
// SUM makes every materialized view sensitive to any new fact, so no view
// can be skipped for a non-empty delta; an empty delta yields an empty cube,
// which MergeDeltaCube passes through unchanged. Costs land on `disk` /
// `stats` like any build.
CubeResult ComputeDeltaCube(const Relation& delta, const Schema& schema,
                            const CubeResult& base, DiskModel* disk = nullptr,
                            ExecStats* stats = nullptr,
                            PartialStrategy strategy =
                                PartialStrategy::kPrunedPipesort);

// The refreshed cube: every view of `base` merged with its counterpart in
// `delta_cube` (views the delta cube lacks pass through unchanged — an empty
// delta view contributes nothing). Each output view keeps the BASE view's
// sort order and selected flag; delta rows are re-sorted to it before the
// merge. `base` is untouched — the result is a fresh CubeResult, immutable
// once handed to the serving tier like any other (epoch snapshots depend on
// this).
CubeResult MergeDeltaCube(const CubeResult& base,
                          const CubeResult& delta_cube);

}  // namespace sncube
