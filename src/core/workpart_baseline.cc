#include "core/workpart_baseline.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/status.h"
#include "core/sample_sort.h"
#include "io/external_sort.h"
#include "lattice/lattice.h"
#include "relation/aggregate.h"
#include "relation/sort.h"
#include "schedule/pipesort.h"
#include "seqcube/seq_cube.h"

namespace sncube {
namespace {

// One assignment unit: a maximal scan chain of the schedule tree, computed
// by sorting the raw data in the head's order and scanning the chain out.
struct Pipeline {
  std::vector<int> nodes;  // tree indices, head first
  double est_cost = 0;     // sort of raw + scans of the chain
};

std::vector<Pipeline> DecomposePipelines(const ScheduleTree& tree,
                                         double raw_rows) {
  std::vector<Pipeline> pipelines;
  for (int i = 0; i < tree.size(); ++i) {
    const ScheduleNode& n = tree.node(i);
    // A pipeline starts at the root or at every sort-edge child.
    if (i != ScheduleTree::kRootIndex && n.edge != EdgeKind::kSort) continue;
    Pipeline pipe;
    pipe.est_cost = SortCost(raw_rows);
    for (int node = i; node >= 0; node = tree.ScanChild(node)) {
      pipe.nodes.push_back(node);
      pipe.est_cost += ScanCost(tree.node(node).est_rows);
    }
    pipelines.push_back(std::move(pipe));
  }
  return pipelines;
}

// LPT assignment: heaviest pipeline to the currently least-loaded rank.
std::vector<int> AssignLpt(const std::vector<Pipeline>& pipelines, int p,
                           std::vector<double>& load) {
  std::vector<int> order(pipelines.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return pipelines[a].est_cost > pipelines[b].est_cost;
  });
  std::vector<int> owner(pipelines.size(), 0);
  load.assign(static_cast<std::size_t>(p), 0.0);
  for (int idx : order) {
    const auto lightest =
        std::min_element(load.begin(), load.end()) - load.begin();
    owner[static_cast<std::size_t>(idx)] = static_cast<int>(lightest);
    load[static_cast<std::size_t>(lightest)] += pipelines[idx].est_cost;
  }
  return owner;
}

}  // namespace

CubeResult WorkPartitionCube(Comm& comm, const Relation& shared_raw,
                             const Schema& schema,
                             WorkPartitionStats* stats) {
  SNCUBE_CHECK(shared_raw.width() == schema.dims());
  const int d = schema.dims();
  const int p = comm.size();

  // Identical schedule tree and assignment on every rank (deterministic from
  // the shared estimates — no communication needed, as in a shared-disk
  // system where every node sees the same catalog).
  comm.SetPhase("schedule");
  const ViewId root = ViewId::Full(d);
  const AnalyticEstimator est(schema, static_cast<double>(shared_raw.size()));
  const ScheduleTree tree =
      BuildPipesortTree(AllViews(d), root, root.DimList(), est);
  const auto pipelines =
      DecomposePipelines(tree, static_cast<double>(shared_raw.size()));
  std::vector<double> load;
  const auto owner = AssignLpt(pipelines, p, load);
  if (stats != nullptr) {
    stats->pipelines = static_cast<int>(pipelines.size());
    std::vector<std::uint64_t> rounded;
    rounded.reserve(load.size());
    for (double l : load) {
      rounded.push_back(static_cast<std::uint64_t>(l));
    }
    stats->estimated_imbalance = RelativeImbalance(rounded);
  }

  // Compute the assigned pipelines, each from the shared raw data.
  comm.SetPhase("compute");
  CubeResult cube;
  // All ranks carry the full view set (empty relations when assigned
  // elsewhere) so downstream code sees a consistent cube shape.
  for (int i = 0; i < tree.size(); ++i) {
    const ScheduleNode& n = tree.node(i);
    cube.views[n.view] =
        ViewResult{n.view, n.order, Relation(n.view.dim_count()), true};
  }

  for (std::size_t pi = 0; pi < pipelines.size(); ++pi) {
    if (owner[pi] != comm.rank()) continue;
    const Pipeline& pipe = pipelines[pi];
    const ScheduleNode& head = tree.node(pipe.nodes.front());

    // One sort of the raw data in the head's order (the full-size shared-
    // disk read is the method's toll), then the whole chain in one scan.
    const std::vector<int> sort_cols(head.order.begin(), head.order.end());
    comm.ChargeSortRecords(shared_raw.size());
    Relation sorted = ExternalSort(shared_raw, sort_cols, comm.disk());
    comm.ChargeScanRecords(sorted.size());

    for (int node : pipe.nodes) {
      const ScheduleNode& n = tree.node(node);
      const std::vector<int> view_cols(n.order.begin(), n.order.end());
      Relation agg = AggregateSortedPrefix(sorted, view_cols);
      // agg's columns follow n.order; restore the canonical layout.
      std::vector<int> perm;
      perm.reserve(n.order.size());
      for (int dim : n.view.DimList()) {
        const auto it = std::find(n.order.begin(), n.order.end(), dim);
        perm.push_back(static_cast<int>(it - n.order.begin()));
      }
      Relation canonical = PermuteColumns(agg, perm);
      comm.disk().ChargeWrite(canonical.ByteSize());
      cube.views.at(n.view).rel = std::move(canonical);
    }
  }

  // Work partitioning needs no merge; a barrier stands in for the job-end
  // synchronization so the BSP clock reflects the slowest processor.
  comm.SetPhase("merge");
  comm.Barrier();
  return cube;
}

}  // namespace sncube
