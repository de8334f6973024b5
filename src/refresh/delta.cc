#include "refresh/delta.h"

#include <utility>

#include "common/status.h"
#include "relation/aggregate.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"

namespace sncube {

CubeResult ComputeDeltaCube(const Relation& delta, const Schema& schema,
                            const CubeResult& base, DiskModel* disk,
                            ExecStats* stats, PartialStrategy strategy) {
  if (delta.empty()) return CubeResult{};
  std::vector<ViewId> views;
  views.reserve(base.views.size());
  for (const auto& [id, vr] : base.views) views.push_back(id);
  return SequentialCube(delta, schema, views, disk, stats, strategy);
}

CubeResult MergeDeltaCube(const CubeResult& base,
                          const CubeResult& delta_cube) {
  CubeResult merged;
  for (const auto& [id, vr] : base.views) {
    ViewResult out;
    out.id = id;
    out.order = vr.order;
    out.selected = vr.selected;
    const auto it = delta_cube.views.find(id);
    if (it == delta_cube.views.end() || it->second.rel.empty()) {
      out.rel = vr.rel;  // untouched view: byte-identical pass-through
    } else {
      // The delta build chose its own sort orders (its Pipesort ran on delta
      // statistics); re-sort its rows into the BASE view's order so the
      // merge is a single linear pass and the merged view inherits base
      // order — what keeps refreshed cubes drop-in for slice partitioning
      // and golden comparisons.
      const std::vector<int> cols = ColumnsOf(id, vr.order);
      Relation delta_rows = it->second.rel;
      if (it->second.order != vr.order) {
        delta_rows = SortRelation(delta_rows, cols);
      }
      out.rel = MergeSortedAggregate(vr.rel, delta_rows, cols);
    }
    merged.views.emplace(id, std::move(out));
  }
  return merged;
}

}  // namespace sncube
