#include "refresh/delta.h"

#include <utility>

#include "common/status.h"
#include "relation/aggregate.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"

namespace sncube {

CubeResult ComputeDeltaCube(const Relation& delta, const Schema& schema,
                            const CubeResult& base, AggFn fn, DiskModel* disk,
                            ExecStats* stats, PartialStrategy strategy) {
  if (delta.empty()) return CubeResult{};
  std::vector<ViewId> views;
  views.reserve(base.views.size());
  for (const auto& [id, vr] : base.views) views.push_back(id);
  return SequentialCube(delta, schema, views, fn, disk, stats, strategy);
}

Relation MergeAggregateByOrder(const Relation& a, const Relation& b,
                               std::span<const int> cols, AggFn fn) {
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
      out.Append(a.RowKeys(i), CombineMeasure(fn, a.measure(i), b.measure(j)));
      ++i;
      ++j;
    }
  }
  while (i < a.size()) out.AppendRow(a, i++);
  while (j < b.size()) out.AppendRow(b, j++);
  return out;
}

CubeResult MergeDeltaCube(const CubeResult& base, const CubeResult& delta_cube,
                          AggFn fn) {
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
      out.rel = MergeAggregateByOrder(vr.rel, delta_rows, cols, fn);
    }
    merged.views.emplace(id, std::move(out));
  }
  return merged;
}

}  // namespace sncube
