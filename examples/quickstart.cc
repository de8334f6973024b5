// Quickstart: build a data cube sequentially, look at the schedule tree, and
// answer a few OLAP queries from the materialized views.
//
//   ./examples/quickstart
//
// Walks the whole public API surface in ~80 lines: synthesize a data set,
// materialize the full cube with Pipesort, inspect what was built, and route
// GROUP-BY queries to the cheapest view.
#include <cstdio>

#include "common/timer.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "query/engine.h"
#include "schedule/pipesort.h"
#include "seqcube/seq_cube.h"

using namespace sncube;

int main() {
  // A small 4-dimensional fact table: 50k rows, cardinalities 64..4.
  DatasetSpec spec;
  spec.rows = 50000;
  spec.cardinalities = {64, 16, 8, 4};
  spec.seed = 2026;
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  std::printf("raw data: %zu rows x %d dims (%.1f KB)\n", raw.size(),
              raw.width(), raw.ByteSize() / 1024.0);

  // Show the Pipesort schedule tree the builder would use.
  const ViewId root = ViewId::Full(schema.dims());
  const AnalyticEstimator est(schema, static_cast<double>(raw.size()));
  const ScheduleTree tree =
      BuildPipesortTree(AllViews(schema.dims()), root, root.DimList(), est);
  std::printf("\nPipesort schedule tree (scan = pipelined, sort = re-sort):\n%s\n",
              tree.ToString(schema).c_str());

  // Materialize the full cube (all 2^4 = 16 views).
  WallTimer timer;
  ExecStats stats;
  const CubeResult cube = SequentialPipesortCube(raw, schema, nullptr, &stats);
  std::printf("built %zu views, %llu total rows, in %.2fs "
              "(%llu sorts, %llu pipeline scans)\n",
              cube.views.size(),
              static_cast<unsigned long long>(cube.TotalRows()),
              timer.Seconds(), static_cast<unsigned long long>(stats.sorts),
              static_cast<unsigned long long>(stats.scans));

  // Query the cube: GROUP BY (D1, D3) and a filtered drill-down.
  const CubeQueryEngine engine(cube);
  Query q;
  q.group_by = ViewId::FromDims({1, 3});
  QueryAnswer answer = engine.Execute(q);
  std::printf("\nGROUP BY (%s): %zu rows, answered from view %s "
              "(%llu rows scanned)\n",
              q.group_by.Name(schema).c_str(), answer.rel.size(),
              answer.answered_from.Name(schema).c_str(),
              static_cast<unsigned long long>(answer.rows_scanned));

  q.group_by = ViewId::FromDims({2});
  q.filters = {{.dim = 0, .value = 7}};
  answer = engine.Execute(q);
  std::printf("GROUP BY %s WHERE %s=7: %zu rows, answered from view %s\n",
              schema.name(2).c_str(), schema.name(0).c_str(),
              answer.rel.size(), answer.answered_from.Name(schema).c_str());

  // First rows of the answer, ROLAP-style.
  for (std::size_t r = 0; r < answer.rel.size() && r < 4; ++r) {
    std::printf("  %s=%u -> sum=%lld\n", schema.name(2).c_str(),
                answer.rel.key(r, 0),
                static_cast<long long>(answer.rel.measure(r)));
  }
  return 0;
}
