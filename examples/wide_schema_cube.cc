// wide_schema_cube: Section 3's motivating case — "for a raw data set with
// 20 dimensions, it may be clear from the application that the OLAP queries
// will only require views with at most 5 dimensions. Therefore, it would be
// wasteful to create all 2^20 views when most of them are never used."
//
//   ./examples/wide_schema_cube [rows] [max_dims] [d]
//
// Builds the partial cube of all views with at most `max_dims` dimensions
// (greedy-lattice scheduler; the pruned-Pipesort universe would be 2^19 per
// partition) and shows how tiny a fraction of the full cube's work that is.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/timer.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "query/engine.h"
#include "seqcube/seq_cube.h"

using namespace sncube;

namespace {

// Every view with 1..max_dims dimensions, plus the empty view.
std::vector<ViewId> ViewsUpTo(int d, int max_dims) {
  std::vector<ViewId> selected{ViewId::Empty()};
  for (std::uint32_t mask = 1; mask < (1u << d); ++mask) {
    if (__builtin_popcount(mask) <= max_dims) selected.emplace_back(mask);
  }
  return selected;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t rows = argc > 1 ? std::atoll(argv[1]) : 20000;
  const int max_dims = argc > 2 ? std::atoi(argv[2]) : 3;
  const int d = argc > 3 ? std::atoi(argv[3]) : 16;

  DatasetSpec spec;
  spec.rows = rows;
  for (int i = 0; i < d; ++i) {
    spec.cardinalities.push_back(static_cast<std::uint32_t>(
        i < 4 ? (64 >> i) : (2 + i % 5)));
  }
  spec.seed = 99;
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();

  const auto selected = ViewsUpTo(d, max_dims);
  std::printf("d=%d dimensions -> %.0f views in the full cube;\n"
              "materializing only the %zu views with <= %d dims (%.2f%%)\n",
              d, std::pow(2.0, d), selected.size(), max_dims,
              100.0 * static_cast<double>(selected.size()) / std::pow(2.0, d));

  WallTimer timer;
  ExecStats stats;
  const CubeResult cube =
      SequentialCube(raw, schema, selected, nullptr, &stats,
                     PartialStrategy::kGreedyLattice);
  std::printf("built in %.2f s host time: %llu rows across %zu views "
              "(+%zu auxiliary roots), %llu sorts\n",
              timer.Seconds(),
              static_cast<unsigned long long>(cube.TotalRows()),
              selected.size(), cube.views.size() - selected.size(),
              static_cast<unsigned long long>(stats.sorts));

  // Any query over <= max_dims dimensions is served exactly.
  const CubeQueryEngine engine(cube);
  Query q;
  q.group_by = ViewId::FromDims({1, 5, 9});
  const auto answer = engine.Execute(q);
  std::printf("GROUP BY (%s): %zu rows from view %s\n",
              q.group_by.Name(schema).c_str(), answer.rel.size(),
              answer.answered_from.Name(schema).c_str());

  // Queries over more dimensions fall back to a wider ancestor... which a
  // max-dims cube does not have — the engine reports that honestly.
  q.group_by = ViewId::FromDims({0, 1, 2, 3, 4});
  try {
    engine.Route(q);
    std::printf("unexpected: wide query routed\n");
  } catch (const SncubeError&) {
    std::printf("GROUP BY over %d dims correctly rejected: no materialized "
                "view covers it (that is the trade-off of a partial cube)\n",
                q.group_by.dim_count());
  }
  return 0;
}
