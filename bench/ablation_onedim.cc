// Ablation: the Section 2.2 argument against single-dimension data
// partitioning.
//
// The strawman range-partitions raw data on D0 only; views containing D0
// then need no merge. The paper's objections, measured here:
//  * scalability caps at |D0| — with |D0| = 8 and p = 16, half the ranks
//    idle and the time curve flattens;
//  * skew on D0 piles entire hot values onto single ranks (imbalance →
//    p-1), while Procedure 1's all-dimension partitioning + merge keeps
//    working.
#include "bench_util.h"

#include <mutex>

#include "common/env.h"
#include "core/onedim_baseline.h"
#include "lattice/lattice.h"

using namespace sncube;
using namespace sncube::bench;

namespace {

struct OneDimResult {
  double sim_seconds = 0;
  double imbalance = 0;
};

OneDimResult RunOneDim(const DatasetSpec& spec, int p) {
  const Schema schema = spec.MakeSchema();
  Cluster cluster(p);
  std::vector<OneDimStats> stats(p);
  cluster.Run([&](Comm& comm) {
    const Relation local = GenerateSlice(spec, p, comm.rank());
    OneDimStats st;
    OneDimPartitionCube(comm, local, schema, &st);
    stats[comm.rank()] = st;
  });
  return {cluster.SimTimeSeconds(), stats[0].partition_imbalance};
}

}  // namespace

int main() {
  const std::int64_t n = BenchRows(40000, 1000000);
  // |D0| = 8 on purpose: small enough that the sweep crosses it. The schema
  // orders dimensions by decreasing cardinality, so the leading dimension is
  // the LARGEST — all cardinalities stay at or below 8.
  DatasetSpec base;
  base.rows = n;
  base.cardinalities = {8, 7, 6, 5, 4, 3};
  base.seed = 141;
  const auto selected = AllViews(6);

  std::printf("# Ablation: D0-only partitioning vs Procedure 1, n=%lld, "
              "d=6, |D0|=8\n",
              static_cast<long long>(n));
  std::printf("%-8s %-6s %18s %18s %18s\n", "alpha0", "p", "onedim_seconds",
              "procedure1_secs", "onedim_imbalance");
  for (double alpha0 : {0.0, 3.0}) {
    DatasetSpec spec = base;
    spec.alphas = {alpha0, 0, 0, 0, 0, 0};
    for (int p : {2, 4, 8, 16}) {
      if (p > EnvInt("SNCUBE_MAXPROC", 16)) continue;
      const auto onedim = RunOneDim(spec, p);
      const auto ours = RunParallel(spec, p, selected);
      std::printf("%-8.1f %-6d %18.2f %18.2f %18.2f\n", alpha0, p,
                  onedim.sim_seconds, ours.sim_seconds, onedim.imbalance);
    }
  }
  return 0;
}
