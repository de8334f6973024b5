#include "core/onedim_baseline.h"

#include <algorithm>

#include "common/status.h"
#include "core/sample_sort.h"
#include "lattice/lattice.h"
#include "net/wire.h"
#include "relation/aggregate.h"
#include "relation/serialize.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"

namespace sncube {

CubeResult OneDimPartitionCube(Comm& comm, const Relation& local_raw,
                               const Schema& schema, OneDimStats* stats) {
  SNCUBE_CHECK(local_raw.width() == schema.dims());
  const int p = comm.size();
  const int d = schema.dims();
  const std::uint64_t card0 = schema.cardinality(0);

  // Range-partition raw rows on D0: value v goes to rank v·p/|D0|.
  comm.SetPhase("partition");
  std::vector<ByteBuffer> send(p);
  {
    std::vector<std::vector<std::size_t>> rows_for(p);
    for (std::size_t r = 0; r < local_raw.size(); ++r) {
      const std::uint64_t v = local_raw.key(r, 0);
      const int owner = static_cast<int>(
          std::min<std::uint64_t>(v * p / card0, p - 1));
      rows_for[owner].push_back(r);
    }
    comm.ChargeScanRecords(local_raw.size());
    for (int k = 0; k < p; ++k) {
      for (std::size_t r : rows_for[k]) SerializeRows(local_raw, r, r + 1, send[k]);
    }
  }
  auto received = comm.AllToAllv(std::move(send));
  Relation slice(d);
  for (auto& buf : received) {
    DeserializeRows(buf, slice);
    buf.clear();
  }
  comm.disk().ChargeWrite(slice.ByteSize());

  const std::uint64_t my_rows = slice.size();
  {
    ByteBuffer msg;
    WirePut(msg, my_rows);
    const auto all = comm.AllGather(std::move(msg));
    std::vector<std::uint64_t> sizes;
    for (const auto& b : all) sizes.push_back(WireReader(b).Get<std::uint64_t>());
    if (stats != nullptr) stats->partition_imbalance = RelativeImbalance(sizes);
  }

  // Local full cube over the slice.
  comm.SetPhase("compute");
  ExecStats exec;
  CubeResult cube =
      SequentialCube(slice, schema, AllViews(d), &comm.disk(), &exec);
  comm.ChargeScanRecords(exec.records_scanned + exec.rows_emitted);
  // Pipeline sorts run on the rank's exec pool: charge span, like
  // ChargeExecStats in parallel_cube.cc.
  comm.ChargeParallelCpu(exec.sort_cost_units * comm.cost().cpu_sort_record_s);

  // Views without D0 are partial per rank: merge them globally. Process in
  // deterministic order (collective discipline).
  comm.SetPhase("merge");
  std::vector<ViewId> ids;
  for (const auto& [id, vr] : cube.views) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (ViewId id : ids) {
    ViewResult& vr = cube.views.at(id);
    if (id.Contains(0)) continue;  // D0 ranges are disjoint: no merge needed
    if (stats != nullptr) stats->merged_views += 1;
    // Per-rank schedule trees may have produced this view in different sort
    // orders (slice sizes differ, so do the trees); settle on the canonical
    // order before any cross-rank work.
    const std::vector<int> canonical = id.DimList();
    const auto cols = ColumnsOf(id, canonical);
    if (vr.order != canonical) {
      comm.ChargeSortRecords(vr.rel.size());
      vr.rel = SortRelation(vr.rel, cols);
      vr.order = canonical;
    }
    comm.disk().ChargeRead(vr.rel.ByteSize());
    Relation sorted = AdaptiveSampleSort(comm, std::move(vr.rel), cols, 0.03);
    comm.ChargeScanRecords(sorted.size());
    vr.rel = CollapseSorted(sorted);
    // Boundary groups may straddle ranks after the row-granular sort; the
    // parallel-cube merge handles that with its prefix fixup, which we
    // borrow by treating the canonical order as the "global" order.
    CubeResult one;
    one.views[id] = std::move(vr);
    MergePartitions(comm, one, canonical, MergeOptions{});
    cube.views[id] = std::move(one.views.at(id));
  }
  return cube;
}

}  // namespace sncube
