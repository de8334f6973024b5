#include "core/sample_sort.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/status.h"
#include "exec/parallel_algo.h"
#include "io/external_sort.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "relation/merge.h"
#include "relation/serialize.h"
#include "relation/sort.h"

namespace sncube {

double RelativeImbalance(const std::vector<std::uint64_t>& sizes) {
  SNCUBE_CHECK(!sizes.empty());
  std::uint64_t total = 0;
  std::uint64_t mx = 0;
  std::uint64_t mn = sizes[0];
  for (auto s : sizes) {
    total += s;
    mx = std::max(mx, s);
    mn = std::min(mn, s);
  }
  if (total == 0) return 0;
  const double avg =
      static_cast<double>(total) / static_cast<double>(sizes.size());
  return std::max((static_cast<double>(mx) - avg) / avg,
                  (avg - static_cast<double>(mn)) / avg);
}

Relation AdaptiveSampleSort(Comm& comm, Relation local,
                            const std::vector<int>& sort_cols, double gamma,
                            SampleSortStats* stats) {
  const int p = comm.size();
  const int width = local.width();
  const std::size_t rows_in = local.size();

  // Procedure 2 as sibling spans under "sample-sort": local-sort → pivots →
  // h-relation → (optional) shift.
  SNCUBE_TRACE_SPAN("sample-sort");
  obs::PhaseSpan step;
  step.Switch("local-sort");

  // Step 1: local (external-memory) sort — skipped when the input is
  // already in order, which is how Merge–Partitions' Case 3 calls arrive
  // (every view fragment leaves the cube construction sorted); one
  // verification scan replaces the sort.
  Relation sorted;
  if (IsSorted(local, sort_cols)) {
    comm.ChargeScanRecords(local.size());
    comm.disk().ChargeRead(local.ByteSize());
    sorted = std::move(local);
  } else {
    // Parallel region: the sort runs on the rank's exec pool (ExternalSort
    // picks it up via exec::CurrentPool()) and is charged at span, not
    // work. The span is emitted only when a pool is active so serial runs
    // keep the pre-exec trace byte-identical.
    std::optional<obs::ScopedSpan> exec_span;
    if (comm.threads_per_rank() > 1) exec_span.emplace("exec-sort");
    comm.ChargeSortRecordsParallel(local.size());
    sorted = ExternalSort(local, sort_cols, comm.disk());
  }
  local.Clear();

  if (p == 1) {
    if (stats != nullptr) {
      *stats = {.imbalance_before_shift = 0,
                .shifted = false,
                .rows_in = rows_in,
                .rows_out = sorted.size()};
    }
    return sorted;
  }

  // Step 1 (cont.): p local pivots at evenly spaced local ranks, to P0.
  step.Switch("pivots");
  ByteBuffer pivot_msg;
  {
    std::vector<Key> flat;
    std::uint64_t count = 0;
    for (int j = 0; j < p; ++j) {
      if (sorted.empty()) break;
      const std::size_t idx =
          (sorted.size() * static_cast<std::size_t>(j)) /
          static_cast<std::size_t>(p);
      for (int c : sort_cols) flat.push_back(sorted.key(idx, c));
      ++count;
    }
    WirePut(pivot_msg, count);
    WirePutVector(pivot_msg, flat);
  }
  const auto gathered = comm.Gather(0, std::move(pivot_msg));

  // Step 2: P0 sorts the local pivots and broadcasts p-1 global pivots.
  ByteBuffer pivot_bcast;
  if (comm.rank() == 0) {
    std::vector<KeyTuple> pivots;
    for (const auto& msg : gathered) {
      WireReader r(msg);
      const auto count = r.Get<std::uint64_t>();
      const auto flat = r.GetVector<Key>();
      SNCUBE_CHECK(flat.size() == count * sort_cols.size());
      for (std::uint64_t i = 0; i < count; ++i) {
        pivots.emplace_back(flat.begin() + i * sort_cols.size(),
                            flat.begin() + (i + 1) * sort_cols.size());
      }
    }
    std::sort(pivots.begin(), pivots.end());
    std::vector<Key> flat;
    std::uint64_t count = 0;
    if (!pivots.empty()) {
      for (int k = 1; k < p; ++k) {
        // Paper: global pivot k at rank k·p + ⌊p/2⌋ of the p² pivots;
        // rescaled when fewer pivots arrived (small inputs).
        std::size_t idx = static_cast<std::size_t>(k) * pivots.size() /
                              static_cast<std::size_t>(p) +
                          pivots.size() / (2 * static_cast<std::size_t>(p));
        idx = std::min(idx, pivots.size() - 1);
        flat.insert(flat.end(), pivots[idx].begin(), pivots[idx].end());
        ++count;
      }
    }
    WirePut(pivot_bcast, count);
    WirePutVector(pivot_bcast, flat);
  }
  pivot_bcast = comm.Broadcast(0, std::move(pivot_bcast));

  std::vector<KeyTuple> global_pivots;
  {
    WireReader r(pivot_bcast);
    const auto count = r.Get<std::uint64_t>();
    const auto flat = r.GetVector<Key>();
    for (std::uint64_t i = 0; i < count; ++i) {
      global_pivots.emplace_back(flat.begin() + i * sort_cols.size(),
                                 flat.begin() + (i + 1) * sort_cols.size());
    }
  }

  // Step 3+4: cut the sorted local data at the pivots (equal keys stay
  // together on the pivot's side) and run the h-relation.
  step.Switch("h-relation");
  std::vector<ByteBuffer> send(p);
  {
    std::size_t begin = 0;
    for (int k = 0; k < p; ++k) {
      std::size_t end;
      if (k < static_cast<int>(global_pivots.size())) {
        end = UpperBoundRow(sorted, begin, sorted.size(), sort_cols,
                            global_pivots[k]);
      } else {
        end = sorted.size();
      }
      if (static_cast<std::size_t>(k) == static_cast<std::size_t>(p) - 1) {
        end = sorted.size();
      }
      SerializeRows(sorted, begin, end, send[k]);
      begin = end;
    }
  }
  sorted.Clear();
  auto received = comm.AllToAllv(std::move(send));

  // Step 5: merge the p sorted runs.
  std::vector<Relation> runs;
  runs.reserve(received.size());
  for (auto& buf : received) {
    runs.push_back(DeserializeRelation(buf, width));
    buf.clear();
  }
  Relation merged;
  {
    std::optional<obs::ScopedSpan> exec_span;
    if (comm.threads_per_rank() > 1) exec_span.emplace("exec-merge");
    merged = exec::MergeSortedRunsAuto(runs, sort_cols);
    runs.clear();
    comm.ChargeParallelCpu(static_cast<double>(merged.size()) *
                           std::log2(std::max(p, 2)) *
                           comm.cost().cpu_sort_record_s);
  }
  comm.disk().ChargeWrite(merged.ByteSize());

  // Step 6: measure imbalance; shift only if it exceeds gamma.
  ByteBuffer size_msg;
  WirePut(size_msg, static_cast<std::uint64_t>(merged.size()));
  auto size_bufs = comm.AllGather(std::move(size_msg));
  std::vector<std::uint64_t> sizes;
  sizes.reserve(size_bufs.size());
  for (const auto& b : size_bufs) {
    sizes.push_back(WireReader(b).Get<std::uint64_t>());
  }
  const double imbalance = RelativeImbalance(sizes);
  const bool shift = imbalance > gamma;

  if (shift) {
    step.Switch("shift");
    // Global shift: every rank re-slices its (globally contiguous) rows to
    // the even target layout with one more h-relation.
    std::uint64_t total = 0;
    std::vector<std::uint64_t> start(p + 1, 0);
    for (int r = 0; r < p; ++r) {
      start[r] = total;
      total += sizes[r];
    }
    start[p] = total;
    const std::uint64_t base = total / p;
    const std::uint64_t extra = total % p;
    auto target_start = [&](int r) {
      return static_cast<std::uint64_t>(r) * base +
             std::min<std::uint64_t>(r, extra);
    };

    std::vector<ByteBuffer> shift_send(p);
    const std::uint64_t my_start = start[comm.rank()];
    const std::uint64_t my_end = start[comm.rank() + 1];
    for (int r = 0; r < p; ++r) {
      const std::uint64_t ts = target_start(r);
      const std::uint64_t te = target_start(r + 1);
      const std::uint64_t lo = std::max(my_start, ts);
      const std::uint64_t hi = std::min(my_end, te);
      if (lo < hi) {
        SerializeRows(merged, lo - my_start, hi - my_start, shift_send[r]);
      }
    }
    merged.Clear();
    auto shifted = comm.AllToAllv(std::move(shift_send));
    Relation balanced(width);
    for (auto& buf : shifted) {
      // Source ranks hold increasing global slices, so appending in rank
      // order preserves the sort.
      DeserializeRows(buf, balanced);
      buf.clear();
    }
    merged = std::move(balanced);
  }

  if (stats != nullptr) {
    *stats = {.imbalance_before_shift = imbalance,
              .shifted = shift,
              .rows_in = rows_in,
              .rows_out = merged.size()};
  }
  return merged;
}

}  // namespace sncube
