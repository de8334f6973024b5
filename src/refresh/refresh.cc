#include "refresh/refresh.h"

#include <utility>

#include "common/status.h"
#include "obs/trace.h"

namespace sncube {

RefreshCoordinator::RefreshCoordinator(ShardSet& shards,
                                       std::shared_ptr<const CubeResult> base,
                                       const Schema& schema,
                                       RefreshOptions options)
    : shards_(shards),
      schema_(schema),
      options_(std::move(options)),
      store_(options_.dir, disk_),
      current_(std::move(base)) {
  SNCUBE_CHECK_MSG(current_ != nullptr, "refresh needs the serving base cube");
  // The coordinator is rank 0 of its injector: transient errors and silent
  // corruption from rank-0 disk clauses strike the snapshot writes below.
  if (options_.injector != nullptr) disk_.set_fault_hook(options_.injector);
}

void RefreshCoordinator::EnterPhase(int phase) {
  // Kill check FIRST: a refreshkill:<phase> crash happens on entry, before
  // any work (or test traffic) attributed to the phase.
  if (options_.injector != nullptr) options_.injector->OnRefreshPhase(phase);
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("refresh.phases_entered").Increment();
  }
  if (options_.on_phase) options_.on_phase(phase);
}

std::uint64_t RefreshCoordinator::Refresh(const Relation& delta) {
  SNCUBE_TRACE_SPAN("refresh");
  const std::uint64_t epoch = shards_.serving_epoch() + 1;

  // ---- Compute (nothing durable, nothing serving) ----
  std::shared_ptr<const CubeResult> next;
  {
    SNCUBE_TRACE_SPAN("refresh-delta-cube");
    CubeResult delta_cube = ComputeDeltaCube(delta, schema_, *current_, &disk_,
                                             nullptr, options_.strategy);
    SNCUBE_TRACE_SPAN("refresh-merge");
    next = std::make_shared<const CubeResult>(
        MergeDeltaCube(*current_, delta_cube));
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("refresh.delta_rows").Add(delta.size());
    options_.metrics->GetCounter("refresh.views_rebuilt")
        .Add(delta.empty() ? 0 : current_->views.size());
    options_.metrics->GetCounter("refresh.merged_rows")
        .Add(next->TotalRows(/*selected_only=*/false));
  }

  // ---- Prepare: durable bytes, still serving the old epoch ----
  EnterPhase(0);
  {
    SNCUBE_TRACE_SPAN("refresh-snapshot");
    store_.WriteEpoch(epoch, *next, [this] { EnterPhase(1); });
  }
  EnterPhase(2);

  // ---- Two-phase swap ----
  SNCUBE_TRACE_SPAN("refresh-swap");
  shards_.PrepareEpoch(epoch, next);
  for (int s = 0; s < shards_.shards(); ++s) {
    if (s > 0) EnterPhase(3);
    store_.AppendCommitShard(epoch, s);
    shards_.CommitShard(epoch, s);
  }
  EnterPhase(4);
  store_.AppendCommit(epoch);  // THE commit point
  shards_.FinalizeEpoch(epoch);
  EnterPhase(5);
  if (epoch >= 1) store_.RemoveEpochDirsBelow(epoch - 1);

  current_ = std::move(next);
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("refresh.epochs_installed").Increment();
  }
  return epoch;
}

}  // namespace sncube
