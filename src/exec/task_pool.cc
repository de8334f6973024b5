#include "exec/task_pool.h"

#include <algorithm>
#include <utility>

#include "common/status.h"

namespace sncube::exec {
namespace {

thread_local TaskPool* t_current_pool = nullptr;
thread_local bool t_on_worker_thread = false;

}  // namespace

// ---------------------------------------------------------------------------
// TaskPool

TaskPool::TaskPool(int threads) : threads_(std::max(1, threads)) {
  slots_.reserve(static_cast<std::size_t>(threads_));
  for (int s = 0; s < threads_; ++s) {
    slots_.push_back(std::make_unique<Slot>());
  }
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  // Slot 0 belongs to the owning (rank) thread; workers take slots 1..W-1.
  // sncheck:allow(raw-thread): the pool implementation is the one sanctioned
  // home of real threads in src/exec (rule raw-thread exempts this file).
  for (int s = 1; s < threads_; ++s) {
    workers_.emplace_back(
        [this, s] { WorkerLoop(static_cast<std::size_t>(s)); });
  }
}

TaskPool::~TaskPool() {
  {
    MutexLock lock(idle_mu_);
    stop_ = true;
  }
  idle_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

bool TaskPool::OnWorkerThread() { return t_on_worker_thread; }

void TaskPool::Push(Task task) {
  const std::size_t s = task.index % slots_.size();
  {
    MutexLock lock(slots_[s]->mu);
    slots_[s]->deque.push_back(std::move(task));
  }
  {
    MutexLock lock(idle_mu_);
    ++task_epoch_;
  }
  idle_cv_.NotifyOne();
}

bool TaskPool::TryRunOne(std::size_t home) {
  const std::size_t n = slots_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t s = (home + k) % n;
    Task task;
    bool got = false;
    {
      MutexLock lock(slots_[s]->mu);
      auto& dq = slots_[s]->deque;
      if (!dq.empty()) {
        if (s == home) {
          task = std::move(dq.back());
          dq.pop_back();
        } else {
          task = std::move(dq.front());
          dq.pop_front();
        }
        got = true;
      }
    }
    if (got) {
      if (s != home) steals_.fetch_add(1, std::memory_order_relaxed);
      Execute(std::move(task));
      return true;
    }
  }
  return false;
}

void TaskPool::WorkerLoop(std::size_t home) {
  t_on_worker_thread = true;
  for (;;) {
    std::uint64_t epoch;
    {
      MutexLock lock(idle_mu_);
      if (stop_) return;
      epoch = task_epoch_;
    }
    if (TryRunOne(home)) continue;
    // Every deque was empty at `epoch`; sleep until a push (epoch tick) or
    // shutdown. A push that raced the scan already bumped the epoch, so the
    // while-loop condition catches it and we rescan instead of sleeping.
    MutexLock lock(idle_mu_);
    while (!stop_ && task_epoch_ == epoch) idle_cv_.Wait(idle_mu_);
    if (stop_) return;
  }
}

void TaskPool::Execute(Task task) {
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  task.group->Finish(task.index, std::move(error));
}

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::TaskGroup(TaskPool* pool)
    : pool_((pool != nullptr && pool->threads() > 1 &&
             !TaskPool::OnWorkerThread())
                ? pool
                : nullptr) {}

TaskGroup::~TaskGroup() { JoinQuietly(); }

void TaskGroup::Run(std::function<void()> fn) {
  const std::size_t index = next_index_++;
  if (pool_ == nullptr) {
    // Inline mode: the exact serial control flow, with failure capture
    // matching the pooled path (Wait rethrows, Run never does).
    try {
      fn();
    } catch (...) {
      RecordError(index, std::current_exception());
    }
    return;
  }
  {
    MutexLock lock(mu_);
    ++pending_;
  }
  pool_->Push(TaskPool::Task{std::move(fn), this, index});
}

void TaskGroup::Wait() {
  JoinQuietly();
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    error = std::move(error_);
    error_ = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void TaskGroup::JoinQuietly() {
  if (pool_ != nullptr) {
    // Help drain: any queued task (ours or a sibling group's) beats idling.
    while (pool_->TryRunOne(0)) {
    }
  }
  MutexLock lock(mu_);
  // Tasks not in any deque are in flight on workers; their Finish calls
  // will signal. New tasks are only ever pushed by this (caller) thread.
  while (pending_ != 0) done_cv_.Wait(mu_);
}

void TaskGroup::Finish(std::size_t index, std::exception_ptr error) {
  MutexLock lock(mu_);
  if (error != nullptr &&
      (error_ == nullptr || index < error_index_)) {
    error_ = std::move(error);
    error_index_ = index;
  }
  SNCUBE_DCHECK(pending_ > 0);
  if (--pending_ == 0) done_cv_.NotifyAll();
}

void TaskGroup::RecordError(std::size_t index, std::exception_ptr error) {
  MutexLock lock(mu_);
  if (error_ == nullptr || index < error_index_) {
    error_ = std::move(error);
    error_index_ = index;
  }
}

// ---------------------------------------------------------------------------
// Thread-local installation

TaskPool* CurrentPool() { return t_current_pool; }

PoolScope::PoolScope(TaskPool* pool) : previous_(t_current_pool) {
  t_current_pool = pool;
}

PoolScope::~PoolScope() { t_current_pool = previous_; }

}  // namespace sncube::exec
