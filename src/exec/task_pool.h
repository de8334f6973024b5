// exec::TaskPool — the intra-rank work-stealing task runtime.
//
// The paper's shared-nothing design gives each virtual processor one thread,
// so every local sort, pipeline scan, and merge runs sequentially. TaskPool
// adds intra-rank parallelism underneath the BSP model without changing its
// semantics: a rank thread owns one pool of `threads - 1` real worker
// threads (the rank thread itself is the pool's first execution context) and
// fans work out through fork-join TaskGroups.
//
// Scheduling is work-stealing: every execution context (slot) has its own
// deque, tasks are distributed round-robin across the slots at submission,
// owners pop their own deque LIFO from the back (cache-warm), and idle
// contexts steal FIFO from the front of other slots' deques — so a slot
// stuck behind a long task sheds its queued work to whoever is free.
//
// Determinism contract: the pool schedules *execution*, never *results*.
// Chunk boundaries are pure functions of (n, threads); tasks write
// disjoint data; joins are full barriers. Algorithm results are therefore
// byte-identical for every thread count — only wall-clock time and the
// simulated span charge (Comm::ChargeParallelCpu) vary. Exceptions are
// deterministic too: TaskGroup::Wait rethrows the failure with the lowest
// submission index, regardless of completion order.
//
// Thread-safety: every deque is guarded by its own capability-annotated
// Mutex (SNCUBE_GUARDED_BY, machine-checked on clang builds); the idle
// protocol uses a separate mutex + epoch counter so a push between "scan
// found nothing" and "sleep" can never be lost. Tasks themselves must not
// touch rank-confined state (Comm, DiskModel, TraceRecorder): all cost
// charging and tracing stays on the rank thread, which is what keeps the
// charge order — and with it fault-injection replay — deterministic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sncube::exec {

class TaskGroup;

class TaskPool {
 public:
  // Spawns `threads - 1` workers; the constructing (rank) thread is the
  // pool's remaining execution context. threads <= 1 builds an inert pool:
  // every TaskGroup runs inline on the caller.
  explicit TaskPool(int threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int threads() const { return threads_; }

  // Tasks executed from a deque other than the runner's home slot since
  // construction. Observability only — asserting exact values would race
  // with scheduling.
  std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  // True on a pool worker thread (used to run nested parallelism inline
  // instead of deadlocking the pool on itself).
  static bool OnWorkerThread();

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    std::size_t index = 0;  // submission index within its group
  };

  // One execution context's deque. Each slot carries its own lock so pushes
  // and steals on different slots never contend.
  struct Slot {
    Mutex mu;
    std::deque<Task> deque SNCUBE_GUARDED_BY(mu);
  };

  void Push(Task task);
  // Runs one task if any slot has one (own slot from the back, others from
  // the front). Returns false when every deque was empty.
  bool TryRunOne(std::size_t home);
  void WorkerLoop(std::size_t home);
  static void Execute(Task task);

  const int threads_;
  std::vector<std::unique_ptr<Slot>> slots_;  // size == threads_
  std::atomic<std::uint64_t> steals_{0};

  // Idle/shutdown protocol: workers sleep here; task_epoch_ ticks on every
  // push so a worker that scanned empty deques re-scans instead of sleeping
  // through a concurrent push.
  Mutex idle_mu_;
  CondVar idle_cv_;
  bool stop_ SNCUBE_GUARDED_BY(idle_mu_) = false;
  std::uint64_t task_epoch_ SNCUBE_GUARDED_BY(idle_mu_) = 0;

  std::vector<std::thread> workers_;
};

// Fork-join region: Run() forks tasks, Wait() joins them (the caller helps
// drain the pool while waiting). With a null/inert pool — or on a pool
// worker thread, where blocking would starve the pool — tasks run inline at
// Run(), preserving the exact serial control flow.
class TaskGroup {
 public:
  explicit TaskGroup(TaskPool* pool);
  // Joins outstanding tasks but swallows their exceptions (destructors must
  // not throw); call Wait() on the success path.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn);

  // Blocks until every task forked so far has finished; rethrows the
  // pending failure with the lowest submission index, if any.
  void Wait();

 private:
  friend class TaskPool;
  // Completion callback, run on whatever thread executed the task.
  void Finish(std::size_t index, std::exception_ptr error);
  void RecordError(std::size_t index, std::exception_ptr error);
  void JoinQuietly();

  TaskPool* pool_;       // null → inline mode
  std::size_t next_index_ = 0;  // caller-thread only

  Mutex mu_;
  CondVar done_cv_;
  std::size_t pending_ SNCUBE_GUARDED_BY(mu_) = 0;
  std::size_t error_index_ SNCUBE_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ SNCUBE_GUARDED_BY(mu_);
};

// Thread-local pool installation, mirroring obs::ThreadRecorderScope: the
// cluster runtime installs each rank's pool on the rank thread for the
// duration of Run, and the kernels pick it up via CurrentPool() without
// threading a pool argument through every call chain. Null when the current
// thread has no pool (serial mode).
TaskPool* CurrentPool();

class PoolScope {
 public:
  explicit PoolScope(TaskPool* pool);
  ~PoolScope();

  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  TaskPool* previous_;
};

}  // namespace sncube::exec
