// Capability-annotated synchronization primitives.
//
// Thin wrappers over std::mutex / std::condition_variable that carry the
// clang thread-safety attributes from thread_annotations.h, so that a field
// declared `SNCUBE_GUARDED_BY(mu_)` is machine-checked: touching it without
// holding `mu_` fails a clang build (`-Wthread-safety -Werror`). The
// wrappers add no state and no overhead beyond the standard types — they
// exist purely to give the analysis lock/unlock events it can see.
//
// Usage:
//
//   mutable Mutex mu_;
//   std::deque<Request> queue_ SNCUBE_GUARDED_BY(mu_);
//
//   void Push(Request r) {
//     MutexLock lock(mu_);        // scoped capability: analysis knows
//     queue_.push_back(std::move(r));
//   }
//
// Mutexes that participate in a cross-class acquisition order additionally
// carry SNCUBE_ACQUIRED_AFTER / SNCUBE_ACQUIRED_BEFORE declarations — the
// serve tier chains its four lock layers through the anchor mutexes in
// serve/lock_order.h. Those declarations are enforced twice: by clang's
// -Wthread-safety-beta in the CI lint build, and by the whole-program
// lock-order rule of tools/lint/sncheck.py on every platform.
//
// Condition waits use CondVar::Wait(mu), annotated SNCUBE_REQUIRES(mu):
// the wait atomically releases and reacquires the mutex internally, which
// is invisible to (and consistent with) the analysis — the capability is
// held on entry and on exit. Write waits as explicit while-loops around
// Wait rather than predicate lambdas: lambda bodies are analyzed as
// separate functions and would need their own annotations.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace sncube {

class SNCUBE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // Lowercase names keep the wrapper a drop-in BasicLockable, so
  // std::lock_guard / std::unique_lock still work where needed.
  void lock() SNCUBE_ACQUIRE() { mu_.lock(); }
  void unlock() SNCUBE_RELEASE() { mu_.unlock(); }
  bool try_lock() SNCUBE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock over a Mutex; the scoped-capability annotation tells the
// analysis the mutex is held for exactly this object's lifetime.
class SNCUBE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SNCUBE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SNCUBE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to Mutex. Wait requires the capability: the
// caller provably holds `mu` across the wait (modulo the internal
// release/reacquire, which the analysis treats as a no-op — correctly, since
// guarded state may have changed across the call and the caller must
// re-check its predicate in a loop).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) SNCUBE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait,
    // then release ownership back without unlocking: from the caller's
    // (and the analysis's) view the lock was held throughout.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sncube
