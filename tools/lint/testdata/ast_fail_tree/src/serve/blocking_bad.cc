// blocking-under-lock fixtures, direct arm: disk syscalls, sleeps, and a
// Comm-style collective issued while a Mutex is held.
#include <unistd.h>

#include "common/stub_mutex.h"

struct CommHandle {
  void Barrier() {}
};

class Journal {
 public:
  void Flush() {
    MutexLock lock(mu_);
    fsync(0);  // EXPECT blocking-under-lock
  }

  void Backoff() {
    MutexLock lock(mu_);
    usleep(100);  // EXPECT blocking-under-lock, EXPECT raw-sleep
  }

  void Sync(CommHandle& comm) {
    MutexLock lock(mu_);
    comm.Barrier();  // EXPECT blocking-under-lock
  }

 private:
  Mutex mu_;
};
