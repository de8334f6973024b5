// blocking-under-lock fixture, fstream arm: constructing a file stream is
// opening a file — a disk operation — and here it happens under a lock.
#include <fstream>
#include <string>

#include "common/stub_mutex.h"

class SealedLog {
 public:
  void Append(const std::string& path) {
    MutexLock lock(mu_);
    std::ofstream out(path);  // EXPECT blocking-under-lock, EXPECT raw-file-write
    out << 1;
  }

 private:
  Mutex mu_;
};
