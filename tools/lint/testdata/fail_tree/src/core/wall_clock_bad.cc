// Fixture: host-clock reads in a simulation-charged path. Expect two
// wall-clock findings, and clock-domain on the ::now read.
#include <chrono>
#include <ctime>

namespace sncube {

double BadSimTiming() {
  const auto t0 = std::chrono::steady_clock::now();  // EXPECT wall-clock, EXPECT clock-domain
  const std::time_t wall = std::time(nullptr);       // EXPECT wall-clock
  return std::chrono::duration<double>(t0.time_since_epoch()).count() +
         static_cast<double>(wall);
}

}  // namespace sncube
