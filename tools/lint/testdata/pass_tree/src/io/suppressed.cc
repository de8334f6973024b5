// Fixture: a justified suppression. The allow comment names both clock rules
// and carries a reason, so both hits on the next line are excused.
#include <chrono>

namespace sncube {

double HostSecondsForProgressBar() {
  // sncheck:allow(wall-clock, clock-domain): progress display only; never charged to the sim clock
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

}  // namespace sncube
