// Fixture: suppressions that don't meet the bar. Expect one bad-suppression
// finding for the missing justification (and the wall-clock finding it
// fails to excuse), plus one bad-suppression for the unknown rule name.
#include <chrono>

namespace sncube {

double BadAllows() {
  // sncheck:allow(wall-clock)
  const auto t = std::chrono::steady_clock::now();  // EXPECT wall-clock, EXPECT clock-domain
  // sncheck:allow(no-such-rule): justification for a rule that does not exist
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

}  // namespace sncube
