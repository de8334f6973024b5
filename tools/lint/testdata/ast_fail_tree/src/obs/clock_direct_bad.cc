// clock-domain fixture: a direct steady_clock read inside a sim-clock path
// (src/obs), the textbook violation the per-line wall-clock rule
// also catches — here it pins the AST rule's direct-read arm.
#include <chrono>

double NowSecondsDirect() {
  const auto t = std::chrono::steady_clock::now();  // EXPECT clock-domain, EXPECT wall-clock
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}
