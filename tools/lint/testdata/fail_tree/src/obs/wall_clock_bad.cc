// Fixture: a host-clock read inside the tracing layer. Trace timestamps
// must come from a SimClockSource (the simulated BSP clock, or
// serve/wall_clock.h on the serve side) — a direct clock read here would
// break the byte-identical golden-trace guarantee.
#include <chrono>

namespace sncube::obs {

double BadTraceStamp() {
  const auto now = std::chrono::system_clock::now();  // EXPECT wall-clock, EXPECT clock-domain
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

}  // namespace sncube::obs
