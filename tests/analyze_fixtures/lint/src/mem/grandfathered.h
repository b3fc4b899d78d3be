// Fixture: a wall-clock read inside an expression spanning three lines;
// the finding sits on the line of the clock itself.
#pragma once

#include <chrono>

namespace fixture {
inline double old_wallclock() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
}  // namespace fixture
