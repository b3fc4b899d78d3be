// The snprintf/strtod round-trip formatter that common/fmt.h's
// std::to_chars version replaced, kept verbatim as the reference its
// output must match byte for byte (common_test, trace_test).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace hicc::testing_ref {

inline void put_double(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  for (int precision : {15, 16}) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
    if (std::strtod(shorter, nullptr) == v) {
      os << shorter;
      return;
    }
  }
  os << buf;
}

}  // namespace hicc::testing_ref
