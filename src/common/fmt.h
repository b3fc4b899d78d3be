// Formatting helpers shared by the structured-output writers (sweep
// JSON, trace CSV/Chrome-JSON).
#pragma once

#include <cstddef>
#include <ostream>

namespace hicc {

/// Room format_double needs: the longest round-trip form is a sign,
/// 17 digits, a point and "e-308" (24 characters).
inline constexpr std::size_t kDoubleChars = 32;

/// Round-trip double formatting: writes the shortest of
/// %.15g/%.16g/%.17g that parses back to the same value into `out`
/// (at least kDoubleChars of room) and returns the end of the text.
/// std::to_chars with a precision is specified as printf's %.*g in the
/// C locale, so the bytes equal snprintf's, but they never depend on
/// LC_NUMERIC. Machine-diffable outputs stay exact and stable.
///
/// Two exact fast paths skip the precision loop: an integer below
/// 1e15 in magnitude (not -0) is all of its %.15g digits, and every
/// other normal value but a power of two is laid out from its shortest
/// round-trip digits (fmt.cpp says why those are %.15g's, %.16g's or
/// %.17g's). -0, subnormals, the remaining powers of two, infinities
/// and NaNs keep the loop. A subnormal has fewer significant bits, so
/// several 15-digit decimals can round to it and the shortest is not
/// the one %.15g prints. Below a power of two the doubles lie twice as
/// close, so the nearest 16-digit decimal can fall outside its rounding
/// interval while a farther one above it reads back (2^-1017: %.16g's
/// 7.120236347223044e-307 does not read back, the shortest form
/// 7.120236347223045e-307 does, and the loop prints 17 digits).
char* format_double(char* out, double v);

/// Writes format_double's text for `v` to `os`.
inline void put_double(std::ostream& os, double v) {
  char buf[kDoubleChars];
  os.write(buf, format_double(buf, v) - buf);
}

}  // namespace hicc
