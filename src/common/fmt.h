// Formatting helpers shared by the structured-output writers (sweep
// JSON, trace CSV/Chrome-JSON).
#pragma once

#include <charconv>
#include <cstddef>
#include <ostream>
#include <system_error>

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
inline char* format_double(char* out, double v) {
  for (int precision : {15, 16}) {
    char* end =
        std::to_chars(out, out + kDoubleChars, v, std::chars_format::general, precision).ptr;
    double back = 0.0;
    if (std::from_chars(out, end, back).ec == std::errc{} && back == v) return end;
  }
  return std::to_chars(out, out + kDoubleChars, v, std::chars_format::general, 17).ptr;
}

/// Writes format_double's text for `v` to `os`.
inline void put_double(std::ostream& os, double v) {
  char buf[kDoubleChars];
  os.write(buf, format_double(buf, v) - buf);
}

}  // namespace hicc
