#include "common/fmt.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <system_error>

namespace hicc {

namespace {

/// True for a normal double that is not a power of two: the values
/// whose rounding interval is symmetric about them.
bool has_symmetric_interval(double v) {
  return std::isnormal(v) && (std::bit_cast<std::uint64_t>(v) & 0xF'FFFF'FFFF'FFFFULL) != 0;
}

/// format_double for a non-integral `v` with has_symmetric_interval.
/// The shortest digits that read back as `v` (std::to_chars without a
/// precision), say n of them, are the digits %.Pg prints at
/// P = max(15, n), the first precision of the 15/16/17 round-trip loop
/// that reads back. A normal double's 15-digit decimals lie at least
/// 4.5 ulps apart, so at most one of them rounds to `v`, and it is
/// the nearest one. With 16 or 17 digits, the nearest n-digit decimal
/// is the one to_chars picks, and it reads back whenever any n-digit
/// decimal does, because the interval is symmetric. The text is laid
/// out as %g does at precision P: scientific when the exponent is
/// below -4 or at least P, otherwise fixed with trailing zeros dropped.
char* format_shortest(char* out, double v) {
  char sci[kDoubleChars];
  const char* const sci_end =
      std::to_chars(sci, sci + kDoubleChars, v, std::chars_format::scientific).ptr;
  // sci is "[-]d[.ddd]e(+|-)XX".
  const char* const mant = sci[0] == '-' ? sci + 1 : sci;
  const char* const e = std::find(mant, sci_end, 'e');
  const int n = e - mant > 1 ? static_cast<int>(e - mant) - 1 : 1;
  int exp = 0;
  std::from_chars(e + 2, sci_end, exp);
  if (e[1] == '-') exp = -exp;
  if (exp < -4 || exp >= std::max(15, n)) {
    const auto len = static_cast<std::size_t>(sci_end - sci);
    std::memcpy(out, sci, len);
    return out + len;
  }
  char digits[17];
  digits[0] = mant[0];
  if (n > 1) std::memcpy(digits + 1, mant + 2, static_cast<std::size_t>(n - 1));
  char* p = out;
  if (mant != sci) *p++ = '-';
  if (exp < 0) {
    *p++ = '0';
    *p++ = '.';
    p = std::fill_n(p, -exp - 1, '0');
    return std::copy_n(digits, n, p);
  }
  const int whole = exp + 1;
  p = std::copy_n(digits, std::min(n, whole), p);
  if (n <= whole) return std::fill_n(p, whole - n, '0');
  *p++ = '.';
  return std::copy_n(digits + whole, n - whole, p);
}

}  // namespace

char* format_double(char* out, double v) {
  if (v > -1e15 && v < 1e15) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      return std::to_chars(out, out + kDoubleChars, i).ptr;
    }
  }
  if (has_symmetric_interval(v)) return format_shortest(out, v);
  for (int precision : {15, 16}) {
    char* end =
        std::to_chars(out, out + kDoubleChars, v, std::chars_format::general, precision).ptr;
    double back = 0.0;
    if (std::from_chars(out, end, back).ec == std::errc{} && back == v) return end;
  }
  return std::to_chars(out, out + kDoubleChars, v, std::chars_format::general, 17).ptr;
}

}  // namespace hicc
