// Small math helpers shared across the library.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace detcol {

/// Ceiling division for non-negative integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// floor(log2(x)) for x >= 1.
constexpr unsigned floor_log2(std::uint64_t x) {
  unsigned r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// ceil(log2(x)) for x >= 1.
constexpr unsigned ceil_log2(std::uint64_t x) {
  return x <= 1 ? 0 : floor_log2(x - 1) + 1;
}

constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Smallest power of two >= x (x >= 1).
constexpr std::uint64_t next_pow2(std::uint64_t x) {
  return x <= 1 ? 1 : std::uint64_t{1} << ceil_log2(x);
}

/// x^e for real exponent, on non-negative x. The paper's parameterization is
/// full of fractional powers (l^0.1, l^0.6, ...), all evaluated on magnitudes
/// that comfortably fit a double.
inline double fpow(double x, double e) {
  DC_CHECK(x >= 0.0, "fpow on negative base ", x);
  return std::pow(x, e);
}

/// floor(x^e) as an integer, clamped to at least `lo`.
inline std::uint64_t ipow_floor(double x, double e, std::uint64_t lo = 0) {
  const double v = fpow(x, e);
  DC_CHECK(v < static_cast<double>(std::numeric_limits<std::uint64_t>::max()),
           "ipow_floor overflow");
  const auto f = static_cast<std::uint64_t>(v);
  return f < lo ? lo : f;
}

/// Integer power a^b with overflow check (used for small exponents).
inline std::uint64_t ipow(std::uint64_t a, unsigned b) {
  std::uint64_t r = 1;
  while (b--) {
    DC_CHECK(a == 0 || r <= std::numeric_limits<std::uint64_t>::max() / (a ? a : 1),
             "ipow overflow");
    r *= a;
  }
  return r;
}

}  // namespace detcol
