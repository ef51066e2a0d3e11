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

}  // namespace detcol
