#include "core/params.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/math.hpp"

namespace detcol {

std::uint64_t num_bins(double ell, const PartitionParams& params) {
  DC_CHECK(ell >= 1.0, "ell must be >= 1");
  const auto b = ipow_floor(ell, params.bin_exp, params.min_bins);
  return std::max<std::uint64_t>(b, params.min_bins);
}

double next_ell(double ell) {
  const double v = fpow(ell, kEllDecayExp) - fpow(ell, kDegSlackExp);
  return std::max(2.0, v);
}

double lemma_311_ell_upper(double delta0, unsigned depth) {
  return std::pow(delta0, std::pow(0.9, depth));
}

double lemma_311_ell_lower(double delta0, unsigned depth) {
  return 0.5 * std::pow(delta0, std::pow(0.9, depth));
}

double lemma_312_nodes_upper(double n, double delta0, unsigned depth) {
  const double e = std::pow(0.9, depth) - 1.0;
  return std::pow(3.0, depth) * (n * std::pow(delta0, e) + std::pow(n, 0.6));
}

double lemma_313_degree_upper(double delta0, unsigned depth) {
  return std::pow(2.0, depth) * std::pow(delta0, std::pow(0.9, depth));
}

}  // namespace detcol
