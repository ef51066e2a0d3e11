// Parameters of ColorReduce / Partition (Algorithms 1 and 2).
//
// The paper's constants are exponents of ell: ell^0.1 bins, ell^0.6 degree
// slack, ell^0.7 palette slack, ell' = ell^0.9 - ell^0.6, bin capacity
// 2*n_G*ell^-0.1 + n^0.6, and a depth-9 recursion (Lemma 3.14).
//
// The slack and decay exponents are constants (below), and so is the bin
// capacity (core/classify.cpp). PartitionParams holds what some caller sets:
// bench_ablation varies bin_exp, independence, collect_factor and g0_budget;
// tests set min_bins and min_ell; tests and the randomized baseline set the
// seed search. Defaults are the paper's values where it has one.
#pragma once

#include <cstdint>

#include "derand/strategies.hpp"

namespace detcol {

// Exponents of Definition 3.1 / Algorithm 2.
inline constexpr double kDegSlackExp = 0.6;  // degree deviation ell^0.6
inline constexpr double kPalSlackExp = 0.7;  // palette surplus ell^0.7
inline constexpr double kEllDecayExp = 0.9;  // ell' = ell^0.9 - ell^0.6

struct PartitionParams {
  double bin_exp = 0.1;  // number of bins b = ell^bin_exp

  /// At laptop scale ell^0.1 < 2; a partition needs at least two bins (one
  /// color bin + the colorless last bin).
  std::uint64_t min_bins = 2;

  /// Independence c of the hash families (Lemma 2.2 wants even c >= 4).
  unsigned independence = 4;

  /// Collect-and-color-locally once instance words <= collect_factor * n
  /// (the "size O(n)" branch of Algorithm 1).
  double collect_factor = 4.0;

  /// Seed acceptance: the chosen seed must give no bad bins and a bad-node
  /// subgraph G0 of at most g0_budget * n words (Corollary 3.10's O(n)).
  double g0_budget = 1.0;

  /// Below this ell a partition is pointless (slack terms exceed degrees);
  /// such instances are collected directly.
  double min_ell = 4.0;

  SeedSelectConfig seed;
};

/// b = max(min_bins, floor(ell^bin_exp)).
std::uint64_t num_bins(double ell, const PartitionParams& params);

/// ell' = ell^0.9 - ell^0.6, floored at 2.
double next_ell(double ell);

/// Paper trajectory bounds (Lemmas 3.11-3.13), asserted at every recursion
/// call by RoundConstancy (tests/test_property.cpp): at recursion depth i
/// with initial degree bound Delta,
///   ell_i in (Delta^{0.9^i} / 2, Delta^{0.9^i}],
///   n_i <= 3^i (n * Delta^{0.9^i - 1} + n^0.6),
///   Delta_i <= 2^i * Delta^{0.9^i}.
double lemma_311_ell_upper(double delta0, unsigned depth);
double lemma_311_ell_lower(double delta0, unsigned depth);
double lemma_312_nodes_upper(double n, double delta0, unsigned depth);
double lemma_313_degree_upper(double delta0, unsigned depth);

}  // namespace detcol
