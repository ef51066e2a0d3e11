// The Bellare–Rompel moment bound (Lemma 2.2 of the paper):
//   Pr[|Z - mu| >= lambda] <= 2 * (c*t / lambda^2)^(c/2)
// for Z a sum of t c-wise independent [0,1] variables.
// Concentration.EmpiricalDeviationWithinLemma22 (tests/test_concentration.cpp)
// checks empirical deviation frequencies against this analytic tail.
#pragma once

#include <cstdint>

namespace detcol {

/// The right-hand side of Lemma 2.2 (clamped to [0,1]); c must be an even
/// integer >= 4 (per the lemma's statement).
double bellare_rompel_tail(unsigned c, double t, double lambda);

/// Smallest even c >= 4 such that the Lemma 2.2 tail for t variables and
/// deviation lambda is at most `target`. Returns 0 if no c <= c_max works.
unsigned required_independence(double t, double lambda, double target,
                               unsigned c_max = 64);

}  // namespace detcol
