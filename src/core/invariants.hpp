// Checkers for the Partition invariant (Lemma 3.2 / Corollary 3.3).
//
// Corollary 3.3: every instance entering Partition satisfies, for all v,
//   (i) ell < p(v),  (ii) d(v) <= ell + ell^0.7,  (iii) d(v) < p(v).
// Lemma 3.2: good nodes then satisfy the same three conditions with
// ell' = ell^0.9 - ell^0.6, d', p'.
//
// The paper proves these at asymptotic scale; the checkers report violation
// counts so tests can assert them on large-ell synthetic instances and
// benches can report how far laptop-scale runs deviate.
#pragma once

#include <cstdint>
#include <string>

#include "core/classify.hpp"
#include "core/params.hpp"
#include "graph/palette.hpp"

namespace detcol {

struct InvariantReport {
  std::uint64_t checked = 0;
  std::uint64_t viol_ell_lt_p = 0;     // (i)  ell < p(v)
  std::uint64_t viol_deg_le_ell = 0;   // (ii) d(v) <= ell + ell^0.7
  std::uint64_t viol_deg_lt_p = 0;     // (iii) d(v) < p(v)

  bool clean() const {
    return viol_ell_lt_p == 0 && viol_deg_le_ell == 0 && viol_deg_lt_p == 0;
  }
  std::string to_string() const;
};

/// Check Corollary 3.3 on an instance about to be partitioned.
InvariantReport check_corollary_33(const Instance& inst,
                                   const PaletteSet& palettes);

/// Check Lemma 3.2's conclusions for the good nodes of a classification:
/// conditions (i)-(iii) with ell', d'(v), p'(v). Only color-bin nodes have a
/// p' at classification time, so (i)/(iii) are checked for bins 1..b-1 and
/// (ii) for all good nodes.
InvariantReport check_lemma_32(const Instance& inst,
                               const Classification& cls);

}  // namespace detcol
