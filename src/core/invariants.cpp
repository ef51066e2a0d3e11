#include "core/invariants.hpp"

#include <sstream>

#include "util/math.hpp"

namespace detcol {

std::string InvariantReport::to_string() const {
  std::ostringstream os;
  os << "checked=" << checked << " viol(i)=" << viol_ell_lt_p
     << " viol(ii)=" << viol_deg_le_ell << " viol(iii)=" << viol_deg_lt_p;
  return os.str();
}

InvariantReport check_corollary_33(const Instance& inst,
                                   const PaletteSet& palettes) {
  InvariantReport r;
  const double ell = inst.ell;
  const double deg_bound = ell + fpow(ell, kPalSlackExp);
  for (NodeId v = 0; v < inst.n(); ++v) {
    ++r.checked;
    const double p = static_cast<double>(palettes.palette_size(inst.orig[v]));
    const double d = static_cast<double>(inst.graph.degree(v));
    if (!(ell < p)) ++r.viol_ell_lt_p;
    if (!(d <= deg_bound)) ++r.viol_deg_le_ell;
    if (!(d < p)) ++r.viol_deg_lt_p;
  }
  return r;
}

InvariantReport check_lemma_32(const Instance& inst,
                               const Classification& cls) {
  InvariantReport r;
  const double ell_next = next_ell(inst.ell);
  const double deg_bound = ell_next + fpow(ell_next, kPalSlackExp);
  const std::uint64_t b = cls.num_bins;
  for (NodeId v = 0; v < inst.n(); ++v) {
    if (cls.bin_of[v] == 0) continue;  // bad nodes are exempt
    ++r.checked;
    const double dprime = static_cast<double>(cls.deg_in_bin[v]);
    if (!(dprime <= deg_bound)) ++r.viol_deg_le_ell;
    if (cls.bin_of[v] != b) {
      const double pprime = static_cast<double>(cls.pal_in_bin[v]);
      if (!(ell_next < pprime)) ++r.viol_ell_lt_p;
      if (!(dprime < pprime)) ++r.viol_deg_lt_p;
    }
  }
  return r;
}

}  // namespace detcol
