#include <gtest/gtest.h>

#include <numeric>

#include "core/invariants.hpp"
#include "graph/generators.hpp"

namespace detcol {
namespace {

Instance make_instance(Graph g, double ell) {
  Instance inst;
  inst.orig.resize(g.num_nodes());
  std::iota(inst.orig.begin(), inst.orig.end(), NodeId{0});
  inst.graph = std::move(g);
  inst.ell = ell;
  return inst;
}

TEST(Invariants, CleanReportOnValidRoot) {
  const Graph g = gen_gnp(200, 0.1, 1);
  const Instance inst = make_instance(g, g.max_degree());
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto rep = check_corollary_33(inst, pal);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.checked, 200u);
}

TEST(Invariants, DetectsSmallPalette) {
  // ell = 10 but palettes have size 5 < ell: condition (i) violated; nodes
  // with degree >= 5 also violate (iii).
  const Graph g = gen_complete(8);  // degree 7
  const Instance inst = make_instance(g, 10.0);
  const PaletteSet pal = PaletteSet::uniform(8, 5);
  const auto rep = check_corollary_33(inst, pal);
  EXPECT_EQ(rep.viol_ell_lt_p, 8u);
  EXPECT_EQ(rep.viol_deg_lt_p, 8u);
  EXPECT_FALSE(rep.clean());
}

TEST(Invariants, DetectsDegreeOverflow) {
  // ell = 4: bound is 4 + 4^0.7 ~ 6.6; complete graph K8 has degree 7.
  const Graph g = gen_complete(8);
  const Instance inst = make_instance(g, 4.0);
  const PaletteSet pal = PaletteSet::uniform(8, 100);
  const auto rep = check_corollary_33(inst, pal);
  EXPECT_EQ(rep.viol_deg_le_ell, 8u);
}

TEST(Invariants, ToStringMentionsCounts) {
  InvariantReport r;
  r.checked = 5;
  r.viol_deg_lt_p = 2;
  const auto s = r.to_string();
  EXPECT_NE(s.find("checked=5"), std::string::npos);
  EXPECT_NE(s.find("viol(iii)=2"), std::string::npos);
}

}  // namespace
}  // namespace detcol
