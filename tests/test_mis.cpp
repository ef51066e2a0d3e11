#include <gtest/gtest.h>

#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "graph/palette.hpp"
#include "lowspace/mis.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

std::vector<std::vector<Color>> palettes_of(const Graph& g,
                                            const PaletteSet& p) {
  std::vector<std::vector<Color>> out(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto s = p.palette(v);
    out[v].assign(s.begin(), s.end());
  }
  return out;
}

void expect_valid(const Graph& g, const PaletteSet& pal,
                  const MisColorResult& r) {
  Coloring c(g.num_nodes());
  c.color = r.color;
  const auto v = verify_coloring(g, pal, c);
  EXPECT_TRUE(v.ok) << v.issue;
}

TEST(Mis, ColorsRingWithThreeColors) {
  const Graph g = gen_ring(50);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = mis_list_color(g, palettes_of(g, pal), {}, 1);
  expect_valid(g, pal, r);
  EXPECT_GE(r.phases, 1u);
}

TEST(Mis, ColorsGnpDeltaPlusOne) {
  const Graph g = gen_gnp(300, 0.04, 5);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = mis_list_color(g, palettes_of(g, pal), {}, 2);
  expect_valid(g, pal, r);
}

TEST(Mis, ColorsArbitraryLists) {
  const Graph g = gen_random_regular(200, 8, 7);
  const PaletteSet pal = PaletteSet::random_lists(g, 1u << 16, 9);
  const auto r = mis_list_color(g, palettes_of(g, pal), {}, 3);
  expect_valid(g, pal, r);
}

TEST(Mis, ColorsDegPlusOneLists) {
  const Graph g = gen_power_law(400, 2.6, 6.0, 11);
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 16, 13);
  const auto r = mis_list_color(g, palettes_of(g, pal), {}, 4);
  expect_valid(g, pal, r);
}

TEST(Mis, Deterministic) {
  const Graph g = gen_gnp(150, 0.08, 15);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto a = mis_list_color(g, palettes_of(g, pal), {}, 5);
  const auto b = mis_list_color(g, palettes_of(g, pal), {}, 5);
  EXPECT_EQ(a.color, b.color);
  EXPECT_EQ(a.phases, b.phases);
}

TEST(Mis, PhasesLogarithmicInPractice) {
  const Graph g = gen_random_regular(500, 12, 17);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = mis_list_color(g, palettes_of(g, pal), {}, 6);
  expect_valid(g, pal, r);
  // Conflict edges ~ m * Delta; log2 of that is ~16, allow headroom.
  EXPECT_LE(r.phases, 64u);
}

TEST(Mis, EmptyGraphTrivial) {
  const Graph g = Graph::from_edges(3, std::vector<Edge>{});
  std::vector<std::vector<Color>> pals = {{5}, {6}, {5}};
  const auto r = mis_list_color(g, pals, {}, 8);
  EXPECT_EQ(r.color[0], 5u);
  EXPECT_EQ(r.color[1], 6u);
  EXPECT_EQ(r.color[2], 5u);
  EXPECT_EQ(r.phases, 1u);
}

TEST(Mis, RejectsDeficientPalette) {
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  const std::vector<std::vector<Color>> pals = {{1}, {1}};
  EXPECT_THROW(mis_list_color(g, pals, {}, 9), CheckError);
}

// Parameterized sweep: the MIS reduction must color every (degree,
// palette-mode) combination; phases should stay logarithmic-ish.
using MisParam = std::tuple<NodeId /*deg*/, int /*palette mode*/>;

class MisSweep : public ::testing::TestWithParam<MisParam> {};

TEST_P(MisSweep, ColorsAcrossDegreesAndPaletteModes) {
  const auto [deg, mode] = GetParam();
  const Graph g = gen_random_regular(300, deg, 100 + deg);
  PaletteSet pal = PaletteSet::delta_plus_one(g);
  if (mode == 1) pal = PaletteSet::random_lists(g, 1u << 18, 5);
  if (mode == 2) pal = PaletteSet::deg_plus_one_lists(g, 1u << 18, 7);
  const auto r = mis_list_color(g, palettes_of(g, pal), {}, 200 + deg);
  expect_valid(g, pal, r);
  EXPECT_LE(r.phases, 96u) << "deg=" << deg << " mode=" << mode;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MisSweep,
                         ::testing::Combine(::testing::Values(NodeId{4},
                                                              NodeId{8},
                                                              NodeId{16}),
                                            ::testing::Values(0, 1, 2)));

TEST(Mis, LedgerChargesSeedAndPhaseRounds) {
  const Graph g = gen_gnp(100, 0.1, 19);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = mis_list_color(g, palettes_of(g, pal), {}, 10);
  EXPECT_GT(r.mpc.ledger.total_rounds(), 0u);
  EXPECT_EQ(r.mpc.ledger.by_phase().count("mis-seed"), 1u);
  EXPECT_EQ(r.mpc.ledger.by_phase().count("mis-phase"), 1u);
  EXPECT_GT(r.mpc.ledger.by_phase().at("mis-seed").rounds, 0u);
}

}  // namespace
}  // namespace detcol
