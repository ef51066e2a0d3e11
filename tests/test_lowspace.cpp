#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "graph/generators.hpp"
#include "lowspace/low_space.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

void expect_valid(const Graph& g, const PaletteSet& pal,
                  const LowSpaceResult& r) {
  const auto v = verify_coloring(g, pal, r.coloring);
  EXPECT_TRUE(v.ok) << v.issue;
}

TEST(LowSpace, DeltaPlusOneOnGnp) {
  const Graph g = gen_gnp(800, 0.02, 3);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);
  EXPECT_GE(r.num_mis_calls, 1u);
}

TEST(LowSpace, DegPlusOneListsOnPowerLaw) {
  // The (deg+1)-list problem is the paper's headline for Theorem 1.4:
  // skewed degrees, per-node palette sizes.
  const Graph g = gen_power_law(1000, 2.5, 6.0, 5);
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 20, 7);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);

  // At delta = 0.04 the hubs exceed the low-degree threshold, so the
  // partition runs. The nodes its seed leaves violating Lemma 4.5 are
  // diverted to G0; they stay rare (0 and 1 measured, with 6 partitions).
  LowSpaceParams params;
  params.delta = 0.04;
  for (const NodeId n : {2000u, 8000u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Graph h = gen_power_law(n, 2.5, 8.0, 99 + n);
    const PaletteSet lists = PaletteSet::deg_plus_one_lists(h, 1u << 20, 3);
    const auto rh = low_space_color(h, lists, params);
    expect_valid(h, lists, rh);
    EXPECT_GE(rh.num_partitions, 1u);
    EXPECT_LE(rh.diverted_violators, n / 1000);
  }
}

TEST(LowSpace, HighDegreeGraphRecurses) {
  LowSpaceParams params;
  params.delta = 0.04;
  const Graph g = gen_random_regular(900, 64, 9);  // 64 > n^{7*0.04} ~ 6.7
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = low_space_color(g, pal, params);
  expect_valid(g, pal, r);
  EXPECT_GE(r.num_partitions, 1u);
  EXPECT_GE(r.depth_reached, 1u);
}

TEST(LowSpace, AllLowDegreeSkipsPartition) {
  const Graph g = gen_ring(500);  // degree 2 <= threshold
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);
  EXPECT_EQ(r.num_partitions, 0u);
  EXPECT_EQ(r.num_mis_calls, 1u);
}

TEST(LowSpace, Deterministic) {
  const Graph g = gen_gnp(400, 0.05, 11);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto a = low_space_color(g, pal);
  const auto b = low_space_color(g, pal);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.ledger.total_rounds(), b.ledger.total_rounds());
}

TEST(LowSpace, ListColoring) {
  const Graph g = gen_random_regular(500, 16, 13);
  const PaletteSet pal = PaletteSet::random_lists(g, 1u << 18, 15);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);
}

TEST(LowSpace, SpaceAccountingPopulated) {
  const Graph g = gen_gnp(600, 0.03, 17);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = low_space_color(g, pal);
  expect_valid(g, pal, r);
  EXPECT_GT(r.mpc.peak_total_words, 0u);
}

TEST(LowSpace, RejectsDeficientPalettes) {
  const Graph g = gen_complete(6);
  const PaletteSet pal = PaletteSet::uniform(6, 3);
  EXPECT_THROW(low_space_color(g, pal), CheckError);
}

// Parameterized sweep: (family, delta parameter) combinations must all
// produce verified colorings with the low-space pipeline.
using LsParam = std::tuple<int, double>;

class LowSpaceSweep : public ::testing::TestWithParam<LsParam> {};

TEST_P(LowSpaceSweep, VerifiedColoringAcrossFamiliesAndDeltas) {
  const auto [family, delta] = GetParam();
  Graph g;
  switch (family) {
    case 0: g = gen_gnp(700, 0.03, 31); break;
    case 1: g = gen_random_regular(700, 24, 33); break;
    case 2: g = gen_power_law(700, 2.6, 7.0, 35); break;
    default: g = gen_grid(26, 26); break;
  }
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 20, 37);
  LowSpaceParams params;
  params.delta = delta;
  const auto r = low_space_color(g, pal, params);
  const auto v = verify_coloring(g, pal, r.coloring);
  ASSERT_TRUE(v.ok) << "family=" << family << " delta=" << delta << ": "
                    << v.issue;
  // Space accounting must stay within the declared envelope.
  EXPECT_LE(r.mpc.peak_total_words,
            4 * (g.size_words() + pal.total_size()) +
                static_cast<std::uint64_t>(
                    16.0 * std::pow(static_cast<double>(g.num_nodes()),
                                    1.0 + 22.0 * delta)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LowSpaceSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0.02, 0.04, 0.08)));

TEST(LowSpace, RoundsGrowWithDegreeNotSize) {
  // Theorem 1.4's rounds on random Delta-regular graphs with (Delta+1)
  // palettes at delta = 0.04: strictly increasing in Delta, nearly flat in n.
  // They do not grow like log(Delta): at these n, b = max(2, floor(n^delta))
  // = 2, so the partition recursion is a binary tree whose rounds roughly
  // double per level (measured 276-345, 2,973-3,585 and 11,244 rounds for
  // Delta = 8, 32 and 128). n >= 2000 keeps Delta = 8 at or below the
  // low-degree threshold n^{7 delta} (6.9 at n = 1000), so it never
  // partitions.
  LowSpaceParams params;
  params.delta = 0.04;
  const NodeId ns[] = {2000, 4000, 8000};
  const NodeId degs[] = {8, 32, 128};
  std::uint64_t rounds[3][3] = {};  // [Delta][n]
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const NodeId n = ns[i];
      const NodeId d = degs[j];
      SCOPED_TRACE("n=" + std::to_string(n) + " Delta=" + std::to_string(d));
      const Graph g = gen_random_regular(n, d, 7 + n + d);
      const PaletteSet pal = PaletteSet::delta_plus_one(g);
      const auto r = low_space_color(g, pal, params);
      expect_valid(g, pal, r);
      rounds[j][i] = r.ledger.total_rounds();
      const std::uint64_t full_tree = (std::uint64_t{1} << r.depth_reached) - 1;
      EXPECT_LE(r.num_partitions, full_tree);
      if (d == 8) {
        EXPECT_EQ(r.num_partitions, 0u);
        EXPECT_EQ(r.num_mis_calls, 1u);
      }
      if (d == 128) {
        EXPECT_EQ(r.depth_reached, 5u);
        EXPECT_EQ(r.num_partitions, full_tree);
      }
      if (j > 0) {
        EXPECT_GT(rounds[j][i], rounds[j - 1][i]);
      }
    }
  }
  for (std::size_t j = 0; j < 3; ++j) {
    const auto [lo, hi] = std::minmax_element(rounds[j], rounds[j] + 3);
    EXPECT_LE(static_cast<double>(*hi), 1.3 * static_cast<double>(*lo))
        << "Delta=" << degs[j];
  }
}

}  // namespace
}  // namespace detcol
