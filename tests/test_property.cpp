// Parameterized property sweeps: every (family, size, palette-mode)
// combination must yield a verified coloring, respect the model's space
// limits, and keep round counts in the constant-in-n regime of Theorem 1.1.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/color_reduce.hpp"
#include "graph/generators.hpp"

namespace detcol {
namespace {

enum class Family { kGnp, kRegular, kPowerLaw, kGrid, kPlanted };
enum class PaletteMode { kDeltaPlusOne, kLists, kDegPlusOne };

std::string family_name(Family f) {
  switch (f) {
    case Family::kGnp: return "gnp";
    case Family::kRegular: return "regular";
    case Family::kPowerLaw: return "powerlaw";
    case Family::kGrid: return "grid";
    case Family::kPlanted: return "planted";
  }
  return "?";
}

std::string palette_name(PaletteMode p) {
  switch (p) {
    case PaletteMode::kDeltaPlusOne: return "delta1";
    case PaletteMode::kLists: return "lists";
    case PaletteMode::kDegPlusOne: return "deg1";
  }
  return "?";
}

Graph make_graph(Family f, NodeId n, std::uint64_t seed) {
  switch (f) {
    case Family::kGnp:
      return gen_gnp(n, 12.0 / n, seed);
    case Family::kRegular:
      return gen_random_regular(n, 12, seed);
    case Family::kPowerLaw:
      return gen_power_law(n, 2.5, 8.0, seed);
    case Family::kGrid: {
      const NodeId side = static_cast<NodeId>(std::sqrt(double(n)));
      return gen_grid(side, side);
    }
    case Family::kPlanted:
      return gen_planted_kcolorable(n, 6, 24.0 / n, seed);
  }
  return Graph();
}

PaletteSet make_palettes(PaletteMode p, const Graph& g, std::uint64_t seed) {
  switch (p) {
    case PaletteMode::kDeltaPlusOne:
      return PaletteSet::delta_plus_one(g);
    case PaletteMode::kLists:
      return PaletteSet::random_lists(g, 1u << 20, seed);
    case PaletteMode::kDegPlusOne:
      return PaletteSet::deg_plus_one_lists(g, 1u << 20, seed);
  }
  return PaletteSet();
}

using Param = std::tuple<Family, NodeId, PaletteMode>;

class ColorReduceProperty : public ::testing::TestWithParam<Param> {};

TEST_P(ColorReduceProperty, ProducesVerifiedColoringWithinModelLimits) {
  const auto [family, n, pmode] = GetParam();
  const Graph g = make_graph(family, n, 1000 + n);
  const PaletteSet pal = make_palettes(pmode, g, 77);
  ColorReduceConfig cfg;
  cfg.part.collect_factor = 2.0;  // force recursion on most sizes
  const auto r = color_reduce(g, pal, cfg);
  const auto v = verify_coloring(g, pal, r.coloring);
  ASSERT_TRUE(v.ok) << family_name(family) << "/" << palette_name(pmode)
                    << " n=" << n << ": " << v.issue;
  // Space: collected instances always fit a machine.
  EXPECT_LE(r.mpc.peak_local_words,
            static_cast<std::uint64_t>(cfg.collect_slack * g.num_nodes()));
  // Depth safety: the paper proves <= 9 at asymptotic scale; practical runs
  // must stay within the same ballpark, far below the hard cap.
  EXPECT_LE(r.max_depth_reached, 16u);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const Family f = std::get<0>(info.param);
  const NodeId n = std::get<1>(info.param);
  const PaletteMode p = std::get<2>(info.param);
  return family_name(f) + "_" + std::to_string(n) + "_" + palette_name(p);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ColorReduceProperty,
    ::testing::Combine(
        ::testing::Values(Family::kGnp, Family::kRegular, Family::kPowerLaw,
                          Family::kGrid, Family::kPlanted),
        ::testing::Values(NodeId{256}, NodeId{1024}, NodeId{4096}),
        ::testing::Values(PaletteMode::kDeltaPlusOne, PaletteMode::kLists,
                          PaletteMode::kDegPlusOne)),
    param_name);

// Round charge of a full recursion tree of the given depth with b = 2 bins,
// every partition having a non-empty G0. A partition costs 138 rounds: seed
// selection 130 (64 chunks x 2-round aggregate, plus a 2-round broadcast),
// partition route 2, last-bin palette update 2, G0 collect 2 and announce 2.
// Its color bin runs before its last bin, so R(d) = 138 + 2 R(d-1), and a
// leaf's collect and announce give R(0) = 4. No term depends on n once
// n >= 2^chunk_bits = 256.
std::uint64_t full_tree_rounds(unsigned depth) {
  return 142 * (std::uint64_t{1} << depth) - 138;
}

// Lemma 3.9 / Corollary 3.10 at every partition and Lemmas 3.11-3.13 at
// every call of the tree.
void expect_calls_within_paper_bounds(const CallStats& s, double n,
                                      double delta0, double g0_budget) {
  SCOPED_TRACE("depth " + std::to_string(s.depth));
  EXPECT_LE(s.ell, lemma_311_ell_upper(delta0, s.depth));
  EXPECT_LE(static_cast<double>(s.n),
            lemma_312_nodes_upper(n, delta0, s.depth));
  EXPECT_LE(static_cast<double>(s.max_deg),
            lemma_313_degree_upper(delta0, s.depth));
  if (!s.collected && s.n > 0) {
    EXPECT_EQ(s.bad_bins, 0u);
    EXPECT_TRUE(s.seed_met_threshold);
    EXPECT_LE(s.g0_words, static_cast<std::uint64_t>(g0_budget * n));
  }
  for (const auto& c : s.children) {
    expect_calls_within_paper_bounds(c, n, delta0, g0_budget);
  }
}

// Theorem 1.1 on a (Delta, n) grid of random regular graphs with (Delta+1)
// palettes: the recursion depth is a function of Delta alone, and the rounds
// stay within the full tree's charge at that depth. They equal it where the
// tree is full and every G0 non-empty. At Delta = 32 some small-n G0s are
// empty, and at Delta = 64 some branches are collected before depth 4 until
// n reaches 32768.
struct DegreeCase {
  NodeId delta;
  unsigned depth;
  bool fills_tree;
};

std::vector<DegreeCase> degrees_at(NodeId n) {
  if (n > 8192) return {{16, 2, true}};
  std::vector<DegreeCase> cases = {
      {8, 1, true}, {16, 2, true}, {32, 3, false}, {64, 4, false}};
  if (n == 4096) cases.push_back({128, 4, true});
  return cases;
}

class RoundConstancy : public ::testing::TestWithParam<NodeId> {};

TEST_P(RoundConstancy, RoundsDoNotGrowWithN) {
  const NodeId n = GetParam();
  for (const auto [delta, depth, fills_tree] : degrees_at(n)) {
    SCOPED_TRACE("Delta=" + std::to_string(delta));
    const Graph g = gen_random_regular(n, delta, 5);
    const PaletteSet pal = PaletteSet::delta_plus_one(g);
    ColorReduceConfig cfg;
    cfg.part.collect_factor = 2.0;
    const auto r = color_reduce(g, pal, cfg);
    ASSERT_TRUE(verify_coloring(g, pal, r.coloring).ok);
    EXPECT_EQ(r.max_depth_reached, depth);
    EXPECT_LE(r.max_depth_reached, 9u);  // Lemma 3.14
    // b = 2 bins: the recursion is a binary tree.
    EXPECT_LE(r.num_partitions,
              (std::uint64_t{1} << r.max_depth_reached) - 1);
    EXPECT_LE(r.ledger.total_rounds(), full_tree_rounds(r.max_depth_reached));
    if (fills_tree) {
      EXPECT_EQ(r.ledger.total_rounds(), full_tree_rounds(depth));
    }
    expect_calls_within_paper_bounds(r.root, n, g.max_degree(),
                                     cfg.part.g0_budget);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoundConstancy,
                         ::testing::Values(NodeId{512}, NodeId{1024},
                                           NodeId{2048}, NodeId{4096},
                                           NodeId{8192}, NodeId{16384}));

// Every seed-selection strategy must drive the full pipeline to a verified
// coloring with the same charged round schedule (the strategies differ only
// in host-side search effort, never in model cost or correctness).
using StratParam = std::tuple<SeedStrategy, Family>;

class StrategySweep : public ::testing::TestWithParam<StratParam> {};

TEST_P(StrategySweep, AllStrategiesColorAllFamilies) {
  const auto [strategy, family] = GetParam();
  const Graph g = make_graph(family, 512, 99);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  ColorReduceConfig cfg;
  cfg.part.collect_factor = 2.0;
  cfg.part.seed.strategy = strategy;
  cfg.part.seed.chunk_bits = 6;
  cfg.part.seed.mce_samples = 2;
  const auto r = color_reduce(g, pal, cfg);
  const auto v = verify_coloring(g, pal, r.coloring);
  ASSERT_TRUE(v.ok) << family_name(family) << ": " << v.issue;

  // The per-partition model schedule depends only on seed length and
  // chunking, not the search strategy; different strategies may pick
  // different (equally valid) seeds and thus slightly different recursion
  // shapes, so totals agree within a tight envelope rather than exactly.
  ColorReduceConfig base = cfg;
  base.part.seed.strategy = SeedStrategy::kThresholdScan;
  const auto rb = color_reduce(g, pal, base);
  const double a = static_cast<double>(r.ledger.total_rounds());
  const double b = static_cast<double>(rb.ledger.total_rounds());
  EXPECT_NEAR(a, b, 0.15 * std::max(a, b));
}

std::string strat_name(const ::testing::TestParamInfo<StratParam>& info) {
  const auto s = std::get<0>(info.param);
  const std::string base =
      s == SeedStrategy::kThresholdScan ? "scan" : "mcesampled";
  return base + "_" + family_name(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StrategySweep,
    ::testing::Combine(::testing::Values(SeedStrategy::kThresholdScan,
                                         SeedStrategy::kMceSampled),
                       ::testing::Values(Family::kGnp, Family::kRegular,
                                         Family::kPowerLaw)),
    strat_name);

}  // namespace
}  // namespace detcol
