#include <gtest/gtest.h>

#include "core/color_reduce.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

void expect_valid(const Graph& g, const PaletteSet& pal,
                  const ColorReduceResult& r) {
  const auto v = verify_coloring(g, pal, r.coloring);
  EXPECT_TRUE(v.ok) << v.issue;
}

TEST(ColorReduce, DeltaPlusOneOnGnp) {
  const Graph g = gen_gnp(2000, 0.02, 17);  // Delta ~ 40+
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = color_reduce(g, pal);
  expect_valid(g, pal, r);
  EXPECT_GT(r.ledger.total_rounds(), 0u);
  EXPECT_GE(r.mpc.num_collects, 1u);
}

TEST(ColorReduce, ListColoringOnRegular) {
  const Graph g = gen_random_regular(1500, 24, 29);
  const PaletteSet pal = PaletteSet::random_lists(g, 1u << 20, 5);
  const auto r = color_reduce(g, pal);
  expect_valid(g, pal, r);
}

TEST(ColorReduce, DegPlusOneLists) {
  const Graph g = gen_power_law(1500, 2.5, 8.0, 31);
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 20, 7);
  const auto r = color_reduce(g, pal);
  expect_valid(g, pal, r);
}

TEST(ColorReduce, TinyInstanceIsCollectedDirectly) {
  const Graph g = gen_ring(16);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = color_reduce(g, pal);
  expect_valid(g, pal, r);
  EXPECT_EQ(r.num_partitions, 0u);
  EXPECT_EQ(r.mpc.num_collects, 1u);
  EXPECT_TRUE(r.root.collected);
}

TEST(ColorReduce, DenseGraphForcesRecursion) {
  ColorReduceConfig cfg;
  cfg.part.collect_factor = 2.0;
  const Graph g = gen_gnp(800, 0.1, 23);  // Delta ~ 80, words ~ 52k >> 2n
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = color_reduce(g, pal, cfg);
  expect_valid(g, pal, r);
  EXPECT_GE(r.num_partitions, 1u);
  EXPECT_GE(r.max_depth_reached, 1u);
  EXPECT_EQ(r.root.num_bins, 2u);  // Delta^0.1 < 2 at this scale
}

TEST(ColorReduce, Deterministic) {
  const Graph g = gen_gnp(600, 0.05, 41);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto a = color_reduce(g, pal);
  const auto b = color_reduce(g, pal);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.ledger.total_rounds(), b.ledger.total_rounds());
}

TEST(ColorReduce, SaltChangesColoringNotValidity) {
  const Graph g = gen_gnp(600, 0.05, 43);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  ColorReduceConfig cfg;
  cfg.part.collect_factor = 2.0;
  const auto a = color_reduce(g, pal, cfg);
  cfg.salt = 999;
  const auto b = color_reduce(g, pal, cfg);
  expect_valid(g, pal, a);
  expect_valid(g, pal, b);
}

TEST(ColorReduce, StatsTreeMirrorsRecursion) {
  ColorReduceConfig cfg;
  cfg.part.collect_factor = 2.0;
  const Graph g = gen_random_regular(1000, 48, 3);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = color_reduce(g, pal, cfg);
  expect_valid(g, pal, r);
  ASSERT_FALSE(r.root.collected);
  // Children: b-1 color bins + last bin.
  EXPECT_EQ(r.root.children.size(), r.root.num_bins);
  // Bad-node subgraph within budget at every recorded partition.
  std::vector<const CallStats*> stack = {&r.root};
  while (!stack.empty()) {
    const CallStats* s = stack.back();
    stack.pop_back();
    if (!s->collected && s->n > 0) {
      EXPECT_LE(s->g0_words,
                static_cast<std::uint64_t>(cfg.part.g0_budget * 1000))
          << "depth " << s->depth;
    }
    for (const auto& c : s->children) stack.push_back(&c);
  }
}

TEST(ColorReduce, CollectCapacityRespected) {
  const Graph g = gen_gnp(1200, 0.03, 47);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  ColorReduceConfig cfg;
  const auto r = color_reduce(g, pal, cfg);
  expect_valid(g, pal, r);
  EXPECT_LE(r.mpc.peak_local_words,
            static_cast<std::uint64_t>(cfg.collect_slack * 1200));
}

TEST(ColorReduce, RejectsDeficientPalettes) {
  const Graph g = gen_complete(10);
  const PaletteSet pal = PaletteSet::uniform(10, 5);
  EXPECT_THROW(color_reduce(g, pal), CheckError);
}

TEST(ColorReduce, MirrorImplicitMatchesExplicit) {
  // Theorems 1.2 and 1.3: explicit palettes take n(Delta+1) words, the
  // implicit representation O(m+n) with a ratio that does not drift with n,
  // and every collect fits one machine.
  const auto implicit_ratio = [](const Graph& g) {
    const PaletteSet pal = PaletteSet::delta_plus_one(g);
    ColorReduceConfig cfg;
    cfg.mirror_implicit = true;
    cfg.part.collect_factor = 2.0;
    const auto r = color_reduce(g, pal, cfg);
    expect_valid(g, pal, r);
    EXPECT_NE(r.implicit_store, nullptr);
    if (r.implicit_store == nullptr) return 0.0;
    const std::uint64_t n = g.num_nodes();
    const std::uint64_t m_plus_n = g.num_edges() + n;
    EXPECT_EQ(r.explicit_palette_words, n * (g.max_degree() + 1));
    EXPECT_LE(r.implicit_store->space_words(), m_plus_n);
    EXPECT_LE(r.mpc.peak_local_words,
              static_cast<std::uint64_t>(cfg.collect_slack * n));
    return static_cast<double>(r.implicit_store->space_words()) /
           static_cast<double>(m_plus_n);
  };
  implicit_ratio(gen_gnp(500, 0.08, 53));
  for (const NodeId delta : {32u, 64u}) {
    SCOPED_TRACE("Delta=" + std::to_string(delta));
    const double small = implicit_ratio(gen_random_regular(1000, delta, 5));
    const double large = implicit_ratio(gen_random_regular(4000, delta, 5));
    EXPECT_NEAR(small, large, 0.05);
  }
}

TEST(ColorReduce, MirrorImplicitRequiresUniformPalettes) {
  const Graph g = gen_gnp(200, 0.05, 59);
  const PaletteSet pal = PaletteSet::random_lists(g, 1u << 16, 3);
  ColorReduceConfig cfg;
  cfg.mirror_implicit = true;
  EXPECT_THROW(color_reduce(g, pal, cfg), CheckError);
}

TEST(ColorReduce, McESampledStrategyEndToEnd) {
  ColorReduceConfig cfg;
  cfg.part.seed.strategy = SeedStrategy::kMceSampled;
  cfg.part.seed.chunk_bits = 6;
  cfg.part.seed.mce_samples = 2;
  cfg.part.collect_factor = 2.0;
  const Graph g = gen_gnp(400, 0.08, 61);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = color_reduce(g, pal, cfg);
  expect_valid(g, pal, r);
}

TEST(ColorReduce, EmptyAndSingletonGraphs) {
  {
    const Graph g = Graph::from_edges(0, std::vector<Edge>{});
    const PaletteSet pal = PaletteSet::uniform(0, 1);
    const auto r = color_reduce(g, pal);
    EXPECT_TRUE(r.coloring.complete());
  }
  {
    const Graph g = Graph::from_edges(1, std::vector<Edge>{});
    const PaletteSet pal = PaletteSet::uniform(1, 1);
    const auto r = color_reduce(g, pal);
    expect_valid(g, pal, r);
  }
}

TEST(ColorReduce, DisconnectedComponents) {
  // Two cliques and isolated nodes.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) edges.emplace_back(u, v);
  }
  for (NodeId u = 10; u < 18; ++u) {
    for (NodeId v = u + 1; v < 18; ++v) edges.emplace_back(u, v);
  }
  const Graph g = Graph::from_edges(25, edges);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = color_reduce(g, pal);
  expect_valid(g, pal, r);
}

TEST(ColorReduce, RoundsComposeParallelNotSum) {
  // With recursion forced, the ledger's rounds must be far below the sum of
  // all per-call charges (children share rounds): compare against a naive
  // upper bound of partitions * (full seed schedule + routing).
  ColorReduceConfig cfg;
  cfg.part.collect_factor = 2.0;
  const Graph g = gen_random_regular(1200, 40, 67);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto r = color_reduce(g, pal, cfg);
  expect_valid(g, pal, r);
  ASSERT_GE(r.num_partitions, 2u);
  const std::uint64_t per_partition_cost = 200;  // generous per-call bound
  EXPECT_LT(r.ledger.total_rounds(), r.num_partitions * per_partition_cost);
}

}  // namespace
}  // namespace detcol
