#include <gtest/gtest.h>

#include "core/network_color.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

TEST(NetworkColor, ColorsRing) {
  const Graph g = gen_ring(64);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  PartitionParams params;
  const auto r = network_color_round(g, pal, params);
  const auto v = verify_coloring(g, pal, r.coloring);
  EXPECT_TRUE(v.ok) << v.issue;
}

TEST(NetworkColor, ColorsGnpWithRealMessages) {
  const Graph g = gen_gnp(96, 0.08, 3);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  PartitionParams params;
  const auto r = network_color_round(g, pal, params);
  const auto v = verify_coloring(g, pal, r.coloring);
  ASSERT_TRUE(v.ok) << v.issue;
  EXPECT_GT(r.words_sent, 0u);
  EXPECT_GT(r.network_rounds, r.mce_rounds);
}

TEST(NetworkColor, MceRoundsMatchSchedule) {
  // The seed agreement of a message-level ColorReduce level takes the same
  // 256 network rounds at every n. The routed collects after it do not take
  // O(1) rounds: the two-phase router is not Lenzen's (sim/routing.hpp).
  for (const NodeId n : {64u, 80u, 128u, 256u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Graph g = gen_random_regular(n, 8, 5);
    const PaletteSet pal = PaletteSet::delta_plus_one(g);
    PartitionParams params;  // c = 4 -> 512 seed bits
    const auto r = network_color_round(g, pal, params, /*chunk_bits=*/4);
    // 512 bits / 4 per chunk = 128 chunks, exactly 2 network rounds each.
    EXPECT_EQ(r.mce_rounds, 256u);
    EXPECT_EQ(r.cls.num_bad_bins, 0u);
    EXPECT_TRUE(verify_coloring(g, pal, r.coloring).ok);
    // Routing and coloring: the two-phase router's second phase lasts as
    // long as the most packets one intermediary holds for one destination.
    // The remainder is 26-29 rounds at these n and grows with n: 32 and 37
    // at n = 512 (seeds 5 and 7), 36 and 37 at n = 1024.
    EXPECT_LE(r.network_rounds - r.mce_rounds, 40u);
  }
}

TEST(NetworkColor, ListColoring) {
  const Graph g = gen_random_regular(100, 10, 7);
  const PaletteSet pal = PaletteSet::random_lists(g, 1u << 16, 9);
  PartitionParams params;
  const auto r = network_color_round(g, pal, params);
  EXPECT_TRUE(verify_coloring(g, pal, r.coloring).ok);
}

TEST(NetworkColor, PartitionQualityMatchesLemma39) {
  const Graph g = gen_gnp(128, 0.1, 11);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  PartitionParams params;
  const auto r = network_color_round(g, pal, params);
  EXPECT_TRUE(verify_coloring(g, pal, r.coloring).ok);
  EXPECT_EQ(r.cls.num_bad_bins, 0u);
  // Bad-node subgraph within the O(n) budget of Corollary 3.10.
  EXPECT_LE(r.cls.bad_graph_words, 16ull * g.num_nodes());
}

TEST(NetworkColor, Deterministic) {
  const Graph g = gen_gnp(72, 0.1, 13);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  PartitionParams params;
  const auto a = network_color_round(g, pal, params);
  const auto b = network_color_round(g, pal, params);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.network_rounds, b.network_rounds);
  EXPECT_EQ(a.words_sent, b.words_sent);
}

TEST(NetworkColor, RejectsDeficientPalettes) {
  const Graph g = gen_complete(8);
  const PaletteSet pal = PaletteSet::uniform(8, 4);
  PartitionParams params;
  EXPECT_THROW(network_color_round(g, pal, params), CheckError);
}

TEST(NetworkColor, RoundsIndependentOfWhichGraph) {
  // The MCE schedule depends only on seed length and chunk size; total
  // rounds vary only with routing load, staying within a small envelope.
  PartitionParams params;
  const Graph g1 = gen_random_regular(64, 6, 1);
  const Graph g2 = gen_random_regular(128, 6, 2);
  const auto r1 =
      network_color_round(g1, PaletteSet::delta_plus_one(g1), params);
  const auto r2 =
      network_color_round(g2, PaletteSet::delta_plus_one(g2), params);
  EXPECT_TRUE(verify_coloring(g1, PaletteSet::delta_plus_one(g1),
                              r1.coloring).ok);
  EXPECT_TRUE(verify_coloring(g2, PaletteSet::delta_plus_one(g2),
                              r2.coloring).ok);
  EXPECT_EQ(r1.mce_rounds, r2.mce_rounds);
  // Doubling n must not double total message rounds.
  EXPECT_LT(r2.network_rounds, 2 * r1.network_rounds);
}

}  // namespace
}  // namespace detcol
