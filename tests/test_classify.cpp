#include <gtest/gtest.h>

#include <numeric>

#include "core/classify.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

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

/// Constant hash: degree-0 polynomial, so all inputs map to the same value.
KWiseHash constant_hash(std::uint64_t value_word, std::uint64_t range) {
  std::vector<std::uint64_t> coeffs = {value_word};
  return KWiseHash(coeffs, range);
}

TEST(Classify, BinAssignmentFollowsH1) {
  const Graph g = gen_gnp(64, 0.2, 1);
  const Instance inst = make_instance(g, 16.0);
  const PaletteSet pal = PaletteSet::uniform(64, 20);
  PartitionParams params;
  const std::uint64_t b = num_bins(inst.ell, params);
  const auto h1 = KWiseHash::from_u64_seed(3, 4, b);
  const auto h2 = KWiseHash::from_u64_seed(4, 4, b - 1);
  const auto cls = classify(inst, pal, h1, h2, 64, params);
  EXPECT_EQ(cls.num_bins, b);
  for (NodeId v = 0; v < 64; ++v) {
    if (cls.bin_of[v] != 0) {
      EXPECT_EQ(cls.bin_of[v], h1(v) + 1);
    }
  }
}

TEST(Classify, DegreesInBinComputedCorrectly) {
  // Triangle 0-1-2 plus isolated 3. Constant h1 puts everyone in one bin.
  const Graph g =
      Graph::from_edges(4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
  const Instance inst = make_instance(g, 16.0);
  const PaletteSet pal = PaletteSet::uniform(4, 20);
  PartitionParams params;
  const std::uint64_t b = num_bins(inst.ell, params);
  const auto h1 = constant_hash(0, b);  // everyone in bin h(x)=0 -> bin 1
  const auto h2 = KWiseHash::from_u64_seed(4, 4, b - 1);
  const auto cls = classify(inst, pal, h1, h2, 4, params);
  EXPECT_EQ(cls.deg_in_bin[0], 2u);
  EXPECT_EQ(cls.deg_in_bin[1], 2u);
  EXPECT_EQ(cls.deg_in_bin[3], 0u);
}

TEST(Classify, PalettesInBinCountH2Share) {
  // Single node, palette {0..9}; count colors landing in its bin.
  const Graph g = Graph::from_edges(1, std::vector<Edge>{});
  const Instance inst = make_instance(g, 16.0);
  const PaletteSet pal = PaletteSet::uniform(1, 10);
  PartitionParams params;
  const std::uint64_t b = num_bins(inst.ell, params);  // 2 at ell=16
  ASSERT_EQ(b, 2u);
  const auto h1 = constant_hash(0, b);                 // node in bin 1
  const auto h2 = KWiseHash::from_u64_seed(9, 4, b - 1);  // range 1: all bin 1
  const auto cls = classify(inst, pal, h1, h2, 1, params);
  // All 10 colors land in color bin 1, the node's bin.
  EXPECT_EQ(cls.pal_in_bin[0], 10u);
}

TEST(Classify, LastBinGetsNoPaletteCount) {
  const Graph g = Graph::from_edges(1, std::vector<Edge>{});
  const Instance inst = make_instance(g, 16.0);
  const PaletteSet pal = PaletteSet::uniform(1, 10);
  PartitionParams params;
  const std::uint64_t b = num_bins(inst.ell, params);
  // Put node in the last bin: h1 constant with field value mapping to b-1.
  // Field value v maps to bucket (v * b) >> 61; choose v just below p.
  const auto h1 = constant_hash((std::uint64_t{1} << 61) - 2, b);
  ASSERT_EQ(h1(0), b - 1);  // last bucket, bin index b
  const auto h2 = KWiseHash::from_u64_seed(9, 4, b - 1);
  const auto cls = classify(inst, pal, h1, h2, 1, params);
  EXPECT_EQ(cls.pal_in_bin[0], 0u);
  // Isolated node in last bin: degree condition trivially met -> good.
  EXPECT_EQ(cls.bin_of[0], b);
}

TEST(Classify, BadBinDetectedWhenEverythingCollides) {
  // 600 isolated nodes with ell = 1e10 -> b = 10 bins; a constant h1 dumps
  // everyone into one bin, far beyond the 2*n_G/b + n^0.6 ~ 136 capacity.
  const NodeId n = 600;
  const Graph g = Graph::from_edges(n, std::vector<Edge>{});
  const Instance inst = make_instance(g, 1e10);
  const PaletteSet pal = PaletteSet::uniform(n, 20);
  PartitionParams params;
  const std::uint64_t b = num_bins(inst.ell, params);
  ASSERT_EQ(b, 10u);
  // Dump everyone into the *last* bin (no palette condition there, and the
  // degree condition is trivial on isolated nodes): all 600 nodes are good,
  // crowding the bin far beyond its 2*n_G/b + n^0.6 ~ 136 capacity.
  const auto h1 = constant_hash((std::uint64_t{1} << 61) - 2, b);
  ASSERT_EQ(h1(0), b - 1);
  const auto h2 = KWiseHash::from_u64_seed(4, 4, b - 1);
  const auto cls = classify(inst, pal, h1, h2, n, params);
  EXPECT_EQ(cls.num_bad_nodes, 0u);
  EXPECT_GE(cls.num_bad_bins, 1u);
  EXPECT_GE(cls.cost_q, static_cast<double>(n));  // n * bad_bins dominates
}

TEST(Classify, CostAccounting) {
  const Graph g = gen_gnp(128, 0.15, 2);
  const Instance inst = make_instance(g, static_cast<double>(g.max_degree()));
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  PartitionParams params;
  const std::uint64_t b = num_bins(inst.ell, params);
  const auto h1 = KWiseHash::from_u64_seed(5, 4, b);
  const auto h2 = KWiseHash::from_u64_seed(6, 4, b - 1);
  const auto cls = classify(inst, pal, h1, h2, 128, params);
  // cost_q = bad + n*bad_bins exactly.
  EXPECT_DOUBLE_EQ(cls.cost_q,
                   static_cast<double>(cls.num_bad_nodes) +
                       128.0 * static_cast<double>(cls.num_bad_bins));
  // bad_graph_words counts 1+deg per bad node.
  std::uint64_t words = 0;
  for (NodeId v = 0; v < 128; ++v) {
    if (cls.bin_of[v] == 0) words += 1 + g.degree(v);
  }
  EXPECT_EQ(cls.bad_graph_words, words);
  // Bin sizes partition the good nodes.
  std::uint64_t good = 0;
  for (const auto s : cls.bin_sizes) good += s;
  EXPECT_EQ(good + cls.num_bad_nodes, 128u);
}

TEST(Classify, RangeMismatchRejected) {
  const Graph g = gen_ring(8);
  const Instance inst = make_instance(g, 16.0);
  const PaletteSet pal = PaletteSet::uniform(8, 20);
  PartitionParams params;
  const auto h1 = KWiseHash::from_u64_seed(1, 4, 99);  // wrong range
  const auto h2 = KWiseHash::from_u64_seed(2, 4, 1);
  EXPECT_THROW(classify(inst, pal, h1, h2, 8, params), CheckError);
}

TEST(Params, NumBinsAndNextEll) {
  PartitionParams params;
  EXPECT_EQ(num_bins(16.0, params), 2u);          // 16^0.1 < 2 -> floor
  EXPECT_EQ(num_bins(1e10, params), 10u);         // (1e10)^0.1 = 10
  EXPECT_GT(next_ell(1000.0), 2.0);
  EXPECT_LT(next_ell(1000.0), 1000.0);
  EXPECT_DOUBLE_EQ(next_ell(2.0), 2.0);   // floor at 2
}

TEST(Params, TrajectoryBoundFormulas) {
  // Lemma 3.11 bounds bracket the nominal ell trajectory.
  const double delta0 = 1e6;
  for (unsigned i = 0; i < 9; ++i) {
    EXPECT_LT(lemma_311_ell_lower(delta0, i), lemma_311_ell_upper(delta0, i));
  }
  // Lemma 3.14's consequence: at depth 9 the size bound is O(n).
  const double n = 1e9;
  const double size9 = lemma_312_nodes_upper(n, delta0, 9) *
                       lemma_313_degree_upper(delta0, 9);
  // 6^9 * (n * Delta^{0.9^9-1} + n^0.6) * Delta^{0.9^9} stays near-linear:
  EXPECT_LT(size9 / n, 1e9);  // far below n*Delta = 1e15
}

}  // namespace
}  // namespace detcol
