#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "exec/exec.hpp"
#include "graph/generators.hpp"
#include "lowspace/reduction.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

TEST(Reduction, SingleEdgeSharedColor) {
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  const std::vector<std::vector<Color>> pals = {{1, 2}, {2, 3}};
  const ReductionGraph r = build_reduction(g, pals);
  EXPECT_EQ(r.num_vertices, 4u);
  EXPECT_EQ(r.num_conflict_edges, 1u);  // only color 2 is shared
  // Vertex (0, color 2) is id base[0]+1; (1, color 2) is base[1]+0.
  EXPECT_EQ(r.base[0], 0u);
  EXPECT_EQ(r.base[1], 2u);
  ASSERT_EQ(r.conflicts(1).size(), 1u);
  EXPECT_EQ(r.conflicts(1)[0], 2u);
  ASSERT_EQ(r.conflicts(2).size(), 1u);
  EXPECT_EQ(r.conflicts(2)[0], 1u);
}

TEST(Reduction, NoSharedColorsNoEdges) {
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  const std::vector<std::vector<Color>> pals = {{1, 2}, {3, 4}};
  const ReductionGraph r = build_reduction(g, pals);
  EXPECT_EQ(r.num_conflict_edges, 0u);
}

TEST(Reduction, TruncatesToDegPlusOne) {
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  // Node 0 has degree 1 but palette of size 5: truncated to 2.
  const std::vector<std::vector<Color>> pals = {{1, 2, 3, 4, 5}, {1, 2}};
  const ReductionGraph r = build_reduction(g, pals);
  EXPECT_EQ(r.palettes[0].size(), 2u);
  EXPECT_EQ(r.num_vertices, 4u);
}

TEST(Reduction, NodeOfInverseOfBase) {
  const Graph g = gen_ring(5);
  std::vector<std::vector<Color>> pals(5, std::vector<Color>{0, 1, 2});
  const ReductionGraph r = build_reduction(g, pals);
  EXPECT_EQ(r.num_vertices, 15u);
  for (std::uint64_t x = 0; x < r.num_vertices; ++x) {
    const NodeId v = r.node_of(x);
    EXPECT_GE(x, r.base[v]);
    EXPECT_LT(x - r.base[v], r.palettes[v].size());
  }
}

TEST(Reduction, ConflictCountMatchesPalette_Intersections) {
  const Graph g = gen_complete(4);
  std::vector<std::vector<Color>> pals(4, std::vector<Color>{0, 1, 2, 3});
  const ReductionGraph r = build_reduction(g, pals);
  // Every edge shares all 4 colors: 6 edges * 4 = 24 conflicts.
  EXPECT_EQ(r.num_conflict_edges, 24u);
  EXPECT_EQ(r.size_words(), 16u + 48u);
}

TEST(Reduction, NodeOfRejectsOutOfRange) {
  const Graph g = gen_ring(5);
  std::vector<std::vector<Color>> pals(5, std::vector<Color>{0, 1, 2});
  const ReductionGraph r = build_reduction(g, pals);
  EXPECT_EQ(r.node_of(r.num_vertices - 1), 4u);
  EXPECT_THROW(r.node_of(r.num_vertices), CheckError);
  EXPECT_THROW(r.node_of(~std::uint64_t{0}), CheckError);
  EXPECT_THROW(ReductionGraph{}.node_of(0), CheckError);
}

TEST(Reduction, RejectsUnsortedPalettes) {
  const Graph g = Graph::from_edges(1, std::vector<Edge>{});
  const std::vector<std::vector<Color>> pals = {{3, 1}};
  EXPECT_THROW(build_reduction(g, pals), CheckError);
}

TEST(Reduction, RejectsSizeMismatch) {
  const Graph g = gen_ring(3);
  const std::vector<std::vector<Color>> pals = {{0}, {1}};
  EXPECT_THROW(build_reduction(g, pals), CheckError);
}

// The nested-vector construction this flat layout replaced, kept as the
// reference: one conflict vector per vertex, filled by a serial merge over
// the edges.
struct ReferenceReduction {
  std::vector<std::vector<Color>> palettes;
  std::vector<std::uint64_t> base;  // n entries
  std::vector<std::vector<std::uint64_t>> conflicts;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_conflict_edges = 0;
};

ReferenceReduction reference_reduction(
    const Graph& g, const std::vector<std::vector<Color>>& palettes) {
  ReferenceReduction r;
  const NodeId n = g.num_nodes();
  r.palettes.resize(n);
  r.base.resize(n);
  std::uint64_t next = 0;
  for (NodeId v = 0; v < n; ++v) {
    r.palettes[v] = palettes[v];
    const std::size_t keep = static_cast<std::size_t>(g.degree(v)) + 1;
    if (r.palettes[v].size() > keep) r.palettes[v].resize(keep);
    r.base[v] = next;
    next += r.palettes[v].size();
  }
  r.num_vertices = next;
  r.conflicts.resize(next);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : g.neighbors(v)) {
      if (u <= v) continue;
      const auto& pv = r.palettes[v];
      const auto& pu = r.palettes[u];
      std::size_t i = 0, j = 0;
      while (i < pv.size() && j < pu.size()) {
        if (pv[i] < pu[j]) {
          ++i;
        } else if (pu[j] < pv[i]) {
          ++j;
        } else {
          const std::uint64_t a = r.base[v] + i;
          const std::uint64_t b = r.base[u] + j;
          r.conflicts[a].push_back(b);
          r.conflicts[b].push_back(a);
          ++r.num_conflict_edges;
          ++i;
          ++j;
        }
      }
    }
  }
  return r;
}

void expect_matches_reference(const ReductionGraph& r,
                              const ReferenceReduction& want,
                              const std::string& what) {
  ASSERT_EQ(r.num_vertices, want.num_vertices) << what;
  ASSERT_EQ(r.num_conflict_edges, want.num_conflict_edges) << what;
  const std::size_t n = want.base.size();
  ASSERT_EQ(r.num_nodes(), n) << what;
  ASSERT_EQ(r.base.size(), n + 1) << what;
  for (std::size_t v = 0; v < n; ++v) {
    ASSERT_EQ(r.base[v], want.base[v]) << what << " node " << v;
    ASSERT_TRUE(std::ranges::equal(r.palettes[v], want.palettes[v]))
        << what << " node " << v;
  }
  EXPECT_EQ(r.base[n], want.num_vertices) << what;
  ASSERT_EQ(r.conflict_off.size(), want.num_vertices + 1) << what;
  ASSERT_EQ(r.conflict_adj.size(), 2 * want.num_conflict_edges) << what;
  for (std::uint64_t x = 0; x < want.num_vertices; ++x) {
    // The reference's set, in the ascending order reduction.hpp promises.
    const std::vector<std::uint64_t> got(r.conflicts(x).begin(),
                                         r.conflicts(x).end());
    std::vector<std::uint64_t> expected = want.conflicts[x];
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got, expected) << what << " vertex " << x;
  }
}

// n = 2^13 is four node shards at the default grain, so the sharded passes
// split for real; every thread count must give the reference's reduction.
TEST(Reduction, FlatBuildMatchesNestedReference) {
  const Graph g = gen_gnp(1u << 13, 12.0 / 8191, 23);
  std::vector<NodeId> identity(g.num_nodes());
  std::iota(identity.begin(), identity.end(), NodeId{0});
  // Subinstance: every third node, palettes read through the orig map from
  // the whole graph's (deg+1)-lists, so most are truncated.
  std::vector<NodeId> every_third;
  for (NodeId v = 0; v < g.num_nodes(); v += 3) every_third.push_back(v);
  const Graph sub = induced_subgraph(g, every_third);

  struct Case {
    const char* name;
    const Graph& graph;
    std::vector<NodeId> orig;
    PaletteSet pal;
  };
  const Case cases[] = {
      {"delta1", g, identity, PaletteSet::delta_plus_one(g)},
      {"deg1", g, identity, PaletteSet::deg_plus_one_lists(g, 1u << 8, 3)},
      {"random_lists", g, identity, PaletteSet::random_lists(g, 1u << 10, 4)},
      {"deg1-subinstance", sub, every_third,
       PaletteSet::deg_plus_one_lists(g, 1u << 8, 5)},
  };
  for (const Case& cs : cases) {
    std::vector<std::vector<Color>> rows(cs.orig.size());
    for (std::size_t v = 0; v < cs.orig.size(); ++v) {
      const auto p = cs.pal.palette(cs.orig[v]);
      rows[v].assign(p.begin(), p.end());
    }
    const ReferenceReduction want = reference_reduction(cs.graph, rows);
    ASSERT_GT(want.num_conflict_edges, 0u) << cs.name;
    expect_matches_reference(build_reduction(cs.graph, cs.orig, cs.pal),
                             want, std::string(cs.name) + " sequential");
    expect_matches_reference(build_reduction(cs.graph, rows), want,
                             std::string(cs.name) + " vectors");
    for (const unsigned t : {1u, 2u, 4u, 7u}) {
      ThreadPool pool(t);
      expect_matches_reference(
          build_reduction(cs.graph, cs.orig, cs.pal, ExecContext(pool)), want,
          std::string(cs.name) + " @ " + std::to_string(t) + " threads");
    }
  }
}

}  // namespace
}  // namespace detcol
