#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_set>

#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

TEST(Coloring, StateTracking) {
  Coloring c(3);
  EXPECT_EQ(c.num_colored(), 0u);
  EXPECT_FALSE(c.complete());
  c.color[1] = 7;
  EXPECT_TRUE(c.is_colored(1));
  EXPECT_FALSE(c.is_colored(0));
  EXPECT_EQ(c.num_colored(), 1u);
}

TEST(Verify, DetectsUncolored) {
  const Graph g = gen_ring(4);
  const PaletteSet p = PaletteSet::delta_plus_one(g);
  Coloring c(4);
  const auto r = verify_coloring(g, p, c);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.issue.find("uncolored"), std::string::npos);
}

TEST(Verify, DetectsMonochromaticEdge) {
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  const PaletteSet p = PaletteSet::uniform(2, 3);
  Coloring c(2);
  c.color[0] = 1;
  c.color[1] = 1;
  const auto r = verify_coloring(g, p, c);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.issue.find("monochromatic"), std::string::npos);
}

TEST(Verify, DetectsOutOfPalette) {
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  const PaletteSet p = PaletteSet::uniform(2, 3);
  Coloring c(2);
  c.color[0] = 0;
  c.color[1] = 7;  // outside [0,3)
  const auto r = verify_coloring(g, p, c);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.issue.find("palette"), std::string::npos);
}

TEST(Verify, AcceptsProperColoring) {
  const Graph g = gen_ring(4);
  const PaletteSet p = PaletteSet::uniform(4, 2);
  Coloring c(4);
  c.color = {0, 1, 0, 1};
  EXPECT_TRUE(verify_coloring(g, p, c).ok);
}

TEST(Verify, PartialIgnoresUncolored) {
  const Graph g = gen_ring(4);
  Coloring c(4);
  c.color[0] = 5;
  EXPECT_TRUE(verify_proper_partial(g, c).ok);
  c.color[1] = 5;
  EXPECT_FALSE(verify_proper_partial(g, c).ok);
}

TEST(Greedy, ColorsWholeGraphWhenPalettesSuffice) {
  const Graph g = gen_gnp(200, 0.05, 3);
  const PaletteSet p = PaletteSet::delta_plus_one(g);
  Coloring c(g.num_nodes());
  EXPECT_TRUE(greedy_color_all(g, p, c));
  EXPECT_TRUE(verify_coloring(g, p, c).ok);
}

TEST(Greedy, FailsGracefullyWithTinyPalettes) {
  const Graph g = gen_complete(4);
  const PaletteSet p = PaletteSet::uniform(4, 2);  // needs 4 colors
  Coloring c(4);
  std::vector<NodeId> order(4);
  std::iota(order.begin(), order.end(), 0);
  EXPECT_FALSE(greedy_color(g, p, order, c));
}

TEST(Greedy, RespectsPreexistingColors) {
  // Path 0-1-2; color node 1 first, then greedily extend.
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  const PaletteSet p = PaletteSet::uniform(3, 2);
  Coloring c(3);
  c.color[1] = 0;
  const std::vector<NodeId> order = {0, 2};
  EXPECT_TRUE(greedy_color(g, p, order, c));
  EXPECT_EQ(c.color[0], 1u);
  EXPECT_EQ(c.color[2], 1u);
  EXPECT_TRUE(verify_coloring(g, p, c).ok);
}

TEST(Greedy, RecoloringRejected) {
  const Graph g = gen_ring(3);
  const PaletteSet p = PaletteSet::uniform(3, 3);
  Coloring c(3);
  c.color[0] = 0;
  const std::vector<NodeId> order = {0};
  EXPECT_THROW(greedy_color(g, p, order, c), CheckError);
}

TEST(Greedy, ListPalettesRespected) {
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  std::vector<std::vector<Color>> lists = {{10, 20}, {10, 30}};
  const PaletteSet p{std::move(lists)};
  Coloring c(2);
  EXPECT_TRUE(greedy_color_all(g, p, c));
  EXPECT_TRUE(verify_coloring(g, p, c).ok);
  EXPECT_NE(c.color[0], c.color[1]);
}

TEST(Greedy, NeverAssignsUncoloredSentinel) {
  // A palette may hold 2^64-1, which is Coloring::kUncolored. Node 1's only
  // color left after node 0 takes 5 is that sentinel: it has no color, and
  // both schedulers say so instead of "coloring" it with the sentinel.
  constexpr Color kSentinel = Coloring::kUncolored;
  const Graph g = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  const PaletteSet p{std::vector<std::vector<Color>>{{5, 7}, {5, kSentinel}}};
  const std::vector<NodeId> order = {0, 1};
  const std::vector<NodeId> all = {0, 1};
  {
    Coloring c(2);
    EXPECT_FALSE(greedy_color(g, p, order, c));
    EXPECT_EQ(c.color[0], 5u);
    EXPECT_FALSE(c.is_colored(1));
  }
  {
    Coloring c(2);
    EXPECT_FALSE(greedy_color_all(g, p, c));
    EXPECT_FALSE(c.is_colored(1));
  }
  ThreadPool pool(2);
  for (const ExecContext exec : {ExecContext{}, ExecContext(pool)}) {
    Coloring c(2);
    EXPECT_FALSE(greedy_collect(g, p, g, all, c, exec));
    EXPECT_FALSE(c.is_colored(1));
  }
  // With one more color the sentinel is never reached.
  const PaletteSet q{
      std::vector<std::vector<Color>>{{5, 7}, {5, 9, kSentinel}}};
  Coloring c(2);
  EXPECT_TRUE(greedy_color(g, q, order, c));
  EXPECT_EQ(c.color[1], 9u);
  Coloring d(2);
  EXPECT_TRUE(greedy_collect(g, q, g, all, d));
  EXPECT_EQ(d.color, c.color);
}

// ---------------------------------------------------------------------------
// greedy_collect and greedy_color against the serial greedy as it stood
// before both shared one per-node step: a hash set of the colored
// neighbors' colors, then the first palette color outside it.
// ---------------------------------------------------------------------------

bool reference_greedy(const Graph& g, const PaletteSet& palettes,
                      std::span<const NodeId> order, Coloring& coloring) {
  std::unordered_set<Color> forbidden;
  for (const NodeId v : order) {
    DC_CHECK(!coloring.is_colored(v), "greedy asked to re-color node ", v);
    forbidden.clear();
    for (const NodeId u : g.neighbors(v)) {
      if (coloring.is_colored(u)) forbidden.insert(coloring.color[u]);
    }
    bool placed = false;
    for (const Color c : palettes.palette(v)) {
      if (forbidden.find(c) == forbidden.end()) {
        coloring.color[v] = c;
        placed = true;
        break;
      }
    }
    if (!placed) return false;
  }
  return true;
}

/// The collect order: degree in `g` descending, then id.
std::vector<NodeId> collect_order(const Graph& g, std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  return nodes;
}

constexpr unsigned kThreadMatrix[] = {1, 2, 4, 7};

/// Collects `nodes` (local node i is nodes[i]) on top of `pre` with the
/// serial greedy, the reference, and greedy_collect sequentially and at
/// every thread count. The return values must agree; so must the whole
/// coloring, except greedy_collect's after a failure (its partial
/// coloring is its own). Returns the reference's verdict.
bool expect_collect_matches_reference(const std::string& what, const Graph& g,
                                      const PaletteSet& pal,
                                      const std::vector<NodeId>& nodes,
                                      const Coloring& pre) {
  const std::vector<NodeId> order = collect_order(g, nodes);
  Coloring want = pre;
  const bool want_ok = reference_greedy(g, pal, order, want);
  Coloring serial = pre;
  EXPECT_EQ(greedy_color(g, pal, order, serial), want_ok) << what;
  EXPECT_EQ(serial.color, want.color) << what;

  const Graph local = induced_subgraph(g, nodes);
  std::vector<std::optional<ThreadPool>> pools(std::size(kThreadMatrix));
  std::vector<ExecContext> execs = {ExecContext{}};
  for (std::size_t i = 0; i < std::size(kThreadMatrix); ++i) {
    execs.push_back(ExecContext(pools[i].emplace(kThreadMatrix[i])));
  }
  for (const ExecContext exec : execs) {
    Coloring got = pre;
    EXPECT_EQ(greedy_collect(g, pal, local, nodes, got, exec), want_ok)
        << what << ", " << exec.num_threads() << " threads";
    if (want_ok) {
      EXPECT_EQ(got.color, want.color)
          << what << ", " << exec.num_threads() << " threads";
    }
  }
  return want_ok;
}

std::vector<NodeId> all_nodes(const Graph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

TEST(GreedyCollect, MatchesReferenceOnGnp) {
  // n = 2^13, average degree 32: leaf-sized frontiers of a few hundred to
  // a few thousand nodes, so rounds span many shards.
  const NodeId n = NodeId{1} << 13;
  const Graph g = gen_gnp(n, 32.0 / n, 17);
  const PaletteSet delta1 = PaletteSet::delta_plus_one(g);
  const PaletteSet deg1 = PaletteSet::deg_plus_one_lists(g, 1u << 20, 3);
  const PaletteSet lists =
      PaletteSet::random_lists(g, Color{g.max_degree()} * 4, 5);
  const Coloring none(n);
  for (const auto& [name, pal] :
       {std::pair<const char*, const PaletteSet*>{"delta1", &delta1},
        {"deg1", &deg1},
        {"random_lists", &lists}}) {
    EXPECT_TRUE(expect_collect_matches_reference(
        std::string("whole graph, ") + name, g, *pal, all_nodes(g), none));

    // Half the nodes, listed in descending id order (so local ids run
    // against original ids), with a quarter of the others precolored.
    std::vector<NodeId> half;
    std::vector<NodeId> outside;
    for (NodeId v = n; v-- > 0;) {
      if (v % 2 == 0) {
        half.push_back(v);
      } else if (v % 4 == 1) {
        outside.push_back(v);
      }
    }
    Coloring pre(n);
    ASSERT_TRUE(reference_greedy(g, *pal, collect_order(g, outside), pre));
    EXPECT_TRUE(expect_collect_matches_reference(
        std::string("induced half, ") + name, g, *pal, half, pre));
  }
}

TEST(GreedyCollect, MatchesReferenceOnStructuredGraphs) {
  // K_64 takes 64 rounds of one node each. A star takes two rounds (its
  // center sits mid-range, so id order alone would be wrong). A path takes
  // one round per inner node. In a 16-regular graph every degree ties, so
  // ids alone decide the order.
  std::vector<Edge> star;
  for (NodeId v = 0; v < 101; ++v) {
    if (v < 37) star.push_back({v, 37});
    if (v > 37) star.push_back({37, v});
  }
  std::vector<Edge> path;
  for (NodeId v = 0; v + 1 < 300; ++v) path.push_back({v, v + 1});
  const std::pair<const char*, Graph> graphs[] = {
      {"K_64", gen_complete(64)},
      {"star", Graph::from_edges(101, star)},
      {"path", Graph::from_edges(300, path)},
      {"16-regular", gen_random_regular(2048, 16, 23)}};
  for (const auto& [name, g] : graphs) {
    const PaletteSet pal = PaletteSet::delta_plus_one(g);
    EXPECT_TRUE(expect_collect_matches_reference(name, g, pal, all_nodes(g),
                                                 Coloring(g.num_nodes())));
  }
}

TEST(GreedyCollect, PaletteTooSmallReturnsFalse) {
  const Graph k64 = gen_complete(64);
  EXPECT_FALSE(expect_collect_matches_reference(
      "K_64 with 63 colors", k64, PaletteSet::uniform(64, 63), all_nodes(k64),
      Coloring(64)));
  const NodeId n = NodeId{1} << 13;
  const Graph g = gen_gnp(n, 32.0 / n, 17);
  EXPECT_FALSE(expect_collect_matches_reference(
      "gnp with 8 colors", g, PaletteSet::uniform(n, 8), all_nodes(g),
      Coloring(n)));
}

TEST(GreedyCollect, PrecoloredNodeInsideCollectRejected) {
  const NodeId n = NodeId{1} << 13;
  const Graph g = gen_gnp(n, 32.0 / n, 17);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  ThreadPool pool(4);
  for (const ExecContext exec : {ExecContext{}, ExecContext(pool)}) {
    Coloring c(n);
    c.color[n - 5] = 0;
    EXPECT_THROW(greedy_collect(g, pal, g, all_nodes(g), c, exec),
                 CheckError);
  }
}

}  // namespace
}  // namespace detcol
