#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>

#include <unistd.h>

#include "exec/exec.hpp"
#include "graph/formats.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace detcol {
namespace {

TEST(Graph, BasicConstruction) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.size_words(), 4u + 6u);
}

TEST(Graph, DeduplicatesAndNormalizes) {
  const std::vector<Edge> edges = {{1, 0}, {0, 1}, {1, 0}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(Graph, RejectsSelfLoopsAndOutOfRange) {
  const std::vector<Edge> loop = {{2, 2}};
  EXPECT_THROW(Graph::from_edges(3, loop), CheckError);
  const std::vector<Edge> oob = {{0, 5}};
  EXPECT_THROW(Graph::from_edges(3, oob), CheckError);
}

TEST(Graph, NeighborsSorted) {
  const std::vector<Edge> edges = {{3, 0}, {1, 0}, {2, 0}};
  const Graph g = Graph::from_edges(4, edges);
  const auto nb = g.neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(Graph, EdgeListRoundTrip) {
  const std::vector<Edge> edges = {{0, 1}, {2, 3}, {1, 3}};
  const Graph g = Graph::from_edges(5, edges);
  const auto out = g.edge_list();
  ASSERT_EQ(out.size(), 3u);
  for (const auto& [u, v] : out) EXPECT_LT(u, v);
  const Graph g2 = Graph::from_edges(5, out);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, std::vector<Edge>{});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, HasEdge) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(InducedSubgraph, PreservesInternalEdges) {
  // Path 0-1-2-3-4; induce on {1,2,3}.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  const Graph g = Graph::from_edges(5, edges);
  const std::vector<NodeId> nodes = {1, 2, 3};
  const Graph sub = induced_subgraph(g, nodes);
  EXPECT_EQ(sub.num_nodes(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);  // 1-2 and 2-3 survive
  EXPECT_TRUE(sub.has_edge(0, 1));  // local ids
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_FALSE(sub.has_edge(0, 2));
}

TEST(InducedSubgraph, RespectsGivenOrder) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  const std::vector<NodeId> nodes = {2, 0};  // unsorted on purpose
  const Graph sub = induced_subgraph(g, nodes);
  EXPECT_EQ(sub.num_nodes(), 2u);
  EXPECT_EQ(sub.num_edges(), 0u);  // 2 and 0 are not adjacent
}

TEST(InducedSubgraph, EmptySelection) {
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  const Graph sub = induced_subgraph(g, std::vector<NodeId>{});
  EXPECT_EQ(sub.num_nodes(), 0u);
}

TEST(InducedSubgraph, DuplicateRejected) {
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  const std::vector<NodeId> dup = {1, 1};
  EXPECT_THROW(induced_subgraph(g, dup), CheckError);
}

TEST(Graph, CopySharesStorageAndOutlivesSource) {
  std::optional<Graph> source(
      Graph::from_edges(5, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {0, 4}}));
  const Graph copy = *source;
  Graph assigned;
  assigned = *source;
  // Copies share the arrays instead of duplicating them.
  EXPECT_EQ(copy.neighbors(0).data(), source->neighbors(0).data());
  EXPECT_EQ(assigned.neighbors(0).data(), source->neighbors(0).data());
  const std::vector<Edge> edges = source->edge_list();
  source.reset();
  for (const Graph* g : {&copy, static_cast<const Graph*>(&assigned)}) {
    EXPECT_EQ(g->num_nodes(), 5u);
    EXPECT_EQ(g->max_degree(), 2u);
    EXPECT_EQ(g->edge_list(), edges);
    EXPECT_TRUE(g->has_edge(4, 0));
  }
  // A moved-from graph is empty; the destination keeps the shared arrays.
  Graph moved = std::move(assigned);
  EXPECT_EQ(assigned.num_nodes(), 0u);
  EXPECT_EQ(moved.edge_list(), edges);
}

TEST(InducedSubgraph, FullSelectionIsIsomorphic) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}};
  const Graph g = Graph::from_edges(4, edges);
  const std::vector<NodeId> all = {0, 1, 2, 3};
  const Graph sub = induced_subgraph(g, all);
  EXPECT_EQ(sub.num_edges(), g.num_edges());
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(sub.degree(v), g.degree(v));
}

// --- induced_subgraph against the edge-list construction -----------------
//
// The child CSR is built directly (count, prefix sum, fill, sharded over the
// exec context); the reference below is the obvious edge list + from_edges.
// Parents have n = 2^13, so the sharded passes span several 2048-node shards.

constexpr unsigned kThreadMatrix[] = {1, 2, 4, 7};
constexpr NodeId kInducedParentNodes = NodeId{1} << 13;

Graph reference_induced(const Graph& g, std::span<const NodeId> nodes) {
  std::vector<NodeId> local(g.num_nodes(), ~NodeId{0});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    local[nodes[i]] = static_cast<NodeId>(i);
  }
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const NodeId w : g.neighbors(nodes[i])) {
      if (local[w] != ~NodeId{0} && i < local[w]) {
        edges.emplace_back(static_cast<NodeId>(i), local[w]);
      }
    }
  }
  return Graph::from_edges(static_cast<NodeId>(nodes.size()), edges);
}

void expect_same_graph(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.max_degree(), want.max_degree());
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    ASSERT_TRUE(std::ranges::equal(got.neighbors(v), want.neighbors(v)))
        << "local node " << v;
  }
}

/// Ascending (two-thirds of the nodes), non-ascending (a low set followed
/// by appended stragglers, as LowSpace builds G0, and a full shuffle) and
/// empty node lists over a parent with n nodes.
std::vector<std::vector<NodeId>> induced_node_lists(NodeId n) {
  std::vector<NodeId> ascending, appended, stragglers;
  for (NodeId v = 0; v < n; ++v) {
    if (v % 3 != 0) ascending.push_back(v);
    (v % 4 == 0 ? stragglers : appended).push_back(v);
  }
  appended.insert(appended.end(), stragglers.begin(), stragglers.end());
  std::vector<NodeId> shuffled(n);
  for (NodeId v = 0; v < n; ++v) shuffled[v] = v;
  Xoshiro256 rng(0x5EED);
  for (NodeId i = n; i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  return {ascending, appended, shuffled, {}};
}

void expect_induced_matches_reference(const Graph& parent) {
  const auto lists = induced_node_lists(parent.num_nodes());
  std::vector<Graph> want;
  for (const auto& nodes : lists) {
    want.push_back(reference_induced(parent, nodes));
    expect_same_graph(induced_subgraph(parent, nodes), want.back());
  }
  for (const unsigned t : kThreadMatrix) {
    ThreadPool pool(t);
    for (std::size_t k = 0; k < lists.size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "list " << k << ", " << t
                                        << " threads");
      expect_same_graph(
          induced_subgraph(parent, lists[k], ExecContext(pool)), want[k]);
    }
  }
}

TEST(InducedSubgraph, MatchesEdgeListReferenceOnOwnedParent) {
  const Graph g = gen_gnp(kInducedParentNodes, 24.0 / kInducedParentNodes, 5);
  expect_induced_matches_reference(g);
}

TEST(InducedSubgraph, MatchesEdgeListReferenceOnMappedParent) {
  const Graph owned =
      gen_gnp(kInducedParentNodes, 24.0 / kInducedParentNodes, 6);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("detcol_induced_" + std::to_string(::getpid()) + ".dcg"))
          .string();
  write_dcg_file(path, owned);
  {
    const Graph mapped = map_dcg_file(path);
    ASSERT_TRUE(mapped.is_mapped());
    expect_induced_matches_reference(mapped);
  }
  std::filesystem::remove(path);
}

TEST(InducedSubgraph, DuplicateRejectedAtEveryThreadCount) {
  const Graph g = gen_gnp(kInducedParentNodes, 24.0 / kInducedParentNodes, 7);
  // The repeat sits several shards after its first occurrence.
  std::vector<NodeId> dup;
  for (NodeId v = 0; v < g.num_nodes(); v += 2) dup.push_back(v);
  dup.push_back(10);
  EXPECT_THROW(induced_subgraph(g, dup), CheckError);
  for (const unsigned t : kThreadMatrix) {
    ThreadPool pool(t);
    EXPECT_THROW(induced_subgraph(g, dup, ExecContext(pool)), CheckError)
        << t << " threads";
    EXPECT_THROW(induced_subgraph(g, std::vector<NodeId>{3, 3},
                                  ExecContext(pool)),
                 CheckError)
        << t << " threads";
  }
}

}  // namespace
}  // namespace detcol
