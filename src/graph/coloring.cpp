#include "graph/coloring.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "util/check.hpp"

namespace detcol {

std::size_t Coloring::num_colored() const {
  std::size_t c = 0;
  for (const auto x : color) {
    if (x != kUncolored) ++c;
  }
  return c;
}

VerifyResult verify_coloring(const Graph& g,
                             const PaletteSet& initial_palettes,
                             const Coloring& coloring) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!coloring.is_colored(v)) {
      return {false, "node " + std::to_string(v) + " is uncolored"};
    }
    if (!initial_palettes.contains(v, coloring.color[v])) {
      std::ostringstream os;
      os << "node " << v << " uses color " << coloring.color[v]
         << " outside its palette";
      return {false, os.str()};
    }
  }
  return verify_proper_partial(g, coloring);
}

VerifyResult verify_proper_partial(const Graph& g, const Coloring& coloring) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!coloring.is_colored(v)) continue;
    for (const NodeId u : g.neighbors(v)) {
      if (u > v && coloring.is_colored(u) &&
          coloring.color[u] == coloring.color[v]) {
        std::ostringstream os;
        os << "edge (" << v << "," << u << ") is monochromatic with color "
           << coloring.color[v];
        return {false, os.str()};
      }
    }
  }
  return {true, ""};
}

bool greedy_color(const Graph& g, const PaletteSet& palettes,
                  std::span<const NodeId> order, Coloring& coloring) {
  // Neighbor colors are read (and the node's own color written) through
  // relaxed atomics: parallel ColorReduce runs collect-and-color leaves of
  // sibling color bins concurrently, so a neighbor in another bin may be
  // committing its color right now. The outcome is unaffected either way —
  // a concurrently-committed color belongs to a disjoint h2 color class, so
  // it can never collide with a candidate from this node's palette (see
  // README, "Parallel execution and determinism") — the atomics only make
  // the unordered read well-defined. On x86 they compile to plain moves.
  std::unordered_set<Color> forbidden;
  for (const NodeId v : order) {
    DC_CHECK(!coloring.is_colored(v), "greedy asked to re-color node ", v);
    forbidden.clear();
    for (const NodeId u : g.neighbors(v)) {
      const Color cu =
          std::atomic_ref<Color>(coloring.color[u])
              .load(std::memory_order_relaxed);
      if (cu != Coloring::kUncolored) forbidden.insert(cu);
    }
    bool placed = false;
    for (const Color c : palettes.palette(v)) {
      if (forbidden.find(c) == forbidden.end()) {
        std::atomic_ref<Color>(coloring.color[v])
            .store(c, std::memory_order_relaxed);
        placed = true;
        break;
      }
    }
    if (!placed) return false;
  }
  return true;
}

namespace {

/// Relaxed atomic read of a color slot a sibling branch may be writing. The
/// slot itself is never const; atomic_ref just requires a mutable referent.
Color load_color(const Coloring& coloring, NodeId u) {
  return std::atomic_ref<Color>(const_cast<Color&>(coloring.color[u]))
      .load(std::memory_order_relaxed);
}

}  // namespace

std::uint64_t remove_neighbor_colors(
    const Graph& g, const Coloring& coloring, std::span<const NodeId> nodes,
    PaletteSet& palettes, ExecContext exec,
    FunctionRef<void(NodeId, Color)> on_removed) {
  const auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  if (palettes.shared()) {
    // The serial update materialized on its first removal only; keep that
    // (a set nobody removes from stays shared).
    const std::uint64_t hits = parallel_reduce_shards(
        exec, nodes.size(), std::uint64_t{0},
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            for (const NodeId u : g.neighbors(nodes[i])) {
              const Color cu = load_color(coloring, u);
              if (cu != Coloring::kUncolored &&
                  palettes.contains(nodes[i], cu)) {
                return std::uint64_t{1};
              }
            }
          }
          return std::uint64_t{0};
        },
        sum);
    if (hits == 0) return 0;
    palettes.materialize();
  }
  return parallel_reduce_shards(
      exec, nodes.size(), std::uint64_t{0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::uint64_t removed = 0;
        std::vector<Color> used;
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId v = nodes[i];
          used.clear();
          for (const NodeId u : g.neighbors(v)) {
            const Color cu = load_color(coloring, u);
            if (cu != Coloring::kUncolored) used.push_back(cu);
          }
          if (used.empty()) continue;
          std::sort(used.begin(), used.end());
          used.erase(std::unique(used.begin(), used.end()), used.end());
          removed += palettes.remove_colors(v, used);
          for (const Color c : used) on_removed(v, c);
        }
        return removed;
      },
      sum);
}

bool greedy_color_all(const Graph& g, const PaletteSet& palettes,
                      Coloring& coloring) {
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  return greedy_color(g, palettes, order, coloring);
}

}  // namespace detcol
