#include "graph/coloring.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <sstream>

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

namespace {

// Neighbor colors are read (and a node's own color written) through relaxed
// atomics: parallel ColorReduce runs the collects of sibling color bins
// concurrently, so a neighbor in another bin may be committing its color
// right now. The outcome is unaffected either way — a concurrently-committed
// color belongs to a disjoint h2 color class, so it can never collide with a
// candidate from this node's palette (see README, "Parallel execution and
// determinism") — the atomics only make the unordered read well-defined. On
// x86 they compile to plain moves. The slot itself is never const;
// atomic_ref just requires a mutable referent.
Color load_color(const Coloring& coloring, NodeId u) {
  return std::atomic_ref<Color>(const_cast<Color&>(coloring.color[u]))
      .load(std::memory_order_relaxed);
}

void store_color(Coloring& coloring, NodeId v, Color c) {
  std::atomic_ref<Color>(coloring.color[v]).store(c, std::memory_order_relaxed);
}

/// The per-node step of both greedy schedulers: v's smallest palette color
/// that no colored neighbor in `g` holds, or kUncolored when there is none.
/// Only positions [0, min(|P(v)|, deg(v)+1)) can hold it (coloring.hpp);
/// each colored neighbor marks its color's position there, found by binary
/// search. The sentinel is never a neighbor's color, so it stays unmarked
/// and, when it is the first unmarked position, comes back as "no color".
/// `marks` holds at least deg(v)+1 zero bytes and is left zeroed.
Color smallest_free_color(const Graph& g, std::span<const Color> palette,
                          NodeId v, const Coloring& coloring,
                          std::span<char> marks) {
  const std::span<const Color> prefix = palette.first(
      std::min<std::size_t>(palette.size(), std::size_t{g.degree(v)} + 1));
  for (const NodeId u : g.neighbors(v)) {
    const Color cu = load_color(coloring, u);
    if (cu == Coloring::kUncolored) continue;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), cu);
    if (it != prefix.end() && *it == cu) marks[it - prefix.begin()] = 1;
  }
  std::size_t j = 0;
  while (j < prefix.size() && marks[j] != 0) ++j;
  std::fill_n(marks.begin(), prefix.size(), char{0});
  return j < prefix.size() ? prefix[j] : Coloring::kUncolored;
}

/// Frontier nodes per shard in greedy_collect's rounds. A leaf collect of
/// the reduce-sparse benchmark graph (sgnp n = 2^17, Δ = 60) starts near
/// 3.2k frontier nodes and shrinks to 1 over 14-17 rounds, so the default
/// grain of 2048 gives at most 2 shards per round. Eight such collects at 4
/// threads on a 4-core Xeon, grains alternating in one process: 0.20 s at
/// 2048 (one thread: 0.18-0.23 s), 0.077-0.087 s at 512, 0.060-0.065 s at
/// 128, 0.055-0.056 s at 32. ColorReduce's depth-3 self time (its 8 leaf
/// collects) read 0.052-0.061 s at 128 against 0.13-0.18 s at 2048. Below
/// 128 little more is gained, for twice the tasks per round.
constexpr std::size_t kCollectGrain = 128;

}  // namespace

bool greedy_color(const Graph& g, const PaletteSet& palettes,
                  std::span<const NodeId> order, Coloring& coloring) {
  std::vector<char> marks(std::size_t{g.max_degree()} + 1, 0);
  for (const NodeId v : order) {
    DC_CHECK(!coloring.is_colored(v), "greedy asked to re-color node ", v);
    const Color c =
        smallest_free_color(g, palettes.palette(v), v, coloring, marks);
    if (c == Coloring::kUncolored) return false;
    store_color(coloring, v, c);
  }
  return true;
}

bool greedy_collect(const Graph& g, const PaletteSet& palettes,
                    const Graph& local, std::span<const NodeId> orig,
                    Coloring& coloring, ExecContext exec) {
  const NodeId n = local.num_nodes();
  DC_CHECK(orig.size() == n, "collect has ", n, " local nodes but ",
           orig.size(), " original ids");
  // Collect order as one integer per node: original degree descending,
  // then original id. Local node a precedes b iff key[a] < key[b].
  std::vector<std::uint64_t> key(n);
  parallel_for_shards(exec, n, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t l = b; l < e; ++l) {
      const NodeId v = orig[l];
      DC_CHECK(!coloring.is_colored(v), "greedy asked to re-color node ", v);
      key[l] = (std::uint64_t{static_cast<NodeId>(~g.degree(v))} << 32) | v;
    }
  });
  // wait[l]: how many of l's earlier local neighbors are still uncolored.
  std::vector<NodeId> wait(n);
  parallel_for_shards(exec, n, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t l = b; l < e; ++l) {
      NodeId w = 0;
      for (const NodeId m : local.neighbors(static_cast<NodeId>(l))) {
        if (key[m] < key[l]) ++w;
      }
      wait[l] = w;
    }
  });
  std::vector<NodeId> frontier;
  for (NodeId l = 0; l < n; ++l) {
    if (wait[l] == 0) frontier.push_back(l);
  }

  // One round colors the frontier, which is pairwise non-adjacent (of two
  // local neighbors, the later waits for the earlier); each shard lists the
  // later neighbors of the nodes it colored. This thread then releases them
  // in shard order: the next frontier is the nodes whose wait count drops
  // to 0, in release order.
  struct ShardScratch {
    std::vector<char> marks;
    std::vector<NodeId> release;
    bool failed = false;
  };
  std::vector<ShardScratch> scratch(shard_count(n, kCollectGrain));
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    parallel_for_shards(
        exec, frontier.size(),
        [&](std::size_t s, std::size_t b, std::size_t e) {
          ShardScratch& sc = scratch[s];
          if (sc.marks.empty()) {
            sc.marks.assign(std::size_t{g.max_degree()} + 1, 0);
          }
          sc.release.clear();
          for (std::size_t i = b; i < e; ++i) {
            const NodeId l = frontier[i];
            const NodeId v = orig[l];
            const Color c = smallest_free_color(g, palettes.palette(v), v,
                                                coloring, sc.marks);
            if (c == Coloring::kUncolored) {
              sc.failed = true;
              return;
            }
            store_color(coloring, v, c);
            for (const NodeId m : local.neighbors(l)) {
              if (key[l] < key[m]) sc.release.push_back(m);
            }
          }
        },
        kCollectGrain);
    next.clear();
    const std::size_t shards = shard_count(frontier.size(), kCollectGrain);
    for (std::size_t s = 0; s < shards; ++s) {
      if (scratch[s].failed) return false;
      for (const NodeId m : scratch[s].release) {
        if (--wait[m] == 0) next.push_back(m);
      }
    }
    frontier.swap(next);
  }
  return true;
}

std::uint64_t remove_neighbor_colors(
    const Graph& g, const Coloring& coloring, std::span<const NodeId> nodes,
    PaletteSet& palettes, ExecContext exec,
    FunctionRef<void(NodeId, Color)> on_removed) {
  const auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  if (palettes.shared()) {
    // Take rows of our own only when some removal will happen, so a set
    // nobody removes from stays shared, and take them here on the calling
    // thread: never inside a shard.
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
