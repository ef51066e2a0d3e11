#include "lowspace/reduction.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace detcol {
namespace {

using Pair = std::pair<std::uint64_t, std::uint64_t>;

/// Intersection of node v's sorted palette with neighbor u's sorted palette
/// `b`, one step at a time. Every palette kind runs the same branch-free
/// step. Node v's palette is passed to each step, so that two merges
/// against it share it.
struct PaletteMerge {
  std::span<const Color> b;
  std::uint64_t base_a = 0, base_b = 0;  // the nodes' first vertex ids
  Pair* out = nullptr;  // room for one pair per color of node v's palette
  std::size_t i = 0, j = 0;

  bool live(std::span<const Color> a) const {
    return i < a.size() && j < b.size();
  }
  /// i advances when a[i] <= b[j] and j when b[j] <= a[i], so both pass a
  /// shared color, which is recorded as the conflict pair it induces.
  void step(std::span<const Color> a) {
    const Color x = a[i];
    const Color c = b[j];
    i += x <= c;
    j += c <= x;
    if (x == c) *out++ = {base_a + i - 1, base_b + j - 1};
  }
};

void prefetch_palette(std::span<const Color> p) {
  const char* const end = reinterpret_cast<const char*>(p.data() + p.size());
  for (const char* c = reinterpret_cast<const char*>(p.data()); c < end;
       c += 64) {
    __builtin_prefetch(c);
  }
}

/// Append the conflict pairs of node v with its neighbors above v, in
/// neighbor order. The merges run two at a time in lockstep, so the CPU
/// overlaps their load-compare chains, and the neighbors' palettes (at
/// random addresses) are prefetched ahead of their merges. `scratch` is
/// reused across calls.
void node_conflicts(const ReductionGraph& r, NodeId v,
                    std::span<const NodeId> above, std::vector<Pair>& scratch,
                    std::vector<Pair>& out) {
  const std::span<const Color> pv = r.palettes[v];
  if (scratch.size() < 2 * pv.size()) scratch.resize(2 * pv.size());
  Pair* const buf0 = scratch.data();
  Pair* const buf1 = buf0 + pv.size();
  const auto merge_with = [&](std::size_t k, Pair* buf) {
    if (k >= above.size()) return PaletteMerge{{}, 0, 0, buf};
    const NodeId u = above[k];
    return PaletteMerge{r.palettes[u], r.base[v], r.base[u], buf};
  };
  for (std::size_t k = 0; k < above.size(); k += 2) {
    // The colors of the next pair's palettes, and the spans of a pair
    // further on (reading a span is what locates its colors).
    for (std::size_t d = k + 2; d < std::min(k + 4, above.size()); ++d) {
      prefetch_palette(r.palettes[above[d]]);
    }
    for (std::size_t d = k + 6; d < std::min(k + 8, above.size()); ++d) {
      __builtin_prefetch(&r.palettes[above[d]]);
    }
    PaletteMerge m0 = merge_with(k, buf0);
    PaletteMerge m1 = merge_with(k + 1, buf1);
    while (m0.live(pv) && m1.live(pv)) {
      m0.step(pv);
      m1.step(pv);
    }
    while (m0.live(pv)) m0.step(pv);
    while (m1.live(pv)) m1.step(pv);
    out.insert(out.end(), buf0, m0.out);
    out.insert(out.end(), buf1, m1.out);
  }
}

/// The construction behind both entry points: `rows[v]` is node v's whole
/// (borrowed) palette.
ReductionGraph build_from_rows(const Graph& g,
                               std::vector<std::span<const Color>> rows,
                               ExecContext exec) {
  DC_CHECK(rows.size() == g.num_nodes(), "palette/node count mismatch");
  const NodeId n = g.num_nodes();
  ReductionGraph r;
  r.base.assign(static_cast<std::size_t>(n) + 1, 0);
  parallel_for_shards(exec, n, [&](std::size_t, std::size_t begin,
                                   std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      std::span<const Color>& row = rows[v];
      DC_CHECK(std::is_sorted(row.begin(), row.end()),
               "palettes must be sorted");
      // Truncate to deg+1: dropping surplus colors preserves solvability.
      const std::size_t keep =
          static_cast<std::size_t>(g.degree(static_cast<NodeId>(v))) + 1;
      if (row.size() > keep) row = row.first(keep);
      r.base[v + 1] = row.size();
    }
  });
  for (NodeId v = 0; v < n; ++v) r.base[v + 1] += r.base[v];
  r.num_vertices = r.base[n];
  r.palettes = std::move(rows);

  // Conflict pairs (a, b), a owned by the smaller node: one merge per edge,
  // per-shard lists.
  std::vector<std::vector<Pair>> parts(shard_count(n));
  parallel_for_shards(exec, n, [&](std::size_t s, std::size_t begin,
                                   std::size_t end) {
    std::vector<Pair> scratch;
    for (std::size_t v = begin; v < end; ++v) {
      const auto nbrs = g.neighbors(static_cast<NodeId>(v));
      const auto above = std::upper_bound(nbrs.begin(), nbrs.end(),
                                          static_cast<NodeId>(v));
      node_conflicts(r, static_cast<NodeId>(v), {above, nbrs.end()},
                     scratch, parts[s]);
    }
  });

  // CSR over vertex ids, filled in shard order. Counts go to off[x + 2] so
  // that after the prefix sum off[x + 1] is x's fill cursor, and after the
  // fill it is x's end — the CSR offsets.
  const std::uint64_t nv = r.num_vertices;
  std::vector<std::uint64_t>& off = r.conflict_off;
  off.assign(nv + 2, 0);
  for (const std::vector<Pair>& part : parts) {
    r.num_conflict_edges += part.size();
    for (const auto& [a, b] : part) {
      ++off[a + 2];
      ++off[b + 2];
    }
  }
  for (std::uint64_t x = 2; x < nv + 2; ++x) off[x] += off[x - 1];
  r.conflict_adj.resize(2 * r.num_conflict_edges);
  for (std::vector<Pair>& part : parts) {
    for (const auto& [a, b] : part) {
      r.conflict_adj[off[a + 1]++] = b;
      r.conflict_adj[off[b + 1]++] = a;
    }
    std::vector<Pair>().swap(part);
  }
  off.pop_back();
  return r;
}

}  // namespace

NodeId ReductionGraph::node_of(std::uint64_t vertex) const {
  DC_CHECK(vertex < num_vertices, "reduction vertex ", vertex,
           " out of range (", num_vertices, " vertices)");
  const auto it = std::upper_bound(base.begin(), base.end(), vertex);
  return static_cast<NodeId>(std::distance(base.begin(), it) - 1);
}

ReductionGraph build_reduction(const Graph& g, std::span<const NodeId> orig,
                               const PaletteSet& palettes, ExecContext exec) {
  DC_CHECK(orig.size() == g.num_nodes(), "orig map size mismatch");
  std::vector<std::span<const Color>> rows(orig.size());
  for (std::size_t v = 0; v < orig.size(); ++v) {
    rows[v] = palettes.palette(orig[v]);
  }
  return build_from_rows(g, std::move(rows), exec);
}

ReductionGraph build_reduction(const Graph& g,
                               const std::vector<std::vector<Color>>& palettes,
                               ExecContext exec) {
  return build_from_rows(
      g, std::vector<std::span<const Color>>(palettes.begin(), palettes.end()),
      exec);
}

}  // namespace detcol
