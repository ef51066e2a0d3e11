// Luby's coloring-to-MIS reduction (Section 4.1 of the paper).
//
// Given a list-coloring instance, build the reduction graph: each node v
// becomes a clique over its palette colors {(v,c)}; cross edges connect
// (v,c)-(u,c) for adjacent u,v sharing color c. An MIS of this graph selects
// exactly one (v,c) per node — a proper list coloring. Cliques are kept
// implicit (a vertex knows its node), so the stored size is
// O(sum palettes + conflict edges), matching the paper's accounting.
//
// Layout: flat arrays only. Vertex (v, i) has id base[v] + i, with base
// holding n+1 offsets; the cross edges are a CSR over vertex ids (V+1
// offsets, one target array). The palettes are not copied: each is a
// deg+1-truncated span borrowed from the caller's storage (a PaletteSet row
// through an orig map, or a per-node vector).
//
// Lifetime rule: the spans must not outlive a mutation of the rows they
// borrow. In LowSpace (lowspace/low_space.cpp) a branch's MIS call borrows
// the rows of that branch's nodes, and the branch mutates them only before
// or after the call. Concurrent sibling branches mutate only their own
// nodes' rows, which leaves every other row in place. The driver's
// PaletteSet is a copy of the caller's that shares the caller's rows until
// its first write (graph/palette.hpp); that write gives the driver rows of
// its own and leaves the caller's in place, so a span borrowed before it
// keeps reading the caller's rows. With b > 2 bins the first write happens
// before any sibling group with work spawns: restricting the group's
// palettes (PaletteSet::restrict_to_bin) makes it. With b = 2 there is no
// sibling group (the one color bin keeps every color and recurses inline):
// the first palette update that removes a color makes it, and it runs
// between MIS calls, never during one.
//
// The conflict search is one merge per edge, sharded over nodes; the
// per-shard pair lists fold in shard order, so the layout is identical for
// every thread count, and each vertex's conflict list is ascending.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"

namespace detcol {

struct ReductionGraph {
  /// Per local node: its palette truncated to deg+1 colors (always safe and
  /// keeps the reduction at the paper's stated size), borrowed from the
  /// caller (file comment).
  std::vector<std::span<const Color>> palettes;
  /// n+1 offsets: vertex (v, i) has id base[v] + i, and node v owns the ids
  /// [base[v], base[v+1]).
  std::vector<std::uint64_t> base = {0};
  /// Cross edges as CSR over vertex ids (the per-node clique is implicit):
  /// the conflict neighbors of x are conflict_adj[conflict_off[x] ..
  /// conflict_off[x+1]).
  std::vector<std::uint64_t> conflict_off = {0};
  std::vector<std::uint64_t> conflict_adj;

  std::uint64_t num_vertices = 0;
  std::uint64_t num_conflict_edges = 0;

  NodeId num_nodes() const { return static_cast<NodeId>(base.size() - 1); }
  /// The node owning `vertex`; CheckError unless vertex < num_vertices.
  NodeId node_of(std::uint64_t vertex) const;
  /// Conflict neighbors of vertex x, ascending.
  std::span<const std::uint64_t> conflicts(std::uint64_t x) const {
    return {conflict_adj.data() + conflict_off[x],
            conflict_adj.data() + conflict_off[x + 1]};
  }
  /// Words to store the reduction (vertices + conflict adjacency).
  std::uint64_t size_words() const {
    return num_vertices + 2 * num_conflict_edges;
  }
};

/// Build the reduction for a local graph `g` whose node v has palette
/// `palettes.palette(orig[v])` (sorted). The result borrows those rows (file
/// comment). The palette checks and the conflict search shard over `exec`;
/// the result is identical for every thread count.
ReductionGraph build_reduction(const Graph& g, std::span<const NodeId> orig,
                               const PaletteSet& palettes,
                               ExecContext exec = {});
ReductionGraph build_reduction(const Graph&, std::span<const NodeId>,
                               PaletteSet&&, ExecContext = {}) = delete;

/// Same for node v having palette `palettes[v]` (sorted); borrows the
/// vectors.
ReductionGraph build_reduction(const Graph& g,
                               const std::vector<std::vector<Color>>& palettes,
                               ExecContext exec = {});
ReductionGraph build_reduction(const Graph&,
                               std::vector<std::vector<Color>>&&,
                               ExecContext = {}) = delete;

}  // namespace detcol
