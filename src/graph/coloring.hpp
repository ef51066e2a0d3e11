// Coloring assignment, verification and the local greedy used whenever an
// instance is collected onto a single machine.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"
#include "util/function_ref.hpp"

namespace detcol {

/// Partial or complete coloring of the original graph.
struct Coloring {
  static constexpr Color kUncolored = ~Color{0};

  explicit Coloring(NodeId num_nodes)
      : color(num_nodes, kUncolored) {}

  bool is_colored(NodeId v) const { return color[v] != kUncolored; }
  std::size_t num_colored() const;
  bool complete() const { return num_colored() == color.size(); }

  std::vector<Color> color;
};

/// Result of verifying a coloring.
struct VerifyResult {
  bool ok = true;
  std::string issue;  // human-readable description of the first violation
};

/// Checks that the coloring is complete, proper on `g`, and that every node's
/// color belongs to its *initial* palette. O(n + m + total palette size);
/// never throws — violations come back as {ok=false, issue}, and the issue
/// string names the first violation in node order (deterministic).
VerifyResult verify_coloring(const Graph& g, const PaletteSet& initial_palettes,
                             const Coloring& coloring);

/// Checks properness only (partial colorings allowed: uncolored nodes are
/// ignored). O(n + m); never throws, same deterministic-issue contract.
VerifyResult verify_proper_partial(const Graph& g, const Coloring& coloring);

/// Greedily colors the nodes in `order` (original ids). For each node, picks
/// the smallest palette color not used by any already-colored neighbor in
/// `g`. Returns false (and stops) if some node has no available color.
/// Deterministic in `order`; O(sum of palette sizes + m log Δ).
bool greedy_color(const Graph& g, const PaletteSet& palettes,
                  std::span<const NodeId> order, Coloring& coloring);

/// The drivers' "update color palettes" step: drop from the palette of
/// every node in `nodes` (original ids) each color an already-colored
/// neighbor in `g` holds, calling on_removed(v, c) for every removed color
/// from the shard that owns v (calls for distinct nodes may run
/// concurrently). Returns the number of removals — per node, the distinct
/// neighbor colors its palette held. Neighbor colors are read like
/// greedy_color reads them (a sibling branch may be committing its own
/// colors meanwhile); since such a color is never in these palettes, the
/// count does not depend on the schedule.
///
/// One pass per node (sort the neighbor colors, one merge over the sorted
/// palette), sharded over `nodes`. A shared-uniform set is materialized
/// first, serially, and only when some removal will happen.
std::uint64_t remove_neighbor_colors(
    const Graph& g, const Coloring& coloring, std::span<const NodeId> nodes,
    PaletteSet& palettes, ExecContext exec,
    FunctionRef<void(NodeId, Color)> on_removed);

/// Degree-descending greedy over the whole graph; the classic centralized
/// baseline. Always succeeds when every palette is larger than the degree.
/// Ties break by node id, so the ordering — and the coloring — is
/// deterministic.
bool greedy_color_all(const Graph& g, const PaletteSet& palettes,
                      Coloring& coloring);

}  // namespace detcol
