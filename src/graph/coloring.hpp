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
/// Deterministic in `order`.
///
/// Only the first min(|P(v)|, deg(v)+1) palette positions are examined:
/// each of v's deg(v) neighbors blocks at most one of them, so the smallest
/// free color lies in that prefix whenever one exists. Cost O(Σ deg(v)
/// log Δ) over `order`, plus one Δ+1-byte scratch buffer per call.
///
/// Sentinel rule: a palette may hold Coloring::kUncolored (2^64-1), but no
/// node is ever assigned it. A node whose smallest free color is the
/// sentinel has no color, and the call returns false.
bool greedy_color(const Graph& g, const PaletteSet& palettes,
                  std::span<const NodeId> order, Coloring& coloring);

/// Colors a collected instance with the exact result of greedy_color over
/// its nodes in collect order: original degree descending, then original
/// id. `local` is the instance's CSR (the subgraph of `g` induced by
/// `orig`), and local node i is original node orig[i]; every orig[i] must be
/// uncolored on entry (CheckError otherwise).
///
/// The instance is colored in Jones–Plassmann rounds: a node is colored in
/// the round after its last earlier in-collect neighbor, by the same
/// per-node step and sentinel rule as greedy_color. Each round is one pass
/// over its frontier, sharded over `exec`; the calling thread then folds
/// the shards' release lists in shard order. Frontier contents and order are
/// a function of the input, so the rounds are identical for every thread
/// count. When a node is colored, every earlier in-collect neighbor is
/// colored and no later one is; a neighbor outside the instance is colored
/// or not exactly as during the serial pass, or sits in a concurrent
/// sibling bin whose palette is disjoint from this node's (README, "Parallel
/// execution and determinism", part 3). So each node sees what the serial
/// pass shows it, and the coloring is identical to it.
///
/// Returns false when some node has no available color; the instance is
/// then partially colored (deterministically, but not as greedy_color
/// would leave it). Work O(Σ deg(v) log Δ) over the instance's nodes, as
/// for greedy_color, plus O(m) for its m in-instance edges; the O(m)
/// release fold runs on the calling thread.
bool greedy_collect(const Graph& g, const PaletteSet& palettes,
                    const Graph& local, std::span<const NodeId> orig,
                    Coloring& coloring, ExecContext exec = {});

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
/// palette), sharded over `nodes`. A shared set (PaletteSet::shared) is
/// materialized first, serially, and only when some removal will happen.
std::uint64_t remove_neighbor_colors(
    const Graph& g, const Coloring& coloring, std::span<const NodeId> nodes,
    PaletteSet& palettes, ExecContext exec,
    FunctionRef<void(NodeId, Color)> on_removed);

/// Degree-descending greedy over the whole graph; the classic centralized
/// baseline. Always succeeds when every palette holds more colors other
/// than Coloring::kUncolored than the node's degree. Ties break by node id,
/// so the ordering — and the coloring — is deterministic.
bool greedy_color_all(const Graph& g, const PaletteSet& palettes,
                      Coloring& coloring);

}  // namespace detcol
