// Deterministic graph generators for tests, examples and benches.
//
// All generators take an explicit seed; identical inputs produce identical
// graphs on every platform (fixed RNG, no platform-dependent floating-point
// paths in edge selection). Out-of-domain parameters (p outside [0,1],
// infeasible m, n below a generator's minimum) throw CheckError; none of
// them returns a silently clamped instance.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace detcol {

/// Erdős–Rényi G(n, p) by geometric skipping over the node pairs: O(n + m)
/// random draws, then from_edges' sort; requires p in [0, 1].
Graph gen_gnp(NodeId n, double p, std::uint64_t seed);

/// G(n, m): exactly m distinct uniform edges. Requires m <= n(n-1)/2.
Graph gen_gnm(NodeId n, std::size_t m, std::uint64_t seed);

/// Random d-regular-ish graph via the configuration model with loop/multi-
/// edge repair; every node ends with degree in [d-1, d] and max degree d.
Graph gen_random_regular(NodeId n, NodeId d, std::uint64_t seed);

/// Chung–Lu power-law graph: expected degree of node v proportional to
/// (v+1)^(-1/(beta-1)), scaled so the average degree is `avg_deg`.
Graph gen_power_law(NodeId n, double beta, double avg_deg, std::uint64_t seed);

/// rows x cols 4-neighbor grid.
Graph gen_grid(NodeId rows, NodeId cols);

/// Cycle on n nodes (n >= 3).
Graph gen_ring(NodeId n);

/// Complete graph K_n.
Graph gen_complete(NodeId n);

/// Random bipartite graph between sides of size a and b with edge prob p.
Graph gen_bipartite(NodeId a, NodeId b, double p, std::uint64_t seed);

/// Random geometric graph: n points in the unit square, edge iff distance
/// <= radius. The classic interference-graph model (frequency assignment).
Graph gen_geometric(NodeId n, double radius, std::uint64_t seed);

/// Graph that is k-colorable by construction: nodes are split into k groups
/// and edges are sampled only across groups with probability p.
Graph gen_planted_kcolorable(NodeId n, NodeId k, double p, std::uint64_t seed);

/// Uniform random tree on n nodes (Prüfer-free random attachment).
Graph gen_random_tree(NodeId n, std::uint64_t seed);

}  // namespace detcol
