// Algorithms 3 & 4: deterministic (deg+1)-list coloring in low-space MPC
// (Theorem 1.4).
//
// LowSpaceColorReduce recursively partitions nodes and colors into n^delta
// bins until every remaining node has degree at most n^{7*delta}; low-degree
// nodes are diverted to G0 at every level and colored through the MIS
// reduction (Section 4.1). The derandomized seed selection enforces the
// Lemma 4.5 guarantees (d' < 2d/b + slack, and d' < p' on color bins);
// nodes violating them under the chosen seed are diverted to G0 as well,
// which preserves correctness unconditionally (see "Deviations from the
// paper" in docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>

#include "derand/strategies.hpp"
#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"
#include "lowspace/mis.hpp"
#include "sim/ledger.hpp"
#include "sim/mpc_costs.hpp"
#include "sim/mpc_sim.hpp"

namespace detcol {

/// What a caller can set. The model's local space
/// s = max(2^14, 8 * n^{22*delta}) words (the paper sets delta = eps/22,
/// i.e. s = n^eps) and the recursion-depth cap of 64 are constants
/// (low_space.cpp). Tests and lowspace_demo vary delta, a test sets
/// low_deg_coeff, the CLI sets exec, and perfbench reads the defaults it
/// replays.
struct LowSpaceParams {
  /// The paper's delta (bins per level b = max(2, floor(n^delta))).
  double delta = 0.08;
  /// Low-degree threshold exponent: nodes with d <= n^{low_deg_coeff*delta}
  /// go to G0 (paper: 7*delta).
  double low_deg_coeff = 7.0;
  unsigned independence = 4;
  SeedSelectConfig seed;
  MisParams mis;
  /// Degree-deviation slack exponent in the good-machine condition
  /// (Definition 4.1 uses chunk^0.6; we apply it at node granularity).
  double slack_exp = 0.6;
  /// Host execution context: sibling color bins recurse as pool tasks, and
  /// every per-node pass of the seed searches (partition violator counts,
  /// MIS phase simulations — `mis.exec` is overridden with this value)
  /// shards over it. Results are bit-identical for any thread count.
  ExecContext exec;
};

struct LowSpaceResult {
  Coloring coloring;
  RoundLedger ledger;

  /// Merged per-branch MPC cost accumulator (sorts, prefix sums, routes,
  /// residency peaks and their phase ledger), charged through the driver's
  /// immutable MpcModel. Bit-identical for every thread count.
  MpcCosts mpc;

  unsigned depth_reached = 0;
  std::uint64_t num_partitions = 0;
  std::uint64_t num_mis_calls = 0;
  std::uint64_t total_mis_phases = 0;
  std::uint64_t seed_evaluations = 0;
  std::uint64_t diverted_violators = 0;  // good-by-seed but p'<=d' guards

  explicit LowSpaceResult(NodeId n) : coloring(n) {}
};

/// Run LowSpaceColorReduce on (g, palettes). Requires p(v) > d(v) for all v
/// ((deg+1)-lists and (Δ+1)(-list) instances both qualify).
LowSpaceResult low_space_color(const Graph& g, const PaletteSet& palettes,
                               const LowSpaceParams& params = {},
                               std::uint64_t salt = 0x10053ACEULL);

}  // namespace detcol
