// Deterministic (derandomized-Luby) MIS on the coloring reduction graph.
//
// Stand-in for the CDP SPAA'20 MIS [7] that Theorem 1.4 consumes (see
// "Deviations from the paper" in docs/ARCHITECTURE.md): per phase, c-wise
// independent priorities are drawn from a seed chosen deterministically so
// that at least a constant fraction of the remaining conflict edges is
// removed (Luby's analysis needs only pairwise independence, so the
// expectation bound survives derandomization). A reduction-graph vertex
// (v,c) joins the MIS when it has the smallest priority within its implicit
// clique and among its active conflict neighbors; joining colors node v
// with c.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/palette.hpp"
#include "lowspace/reduction.hpp"
#include "sim/mpc_costs.hpp"
#include "sim/mpc_sim.hpp"

namespace detcol {

/// What a caller can set. The priorities' independence
/// (MisPhaseEngine::kIndependence = 4), the phase-seed search (the default
/// SeedSelectConfig), the phase cap (256; the theory gives O(log m)) and the
/// 4 model rounds each phase charges on top of its seed schedule are
/// constants (mis.cpp). A test sets removal_fraction; the CLI and the tests
/// set exec, and LowSpace overrides it with its own.
struct MisParams {
  /// Accept a phase seed that removes at least remaining/removal_fraction
  /// conflict edges (16 mirrors Luby's m/8 expectation with slack 2).
  std::uint64_t removal_fraction = 16;
  /// Host execution context: the phase-seed search shards its simulation
  /// passes over this pool (results are bit-identical for any thread count).
  ExecContext exec;
};

struct MisColorResult {
  /// Color per local node (all nodes colored on success).
  std::vector<Color> color;
  unsigned phases = 0;
  std::uint64_t seed_evaluations = 0;

  /// MPC cost accumulator for this call: its ledger charges every phase's
  /// seed schedule ("mis-seed") and phase rounds ("mis-phase"), and its
  /// peaks record the reduction graph's residency footprint. When the
  /// caller passes an MpcModel the peaks are contract-checked against its
  /// space bounds; otherwise they are recorded unchecked.
  MpcCosts mpc;
};

/// Solve list coloring of `g` (local ids; node v's palette is
/// palettes.palette(orig[v]), sorted and strictly larger than deg(v)) via
/// the MIS reduction, which borrows those rows for the call
/// (lowspace/reduction.hpp). Deterministic; `salt` namespaces the seed
/// enumeration. `model`, if non-null, contract-checks the reduction graph's
/// footprint against its space bounds (the low-space driver passes its own
/// model; the standalone baseline passes none).
MisColorResult mis_list_color(const Graph& g, std::span<const NodeId> orig,
                              const PaletteSet& palettes,
                              const MisParams& params, std::uint64_t salt,
                              const MpcModel* model = nullptr);

/// Same with node v's palette in palettes[v].
MisColorResult mis_list_color(const Graph& g,
                              const std::vector<std::vector<Color>>& palettes,
                              const MisParams& params, std::uint64_t salt,
                              const MpcModel* model = nullptr);

}  // namespace detcol
