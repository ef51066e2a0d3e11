// Algorithm 1 (ColorReduce): deterministic (Δ+1)-list coloring in O(1)
// CONGESTED CLIQUE rounds (Theorem 1.1), executed on the costed simulator.
//
// Structure of a call on instance G with degree proxy ell:
//   1. If |G| = O(n): collect onto one machine, color locally (greedy).
//   2. Else Partition(G, ell) -> G0 (bad nodes), G1..G_{b-1} (color bins),
//      G_b (last bin, no colors).
//   3. Recurse on G1..G_{b-1} in parallel (palettes restricted via h2;
//      palettes across bins are disjoint so the groups cannot conflict).
//   4. Update palettes of G_b (drop colors used by colored neighbors),
//      recurse on it.
//   5. Update palettes of G0, collect and color locally.
//
// Round accounting: parallel groups contribute the max of their ledgers,
// sequential phases add. Every produced coloring is verified against the
// original graph by the caller (verify_coloring).
//
// Host-side execution: the step-3 sibling recursions are independent in the
// model (disjoint node sets, disjoint h2-restricted palettes) and the driver
// exploits that on real cores — ColorReduceConfig::exec dispatches them as
// thread-pool tasks, and the seed search inside each partition() shards its
// per-node passes over the same pool. Colorings, ledgers and stats trees are
// bit-identical for every thread count (see README, "Parallel execution and
// determinism").
//
// State ownership follows the two-tier model (docs/ARCHITECTURE.md): the
// driver holds only immutable instance state (graph, config, a CliqueModel);
// every recursion branch accumulates its costs, counters and implicit-store
// registrations in a private run state that merges at the fork/join
// boundaries in bin-index order. No locks, no atomic counters.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/classify.hpp"
#include "core/implicit_palette.hpp"
#include "core/params.hpp"
#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"
#include "sim/clique_sim.hpp"
#include "sim/ledger.hpp"
#include "sim/mpc_costs.hpp"

namespace detcol {

/// Per-call statistics, recorded as a tree mirroring the recursion.
struct CallStats {
  unsigned depth = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t max_deg = 0;
  double ell = 0.0;
  std::uint64_t num_bins = 0;       // 0 for collected leaves
  std::uint64_t bad_nodes = 0;
  std::uint64_t bad_bins = 0;
  std::uint64_t reclassified = 0;
  std::uint64_t g0_words = 0;
  std::uint64_t seed_evaluations = 0;
  bool seed_met_threshold = true;
  bool collected = false;           // leaf solved by collect-and-color
  std::vector<CallStats> children;  // color bins first, then last bin
};

struct ColorReduceConfig {
  PartitionParams part;
  /// Deterministic namespace for all seed searches.
  std::uint64_t salt = 0x0DE7C0102ULL;
  /// Congested-clique model slacks (sim/clique_sim.hpp).
  double route_slack = 16.0;
  double collect_slack = 16.0;

  /// Mirror every palette operation into an ImplicitPaletteStore (Theorem
  /// 1.3's O(m+n) representation) and report its footprint. Only valid when
  /// the initial palettes are the uniform [Δ+1] of plain (Δ+1)-coloring.
  bool mirror_implicit = false;

  /// Host-side execution context. Default-constructed = sequential; built
  /// from a ThreadPool = sibling color-bin recursions and seed-evaluation
  /// shards run as pool tasks. The pool must outlive the color_reduce()
  /// call. Results are bit-identical for every thread count.
  ExecContext exec{};
};

struct ColorReduceResult {
  Coloring coloring;
  RoundLedger ledger;
  CallStats root;

  /// Merged per-branch cost accumulator: the ledger above plus residency
  /// peaks and operation counters, bit-identical for every thread count.
  MpcCosts mpc;

  unsigned max_depth_reached = 0;
  std::uint64_t num_partitions = 0;
  std::uint64_t total_seed_evaluations = 0;

  /// Space accounting (words): initial explicit palette footprint vs the
  /// final implicit-store footprint (populated when mirror_implicit).
  std::uint64_t explicit_palette_words = 0;
  std::unique_ptr<ImplicitPaletteStore> implicit_store;

  /// Host-side execution telemetry (stats_export emits it under "timing";
  /// deliberately kept out of CallStats so stats trees stay bit-comparable
  /// across thread counts). depth_seconds[d] sums, over all recursion calls
  /// at depth d, the wall-clock each call spent in its own body — partition
  /// and seed search, palette updates, collects — excluding time inside
  /// child recursions and time blocked on their completion.
  unsigned threads_used = 1;
  double wall_seconds = 0.0;
  std::vector<double> depth_seconds;

  ColorReduceResult(NodeId n) : coloring(n) {}
};

/// Run deterministic ColorReduce on (g, palettes). Every palette must be
/// strictly larger than the node's degree (p(v) > d(v)); both the classic
/// (Δ+1)(-list) setup and (deg+1)-lists satisfy this.
ColorReduceResult color_reduce(const Graph& g, const PaletteSet& palettes,
                               const ColorReduceConfig& config = {});

}  // namespace detcol
