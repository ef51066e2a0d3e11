// Batched seed-evaluation engines for the low-space MPC layer (Theorem 1.4).
//
// Both seed searches of the layer evaluate a fixed instance under thousands
// of nearby candidate seeds (the enumeration orders of derand/strategies.hpp
// mutate one candidate buffer in place), and both paid a naive full pass per
// candidate before this engine existed:
//
//  * LowSpacePartition (Algorithm 4): per candidate, rebuild (h1, h2) and
//    re-run a Horner polynomial per node and per palette color to count the
//    Lemma 4.5 violators.
//  * The derandomized-Luby MIS phase (Section 4.1): per candidate, rebuild h
//    and re-evaluate the priority polynomial at every reduction vertex on
//    every access of the phase simulation.
//
// LowSpaceSeedEngine amortizes everything that does not depend on the seed,
// exactly in the style of core/seed_eval.hpp:
//
//  * power tables (BatchKWiseEval) over the node ids and the distinct
//    palette colors, built once per search and sharded over exec — a
//    candidate costs one multiply-add per point per *changed* seed word;
//  * distinct-color memoization — h2 is evaluated once per distinct color in
//    the union of palettes; nodes whose palette is the full color universe
//    read their p'(v) from a per-bin color count in O(1). The index behind
//    it is the PaletteIndex SeedEvalEngine builds (graph/palette.hpp):
//    O(Σ|palette| + D log D) for D distinct colors, sharded over exec;
//  * one color bin — at b = 2, h2 has range 1, so p'(v) is |P(v)| and the
//    engine builds neither the index nor h2's power table; a candidate that
//    moves only h2's words keeps the memoized violator count;
//  * change tracking — an MCE chunk inside the h2 half of the seed leaves h1
//    untouched, so the d'(v) neighbor pass (the expensive O(m) part) is
//    skipped wholesale, and vice versa;
//  * scratch reuse — bins, d'/verdict buffers and color-bin counts live in
//    the engine and are reused across evaluations.
//
// MisPhaseEngine holds only the loaded seed's coefficients: a phase search
// evaluates a handful of seeds over millions of reduction vertices, so a
// per-vertex power table would cost more than it saves. A priority is a
// fixed-degree Horner step, evaluated where a simulation shard needs it.
//
// Every per-node pass shards over an ExecContext with static shard
// boundaries (exec/exec.hpp), so violation counts, verdicts and priorities
// are bit-identical for any thread count. violations() equals the naive
// per-candidate recomputation bit for bit; tests/test_lowspace_engine.cpp
// asserts this and that select_seed picks identical seeds on either backend.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "derand/seedbits.hpp"
#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"
#include "hashing/batch_eval.hpp"
#include "hashing/field.hpp"
#include "hashing/kwise.hpp"

namespace detcol {

class LowSpaceSeedEngine {
 public:
  /// Precomputes power tables and (b > 2) the distinct-color index for the
  /// local graph `g` with original ids `orig` and the palettes of the
  /// *original* graph. All three must outlive the engine and stay unmodified while it
  /// is in use (the driver holds palettes fixed for the whole seed search).
  /// Seed layout: `independence` words for h1 (range `num_bins`), then
  /// `independence` words for h2 (range `num_bins` - 1). `tables`, when
  /// non-null, supplies the power tables (see batch_eval.hpp). The driver
  /// passes none; the parameter stays for perfbench/probes.cpp, which passes
  /// nullptr explicitly.
  LowSpaceSeedEngine(const Graph& g, std::span<const NodeId> orig,
                     const PaletteSet& palettes, std::uint64_t num_bins,
                     unsigned independence, double slack_exp,
                     ExecContext exec = {},
                     PowerTableProvider* tables = nullptr);

  /// Number of Lemma 4.5 violators under `seed` — bit-identical to
  /// classifying every node from scratch with the KWiseHash pair built from
  /// the same words. Buffers are engine-owned and reused.
  std::uint64_t violations(const SeedBits& seed);

  /// SeedCostFn adapter.
  double cost(const SeedBits& seed) {
    return static_cast<double>(violations(seed));
  }

  /// Per-node h1 bins (1..b) of the last violations() call. Valid until the
  /// next call.
  std::span<const std::uint32_t> bins() const { return bin_; }

  /// Per-node Lemma 4.5 verdicts of the last violations() call: non-zero
  /// means the node keeps its color bin, zero diverts it to G0.
  std::span<const char> good() const { return good_; }

  std::uint64_t num_bins() const { return b_; }

  /// The palette index, and per index color its h2 bin (1..b-1) under the
  /// last violations() call: what the driver restricts the color bins'
  /// palettes with (PaletteSet::restrict_to_bin). Both are empty at b = 2,
  /// where the one color bin keeps every color.
  const PaletteIndex& palette_index() const { return index_; }
  std::span<const std::uint32_t> color_bins() const { return cbin_; }

 private:
  const Graph& g_;
  std::span<const NodeId> orig_;
  const PaletteSet& pal_;
  std::uint64_t b_;
  unsigned c_;

  BatchKWiseEval h1_;  // points: original node ids, range b

  // b > 2 only (file comment): the nodes' palettes over their color
  // universe, and h2 over the universe colors.
  PaletteIndex index_;
  std::optional<BatchKWiseEval> h2_;  // points: distinct colors, range b-1

  // Per node: its degree target d/b and slack (seed-independent doubles of
  // the Lemma 4.5 test, precomputed so every evaluation runs the identical
  // float ops).
  std::vector<double> dev_target_;
  std::vector<double> slack_;

  // Per-evaluation scratch. bin_/dprime_ are only recomputed when an h1
  // coefficient actually moved, cbin_/colors_in_bin_ (b > 2) when h2 did.
  std::vector<std::uint32_t> bin_;            // per node: h1 bin 1..b
  std::vector<std::uint64_t> dprime_;         // per node: same-bin degree
  std::vector<std::uint32_t> cbin_;           // per distinct color: 1..b-1
  std::vector<std::uint64_t> colors_in_bin_;  // per color bin: |h2^-1(bin)|
  std::vector<char> good_;                    // per node verdict
  std::uint64_t cached_bad_ = 0;
  bool primed_ = false;  // scratch holds a valid previous evaluation
  ExecContext exec_;
};

/// Reference oracle: the Lemma 4.5 violator count computed the naive way —
/// full h1/h2 evaluation per node and per palette color, d'/p' from scratch
/// — exactly as the pre-engine driver did. LowSpaceSeedEngine::violations()
/// must match it bit for bit; tests and benches diff the two backends
/// against this single implementation so they cannot drift apart.
/// `bins_out`/`good_out` (optional) receive the per-node bins and verdicts.
std::uint64_t lowspace_naive_violations(
    const Graph& g, std::span<const NodeId> orig, const PaletteSet& palettes,
    std::uint64_t num_bins, double slack_exp, const KWiseHash& h1,
    const KWiseHash& h2, std::vector<std::uint32_t>* bins_out = nullptr,
    std::vector<char>* good_out = nullptr);

/// 4-wise independent priorities for the derandomized-Luby phase seeds.
/// priority() is bit-identical to KWiseHash::field_eval on the same seed
/// words.
class MisPhaseEngine {
 public:
  /// Independence of the priority family: Luby's analysis needs only
  /// pairwise independence, and 4 matches the partition hashes.
  static constexpr unsigned kIndependence = 4;

  /// Load the candidate's coefficient words (layout: kIndependence words
  /// from bit 0). The initial state is the zero polynomial. Returns true
  /// when a coefficient's residue mod p moved — false means every vertex
  /// keeps its exact previous priority, so callers can reuse a phase
  /// simulation computed under the previous load.
  bool load(const SeedBits& seed);

  /// Field-value priority of reduction vertex x under the loaded seed:
  /// Horner from the highest coefficient, as KWiseHash::field_eval runs it.
  std::uint64_t priority(std::uint64_t x) const {
    const std::uint64_t xr = m61_reduce(x);
    std::uint64_t acc = coeffs_[kIndependence - 1];
    for (unsigned j = kIndependence - 1; j-- > 0;) {
      acc = m61_add(m61_mul(acc, xr), coeffs_[j]);
    }
    return acc;
  }

 private:
  std::array<std::uint64_t, kIndependence> coeffs_{};  // a_j, reduced mod p
};

}  // namespace detcol
