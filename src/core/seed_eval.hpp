// Batched seed-evaluation engine for derandomized partition (Lemma 3.9).
//
// One partition() call evaluates the classification cost of up to tens of
// thousands of candidate seeds on a *fixed* (instance, palettes) pair. The
// naive path rebuilds both hash functions and re-runs a Horner polynomial
// over every node id and every palette color per candidate — O(n·Δ) field
// evaluations each. SeedEvalEngine amortizes everything that does not depend
// on the seed:
//
//  * power tables  — x^j mod 2^61-1 for every node id and every *distinct*
//    palette color, built once per search (BatchKWiseEval) and sharded over
//    the engine's exec; a candidate whose seed shares a prefix with the
//    previous one (the method of conditional expectations changes one chunk
//    at a time) costs one multiply-add per point per changed coefficient;
//  * distinct-color memoization — h2 is evaluated once per distinct color in
//    the union of palettes instead of once per (node, color) pair; nodes
//    whose palette is the full color universe (every node, in the uniform
//    [Δ+1] case) read their p'(v) from a per-bin color count in O(1). The
//    universe and every partial palette's universe slots come from a
//    PaletteIndex (graph/palette.hpp), built in O(Σ|palette| + D log D) for
//    D distinct colors with both passes sharded over the engine's exec;
//  * one color bin — at b = 2, h2 has range 1 and sends every color to bin
//    1, so p'(v) is |P(v)| for a bin-1 node and 0 for a last-bin node. The
//    engine then builds neither the index nor h2's power table, and a
//    candidate that moves only h2's words keeps the memoized classification;
//  * scratch reuse — all classification buffers live in a ClassifyScratch
//    owned by the engine and reused across evaluations.
//
// evaluate() is bit-identical to classify() with KWiseHash pairs built from
// the same seed: identical field elements, identical range mapping, and the
// goodness arithmetic runs through the same classify_detail::finish kernel.
// tests/test_seed_eval.cpp asserts full equality, and that select_seed picks
// bit-identical seeds whichever backend drives the cost function.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/classify.hpp"
#include "core/params.hpp"
#include "derand/seedbits.hpp"
#include "exec/exec.hpp"
#include "graph/palette.hpp"
#include "hashing/batch_eval.hpp"

namespace detcol {

class SeedEvalEngine {
 public:
  /// Precomputes power tables and (b > 2) the distinct-color index for
  /// `inst` / `palettes`. Both must outlive the engine and stay unmodified
  /// while it is in use (partition() holds palettes fixed for the whole seed
  /// search).
  /// Every per-node pass of evaluate() shards over `exec` with static shard
  /// boundaries; outputs are bit-identical for any thread count (see
  /// exec/exec.hpp for the contract).
  SeedEvalEngine(const Instance& inst, const PaletteSet& palettes,
                 std::uint64_t n_orig, const PartitionParams& params,
                 ExecContext exec = {});

  /// Exact classification under `seed` (layout: independence words for h1,
  /// then independence words for h2 — partition()'s seed layout). The
  /// returned reference points into engine-owned scratch and is valid until
  /// the next evaluate() call.
  const Classification& evaluate(const SeedBits& seed);

  /// Convenience for SeedCostFn: the acceptance cost of Corollary 3.10.
  double cost_size(const SeedBits& seed) { return evaluate(seed).cost_size; }

  std::uint64_t num_bins() const { return b_; }

  /// Moves out the palette index and, per index color, its h2 bin (1..b-1)
  /// under the last evaluated seed — what the driver restricts the color
  /// bins' palettes with (PaletteSet::restrict_to_bin). Both are empty at
  /// b = 2, where the one color bin keeps every color. Consumes the engine.
  std::pair<PaletteIndex, std::vector<std::uint32_t>> release_color_bins() && {
    return {std::move(index_), std::move(cbin_)};
  }

 private:
  const Instance& inst_;
  const PaletteSet& pal_;
  std::uint64_t n_orig_;
  ExecContext exec_;
  std::uint64_t b_;
  unsigned c_;

  BatchKWiseEval h1_;  // points: original node ids, range b

  // b > 2 only (file comment): per node, full-universe flag (then p' comes
  // from the per-bin count) or its colors as slots of the universe, and h2
  // over the universe colors.
  PaletteIndex index_;
  std::optional<BatchKWiseEval> h2_;  // points: distinct colors, range b-1

  // Per-evaluation scratch. raw_bin / deg_in_bin are only recomputed when an
  // h1 coefficient actually moved, cbin_/colors_in_bin_ (b > 2) when h2 did.
  std::vector<std::uint32_t> cbin_;           // per distinct color: bin 1..b-1
  std::vector<std::uint64_t> colors_in_bin_;  // per color bin: |h2^-1(bin)|
  ClassifyScratch scratch_;
  bool primed_ = false;  // scratch holds a valid previous evaluation
};

/// Builds the two KWiseHash functions partition() derives from a seed (the
/// engine's evaluate() is bit-identical to classifying with this pair).
std::pair<KWiseHash, KWiseHash> seed_hash_pair(const SeedBits& seed,
                                               unsigned independence,
                                               std::uint64_t num_bins);

}  // namespace detcol
