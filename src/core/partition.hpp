// Algorithm 2 (Partition) with derandomized seed selection (Lemma 3.9).
//
// partition() selects hash functions h1 (nodes -> b bins) and h2 (colors ->
// b-1 bins) deterministically, so that there are no bad bins and the bad-node
// subgraph G0 is O(n) words (Corollary 3.10). It returns the node assignment
// plus the chosen h2 and (b > 2) its bin for every palette color, which the
// ColorReduce driver uses to restrict palettes of the color bins.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/classify.hpp"
#include "core/params.hpp"
#include "derand/strategies.hpp"
#include "exec/exec.hpp"
#include "graph/palette.hpp"
#include "hashing/kwise.hpp"
#include "sim/clique_sim.hpp"

namespace detcol {

struct PartitionResult {
  std::uint64_t num_bins = 0;  // b; color bins are 1..b-1, last bin is b
  Classification cls;          // classification under the chosen seed
  SeedSelectResult seed;       // chosen seed + selection telemetry
  KWiseHash h2;                // color hash (range b-1), chosen seed
  double ell_next = 0.0;       // ell' for the recursive calls
  // The palette restriction's inputs, from the seed engine: the instance's
  // palettes over their color universe, and per universe color its bin
  // h2(c)+1 (see PaletteSet::restrict_to_bin). Both are empty at b = 2,
  // where the one color bin keeps every color and nothing is restricted.
  PaletteIndex palettes;
  std::vector<std::uint32_t> color_bin;
};

/// Runs seed selection for Partition(G, ell) on `inst` and returns the
/// chosen partition. When both `model` and `costs` are non-null, charges the
/// seed-selection round schedule and the instance-routing cost through the
/// immutable `model` into the caller-owned `costs` accumulator. `salt` makes
/// sibling calls deterministic but distinct. The seed-evaluation engine
/// shards its per-node passes over `exec`; the chosen seed and
/// classification are bit-identical for any thread count.
PartitionResult partition(const Instance& inst, const PaletteSet& palettes,
                          std::uint64_t n_orig, const PartitionParams& params,
                          const CliqueModel* model, MpcCosts* costs,
                          std::uint64_t salt, ExecContext exec = {});

}  // namespace detcol
