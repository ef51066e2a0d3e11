// Deterministic seed selection: the library's implementation of Section 2.4.
//
// The task: given a non-negative cost function q over seeds (in the paper,
// bad nodes + n * bad bins) with E[q] <= Q over a uniformly random seed, find
// deterministically a seed with q at most a threshold tau (>= Q).
//
// The model's method of conditional expectations fixes delta*log(n)-bit
// chunks, aggregating per-machine conditional expectations via O(1)-round
// prefix sums (free *local* computation makes exact conditional expectations
// affordable in the model, but not on a laptop — see "Deviations from the
// paper" in docs/ARCHITECTURE.md). We ship three interchangeable
// strategies, all deterministic end-to-end:
//
//  * kThresholdScan — enumerate seeds in a fixed order, evaluate q exactly,
//    stop at q <= tau. E[q] <= Q and Markov make success quick on random-like
//    families. Default for large instances.
//  * kMceSampled — the chunk-by-chunk search with conditional expectations
//    estimated as deterministic fixed-sample averages; exact final check,
//    scan fallback if the estimate misled us.
//  * kMceExact — exact conditional expectations by exhaustive enumeration of
//    the remaining seed space. Only feasible for small seeds; used by tests
//    to validate the mechanism end-to-end.
//
// Every strategy charges the ledger with the *paper's* round schedule
// (#chunks x 2 aggregation rounds, Lemma 2.1's O(1), plus one broadcast), so
// reported round counts reflect the algorithm being reproduced, not the
// host-side search shortcut.
//
// All strategies mutate one candidate buffer in place (prefix + chunk value
// + suffix completion) rather than rebuilding seeds, so consecutive cost()
// calls see seeds differing in few words. Cost backends that diff against
// the previous seed — core/seed_eval.hpp's SeedEvalEngine, the backend
// partition() installs — therefore pay only for the changed coefficients;
// the enumeration order and every returned result are unchanged.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "derand/seedbits.hpp"
#include "util/function_ref.hpp"

namespace detcol {

enum class SeedStrategy {
  kThresholdScan,
  kMceSampled,
  kMceExact,
};

struct SeedSelectConfig {
  SeedStrategy strategy = SeedStrategy::kThresholdScan;
  unsigned chunk_bits = 8;        // delta*log(n) bits per MCE chunk
  unsigned mce_samples = 4;       // completions per conditional estimate
  std::uint64_t scan_max_seeds = 64;  // scan budget before giving up
};

struct SeedSelectResult {
  /// Starts from a placeholder seed; every other field keeps its default
  /// (an explicit constructor, so partially-filled returns in the strategy
  /// implementations stay clean under -Wmissing-field-initializers).
  explicit SeedSelectResult(SeedBits initial_seed)
      : seed(std::move(initial_seed)) {}

  SeedBits seed;
  double cost = 0.0;              // exact cost of the chosen seed
  bool met_threshold = false;     // cost <= tau
  std::uint64_t evaluations = 0;  // host-side exact evaluations performed
  std::uint64_t rounds_charged = 0;  // model rounds of the MCE schedule
  std::uint64_t words_charged = 0;
  // For MCE strategies: the running estimate/bound after fixing each chunk;
  // the paper's argument makes this sequence non-increasing in expectation.
  std::vector<double> trajectory;
};

/// Non-owning: the strategies call `cost` tens of thousands of times per
/// search, and a FunctionRef invocation is one indirect call with no
/// type-erasure allocation (util/function_ref.hpp). Pass a named callable
/// (or an inline lambda as a call argument); do not *store* a SeedCostFn
/// built from a temporary.
using SeedCostFn = FunctionRef<double(const SeedBits&)>;

/// Select a seed of `num_bits` bits minimizing/thresholding `cost`.
/// `salt` namespaces the deterministic enumeration (callers pass a value
/// derived from recursion depth and instance id so sibling calls explore
/// different parts of the family in the same deterministic way).
SeedSelectResult select_seed(unsigned num_bits, SeedCostFn cost,
                             double threshold, const SeedSelectConfig& config,
                             std::uint64_t salt);

}  // namespace detcol
