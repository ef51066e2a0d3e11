#include "derand/strategies.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/math.hpp"

namespace detcol {
namespace {

/// Rounds of one chunk's aggregation: Lemma 2.1's O(1)-round prefix sums.
constexpr std::uint64_t kAggregationRounds = 2;

/// Rounds the paper's MCE schedule charges for fixing `num_bits` bits in
/// chunks of `chunk_bits`: one aggregation per chunk, plus one final
/// broadcast of the winning seed.
std::uint64_t schedule_rounds(unsigned num_bits,
                              const SeedSelectConfig& config) {
  const std::uint64_t chunks = ceil_div(num_bits, config.chunk_bits);
  return chunks * kAggregationRounds + 1;
}

std::uint64_t schedule_words(unsigned num_bits,
                             const SeedSelectConfig& config) {
  // Each chunk aggregates 2^chunk_bits candidate sums (one word each per
  // machine is already folded into the aggregation primitive's accounting at
  // the call site; here we track candidate volume only).
  const std::uint64_t chunks = ceil_div(num_bits, config.chunk_bits);
  return chunks * (std::uint64_t{1} << std::min(config.chunk_bits, 20u));
}

SeedSelectResult run_threshold_scan(unsigned num_bits, SeedCostFn cost,
                                    double threshold,
                                    const SeedSelectConfig& config,
                                    std::uint64_t salt) {
  SeedSelectResult best{SeedBits(num_bits)};
  best.cost = std::numeric_limits<double>::infinity();
  SeedBits candidate(num_bits);  // reused; fill_suffix(0, ...) == expand()
  for (std::uint64_t i = 0; i < config.scan_max_seeds; ++i) {
    candidate.fill_suffix(0, salt, i);
    const double c = cost(candidate);
    ++best.evaluations;
    if (c < best.cost) {
      best.cost = c;
      best.seed = candidate;
    }
    if (best.cost <= threshold) {
      best.met_threshold = true;
      break;
    }
  }
  return best;
}

SeedSelectResult run_mce_sampled(unsigned num_bits, SeedCostFn cost,
                                 double threshold,
                                 const SeedSelectConfig& config,
                                 std::uint64_t salt) {
  SeedSelectResult r{SeedBits(num_bits)};
  SeedBits prefix(num_bits);
  SeedBits completion(num_bits);  // reused across all candidate evaluations
  unsigned fixed = 0;
  while (fixed < num_bits) {
    const unsigned count = std::min(config.chunk_bits, num_bits - fixed);
    const std::uint64_t candidates = std::uint64_t{1} << count;
    double best_est = std::numeric_limits<double>::infinity();
    std::uint64_t best_value = 0;
    for (std::uint64_t v = 0; v < candidates; ++v) {
      prefix.set_bits(fixed, count, v);
      double est = 0.0;
      const bool last_chunk = fixed + count >= num_bits;
      const unsigned samples = last_chunk ? 1 : config.mce_samples;
      for (unsigned s = 0; s < samples; ++s) {
        completion = prefix;  // same-length assign: no allocation
        if (!last_chunk) {
          // Common random completions across candidates: the same suffix
          // sample set is reused for every candidate value, so separable
          // costs are ranked exactly and variance cancels in comparisons.
          completion.fill_suffix(fixed + count, salt ^ (fixed * 0x9E37ULL), s);
        }
        est += cost(completion);
        ++r.evaluations;
      }
      est /= static_cast<double>(samples);
      if (est < best_est) {
        best_est = est;
        best_value = v;
      }
    }
    prefix.set_bits(fixed, count, best_value);
    fixed += count;
    r.trajectory.push_back(best_est);
  }
  r.seed = prefix;
  r.cost = cost(r.seed);
  ++r.evaluations;
  r.met_threshold = r.cost <= threshold;
  if (!r.met_threshold) {
    // The sampled estimates misled us; fall back to the deterministic scan
    // (still fully deterministic overall).
    SeedSelectResult scan =
        run_threshold_scan(num_bits, cost, threshold, config, salt ^ 0x1234);
    scan.evaluations += r.evaluations;
    scan.trajectory = std::move(r.trajectory);
    if (scan.cost < r.cost) return scan;
    r.evaluations = scan.evaluations;
  }
  return r;
}

SeedSelectResult run_mce_exact(unsigned num_bits, SeedCostFn cost,
                               double threshold,
                               const SeedSelectConfig& config,
                               std::uint64_t /*salt*/) {
  DC_CHECK(num_bits <= 24,
           "exact MCE enumerates 2^bits completions; seed too long (",
           num_bits, " bits)");
  SeedSelectResult r{SeedBits(num_bits)};
  SeedBits prefix(num_bits);
  SeedBits full(num_bits);  // reused across all exhaustive completions
  unsigned fixed = 0;
  while (fixed < num_bits) {
    const unsigned count = std::min(config.chunk_bits, num_bits - fixed);
    const std::uint64_t candidates = std::uint64_t{1} << count;
    const unsigned rest = num_bits - fixed - count;
    const std::uint64_t completions = std::uint64_t{1} << rest;
    double best_exp = std::numeric_limits<double>::infinity();
    std::uint64_t best_value = 0;
    for (std::uint64_t v = 0; v < candidates; ++v) {
      prefix.set_bits(fixed, count, v);
      double sum = 0.0;
      for (std::uint64_t w = 0; w < completions; ++w) {
        full = prefix;
        if (rest > 0) full.set_bits(fixed + count, rest, w);
        sum += cost(full);
        ++r.evaluations;
      }
      const double expectation = sum / static_cast<double>(completions);
      if (expectation < best_exp) {
        best_exp = expectation;
        best_value = v;
      }
    }
    prefix.set_bits(fixed, count, best_value);
    fixed += count;
    r.trajectory.push_back(best_exp);
  }
  r.seed = prefix;
  r.cost = cost(r.seed);
  ++r.evaluations;
  r.met_threshold = r.cost <= threshold;
  return r;
}

}  // namespace

SeedSelectResult select_seed(unsigned num_bits, SeedCostFn cost,
                             double threshold, const SeedSelectConfig& config,
                             std::uint64_t salt) {
  DC_CHECK(num_bits >= 1, "seed needs bits");
  DC_CHECK(config.chunk_bits >= 1 && config.chunk_bits <= 20,
           "chunk_bits must be in [1, 20]");
  SeedSelectResult r{SeedBits(num_bits)};
  switch (config.strategy) {
    case SeedStrategy::kThresholdScan:
      r = run_threshold_scan(num_bits, cost, threshold, config, salt);
      break;
    case SeedStrategy::kMceSampled:
      r = run_mce_sampled(num_bits, cost, threshold, config, salt);
      break;
    case SeedStrategy::kMceExact:
      r = run_mce_exact(num_bits, cost, threshold, config, salt);
      break;
  }
  r.rounds_charged = schedule_rounds(num_bits, config);
  r.words_charged = schedule_words(num_bits, config);
  return r;
}

}  // namespace detcol
