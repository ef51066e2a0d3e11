#include "core/partition.hpp"

#include <algorithm>

#include "core/seed_eval.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/math.hpp"

namespace detcol {

PartitionResult partition(const Instance& inst, const PaletteSet& palettes,
                          std::uint64_t n_orig, const PartitionParams& params,
                          const CliqueModel* model, MpcCosts* costs,
                          std::uint64_t salt, ExecContext exec) {
  const std::uint64_t b = num_bins(inst.ell, params);
  DC_CHECK(b >= 2, "partition needs at least 2 bins");
  const unsigned c = params.independence;
  const unsigned h1_bits = KWiseHash::seed_bits(c);
  const unsigned h2_bits = KWiseHash::seed_bits(c);
  const unsigned total_bits = h1_bits + h2_bits;

  // Batched evaluator: power tables + distinct-color index built once,
  // every candidate below costs one incremental pass (bit-identical to the
  // naive classify(), see core/seed_eval.hpp).
  SeedEvalEngine engine(inst, palettes, n_orig, params, exec);

  // Acceptance: no bad bins and |G0| within the O(n) budget of Cor. 3.10.
  const double threshold =
      params.g0_budget * static_cast<double>(n_orig);
  const auto cost = [&engine](const SeedBits& s) {
    return engine.cost_size(s);
  };

  SeedSelectResult sel =
      select_seed(total_bits, cost, threshold, params.seed, salt);
  if (!sel.met_threshold) {
    DC_LOG_WARN << "partition seed search exhausted budget (best cost "
                << sel.cost << ", threshold " << threshold
                << ", n=" << inst.n() << ", ell=" << inst.ell << ")";
  }

  Classification cls = engine.evaluate(sel.seed);
  KWiseHash h2(sel.seed.word_range(c, c), b - 1);

  if (model != nullptr && costs != nullptr) {
    // The MCE schedule: per chunk, every machine contributes one partial
    // conditional expectation per candidate; aggregated via Lemma 2.1.
    const std::uint64_t chunks =
        ceil_div(total_bits, params.seed.chunk_bits);
    for (std::uint64_t i = 0; i < chunks; ++i) {
      model->aggregate(std::uint64_t{1} << params.seed.chunk_bits,
                       "seed-selection", *costs);
    }
    model->broadcast(ceil_div(total_bits, 64), "seed-selection", *costs);
    // Announce bins / reshuffle the instance into per-bin machine groups.
    // Each node moves its own row: 1 + deg(v) words.
    model->lenzen_route(inst.size_words(),
                        std::uint64_t{1} + inst.graph.max_degree(),
                        "partition-route", *costs);
  }

  // h2's bins were computed per distinct color by the last evaluate(); the
  // driver restricts palettes by looking them up (b > 2; both are empty at
  // b = 2).
  auto [index, color_bin] = std::move(engine).release_color_bins();
  return PartitionResult{b,
                         std::move(cls),
                         std::move(sel),
                         std::move(h2),
                         next_ell(inst.ell),
                         std::move(index),
                         std::move(color_bin)};
}

}  // namespace detcol
