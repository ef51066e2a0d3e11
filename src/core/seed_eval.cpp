#include "core/seed_eval.hpp"

#include "util/check.hpp"

namespace detcol {

std::pair<KWiseHash, KWiseHash> seed_hash_pair(const SeedBits& seed,
                                               unsigned independence,
                                               std::uint64_t num_bins) {
  KWiseHash h1(seed.word_range(0, independence), num_bins);
  KWiseHash h2(seed.word_range(independence, independence), num_bins - 1);
  return {std::move(h1), std::move(h2)};
}

SeedEvalEngine::SeedEvalEngine(const Instance& inst, const PaletteSet& palettes,
                               std::uint64_t n_orig,
                               const PartitionParams& params, ExecContext exec)
    : inst_(inst),
      pal_(palettes),
      n_orig_(n_orig),
      exec_(exec),
      b_(::detcol::num_bins(inst.ell, params)),  // the free function, not
                                                 // the member accessor
      c_(params.independence),
      h1_(std::make_shared<const M61PowerTable>(
              std::vector<std::uint64_t>(inst.orig.begin(), inst.orig.end()),
              c_, exec),
          b_) {
  DC_CHECK(b_ >= 2, "partition needs at least 2 bins");
  if (b_ > 2) {  // several color bins (b = 2: no h2 state, header comment)
    index_ = PaletteIndex(inst.orig, palettes, exec);
    h2_.emplace(
        std::make_shared<const M61PowerTable>(index_.colors(), c_, exec),
        b_ - 1);
    cbin_.assign(index_.num_colors(), 0);
    colors_in_bin_.assign(b_ - 1, 0);
  }
}

const Classification& SeedEvalEngine::evaluate(const SeedBits& seed) {
  // Incremental coefficient load. The return values make the evaluation
  // prefix-aware: when the MCE walk is fixing bits of one hash, the other
  // hash's words are untouched and everything derived from it is reused —
  // for chunks inside the h2 half of the seed that skips the d'(v) pass,
  // the most expensive part of a classification. At b = 2 the
  // classification does not depend on h2's words at all.
  const bool h1_changed = h1_.load(seed.word_range(0, c_), exec_);
  const bool h2_changed = h2_ && h2_->load(seed.word_range(c_, c_), exec_);
  if (primed_ && !h1_changed && !h2_changed) return scratch_.cls;

  const NodeId n = inst_.n();
  Classification& out = scratch_.cls;
  out.num_bins = b_;

  if (h1_changed || !primed_) {
    scratch_.raw_bin.resize(n);
    h1_.bins_into(scratch_.raw_bin, /*offset=*/1, exec_);
    classify_detail::fill_deg_in_bin(inst_.graph, scratch_.raw_bin,
                                     out.deg_in_bin, exec_);
  }

  if (h2_ && (h2_changed || !primed_)) {
    // h2 once per distinct color (range mapping shards over exec_), plus
    // per-bin color counts for the full-palette fast path (serial: one add
    // per distinct color).
    h2_->bins_into(cbin_, /*offset=*/1, exec_);  // 1..b-1
    colors_in_bin_.assign(b_ - 1, 0);
    for (std::size_t k = 0; k < cbin_.size(); ++k) {
      ++colors_in_bin_[cbin_[k] - 1];
    }
  }

  // p'(v): memoized palette share. Every slot is written by its shard (the
  // serial assign() a resize leaves behind would be the one unsharded O(n)
  // pass of the pipeline).
  out.pal_in_bin.resize(n);
  parallel_for_shards(exec_, n, [&](std::size_t, std::size_t begin,
                                    std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      const std::uint32_t bin = scratch_.raw_bin[v];
      if (bin == b_) {
        out.pal_in_bin[v] = 0;  // last bin receives no colors
        continue;
      }
      if (!h2_) {  // the one color bin keeps every color
        out.pal_in_bin[v] = pal_.palette_size(inst_.orig[v]);
        continue;
      }
      if (index_.full(v)) {
        out.pal_in_bin[v] = colors_in_bin_[bin - 1];
        continue;
      }
      std::uint64_t p = 0;
      for (const std::uint32_t k : index_.slots(v)) {
        if (cbin_[k] == bin) ++p;
      }
      out.pal_in_bin[v] = p;
    }
  });

  classify_detail::finish(inst_, pal_, n_orig_, scratch_, exec_);
  primed_ = true;
  return out;
}

}  // namespace detcol
