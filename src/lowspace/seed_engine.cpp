#include "lowspace/seed_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace detcol {

LowSpaceSeedEngine::LowSpaceSeedEngine(const Graph& g,
                                       std::span<const NodeId> orig,
                                       const PaletteSet& palettes,
                                       std::uint64_t num_bins,
                                       unsigned independence, double slack_exp,
                                       ExecContext exec,
                                       PowerTableProvider* tables)
    : g_(g),
      orig_(orig),
      pal_(palettes),
      b_(num_bins),
      c_(independence),
      h1_(acquire_power_table(
              tables,
              std::vector<std::uint64_t>(orig.begin(), orig.end()), c_, exec),
          b_),
      exec_(exec) {
  DC_CHECK(b_ >= 2, "low-space partition needs at least 2 bins");
  DC_CHECK(orig.size() == g.num_nodes(), "orig map size mismatch");
  if (b_ > 2) {  // several color bins (b = 2: no h2 state, header comment)
    index_ = PaletteIndex(orig, palettes, exec);
    h2_.emplace(acquire_power_table(tables, index_.colors(), c_, exec),
                b_ - 1);
    cbin_.assign(index_.num_colors(), 0);
    colors_in_bin_.assign(b_ - 1, 0);
  }

  const NodeId n = g.num_nodes();
  dev_target_.resize(n);
  slack_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const double d = static_cast<double>(g.degree(v));
    dev_target_[v] = d / static_cast<double>(b_);
    slack_[v] = std::pow(std::max(d, 2.0), slack_exp);
  }
  bin_.assign(n, 0);
  dprime_.assign(n, 0);
  good_.assign(n, 0);
}

std::uint64_t LowSpaceSeedEngine::violations(const SeedBits& seed) {
  // Incremental coefficient load: an MCE chunk inside the h2 half leaves h1
  // untouched and skips the O(m) d'(v) pass entirely, and vice versa. At
  // b = 2 the verdicts do not depend on h2's words at all.
  const bool h1_changed = h1_.load(seed.word_range(0, c_), exec_);
  const bool h2_changed = h2_ && h2_->load(seed.word_range(c_, c_), exec_);
  if (primed_ && !h1_changed && !h2_changed) return cached_bad_;

  const NodeId n = g_.num_nodes();
  if (h1_changed || !primed_) {
    h1_.bins_into(bin_, /*offset=*/1, exec_);
    // d'(v) needs every neighbor's bin, so it runs as a second pass after
    // the bin fill's barrier.
    parallel_for_shards(exec_, n, [&](std::size_t, std::size_t begin,
                                      std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        std::uint64_t d = 0;
        const std::uint32_t mine = bin_[v];
        for (const NodeId u : g_.neighbors(static_cast<NodeId>(v))) {
          if (bin_[u] == mine) ++d;
        }
        dprime_[v] = d;
      }
    });
  }

  if (h2_ && (h2_changed || !primed_)) {
    h2_->bins_into(cbin_, /*offset=*/1, exec_);  // 1..b-1
    colors_in_bin_.assign(b_ - 1, 0);
    for (std::size_t k = 0; k < cbin_.size(); ++k) {
      ++colors_in_bin_[cbin_[k] - 1];
    }
  }

  // Verdict pass: the exact Lemma 4.5 test of the naive implementation (the
  // float ops run on the precomputed per-node doubles, so they associate
  // identically), with p'(v) the palette size at b = 2, else memoized per
  // distinct color and read in O(1) for full-universe palettes.
  // Shard-ordered integer sum.
  cached_bad_ = parallel_reduce_shards(
      exec_, n, std::uint64_t{0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::uint64_t bad = 0;
        for (std::size_t v = begin; v < end; ++v) {
          const std::uint64_t dprime = dprime_[v];
          bool ok = std::abs(static_cast<double>(dprime) - dev_target_[v]) <=
                    slack_[v];
          if (ok && bin_[v] != b_) {
            std::uint64_t pprime = 0;
            if (!h2_) {  // the one color bin keeps every color
              pprime = pal_.palette_size(orig_[v]);
            } else if (index_.full(v)) {
              pprime = colors_in_bin_[bin_[v] - 1];
            } else {
              for (const std::uint32_t k : index_.slots(v)) {
                if (cbin_[k] == bin_[v]) ++pprime;
              }
            }
            if (pprime <= dprime) ok = false;
          }
          good_[v] = ok ? 1 : 0;
          if (!ok) ++bad;
        }
        return bad;
      },
      [](std::uint64_t acc, std::uint64_t part) { return acc + part; });
  primed_ = true;
  return cached_bad_;
}

std::uint64_t lowspace_naive_violations(
    const Graph& g, std::span<const NodeId> orig, const PaletteSet& palettes,
    std::uint64_t num_bins, double slack_exp, const KWiseHash& h1,
    const KWiseHash& h2, std::vector<std::uint32_t>* bins_out,
    std::vector<char>* good_out) {
  std::uint64_t bad = 0;
  std::vector<std::uint32_t> bin(g.num_nodes());
  // Bulk h1 pass through the active field kernel, so the naive/engine
  // equivalence tests exercise the kernel on both sides of the comparison.
  const std::vector<std::uint64_t> pts(orig.begin(), orig.end());
  h1.eval_bins_many(pts, bin, /*offset=*/1);
  if (good_out != nullptr) good_out->assign(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::uint64_t dprime = 0;
    for (const NodeId u : g.neighbors(v)) {
      if (bin[u] == bin[v]) ++dprime;
    }
    const double d = static_cast<double>(g.degree(v));
    const double slack = std::pow(std::max(d, 2.0), slack_exp);
    bool ok = std::abs(static_cast<double>(dprime) -
                       d / static_cast<double>(num_bins)) <= slack;
    if (ok && bin[v] != num_bins) {
      std::uint64_t pprime = 0;
      for (const Color col : palettes.palette(orig[v])) {
        if (h2(col) + 1 == bin[v]) ++pprime;
      }
      if (pprime <= dprime) ok = false;
    }
    if (!ok) ++bad;
    if (good_out != nullptr) (*good_out)[v] = ok ? 1 : 0;
  }
  if (bins_out != nullptr) *bins_out = std::move(bin);
  return bad;
}

bool MisPhaseEngine::load(const SeedBits& seed) {
  const auto words = seed.word_range(0, kIndependence);
  bool moved = false;
  for (unsigned j = 0; j < kIndependence; ++j) {
    const std::uint64_t a = m61_reduce(words[j]);
    moved = moved || a != coeffs_[j];
    coeffs_[j] = a;
  }
  return moved;
}

}  // namespace detcol
