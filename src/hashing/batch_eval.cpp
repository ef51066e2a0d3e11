#include "hashing/batch_eval.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace detcol {

M61PowerTable::M61PowerTable(std::span<const std::uint64_t> points,
                             unsigned independence, ExecContext exec)
    : c_(independence), n_(points.size()) {
  DC_CHECK(independence >= 1, "hash needs at least one coefficient");
  DC_CHECK(independence <= 64, "independence beyond 64 is unsupported");
  const FieldKernel& kernel = active_field_kernel();
  // Left uninitialized: each shard writes its own columns of every row.
  pow_ = std::make_unique_for_overwrite<std::uint64_t[]>(
      static_cast<std::size_t>(c_) * n_);
  parallel_for_shards(
      exec, n_, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::fill(pow_.get() + begin, pow_.get() + end, 1);  // x^0
        if (c_ == 1) return;
        // Row 1 is the reduced points themselves (x^1 = m61_reduce(x),
        // exactly the m61_mul(1, m61_reduce(x)) the row recurrence would
        // compute); each later row multiplies the previous one by row 1
        // element-wise.
        std::uint64_t* x1 = pow_.get() + n_;
        kernel.reduce_row(x1, points.data(), begin, end);
        for (unsigned j = 2; j < c_; ++j) {
          kernel.mul_rows(pow_.get() + static_cast<std::size_t>(j) * n_,
                          pow_.get() + static_cast<std::size_t>(j - 1) * n_,
                          x1, begin, end);
        }
      });
}

std::shared_ptr<const M61PowerTable> acquire_power_table(
    PowerTableProvider* provider, std::span<const std::uint64_t> points,
    unsigned independence, ExecContext exec) {
  if (provider != nullptr) return provider->acquire(points, independence);
  return std::make_shared<M61PowerTable>(points, independence, exec);
}

BatchKWiseEval::BatchKWiseEval(std::span<const std::uint64_t> points,
                               unsigned independence, std::uint64_t range)
    : BatchKWiseEval(std::make_shared<M61PowerTable>(points, independence),
                     range) {}

BatchKWiseEval::BatchKWiseEval(std::shared_ptr<const M61PowerTable> table,
                               std::uint64_t range)
    : kernel_(&active_field_kernel()),
      c_(table->independence()),
      range_(range),
      table_(std::move(table)) {
  DC_CHECK(range >= 1, "hash range must be >= 1");
  cur_words_.assign(c_, 0);
  cur_.assign(c_, 0);
  vals_.assign(table_->num_points(), 0);  // zero polynomial -> 0 everywhere
}

bool BatchKWiseEval::load(std::span<const std::uint64_t> seed_words,
                          ExecContext exec) {
  DC_CHECK(seed_words.size() == c_, "expected ", c_, " seed words, got ",
           seed_words.size());
  const std::size_t n = vals_.size();
  // Collect the changed coefficients first, then apply them in one fused
  // pass over the value array: the per-point multiplies are independent, so
  // one pass pipelines better than one pass per coefficient.
  unsigned num_changed = 0;
  std::uint64_t deltas[64];
  const std::uint64_t* rows[64];
  for (unsigned j = 0; j < c_; ++j) {
    const std::uint64_t w = seed_words[j];
    if (w == cur_words_[j]) continue;
    const std::uint64_t a = m61_reduce(w);
    const std::uint64_t delta = m61_sub(a, cur_[j]);
    cur_words_[j] = w;
    cur_[j] = a;
    if (delta == 0) continue;  // distinct words, same residue
    deltas[num_changed] = delta;
    rows[num_changed] = table_->row(j);
    ++num_changed;
  }
  if (num_changed == 0) return false;
  parallel_for_shards(
      exec, n, [&](std::size_t, std::size_t begin, std::size_t end) {
        kernel_->mul_add_rows(vals_.data(), rows, deltas, num_changed, begin,
                              end);
      });
  return true;
}

void BatchKWiseEval::bins_into(std::span<std::uint32_t> out,
                               std::uint32_t offset, ExecContext exec) const {
  DC_CHECK(out.size() == vals_.size(), "bins_into expects one slot per point");
  parallel_for_shards(
      exec, vals_.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
        kernel_->to_bins(out.data(), vals_.data(), range_, offset, begin, end);
      });
}

}  // namespace detcol
