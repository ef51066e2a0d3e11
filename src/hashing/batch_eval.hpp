// Batched, incremental evaluation of one c-wise independent hash function
// (Definition 2.3 / Lemma 2.4) over a fixed point set.
//
// The method of conditional expectations evaluates the *same* polynomial
// family at the *same* points under thousands of nearby coefficient vectors:
// consecutive candidates share most of their seed words. Writing the hash in
// monomial form,
//   h(x) = sum_j a_j x^j  over F_{2^61 - 1},
// a coefficient change a_j -> a_j' moves every evaluation by exactly
// (a_j' - a_j) * x^j. BatchKWiseEval precomputes the power table x^j for all
// points once, keeps the field value of every point under the currently
// loaded coefficients, and applies a new coefficient vector by diffing it
// word-by-word against the previous one — one multiply-add per point per
// *changed* coefficient instead of a full Horner pass per point per call.
//
// The power table itself is a pure function of (points, independence) — it
// carries no load state — so it lives in its own immutable value type,
// M61PowerTable, shareable across engines, threads and (via a
// PowerTableProvider) across whole runs: the serving layer keeps each
// instance's tables resident so repeated requests on one graph skip the
// O(n·c) table build entirely. Sharing is invisible in outputs: a cached
// table is byte-identical to a freshly built one (the construction is
// deterministic and every field kernel is bit-identical per element).
//
// Field values (and hence the range mapping of Section 2.3) are bit-identical
// to KWiseHash::field_eval / to_range: both compute the exact same element of
// F_p, just associated differently. tests/test_seed_eval.cpp asserts this.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "hashing/field.hpp"
#include "hashing/simd_kernels.hpp"

namespace detcol {

/// Immutable per-point power table: pow[j * n + i] = (point i)^j mod p for
/// j in [0, independence). Row 0 is all ones; row 1 is the reduced points.
/// Construction is deterministic and kernel-independent (all kernels are
/// bit-identical per element), so two tables built from the same
/// (points, independence) pair hold identical bytes — the property that
/// makes cross-request sharing safe.
class M61PowerTable {
 public:
  /// The construction shards over `exec` (static shard boundaries; every
  /// element is computed by the same kernel op either way).
  M61PowerTable(std::span<const std::uint64_t> points, unsigned independence,
                ExecContext exec = {});

  std::size_t num_points() const { return n_; }
  unsigned independence() const { return c_; }
  const std::uint64_t* row(unsigned j) const { return pow_.get() + j * n_; }
  std::size_t bytes() const { return c_ * n_ * sizeof(std::uint64_t); }

  /// True iff this table is exactly the one (points, independence) would
  /// build: same independence, same count, and every reduced point matches
  /// row 1. The table content is a pure function of the reduced points, so a
  /// true result guarantees byte-identity — providers use this to make hash
  /// collisions in their cache keys harmless.
  bool matches(std::span<const std::uint64_t> points,
               unsigned independence) const;

 private:
  unsigned c_;
  std::size_t n_;
  std::unique_ptr<std::uint64_t[]> pow_;  // c_ rows of n_ points
};

/// Source of shared power tables. acquire() must return a table for exactly
/// (points, independence) — typically from a cache, building on miss — and
/// must be thread-safe: engines are constructed concurrently from sibling
/// recursion tasks. Implementations live above the core layers (the serving
/// layer's per-instance store); pipeline configs carry a nullable pointer
/// and engines fall back to building private tables when it is null.
class PowerTableProvider {
 public:
  virtual ~PowerTableProvider() = default;
  virtual std::shared_ptr<const M61PowerTable> acquire(
      std::span<const std::uint64_t> points, unsigned independence) = 0;
};

/// Build a table directly, sharded over `exec`, when `provider` is null;
/// else route through the provider, which builds its own tables.
std::shared_ptr<const M61PowerTable> acquire_power_table(
    PowerTableProvider* provider, std::span<const std::uint64_t> points,
    unsigned independence, ExecContext exec);

class BatchKWiseEval {
 public:
  /// Build the power table for `points` (arbitrary 64-bit values; reduced
  /// mod p exactly like KWiseHash does) for a degree-(independence-1)
  /// polynomial with the given output `range` (>= 1).
  ///
  /// The engine captures the active field kernel (hashing/simd_kernels.hpp)
  /// here, so all passes of one engine run under one kernel even if the
  /// selection changes mid-search. Kernels are bit-identical per element, so
  /// which one is captured never shows in any output.
  BatchKWiseEval(std::span<const std::uint64_t> points, unsigned independence,
                 std::uint64_t range);

  /// Same engine on a pre-built (possibly shared) power table. Load state is
  /// engine-private; only the immutable table is shared.
  BatchKWiseEval(std::shared_ptr<const M61PowerTable> table,
                 std::uint64_t range);

  /// Load a coefficient vector given as raw 64-bit seed words (the same
  /// representation KWiseHash consumes; exactly `independence` words).
  /// Coefficients whose word is unchanged since the previous load() cost
  /// nothing; the initial state is the all-zero polynomial. Returns true if
  /// any field value moved — false means every point evaluates exactly as
  /// before, so callers can reuse anything derived from the values.
  ///
  /// The per-point multiply-add pass shards over `exec` (static shard
  /// boundaries; pure integer arithmetic, so the values are bit-identical
  /// for any thread count).
  bool load(std::span<const std::uint64_t> seed_words, ExecContext exec = {});

  /// Field value of point i under the loaded coefficients, in [0, p).
  std::uint64_t field_value(std::size_t i) const { return vals_[i]; }

  /// Range-mapped value of point i, in [0, range) — identical to
  /// KWiseHash::operator() for the loaded seed words.
  std::uint64_t bin(std::size_t i) const {
    return m61_to_range(vals_[i], range_);
  }

  /// Batched bin pass: out[i] = uint32(bin(i)) + offset for every point
  /// (out.size() must equal num_points()). Shards over `exec`; each shard
  /// runs the captured kernel's to_bins, bit-identical to the bin() loop.
  void bins_into(std::span<std::uint32_t> out, std::uint32_t offset,
                 ExecContext exec = {}) const;

  std::size_t num_points() const { return vals_.size(); }
  unsigned independence() const { return c_; }
  std::uint64_t range() const { return range_; }

 private:
  const FieldKernel* kernel_;
  unsigned c_;
  std::uint64_t range_;
  std::shared_ptr<const M61PowerTable> table_;
  std::vector<std::uint64_t> cur_words_;  // raw words currently applied
  std::vector<std::uint64_t> cur_;        // the same, reduced mod p
  std::vector<std::uint64_t> vals_;       // per-point field values
};

}  // namespace detcol
