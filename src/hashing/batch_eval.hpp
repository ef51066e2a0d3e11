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
// M61PowerTable. Each seed search builds its own, sharded over the engine's
// exec.
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
/// (points, independence) pair hold identical bytes.
class M61PowerTable {
 public:
  /// The construction shards over `exec` (static shard boundaries; every
  /// element is computed by the same kernel op either way).
  M61PowerTable(std::span<const std::uint64_t> points, unsigned independence,
                ExecContext exec = {});

  std::size_t num_points() const { return n_; }
  unsigned independence() const { return c_; }
  const std::uint64_t* row(unsigned j) const { return pow_.get() + j * n_; }

 private:
  unsigned c_;
  std::size_t n_;
  std::unique_ptr<std::uint64_t[]> pow_;  // c_ rows of n_ points
};

/// Source of power tables built elsewhere. acquire() must return a table for
/// exactly (points, independence) and must be thread-safe: engines are
/// constructed concurrently from sibling recursion tasks. Nothing in the
/// library implements it or passes a non-null one. It remains only for
/// LowSpaceSeedEngine's trailing `tables` parameter, which
/// perfbench/probes.cpp passes as nullptr.
class PowerTableProvider {
 public:
  virtual ~PowerTableProvider() = default;
  virtual std::shared_ptr<const M61PowerTable> acquire(
      std::span<const std::uint64_t> points, unsigned independence) = 0;
};

/// Build a table directly, sharded over `exec`, when `provider` is null;
/// else route through the provider. In the library only LowSpaceSeedEngine
/// calls it, and every library caller of that engine passes a null provider.
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

  /// Same engine on a pre-built power table. Load state is engine-private;
  /// the table is immutable.
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
