// Costed Massively Parallel Computation model.
//
// MPC (Section 1.1): M machines with s words of local space each; per round,
// each machine's total in+out traffic must fit in s. The paper relies on the
// MapReduce-era primitives of Goodrich et al. [11] (Lemma 2.1): sorting and
// prefix sums of N items in O(1) rounds with s = N^delta space per machine.
//
// The model is split along the instance/run-state boundary: MpcModel is
// immutable (space parameters + contract checks, shared read-only by any
// number of tasks); every op charges its contract cost into a caller-owned
// MpcCosts accumulator (sim/mpc_costs.hpp). Tasks therefore account
// concurrently without locks and merge their accumulators deterministically
// at join points.
#pragma once

#include <cstdint>
#include <string>

#include "sim/mpc_costs.hpp"

namespace detcol {

/// Immutable MPC space model. Every method is const: it validates the op's
/// space precondition against the fixed parameters and charges the contract
/// cost (rounds, words, peaks) into `acc`. Each primitive's round cost is a
/// constant of the black-box result the paper builds on (mpc_sim.cpp: sort
/// 3, prefix sum 2, route 1, gather 2). The two space bounds are what a
/// caller sets: LowSpace derives them from n and delta, tests pick small
/// ones to provoke violations.
class MpcModel {
 public:
  /// `local_space` = s in words; `total_space` = M*s in words.
  MpcModel(std::uint64_t local_space, std::uint64_t total_space);

  std::uint64_t local_space() const { return local_space_; }
  std::uint64_t total_space() const { return total_space_; }

  /// Sort `items` records distributed across machines (Lemma 2.1).
  void sort(std::uint64_t items, const std::string& phase,
            MpcCosts& acc) const;

  /// Prefix sums over `items` values; `concurrent` independent instances run
  /// side by side (Section 2.1: n^Omega(1) simultaneous aggregations).
  void prefix_sum(std::uint64_t items, const std::string& phase, MpcCosts& acc,
                  std::uint64_t concurrent = 1) const;

  /// Arbitrary routing of `total_words`, no machine sending/receiving more
  /// than `max_words_per_machine`.
  void route(std::uint64_t total_words, std::uint64_t max_words_per_machine,
             const std::string& phase, MpcCosts& acc) const;

  /// Collect `words` onto one machine (must fit in local space).
  void gather(std::uint64_t words, const std::string& phase,
              MpcCosts& acc) const;

  /// Record a data-at-rest footprint; enforces the global space bound and
  /// tracks the peak (Theorems 1.2-1.4 space accounting).
  void note_resident(std::uint64_t local_words, std::uint64_t total_words,
                     MpcCosts& acc) const;

 private:
  std::uint64_t local_space_;
  std::uint64_t total_space_;
};

}  // namespace detcol
