// Costed CONGESTED CLIQUE model.
//
// The model (Section 1.1): n nodes, synchronous rounds, each ordered pair can
// exchange one O(log n)-bit word per round; local computation is unbounded.
// Lenzen's routing [15] lets any communication pattern where every node sends
// and receives O(n) words complete in O(1) rounds — the paper (Section 2.1)
// consumes routing, sorting and prefix sums as black boxes with exactly these
// guarantees, and so do we: each primitive *enforces its precondition* and
// charges its contract cost.
//
// Like MpcModel, the model is split along the instance/run-state boundary:
// CliqueModel is immutable (n and the two slack parameters) and shared
// read-only; every op charges into a caller-owned MpcCosts accumulator, so
// concurrent recursion branches account without locks and merge their
// accumulators in a fixed order at join points.
#pragma once

#include <cstdint>
#include <string>

#include "sim/mpc_costs.hpp"

namespace detcol {

/// Immutable CONGESTED CLIQUE model: every method is const, validates the
/// op's precondition against the fixed parameters and charges the contract
/// cost into `acc`. collect() folds its instance size into
/// `acc.peak_local_words` (the peak single-machine footprint).
///
/// The round cost of each primitive is a constant of the black-box result
/// the paper builds on (clique_sim.cpp: 2 rounds per Lenzen route, per
/// broadcast and per aggregation). The two slacks stay parameters, because
/// ColorReduceConfig sets them and tests shrink them to provoke violations.
class CliqueModel {
 public:
  /// `n` is the number of nodes of the input graph = number of machines.
  /// `route_slack` is the constant in Lenzen's O(n) send/receive bound;
  /// `collect_slack` the constant in the O(n)-words single-machine space
  /// bound (graph words + deg+1-truncated palettes of a collected instance).
  explicit CliqueModel(std::uint64_t n, double route_slack = 16.0,
                       double collect_slack = 16.0);

  std::uint64_t n() const { return n_; }

  /// Route an arbitrary message pattern: total `total_words` words, with no
  /// node sending or receiving more than `max_words_per_node`. Enforces the
  /// Lenzen precondition max_words_per_node <= route_slack * n.
  void lenzen_route(std::uint64_t total_words,
                    std::uint64_t max_words_per_node, const std::string& phase,
                    MpcCosts& acc) const;

  /// One node distributes `words` words to everyone (words <= n per the
  /// doubling broadcast; larger payloads charge proportionally).
  void broadcast(std::uint64_t words, const std::string& phase,
                 MpcCosts& acc) const;

  /// Global aggregation (sum/min/...) of `values` per-node contributions,
  /// e.g. the conditional-expectation sums of Section 2.4. `candidates`
  /// parallel aggregations share the same rounds as long as candidates <= n.
  void aggregate(std::uint64_t candidates, const std::string& phase,
                 MpcCosts& acc) const;

  /// Collect an instance of `words` words onto a single node. Enforces the
  /// O(n) local-space bound (the "size O(n)" branch of Algorithm 1).
  void collect(std::uint64_t words, const std::string& phase,
               MpcCosts& acc) const;

  /// Capacity available to collect() = collect_slack * n words.
  std::uint64_t collect_capacity() const;

  /// Per-node routing budget = route_slack * n words.
  std::uint64_t route_capacity() const;

 private:
  std::uint64_t n_;
  double route_slack_;
  double collect_slack_;
};

}  // namespace detcol
