#include "sim/clique_sim.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/math.hpp"

namespace detcol {
namespace {

// Round costs of the primitives: the constants of the black-box results the
// paper builds on. Lenzen's routing [15] takes O(1) rounds, 2 in its common
// statement; a broadcast distributes and rebroadcasts; an aggregation
// converge-casts a sum/min/max and rebroadcasts the result.
constexpr std::uint64_t kLenzenRouteRounds = 2;
constexpr std::uint64_t kBroadcastRounds = 2;
constexpr std::uint64_t kAggregateRounds = 2;

}  // namespace

CliqueModel::CliqueModel(std::uint64_t n, double route_slack,
                         double collect_slack)
    : n_(n), route_slack_(route_slack), collect_slack_(collect_slack) {
  DC_CHECK(n >= 1, "clique needs at least one node");
  DC_CHECK(route_slack >= 1.0, "route slack must be >= 1");
  DC_CHECK(collect_slack >= 1.0, "collect slack must be >= 1");
}

std::uint64_t CliqueModel::collect_capacity() const {
  return static_cast<std::uint64_t>(collect_slack_ * static_cast<double>(n_));
}

std::uint64_t CliqueModel::route_capacity() const {
  return static_cast<std::uint64_t>(route_slack_ * static_cast<double>(n_));
}

void CliqueModel::lenzen_route(std::uint64_t total_words,
                               std::uint64_t max_words_per_node,
                               const std::string& phase, MpcCosts& acc) const {
  DC_CHECK(max_words_per_node <= route_capacity(),
           "Lenzen routing precondition violated: node moves ",
           max_words_per_node, " words but capacity is ", route_capacity());
  acc.ledger.charge(phase, kLenzenRouteRounds, total_words);
  ++acc.num_routes;
}

void CliqueModel::broadcast(std::uint64_t words, const std::string& phase,
                            MpcCosts& acc) const {
  // Payloads up to n words: spread word i to node i, then everyone
  // rebroadcasts — the standard 2-round doubling trick. Larger payloads
  // repeat the pattern.
  const std::uint64_t reps = std::max<std::uint64_t>(1, ceil_div(words, n_));
  acc.ledger.charge(phase, kBroadcastRounds * reps, words * n_);
  ++acc.num_broadcasts;
}

void CliqueModel::aggregate(std::uint64_t candidates, const std::string& phase,
                            MpcCosts& acc) const {
  DC_CHECK(candidates >= 1, "aggregate needs at least one value");
  // Node i is responsible for candidate i; everyone sends its contribution
  // for candidate i to node i (1 round, each node sends <= candidates <= n
  // words), then results are rebroadcast (1 round).
  const std::uint64_t reps =
      std::max<std::uint64_t>(1, ceil_div(candidates, n_));
  acc.ledger.charge(phase, kAggregateRounds * reps, candidates * n_);
  ++acc.num_aggregates;
}

void CliqueModel::collect(std::uint64_t words, const std::string& phase,
                          MpcCosts& acc) const {
  DC_CHECK(words <= collect_capacity(),
           "collect of ", words, " words exceeds single-machine capacity ",
           collect_capacity(),
           " — the 'size O(n)' precondition of Algorithm 1 is violated");
  acc.peak_local_words = std::max(acc.peak_local_words, words);
  acc.ledger.charge(phase, kLenzenRouteRounds, words);
  ++acc.num_collects;
}

}  // namespace detcol
