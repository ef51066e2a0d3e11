#include "sim/mpc_sim.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace detcol {
namespace {

// Round costs of the primitives: the constants of the black-box results the
// paper builds on. Sorting and prefix sums are Lemma 2.1 (via [11]); a route
// is one round of an arbitrary pattern within the space bounds; a gather
// collects an instance onto one machine.
constexpr std::uint64_t kSortRounds = 3;
constexpr std::uint64_t kPrefixSumRounds = 2;
constexpr std::uint64_t kRouteRounds = 1;
constexpr std::uint64_t kGatherRounds = 2;

}  // namespace

MpcModel::MpcModel(std::uint64_t local_space, std::uint64_t total_space)
    : local_space_(local_space), total_space_(total_space) {
  DC_CHECK(local_space >= 1, "machine needs space");
  DC_CHECK(total_space >= local_space, "total space below local space");
}

void MpcModel::sort(std::uint64_t items, const std::string& phase,
                    MpcCosts& acc) const {
  DC_CHECK(items <= total_space_, "sort input of ", items,
           " words exceeds total space ", total_space_);
  acc.ledger.charge(phase, kSortRounds, items);
  ++acc.num_sorts;
}

void MpcModel::prefix_sum(std::uint64_t items, const std::string& phase,
                          MpcCosts& acc, std::uint64_t concurrent) const {
  const std::uint64_t volume = items * std::max<std::uint64_t>(1, concurrent);
  DC_CHECK(volume <= total_space_, "prefix-sum volume ", volume,
           " exceeds total space ", total_space_);
  acc.ledger.charge(phase, kPrefixSumRounds, volume);
  ++acc.num_prefix_sums;
}

void MpcModel::route(std::uint64_t total_words,
                     std::uint64_t max_words_per_machine,
                     const std::string& phase, MpcCosts& acc) const {
  DC_CHECK(max_words_per_machine <= local_space_,
           "machine traffic ", max_words_per_machine,
           " exceeds local space ", local_space_);
  DC_CHECK(total_words <= total_space_, "route volume exceeds total space");
  acc.ledger.charge(phase, kRouteRounds, total_words);
  ++acc.num_routes;
}

void MpcModel::gather(std::uint64_t words, const std::string& phase,
                      MpcCosts& acc) const {
  DC_CHECK(words <= local_space_, "gather of ", words,
           " words exceeds local space ", local_space_,
           " — instance too large for one machine");
  acc.peak_local_words = std::max(acc.peak_local_words, words);
  acc.ledger.charge(phase, kGatherRounds, words);
  ++acc.num_gathers;
}

void MpcModel::note_resident(std::uint64_t local_words,
                             std::uint64_t total_words, MpcCosts& acc) const {
  DC_CHECK(local_words <= local_space_, "resident local footprint ",
           local_words, " exceeds local space ", local_space_);
  DC_CHECK(total_words <= total_space_, "resident global footprint ",
           total_words, " exceeds total space ", total_space_);
  acc.note_resident(local_words, total_words);
}

}  // namespace detcol
