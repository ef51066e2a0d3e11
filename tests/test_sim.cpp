#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/stats_export.hpp"
#include "sim/clique_sim.hpp"
#include "sim/ledger.hpp"
#include "sim/mpc_costs.hpp"
#include "sim/mpc_sim.hpp"
#include "sim/network.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

TEST(Ledger, ChargesAccumulate) {
  RoundLedger l;
  l.charge("a", 2, 10);
  l.charge("a", 3, 5);
  l.charge("b", 1);
  EXPECT_EQ(l.total_rounds(), 6u);
  EXPECT_EQ(l.total_words(), 15u);
  EXPECT_EQ(l.by_phase().at("a").rounds, 5u);
  EXPECT_EQ(l.by_phase().at("b").words, 0u);
}

TEST(Ledger, SequentialMerge) {
  RoundLedger a, b;
  a.charge("x", 2);
  b.charge("x", 3, 7);
  b.charge("y", 1);
  a.merge_sequential(b);
  EXPECT_EQ(a.total_rounds(), 6u);
  EXPECT_EQ(a.by_phase().at("x").rounds, 5u);
  EXPECT_EQ(a.total_words(), 7u);
}

TEST(Ledger, ParallelMergeTakesCriticalPath) {
  RoundLedger parent;
  parent.charge("setup", 1);
  RoundLedger c1, c2, c3;
  c1.charge("work", 10, 100);
  c2.charge("work", 4, 200);
  c3.charge("work", 7, 50);
  std::vector<RoundLedger> group = {c1, c2, c3};
  parent.merge_parallel(group);
  EXPECT_EQ(parent.total_rounds(), 11u);   // 1 + max(10,4,7)
  EXPECT_EQ(parent.total_words(), 350u);   // words always sum
  EXPECT_EQ(parent.by_phase().at("work").rounds, 10u);
}

TEST(Ledger, ParallelMergeEmptyGroupIsNoop) {
  RoundLedger l;
  l.charge("a", 1);
  l.merge_parallel(std::vector<RoundLedger>{});
  EXPECT_EQ(l.total_rounds(), 1u);
}

TEST(CliqueModel, ChargesAndTracksPeaks) {
  const CliqueModel model(100);
  MpcCosts acc;
  model.lenzen_route(500, 50, "route", acc);
  model.broadcast(10, "bcast", acc);
  model.aggregate(64, "agg", acc);
  model.collect(200, "collect", acc);
  EXPECT_GT(acc.ledger.total_rounds(), 0u);
  EXPECT_EQ(acc.peak_local_words, 200u);
  EXPECT_EQ(acc.num_routes, 1u);
  EXPECT_EQ(acc.num_broadcasts, 1u);
  EXPECT_EQ(acc.num_aggregates, 1u);
  EXPECT_EQ(acc.num_collects, 1u);
}

TEST(CliqueModel, EnforcesLenzenPrecondition) {
  const CliqueModel model(10, /*route_slack=*/2.0);
  MpcCosts acc;
  EXPECT_THROW(model.lenzen_route(100, 1000, "route", acc), CheckError);
}

TEST(CliqueModel, EnforcesCollectCapacity) {
  const CliqueModel model(10, 2.0, /*collect_slack=*/2.0);
  MpcCosts acc;
  EXPECT_THROW(model.collect(100, "collect", acc), CheckError);
  model.collect(20, "collect", acc);  // exactly at capacity is fine
}

TEST(CliqueModel, BigBroadcastChargesMore) {
  const CliqueModel model(10);
  MpcCosts a, b;
  model.broadcast(5, "x", a);
  model.broadcast(100, "x", b);  // 10 reps of the 2-round pattern
  EXPECT_GT(b.ledger.total_rounds(), a.ledger.total_rounds());
}

TEST(MpcModel, SpaceEnforcement) {
  const MpcModel model(100, 10000);
  MpcCosts acc;
  model.sort(5000, "sort", acc);
  model.prefix_sum(100, "ps", acc, 10);
  model.gather(99, "gather", acc);
  EXPECT_EQ(acc.num_sorts, 1u);
  EXPECT_EQ(acc.num_prefix_sums, 1u);
  EXPECT_EQ(acc.num_gathers, 1u);
  EXPECT_THROW(model.gather(101, "gather", acc), CheckError);
  EXPECT_THROW(model.sort(20000, "sort", acc), CheckError);
  EXPECT_THROW(model.route(50, 101, "route", acc), CheckError);
}

TEST(MpcModel, ResidentPeaksTracked) {
  const MpcModel model(100, 10000);
  MpcCosts acc;
  model.note_resident(50, 4000, acc);
  model.note_resident(80, 2000, acc);
  EXPECT_EQ(acc.peak_local_words, 80u);
  EXPECT_EQ(acc.peak_total_words, 4000u);
  EXPECT_THROW(model.note_resident(101, 200, acc), CheckError);
  EXPECT_THROW(model.note_resident(10, 20000, acc), CheckError);
}

/// Deterministically distinct accumulators for the merge-law tests.
MpcCosts sample_costs(std::uint64_t salt) {
  MpcCosts c;
  c.ledger.charge("alpha", 1 + salt % 3, 10 * (salt + 1));
  c.ledger.charge("beta", salt % 2, salt);
  if (salt % 2 == 0) c.ledger.charge("gamma", 2 + salt, 3);
  c.peak_local_words = 10 + 7 * salt;
  c.peak_total_words = 100 + 13 * salt;
  c.num_sorts = salt % 5;
  c.num_prefix_sums = salt % 3;
  c.num_routes = 1 + salt % 4;
  c.num_gathers = salt % 2;
  c.num_broadcasts = salt % 6;
  c.num_aggregates = salt % 7;
  c.num_collects = salt % 3;
  return c;
}

TEST(MpcCosts, SequentialMergeIsAssociative) {
  for (std::uint64_t s = 0; s < 4; ++s) {
    // (a · b) · c
    MpcCosts left = sample_costs(s);
    left.merge(sample_costs(s + 1));
    left.merge(sample_costs(s + 2));
    // a · (b · c)
    MpcCosts bc = sample_costs(s + 1);
    bc.merge(sample_costs(s + 2));
    MpcCosts right = sample_costs(s);
    right.merge(bc);
    EXPECT_EQ(mpc_costs_to_json(left), mpc_costs_to_json(right));
  }
}

TEST(MpcCosts, DefaultConstructedIsMergeIdentity) {
  const MpcCosts a = sample_costs(3);
  MpcCosts left;  // e · a
  left.merge(a);
  MpcCosts right = sample_costs(3);  // a · e
  right.merge(MpcCosts{});
  EXPECT_EQ(mpc_costs_to_json(left), mpc_costs_to_json(a));
  EXPECT_EQ(mpc_costs_to_json(right), mpc_costs_to_json(a));
}

TEST(MpcCosts, ParallelMergeCriticalPathAndScalarFolds) {
  MpcCosts parent = sample_costs(0);
  const MpcCosts c1 = sample_costs(1);
  const MpcCosts c2 = sample_costs(2);
  std::vector<MpcCosts> group = {c1, c2};
  parent.merge_parallel(group);
  const MpcCosts base = sample_costs(0);
  // Rounds: critical-path child only; words always sum.
  const MpcCosts& crit = c1.ledger.total_rounds() >= c2.ledger.total_rounds()
                             ? c1
                             : c2;
  EXPECT_EQ(parent.ledger.total_rounds(),
            base.ledger.total_rounds() + crit.ledger.total_rounds());
  EXPECT_EQ(parent.ledger.total_words(),
            base.ledger.total_words() + c1.ledger.total_words() +
                c2.ledger.total_words());
  // Peaks fold by max, counters by sum.
  EXPECT_EQ(parent.peak_local_words,
            std::max({base.peak_local_words, c1.peak_local_words,
                      c2.peak_local_words}));
  EXPECT_EQ(parent.peak_total_words,
            std::max({base.peak_total_words, c1.peak_total_words,
                      c2.peak_total_words}));
  EXPECT_EQ(parent.num_routes,
            base.num_routes + c1.num_routes + c2.num_routes);
  EXPECT_EQ(parent.num_sorts, base.num_sorts + c1.num_sorts + c2.num_sorts);
}

TEST(MpcCosts, ParallelMergeEmptyGroupIsNoop) {
  MpcCosts c = sample_costs(2);
  c.merge_parallel(std::vector<MpcCosts>{});
  EXPECT_EQ(mpc_costs_to_json(c), mpc_costs_to_json(sample_costs(2)));
}

TEST(Network, DeliversMessages) {
  cc::Network net(4);
  net.send(0, 1, 42);
  net.send(2, 1, 43);
  net.deliver();
  const auto inbox = net.inbox(1);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(net.round(), 1u);
  EXPECT_EQ(net.total_words_sent(), 2u);
}

TEST(Network, EnforcesPerLinkBandwidth) {
  cc::Network net(3, 1);
  net.send(0, 1, 1);
  EXPECT_THROW(net.send(0, 1, 2), CheckError);  // same link, same round
  net.deliver();
  net.send(0, 1, 2);  // fresh round OK
}

TEST(Network, RejectsSelfSend) {
  cc::Network net(3);
  EXPECT_THROW(net.send(1, 1, 0), CheckError);
}

}  // namespace
}  // namespace detcol
