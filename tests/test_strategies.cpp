#include <gtest/gtest.h>

#include <cmath>

#include "derand/strategies.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

// A planted cost: counts the bits that differ from a target pattern, so the
// unique zero-cost seed is the pattern itself and conditional expectations
// are exactly (mismatches in prefix) + (remaining bits)/2.
double planted_cost(const SeedBits& s, std::uint64_t pattern, unsigned bits) {
  double c = 0;
  for (unsigned i = 0; i < bits; ++i) {
    const bool want = (pattern >> (i % 16)) & 1;
    if (s.get_bits(i, 1) != static_cast<std::uint64_t>(want)) c += 1.0;
  }
  return c;
}

TEST(ThresholdScan, StopsAtFirstGoodSeed) {
  // Cost: index-of-seed proxy via a hash of its first byte; pick a loose
  // threshold so an early seed qualifies.
  unsigned bits = 64;
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kThresholdScan;
  cfg.scan_max_seeds = 32;
  const auto cost = [&](const SeedBits& s) {
    return static_cast<double>(s.get_bits(0, 6));  // 0..63
  };
  const auto r = select_seed(bits, cost, 20.0, cfg, 11);
  EXPECT_TRUE(r.met_threshold);
  EXPECT_LE(r.cost, 20.0);
  EXPECT_LE(r.evaluations, cfg.scan_max_seeds);
}

TEST(ThresholdScan, ExhaustsBudgetKeepsBest) {
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kThresholdScan;
  cfg.scan_max_seeds = 8;
  const auto cost = [](const SeedBits&) { return 100.0; };
  const auto r = select_seed(64, cost, 1.0, cfg, 3);
  EXPECT_FALSE(r.met_threshold);
  EXPECT_EQ(r.cost, 100.0);
  EXPECT_EQ(r.evaluations, 8u);
}

TEST(ThresholdScan, Deterministic) {
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kThresholdScan;
  const auto cost = [](const SeedBits& s) {
    return static_cast<double>(s.get_bits(0, 8));
  };
  const auto a = select_seed(128, cost, 10.0, cfg, 42);
  const auto b = select_seed(128, cost, 10.0, cfg, 42);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.cost, b.cost);
}

TEST(MceExact, FindsSeedAtMostExpectation) {
  // 16-bit planted cost, expectation over uniform seeds = bits/2 = 8.
  const unsigned bits = 16;
  const std::uint64_t pattern = 0xC3A5;
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kMceExact;
  cfg.chunk_bits = 4;
  const auto cost = [&](const SeedBits& s) {
    return planted_cost(s, pattern, bits);
  };
  const auto r = select_seed(bits, cost, 8.0, cfg, 0);
  // Exact MCE on a separable cost finds the unique optimum.
  EXPECT_EQ(r.cost, 0.0);
  EXPECT_TRUE(r.met_threshold);
  // Trajectory of conditional expectations is non-increasing.
  for (std::size_t i = 1; i < r.trajectory.size(); ++i) {
    EXPECT_LE(r.trajectory[i], r.trajectory[i - 1] + 1e-9);
  }
  // First fixed chunk's conditional expectation is at most the prior mean.
  ASSERT_FALSE(r.trajectory.empty());
  EXPECT_LE(r.trajectory.front(), 8.0 + 1e-9);
}

TEST(MceExact, RejectsLongSeeds) {
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kMceExact;
  const auto cost = [](const SeedBits&) { return 0.0; };
  EXPECT_THROW(select_seed(30, cost, 1.0, cfg, 0), CheckError);
}

TEST(MceSampled, SolvesPlantedPatternDeterministically) {
  const unsigned bits = 64;
  const std::uint64_t pattern = 0xF00D;
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kMceSampled;
  cfg.chunk_bits = 8;
  cfg.mce_samples = 4;
  const auto cost = [&](const SeedBits& s) {
    return planted_cost(s, pattern, bits);
  };
  // Separable cost: sampled estimates rank candidates correctly, so the
  // planted optimum is found exactly.
  const auto a = select_seed(bits, cost, 32.0, cfg, 5);
  EXPECT_EQ(a.cost, 0.0);
  EXPECT_TRUE(a.met_threshold);
  const auto b = select_seed(bits, cost, 32.0, cfg, 5);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(MceSampled, FallsBackToScanWhenEstimatesMislead) {
  // Adversarial cost: good on most seeds (value 1) but the sampled-average
  // path can't see it; threshold however is met by scan easily.
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kMceSampled;
  cfg.chunk_bits = 8;
  cfg.mce_samples = 1;
  cfg.scan_max_seeds = 16;
  // Cost = 5 unless the first byte is exactly 0x77 (rare under MCE's greedy
  // walk, but the scan threshold of 5 accepts anything).
  const auto cost = [](const SeedBits& s) {
    return s.get_bits(0, 8) == 0x77 ? 0.0 : 5.0;
  };
  const auto r = select_seed(64, cost, 5.0, cfg, 9);
  EXPECT_TRUE(r.met_threshold);
  EXPECT_LE(r.cost, 5.0);
}

TEST(Schedule, RoundsChargedMatchChunkCount) {
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kThresholdScan;
  cfg.chunk_bits = 8;
  const auto cost = [](const SeedBits&) { return 0.0; };
  const auto r = select_seed(256, cost, 1.0, cfg, 0);
  // ceil(256/8)=32 chunks * 2 rounds + 1 broadcast.
  EXPECT_EQ(r.rounds_charged, 65u);
}

}  // namespace
}  // namespace detcol
