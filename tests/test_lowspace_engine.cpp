// Equivalence + invariance suite for the low-space seed engines (PR: batched
// + parallel seed search for the low-space MPC layer and distributed MCE).
// Mirrors tests/test_seed_eval.cpp's layering:
//
//  1. LowSpaceSeedEngine::violations() reproduces the naive per-candidate
//     recomputation (bins, verdicts, counts) bit for bit, including on the
//     incremental MCE candidate stream; MisPhaseEngine priorities equal
//     KWiseHash::field_eval.
//  2. select_seed() picks bit-identical seeds whichever backend drives the
//     cost, and reproduces golden fingerprints captured from the pre-engine
//     implementation.
//  3. End-to-end goldens: low_space_color, mis_list_color and
//     distributed_mce reproduce the pre-engine colorings, ledgers, counters
//     and agreed seeds.
//  4. ParallelInvariance: all three pipelines are bit-identical at 1/2/4/7
//     pool threads vs the sequential baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <string>

#include "baselines/random_trial.hpp"
#include "core/stats_export.hpp"
#include "derand/distributed_mce.hpp"
#include "derand/strategies.hpp"
#include "exec/exec.hpp"
#include "graph/generators.hpp"
#include "hashing/field.hpp"
#include "hashing/kwise.hpp"
#include "lowspace/low_space.hpp"
#include "lowspace/mis.hpp"
#include "lowspace/seed_engine.hpp"
#include "sim/network.hpp"
#include "util/math.hpp"

namespace detcol {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001B3ULL;
  return h;
}

std::uint64_t hash_colors(const std::vector<Color>& colors) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto c : colors) h = fnv(h, c);
  return h;
}

std::uint64_t seed_hash(const SeedBits& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto w : s.words()) h = fnv(h, w);
  return h;
}

constexpr unsigned kThreadMatrix[] = {1, 2, 4, 7};

// The naive per-candidate violator count exactly as the pre-engine
// low_space.cpp computed it — the lowspace_naive_violations reference
// oracle that seed_engine.hpp ships for tests and benches.
struct NaiveViolations {
  const Graph& g;
  std::span<const NodeId> orig;
  const PaletteSet& pal;
  std::uint64_t b;
  double slack_exp;

  std::uint64_t count(const KWiseHash& h1, const KWiseHash& h2,
                      std::vector<std::uint32_t>* bins_out,
                      std::vector<char>* good_out) const {
    return lowspace_naive_violations(g, orig, pal, b, slack_exp, h1, h2,
                                     bins_out, good_out);
  }

  double cost(const SeedBits& s, unsigned c) const {
    const KWiseHash h1(s.word_range(0, c), b);
    const KWiseHash h2(s.word_range(c, c), b - 1);
    return static_cast<double>(count(h1, h2, nullptr, nullptr));
  }
};

// --- Layer 1: engine vs naive ------------------------------------------

// Each engine test runs at b = 2 too, where the one color bin keeps every
// color and the engine reads p'(v) from the palette size: no index, no h2.

TEST(LowSpaceSeedEngine, MatchesNaiveOnUniformPalettes) {
  const Graph g = gen_random_regular(512, 24, 3);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  std::vector<NodeId> orig(g.num_nodes());
  std::iota(orig.begin(), orig.end(), NodeId{0});
  const unsigned c = 4;
  const unsigned bits = 2 * KWiseHash::seed_bits(c);
  for (const std::uint64_t b : {8u, 2u}) {
    const NaiveViolations naive{g, orig, pal, b, 0.6};
    LowSpaceSeedEngine engine(g, orig, pal, b, c, 0.6);
    for (unsigned i = 0; i < 24; ++i) {
      const SeedBits s = SeedBits::expand(bits, 0xE0A1, i);
      const KWiseHash h1(s.word_range(0, c), b);
      const KWiseHash h2(s.word_range(c, c), b - 1);
      std::vector<std::uint32_t> bins;
      std::vector<char> good;
      const std::uint64_t want = naive.count(h1, h2, &bins, &good);
      ASSERT_EQ(engine.violations(s), want) << "b=" << b << " seed " << i;
      ASSERT_EQ(std::vector<std::uint32_t>(engine.bins().begin(),
                                           engine.bins().end()),
                bins);
      ASSERT_EQ(std::vector<char>(engine.good().begin(), engine.good().end()),
                good);
    }
  }
}

TEST(LowSpaceSeedEngine, MatchesNaiveOnListPalettesAndSubinstance) {
  // Non-identity orig mapping with per-node lists: at b > 2 this exercises
  // the partial-palette index path (not the full-universe fast path). The
  // short lists (the (deg+1)-lists of a sparser graph) often hold no more
  // colors than d'(v), so at b = 2 too the verdicts depend on which node's
  // palette p'(v) counts.
  const Graph full = gen_gnp(400, 0.05, 9);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < 400; v += 3) nodes.push_back(v);
  const Graph g = induced_subgraph(full, nodes);
  const PaletteSet lists = PaletteSet::deg_plus_one_lists(full, 4000, 17);
  const PaletteSet short_lists =
      PaletteSet::deg_plus_one_lists(gen_gnp(400, 0.01, 3), 4000, 17);
  const unsigned c = 4;
  const unsigned bits = 2 * KWiseHash::seed_bits(c);
  for (const PaletteSet* pal : {&lists, &short_lists}) {
    for (const std::uint64_t b : {5u, 2u}) {
      const NaiveViolations naive{g, nodes, *pal, b, 0.6};
      LowSpaceSeedEngine engine(g, nodes, *pal, b, c, 0.6);
      for (unsigned i = 0; i < 16; ++i) {
        const SeedBits s = SeedBits::expand(bits, 0x5AB, i);
        ASSERT_EQ(engine.cost(s), naive.cost(s, c))
            << (pal == &lists ? "lists" : "short lists") << " b=" << b
            << " seed " << i;
      }
    }
  }
}

TEST(LowSpaceSeedEngine, MceCandidateStreamStaysExact) {
  // The exact evaluation order of the sampled-MCE strategy: chunk flips plus
  // deterministic suffix refills, where consecutive candidates share most
  // words — the incremental path the engine optimizes. The chunks of h2's
  // half leave h1's words alone, so at b = 2 those candidates return the
  // memoized count.
  const Graph g = gen_random_regular(256, 16, 5);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  std::vector<NodeId> orig(g.num_nodes());
  std::iota(orig.begin(), orig.end(), NodeId{0});
  const unsigned c = 4;
  const unsigned bits = 2 * KWiseHash::seed_bits(c);
  for (const std::uint64_t b : {6u, 2u}) {
    const NaiveViolations naive{g, orig, pal, b, 0.6};
    LowSpaceSeedEngine engine(g, orig, pal, b, c, 0.6);
    SeedBits prefix(bits);
    SeedBits completion(bits);
    unsigned checked = 0;
    for (unsigned fixed = 0; fixed < bits; fixed += 64) {
      for (std::uint64_t v = 0; v < 4; ++v) {
        prefix.set_bits(fixed, 64, 0x1234567ULL * (v + 1));
        for (unsigned s = 0; s < 2; ++s) {
          completion = prefix;
          completion.fill_suffix(fixed + 64 > bits ? bits : fixed + 64,
                                 0xABCD ^ fixed, s);
          ASSERT_EQ(engine.cost(completion), naive.cost(completion, c))
              << "b=" << b << " fixed=" << fixed << " v=" << v << " s=" << s;
          ++checked;
        }
      }
    }
    EXPECT_EQ(checked, 64u) << "b=" << b;
  }
}

TEST(MisPhaseEngine, PrioritiesMatchKWiseFieldEval) {
  const unsigned c = MisPhaseEngine::kIndependence;
  const unsigned bits = KWiseHash::seed_bits(c);
  // Vertex ids 0..256 plus ids at and beyond p, which field_eval reduces.
  std::vector<std::uint64_t> xs(257);
  std::iota(xs.begin(), xs.end(), std::uint64_t{0});
  for (const std::uint64_t x : {kMersenne61, kMersenne61 + 1,
                                std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
    xs.push_back(x);
  }
  MisPhaseEngine engine;
  const auto expect_field_eval = [&](const SeedBits& s, const char* what) {
    const KWiseHash naive(s.word_range(0, c), 1);
    for (const std::uint64_t x : xs) {
      ASSERT_EQ(engine.priority(x), naive.field_eval(x)) << what << " x=" << x;
    }
  };
  for (unsigned i = 0; i < 12; ++i) {
    const SeedBits s = SeedBits::expand(bits, 0x415, i);
    EXPECT_TRUE(engine.load(s)) << "seed " << i;
    expect_field_eval(s, "expanded seed");
    // The phase loop's simulation cache relies on a reload reporting that
    // nothing moved.
    EXPECT_FALSE(engine.load(s)) << "seed " << i;
  }

  // A word replaced by a different word with the same residue (w -> w + p)
  // is no change: load() says so and no priority moves.
  SeedBits s = SeedBits::expand(bits, 0x415, 12);
  s.set_bits(2 * 64, 64, 12345);
  ASSERT_TRUE(engine.load(s));
  std::vector<std::uint64_t> before;
  for (const std::uint64_t x : xs) before.push_back(engine.priority(x));
  s.set_bits(2 * 64, 64, 12345 + kMersenne61);
  EXPECT_FALSE(engine.load(s));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(engine.priority(xs[i]), before[i]) << "x=" << xs[i];
  }
  expect_field_eval(s, "same residue");

  // A changed residue moves.
  s.set_bits(2 * 64, 64, 12346);
  EXPECT_TRUE(engine.load(s));
  expect_field_eval(s, "changed residue");
}

// --- Layer 2: select_seed backend equivalence + golden seeds -------------

TEST(LowSpaceSelectSeedEquivalence, BackendsPickIdenticalSeeds) {
  // Both strategies, naive vs engine backend, on an instance small enough
  // that the naive sampled-MCE sweep stays in the fast budget.
  const Graph g = gen_random_regular(256, 12, 29);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  std::vector<NodeId> orig(g.num_nodes());
  std::iota(orig.begin(), orig.end(), NodeId{0});
  const std::uint64_t b = 6;
  const unsigned c = 4;
  const unsigned bits = 2 * KWiseHash::seed_bits(c);
  const NaiveViolations naive{g, orig, pal, b, 0.6};
  LowSpaceSeedEngine engine(g, orig, pal, b, c, 0.6);
  for (const auto strat :
       {SeedStrategy::kThresholdScan, SeedStrategy::kMceSampled}) {
    SeedSelectConfig cfg;
    cfg.strategy = strat;
    const std::function<double(const SeedBits&)> naive_cost =
        [&](const SeedBits& s) { return naive.cost(s, c); };
    const auto a = select_seed(bits, naive_cost, 0.0, cfg, 0x51);
    const auto e = select_seed(
        bits, [&engine](const SeedBits& s) { return engine.cost(s); }, 0.0,
        cfg, 0x51);
    EXPECT_EQ(a.seed, e.seed) << "strategy " << static_cast<int>(strat);
    EXPECT_EQ(a.cost, e.cost);
    EXPECT_EQ(a.evaluations, e.evaluations);
    EXPECT_EQ(a.met_threshold, e.met_threshold);
  }
}

// Golden fingerprints captured from the pre-engine implementation (naive
// violations cost, threshold scan and sampled MCE) at the seed commit of
// this PR. The engine-backed search must reproduce them bit for bit. The
// scan case also re-runs the naive backend (64 evals — cheap) as an inline
// cross-check of the goldens themselves.
TEST(LowSpaceGoldenSeeds, EngineReproducesPreEngineSeeds) {
  const Graph g = gen_random_regular(1024, 48, 21);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  std::vector<NodeId> orig(g.num_nodes());
  std::iota(orig.begin(), orig.end(), NodeId{0});
  const double n = static_cast<double>(g.num_nodes());
  const std::uint64_t b = std::max<std::uint64_t>(2, ipow_floor(n, 0.3));
  ASSERT_EQ(b, 7u);
  const unsigned c = 4;
  const unsigned bits = 2 * KWiseHash::seed_bits(c);
  const NaiveViolations naive{g, orig, pal, b, 0.6};
  LowSpaceSeedEngine engine(g, orig, pal, b, c, 0.6);

  struct Golden {
    SeedStrategy strategy;
    std::uint64_t want_hash;
    double want_cost;
    std::uint64_t want_evals;
  };
  const Golden goldens[] = {
      {SeedStrategy::kThresholdScan, 5824748792414655866ULL, 256.0, 64},
      {SeedStrategy::kMceSampled, 14608188979202963909ULL, 249.0, 64833},
  };
  for (const auto& gold : goldens) {
    SeedSelectConfig cfg;
    cfg.strategy = gold.strategy;
    const auto e = select_seed(
        bits, [&engine](const SeedBits& s) { return engine.cost(s); }, 0.0,
        cfg, 0x10A75EEDULL);
    EXPECT_EQ(seed_hash(e.seed), gold.want_hash);
    EXPECT_EQ(e.cost, gold.want_cost);
    EXPECT_EQ(e.evaluations, gold.want_evals);
    if (gold.strategy == SeedStrategy::kThresholdScan) {
      const std::function<double(const SeedBits&)> naive_cost =
          [&](const SeedBits& s) { return naive.cost(s, c); };
      const auto a = select_seed(bits, naive_cost, 0.0, cfg, 0x10A75EEDULL);
      EXPECT_EQ(a.seed, e.seed);
      EXPECT_EQ(a.cost, e.cost);
      EXPECT_EQ(a.evaluations, e.evaluations);
    }
  }
}

// --- Layer 3: end-to-end goldens ----------------------------------------

struct LsGolden {
  const char* name;
  Graph g;
  int pal_mode;  // 0 = delta+1 uniform, 1 = deg+1 lists
  double delta;
  std::uint64_t want_colorhash;
  std::uint64_t want_rounds;
  std::uint64_t want_words;
  std::uint64_t want_evals;
  std::uint64_t want_partitions;
  std::uint64_t want_mis_calls;
  std::uint64_t want_mis_phases;
  std::uint64_t want_violators;
  unsigned want_depth;
  std::uint64_t want_peak_local;
  std::uint64_t want_peak_total;
};

std::vector<LsGolden> lowspace_goldens() {
  std::vector<LsGolden> cases;
  cases.push_back({"regular", gen_random_regular(900, 64, 9), 0, 0.04,
                   6476234434080133322ULL, 8055, 990060, 136, 25, 40, 70, 0,
                   5, 544, 544});
  cases.push_back({"gnp", gen_gnp(800, 0.02, 3), 0, 0.08,
                   18377085292517401663ULL, 276, 86472, 4, 0, 1, 4, 0, 0,
                   210568, 210568});
  cases.push_back({"powerlaw", gen_power_law(1000, 2.5, 6.0, 5), 1, 0.08,
                   10418201203587392594ULL, 336, 46280, 4, 1, 3, 3, 0, 1,
                   5281, 5281});
  return cases;
}

PaletteSet golden_palettes(const LsGolden& cs) {
  return cs.pal_mode == 0
             ? PaletteSet::delta_plus_one(cs.g)
             : PaletteSet::deg_plus_one_lists(cs.g, 1u << 20, 7);
}

void expect_matches_golden(const LsGolden& cs, const LowSpaceResult& r) {
  EXPECT_EQ(hash_colors(r.coloring.color), cs.want_colorhash) << cs.name;
  EXPECT_EQ(r.ledger.total_rounds(), cs.want_rounds) << cs.name;
  EXPECT_EQ(r.ledger.total_words(), cs.want_words) << cs.name;
  EXPECT_EQ(r.seed_evaluations, cs.want_evals) << cs.name;
  EXPECT_EQ(r.num_partitions, cs.want_partitions) << cs.name;
  EXPECT_EQ(r.num_mis_calls, cs.want_mis_calls) << cs.name;
  EXPECT_EQ(r.total_mis_phases, cs.want_mis_phases) << cs.name;
  EXPECT_EQ(r.diverted_violators, cs.want_violators) << cs.name;
  EXPECT_EQ(r.depth_reached, cs.want_depth) << cs.name;
  EXPECT_EQ(r.mpc.peak_local_words, cs.want_peak_local) << cs.name;
  EXPECT_EQ(r.mpc.peak_total_words, cs.want_peak_total) << cs.name;
}

TEST(LowSpaceGolden, EndToEndResultsUnchangedFromPreEngine) {
  for (const auto& cs : lowspace_goldens()) {
    const PaletteSet pal = golden_palettes(cs);
    LowSpaceParams params;
    params.delta = cs.delta;
    expect_matches_golden(cs, low_space_color(cs.g, pal, params));
  }
}

TEST(MisGolden, ResultsUnchangedFromPreEngine) {
  struct MisCase {
    const char* name;
    Graph g;
    int mode;
    std::uint64_t salt;
    std::uint64_t want_colorhash;
    unsigned want_phases;
    std::uint64_t want_evals;
    std::uint64_t want_rounds;
    std::uint64_t want_words;
    std::uint64_t want_seed_rounds;
  };
  std::vector<MisCase> cases;
  cases.push_back({"gnp", gen_gnp(300, 0.04, 5), 0, 2,
                   1706959779285171007ULL, 4, 4, 276, 48456, 260});
  cases.push_back({"reg-lists", gen_random_regular(200, 8, 7), 1, 3,
                   7174990235811177752ULL, 1, 1, 69, 9964, 65});
  for (const auto& cs : cases) {
    const PaletteSet pal = cs.mode == 0
                               ? PaletteSet::delta_plus_one(cs.g)
                               : PaletteSet::random_lists(cs.g, 1u << 16, 9);
    std::vector<std::vector<Color>> pals(cs.g.num_nodes());
    for (NodeId v = 0; v < cs.g.num_nodes(); ++v) {
      const auto s = pal.palette(v);
      pals[v].assign(s.begin(), s.end());
    }
    const auto r = mis_list_color(cs.g, pals, {}, cs.salt);
    EXPECT_EQ(hash_colors(r.color), cs.want_colorhash) << cs.name;
    EXPECT_EQ(r.phases, cs.want_phases) << cs.name;
    EXPECT_EQ(r.seed_evaluations, cs.want_evals) << cs.name;
    EXPECT_EQ(r.mpc.ledger.total_rounds(), cs.want_rounds) << cs.name;
    EXPECT_EQ(r.mpc.ledger.total_words(), cs.want_words) << cs.name;
    EXPECT_EQ(r.mpc.ledger.by_phase().at("mis-seed").rounds,
              cs.want_seed_rounds)
        << cs.name;
  }
}

double dmce_graph_cost(const Graph& g, std::uint32_t v, const SeedBits& s) {
  const KWiseHash h(s.word_range(0, 2), 8);
  std::uint64_t clashes = 0;
  for (const NodeId u : g.neighbors(v)) {
    if (h(u) == h(v)) ++clashes;
  }
  return static_cast<double>(clashes);
}

TEST(DistributedMceGolden, AgreedSeedUnchangedFromPreEngine) {
  cc::Network net(32);
  const Graph g = gen_gnp(32, 0.3, 13);
  const auto cost = [&](std::uint32_t v, const SeedBits& s) {
    return dmce_graph_cost(g, v, s);
  };
  const auto r = distributed_mce(net, 128, 5, cost, 2, 0xD157ULL);
  EXPECT_EQ(seed_hash(r.seed), 12996693666342596589ULL);
  EXPECT_EQ(r.network_rounds, 52u);
  EXPECT_EQ(r.chunks, 26u);
  EXPECT_DOUBLE_EQ(r.final_estimate, 20.0);
}

// --- Layer 4: thread-count invariance -----------------------------------

TEST(ParallelInvariance, LowSpaceBitIdenticalAcrossThreadCounts) {
  for (const auto& cs : lowspace_goldens()) {
    const PaletteSet pal = golden_palettes(cs);
    LowSpaceParams base_params;
    base_params.delta = cs.delta;
    const auto base = low_space_color(cs.g, pal, base_params);
    expect_matches_golden(cs, base);
    const std::string base_ledger = ledger_to_json(base.ledger);
    const std::string base_mpc = mpc_costs_to_json(base.mpc);
    for (const unsigned t : kThreadMatrix) {
      ThreadPool pool(t);
      LowSpaceParams params = base_params;
      params.exec = ExecContext(pool);
      const auto r = low_space_color(cs.g, pal, params);
      EXPECT_EQ(r.coloring.color, base.coloring.color)
          << cs.name << " @ " << t << " threads";
      EXPECT_EQ(ledger_to_json(r.ledger), base_ledger)
          << cs.name << " @ " << t << " threads";
      EXPECT_EQ(mpc_costs_to_json(r.mpc), base_mpc)
          << cs.name << " @ " << t << " threads";
      EXPECT_EQ(r.seed_evaluations, base.seed_evaluations);
      EXPECT_EQ(r.num_partitions, base.num_partitions);
      EXPECT_EQ(r.num_mis_calls, base.num_mis_calls);
      EXPECT_EQ(r.total_mis_phases, base.total_mis_phases);
      EXPECT_EQ(r.diverted_violators, base.diverted_violators);
      EXPECT_EQ(r.depth_reached, base.depth_reached);
    }
  }
}

TEST(ParallelInvariance, LowSpaceMultiBinRestriction) {
  // delta = 0.2 gives b = 3 at n = 900, so palettes split across two
  // concurrently recursing color bins (the goldens above all have b = 2,
  // where the one color bin keeps every color and nothing is restricted);
  // a lower low-degree exponent makes every node partition. The
  // (deg+1)-list case diverts violators into G0. Fingerprints were captured
  // from the driver before the restriction became a table lookup.
  const Graph g = gen_random_regular(900, 64, 9);
  LowSpaceParams base_params;
  base_params.delta = 0.2;
  base_params.low_deg_coeff = 2.0;
  struct Case {
    PaletteSet pal;
    std::uint64_t want_colorhash;
    std::uint64_t want_rounds;
    std::uint64_t want_partitions;
  };
  const Case cases[] = {
      {PaletteSet::delta_plus_one(g), 3012226268473367904ULL, 1353, 4},
      {PaletteSet::deg_plus_one_lists(g, 1u << 20, 7),
       4114526900624743542ULL, 1068, 5}};
  for (const Case& cs : cases) {
    const auto base = low_space_color(g, cs.pal, base_params);
    ASSERT_TRUE(verify_coloring(g, cs.pal, base.coloring).ok);
    EXPECT_EQ(hash_colors(base.coloring.color), cs.want_colorhash);
    EXPECT_EQ(base.ledger.total_rounds(), cs.want_rounds);
    EXPECT_EQ(base.num_partitions, cs.want_partitions);
    for (const unsigned t : kThreadMatrix) {
      ThreadPool pool(t);
      LowSpaceParams params = base_params;
      params.exec = ExecContext(pool);
      const auto r = low_space_color(g, cs.pal, params);
      EXPECT_EQ(r.coloring.color, base.coloring.color) << t << " threads";
      EXPECT_EQ(ledger_to_json(r.ledger), ledger_to_json(base.ledger))
          << t << " threads";
      EXPECT_EQ(mpc_costs_to_json(r.mpc), mpc_costs_to_json(base.mpc))
          << t << " threads";
    }
  }
}

TEST(ParallelInvariance, MisBitIdenticalAcrossThreadCounts) {
  const Graph g = gen_power_law(400, 2.6, 6.0, 11);
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 16, 13);
  std::vector<std::vector<Color>> pals(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto s = pal.palette(v);
    pals[v].assign(s.begin(), s.end());
  }
  const auto base = mis_list_color(g, pals, {}, 4);
  const std::string base_ledger = ledger_to_json(base.mpc.ledger);
  const std::string base_mpc = mpc_costs_to_json(base.mpc);
  for (const unsigned t : kThreadMatrix) {
    ThreadPool pool(t);
    MisParams params;
    params.exec = ExecContext(pool);
    const auto r = mis_list_color(g, pals, params, 4);
    EXPECT_EQ(r.color, base.color) << t << " threads";
    EXPECT_EQ(r.phases, base.phases) << t << " threads";
    EXPECT_EQ(r.seed_evaluations, base.seed_evaluations) << t << " threads";
    EXPECT_EQ(ledger_to_json(r.mpc.ledger), base_ledger) << t << " threads";
    EXPECT_EQ(mpc_costs_to_json(r.mpc), base_mpc) << t << " threads";
  }
}

TEST(ParallelInvariance, MisShardedAtScale) {
  // n = 2^13 is four node shards at the default grain (the cases above fit
  // in one), and (deg+1)-lists from 2^8 colors give ~50k conflict edges
  // over ~80k reduction vertices. removal_fraction = 1 asks every phase to
  // remove every conflict edge, so each seed search spends its budget and
  // the selected seed is simulated again before it is applied.
  // Fingerprints were captured from the nested-vector reduction layout.
  const Graph g = gen_gnp(1u << 13, 12.0 / 8191, 17);
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 8, 5);
  std::vector<NodeId> orig(g.num_nodes());
  std::iota(orig.begin(), orig.end(), NodeId{0});
  struct Case {
    std::uint64_t removal_fraction;
    std::uint64_t want_colorhash;
    unsigned want_phases;
    std::uint64_t want_evals;
    const char* want_ledger;
  };
  const Case cases[] = {
      {16, 3137672151412708949ULL, 3, 3,
       R"({"total_rounds":207,"total_words":343110,"phases":{"mis-phase":)"
       R"({"rounds":12,"words":318534},"mis-seed":{"rounds":195,)"
       R"("words":24576}}})"},
      {1, 17664755818422763492ULL, 2, 65,
       R"({"total_rounds":138,"total_words":228740,"phases":{"mis-phase":)"
       R"({"rounds":8,"words":212356},"mis-seed":{"rounds":130,)"
       R"("words":16384}}})"},
  };
  for (const Case& cs : cases) {
    const std::string want_mpc =
        R"({"peak_local_words":180704,"peak_total_words":180704,)"
        R"("num_sorts":0,"num_prefix_sums":0,"num_routes":0,)"
        R"("num_gathers":0,"num_broadcasts":0,"num_aggregates":0,)"
        R"("num_collects":0,"ledger":)" +
        std::string(cs.want_ledger) + "}";
    for (const unsigned t : {0u, 1u, 2u, 4u, 7u}) {  // 0 = sequential
      MisParams params;
      params.removal_fraction = cs.removal_fraction;
      std::optional<ThreadPool> pool;
      if (t > 0) params.exec = ExecContext(pool.emplace(t));
      const auto r = mis_list_color(g, orig, pal, params, 11);
      const std::string where = "removal_fraction " +
                                std::to_string(cs.removal_fraction) + " @ " +
                                std::to_string(t) + " threads";
      Coloring coloring(g.num_nodes());
      coloring.color = r.color;
      EXPECT_TRUE(verify_coloring(g, pal, coloring).ok) << where;
      EXPECT_EQ(hash_colors(r.color), cs.want_colorhash) << where;
      EXPECT_EQ(r.phases, cs.want_phases) << where;
      EXPECT_EQ(r.seed_evaluations, cs.want_evals) << where;
      EXPECT_EQ(ledger_to_json(r.mpc.ledger), cs.want_ledger) << where;
      EXPECT_EQ(mpc_costs_to_json(r.mpc), want_mpc) << where;
    }
  }
}

TEST(ParallelInvariance, DistributedMceBitIdenticalAcrossThreadCounts) {
  const Graph g = gen_gnp(32, 0.3, 13);
  const auto cost = [&](std::uint32_t v, const SeedBits& s) {
    return dmce_graph_cost(g, v, s);
  };
  cc::Network base_net(32);
  const auto base = distributed_mce(base_net, 128, 5, cost, 2, 0xD157ULL);
  const std::string base_mpc = mpc_costs_to_json(base.mpc);
  for (const unsigned t : kThreadMatrix) {
    ThreadPool pool(t);
    cc::Network net(32);
    const auto r = distributed_mce(net, 128, 5, cost, 2, 0xD157ULL,
                                   ExecContext(pool));
    EXPECT_EQ(r.seed, base.seed) << t << " threads";
    EXPECT_EQ(r.network_rounds, base.network_rounds) << t << " threads";
    EXPECT_EQ(r.chunks, base.chunks) << t << " threads";
    EXPECT_EQ(r.final_estimate, base.final_estimate) << t << " threads";
    EXPECT_EQ(mpc_costs_to_json(r.mpc), base_mpc) << t << " threads";
  }
}

TEST(ParallelInvariance, RandomTrialBitIdenticalAcrossThreadCounts) {
  const Graph g = gen_random_regular(600, 16, 5);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  const auto base = random_trial_color(g, pal, 42);
  for (const unsigned t : kThreadMatrix) {
    ThreadPool pool(t);
    const auto r = random_trial_color(g, pal, 42, kRandomTrialMaxRounds,
                                     ExecContext(pool));
    EXPECT_EQ(r.coloring.color, base.coloring.color) << t << " threads";
    EXPECT_EQ(r.trial_rounds, base.trial_rounds) << t << " threads";
    EXPECT_EQ(r.words_sent, base.words_sent) << t << " threads";
  }
}

}  // namespace
}  // namespace detcol
