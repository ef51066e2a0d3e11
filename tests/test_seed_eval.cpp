// Equivalence suite for the batched seed-evaluation engine (PR: incremental
// batched seed evaluation). Three layers of guarantees:
//
//  1. BatchKWiseEval computes the exact field elements / range values of
//     KWiseHash for arbitrary (including incremental) coefficient loads.
//  2. SeedEvalEngine::evaluate() reproduces classify() bit for bit — every
//     Classification field — on uniform and non-uniform palette instances.
//  3. select_seed() picks bit-identical SeedBits whichever cost backend
//     drives it (naive classify vs engine), for all three strategies; and
//     the engine-backed pipeline reproduces golden fingerprints captured
//     from the pre-engine implementation (seed hashes, end-to-end coloring
//     hashes and round counts).
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/color_reduce.hpp"
#include "core/partition.hpp"
#include "core/seed_eval.hpp"
#include "core/stats_export.hpp"
#include "exec/exec.hpp"
#include "graph/generators.hpp"
#include "hashing/batch_eval.hpp"
#include "util/rng.hpp"

namespace detcol {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001B3ULL;
  return h;
}

std::uint64_t seed_hash(const SeedBits& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto w : s.words()) h = fnv(h, w);
  return h;
}

Instance root_instance(const Graph& g) {
  Instance inst;
  inst.orig.resize(g.num_nodes());
  std::iota(inst.orig.begin(), inst.orig.end(), NodeId{0});
  inst.graph = g;
  inst.ell = std::max(1.0, static_cast<double>(g.max_degree()));
  return inst;
}

void expect_classifications_equal(const Classification& a,
                                  const Classification& b) {
  EXPECT_EQ(a.num_bins, b.num_bins);
  EXPECT_EQ(a.bin_of, b.bin_of);
  EXPECT_EQ(a.deg_in_bin, b.deg_in_bin);
  EXPECT_EQ(a.pal_in_bin, b.pal_in_bin);
  EXPECT_EQ(a.num_bad_nodes, b.num_bad_nodes);
  EXPECT_EQ(a.num_bad_bins, b.num_bad_bins);
  EXPECT_EQ(a.reclassified, b.reclassified);
  EXPECT_EQ(a.bad_graph_words, b.bad_graph_words);
  EXPECT_EQ(a.bin_sizes, b.bin_sizes);
  EXPECT_EQ(a.cost_q, b.cost_q);        // bit-identical doubles, not approx
  EXPECT_EQ(a.cost_size, b.cost_size);
}

// --- Layer 1: BatchKWiseEval vs KWiseHash -------------------------------

TEST(BatchEval, MatchesNaiveOnRandomLoads) {
  Xoshiro256 rng(42);
  std::vector<std::uint64_t> points(257);
  for (auto& p : points) p = rng.next();     // arbitrary 64-bit, incl. >= p
  points[0] = 0;
  points[1] = kMersenne61;                   // reduces to 0
  points[2] = kMersenne61 - 1;
  const unsigned c = 4;
  const std::uint64_t range = 7;
  BatchKWiseEval batch(points, c, range);
  std::vector<std::uint64_t> words(c, 0);
  for (int round = 0; round < 20; ++round) {
    for (auto& w : words) w = rng.next();
    batch.load(words);
    const KWiseHash naive(words, range);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ASSERT_EQ(batch.field_value(i), naive.field_eval(points[i]))
          << "round " << round << " point " << i;
      ASSERT_EQ(batch.bin(i), naive(points[i]));
    }
  }
}

TEST(BatchEval, IncrementalSingleCoefficientChanges) {
  // The MCE access pattern: consecutive loads differ in one word.
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> points(100);
  for (std::size_t i = 0; i < points.size(); ++i) points[i] = i * 31 + 5;
  const unsigned c = 4;
  BatchKWiseEval batch(points, c, 11);
  std::vector<std::uint64_t> words(c, 0);
  for (int step = 0; step < 64; ++step) {
    words[step % c] = rng.next();
    batch.load(words);
    const KWiseHash naive(words, 11);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ASSERT_EQ(batch.field_value(i), naive.field_eval(points[i]));
    }
  }
}

TEST(BatchEval, DistinctWordsSameResidue) {
  // w and w + p are distinct 64-bit words with equal residues; the diff must
  // recognize the no-op (delta 0) and keep values exact.
  std::vector<std::uint64_t> points = {3, 5, 1000000007ULL};
  BatchKWiseEval batch(points, 2, 5);
  std::vector<std::uint64_t> words = {17, 99};
  batch.load(words);
  const std::vector<std::uint64_t> before = {
      batch.field_value(0), batch.field_value(1), batch.field_value(2)};
  words[0] = 17 + kMersenne61;  // same residue, different word
  batch.load(words);
  EXPECT_EQ(batch.field_value(0), before[0]);
  EXPECT_EQ(batch.field_value(1), before[1]);
  EXPECT_EQ(batch.field_value(2), before[2]);
  const KWiseHash naive(words, 5);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batch.field_value(i), naive.field_eval(points[i]));
  }
}

TEST(BatchEval, ShardedPowerTableMatchesSequential) {
  // 10,007 points are five shards of the 2048-point grain, so at 2+ threads
  // concurrently running shards write the columns of every row.
  Xoshiro256 rng(2048);
  std::vector<std::uint64_t> points(10007);
  for (auto& p : points) p = rng.next();
  points[0] = kMersenne61;  // reduces to 0
  const unsigned c = 4;
  const M61PowerTable want(points, c);
  for (const unsigned t : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(t);
    const auto got =
        acquire_power_table(nullptr, points, c, ExecContext(pool));
    ASSERT_EQ(got->num_points(), points.size());
    ASSERT_EQ(got->independence(), c);
    for (unsigned j = 0; j < c; ++j) {
      EXPECT_TRUE(std::equal(want.row(j), want.row(j) + points.size(),
                             got->row(j)))
          << t << " threads, row " << j;
    }
  }
}

// --- Layer 2: SeedEvalEngine vs classify() ------------------------------

/// Three color bins: the engine indexes the palettes and evaluates h2 per
/// distinct color. The default b = 2 has one color bin and does neither.
PartitionParams four_bins() {
  PartitionParams params;
  params.min_bins = 4;
  return params;
}

void check_engine_matches_classify(const Instance& inst, const PaletteSet& pal,
                                   std::uint64_t n_orig,
                                   const PartitionParams& params,
                                   unsigned num_seeds) {
  const unsigned c = params.independence;
  const unsigned bits = 2 * KWiseHash::seed_bits(c);
  const std::uint64_t b = num_bins(inst.ell, params);
  SeedEvalEngine engine(inst, pal, n_orig, params);
  ClassifyScratch scratch;
  for (unsigned i = 0; i < num_seeds; ++i) {
    const SeedBits s = SeedBits::expand(bits, 0xE0A1, i);
    auto [h1, h2] = seed_hash_pair(s, c, b);
    const Classification naive = classify(inst, pal, h1, h2, n_orig, params);
    // The workspace overload must agree with the allocating one...
    const Classification& scratched =
        classify(inst, pal, h1, h2, n_orig, params, scratch);
    expect_classifications_equal(naive, scratched);
    // ...and so must the batched engine.
    expect_classifications_equal(naive, engine.evaluate(s));
  }
}

TEST(SeedEvalEngine, MatchesClassifyUniformPalettes) {
  const Graph g = gen_random_regular(512, 24, 3);
  const Instance inst = root_instance(g);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  for (const PartitionParams& params : {PartitionParams{}, four_bins()}) {
    check_engine_matches_classify(inst, pal, g.num_nodes(), params, 24);
  }
}

TEST(SeedEvalEngine, MatchesClassifyListPalettes) {
  // deg+1 lists: palettes differ per node, so at b > 2 the engine's
  // partial-palette index path (not the full-universe fast path) runs.
  const Graph g = gen_gnp(300, 0.06, 9);
  const Instance inst = root_instance(g);
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 4000, 17);
  for (const PartitionParams& params : {PartitionParams{}, four_bins()}) {
    check_engine_matches_classify(inst, pal, g.num_nodes(), params, 24);
  }
}

TEST(SeedEvalEngine, MatchesClassifyOnSubinstance) {
  // Non-identity orig mapping, as in recursive partition calls: local ids
  // differ from original ids and only a subset of nodes is present.
  const Graph g = gen_gnp(400, 0.05, 21);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < 400; v += 3) nodes.push_back(v);
  Instance inst;
  inst.graph = induced_subgraph(g, nodes);
  inst.orig = nodes;
  inst.ell = 16.0;
  const PaletteSet pal = PaletteSet::random_lists(g, 5000, 23);
  for (const PartitionParams& params : {PartitionParams{}, four_bins()}) {
    check_engine_matches_classify(inst, pal, g.num_nodes(), params, 16);
  }
}

TEST(SeedEvalEngine, MceCandidateStreamStaysExact) {
  // Drive the engine through the exact evaluation order of the sampled-MCE
  // strategy (chunk flips + suffix refills) and spot-check against naive.
  // The chunks of h2's half leave h1's words alone, so at b = 2 those
  // candidates return the memoized classification.
  const Graph g = gen_random_regular(256, 16, 5);
  const Instance inst = root_instance(g);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  for (const PartitionParams& params : {PartitionParams{}, four_bins()}) {
    const unsigned c = params.independence;
    const unsigned bits = 2 * KWiseHash::seed_bits(c);
    const std::uint64_t b = num_bins(inst.ell, params);
    SeedEvalEngine engine(inst, pal, g.num_nodes(), params);
    SeedBits completion(bits);
    unsigned checked = 0;
    for (const unsigned half : {0u, KWiseHash::seed_bits(c)}) {
      SeedBits prefix = half == 0 ? SeedBits(bits)
                                  : SeedBits::expand(bits, 0x5EED, 0);
      for (unsigned fixed = half; fixed < half + 24; fixed += 8) {
        for (std::uint64_t v = 0; v < 16; ++v) {
          prefix.set_bits(fixed, 8, v);
          for (unsigned s = 0; s < 2; ++s) {
            completion = prefix;
            completion.fill_suffix(fixed + 8, 0xABCD ^ fixed, s);
            const double got = engine.cost_size(completion);
            auto [h1, h2] = seed_hash_pair(completion, c, b);
            const double want =
                classify(inst, pal, h1, h2, g.num_nodes(), params).cost_size;
            ASSERT_EQ(got, want) << "b=" << b << " fixed=" << fixed
                                 << " v=" << v << " s=" << s;
            ++checked;
          }
        }
      }
    }
    EXPECT_EQ(checked, 192u) << "b=" << b;
  }
}

// --- Layer 3: select_seed backend equivalence + golden fingerprints ------

// Owning storage (SeedCostFn itself is a non-owning FunctionRef, so a
// stored backend must keep its callable alive; the std::function lvalues
// convert to SeedCostFn at each select_seed call).
using StoredCostFn = std::function<double(const SeedBits&)>;

struct CostBackends {
  StoredCostFn naive;
  StoredCostFn engine;
};

CostBackends make_backends(const Instance& inst, const PaletteSet& pal,
                           std::uint64_t n_orig, const PartitionParams& params,
                           SeedEvalEngine& engine) {
  const unsigned c = params.independence;
  const std::uint64_t b = num_bins(inst.ell, params);
  CostBackends out;
  out.naive = [&inst, &pal, n_orig, &params, c, b](const SeedBits& s) {
    auto [h1, h2] = seed_hash_pair(s, c, b);
    return classify(inst, pal, h1, h2, n_orig, params).cost_size;
  };
  out.engine = [&engine](const SeedBits& s) { return engine.cost_size(s); };
  return out;
}

TEST(SelectSeedEquivalence, ScanAndSampledMcePickIdenticalSeeds) {
  const Graph g = gen_random_regular(256, 16, 5);
  const Instance inst = root_instance(g);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  PartitionParams params;
  const unsigned bits = 2 * KWiseHash::seed_bits(params.independence);
  const double threshold =
      params.g0_budget * static_cast<double>(g.num_nodes());
  SeedEvalEngine engine(inst, pal, g.num_nodes(), params);
  const auto backends =
      make_backends(inst, pal, g.num_nodes(), params, engine);
  std::vector<std::uint64_t> rounds;
  for (const auto strat :
       {SeedStrategy::kThresholdScan, SeedStrategy::kMceSampled}) {
    SeedSelectConfig cfg;
    cfg.strategy = strat;
    const auto a = select_seed(bits, backends.naive, threshold, cfg, 0x51);
    const auto b = select_seed(bits, backends.engine, threshold, cfg, 0x51);
    EXPECT_EQ(a.seed, b.seed) << "strategy " << static_cast<int>(strat);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.met_threshold, b.met_threshold);
    EXPECT_TRUE(a.met_threshold) << "strategy " << static_cast<int>(strat);
    rounds.push_back(a.rounds_charged);
  }
  // Both charge the paper's MCE schedule, not their host-side search (129
  // rounds at the default 8-bit chunks).
  EXPECT_EQ(rounds[0], rounds[1]);
}

TEST(SelectSeedEquivalence, ExactMcePicksIdenticalSeeds) {
  // kMceExact enumerates the full completion space, so it only runs on short
  // seeds; expand a 12-bit meta-seed into the full 2c-word hash seed, which
  // drives both backends through real classifications.
  const Graph g = gen_random_regular(128, 12, 13);
  const Instance inst = root_instance(g);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  PartitionParams params;
  const unsigned bits = 2 * KWiseHash::seed_bits(params.independence);
  SeedEvalEngine engine(inst, pal, g.num_nodes(), params);
  const auto backends =
      make_backends(inst, pal, g.num_nodes(), params, engine);
  const auto wrap = [bits](const StoredCostFn& inner) {
    return [bits, &inner](const SeedBits& meta) {
      return inner(SeedBits::expand(bits, 0x5EED, meta.get_bits(0, 12)));
    };
  };
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kMceExact;
  cfg.chunk_bits = 6;
  const auto naive_meta = wrap(backends.naive);
  const auto engine_meta = wrap(backends.engine);
  const auto a = select_seed(12, naive_meta, 0.0, cfg, 0);
  const auto b = select_seed(12, engine_meta, 0.0, cfg, 0);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.trajectory, b.trajectory);
}

// Golden fingerprints captured from the pre-engine implementation (naive
// classify-driven seed search) at the seed commit of this PR. The engine
// swap must reproduce them bit for bit.
TEST(GoldenSeeds, ThresholdScanReproducesPreEngineSeeds) {
  struct Case {
    Graph g;
    std::uint64_t want_hash;
  };
  // All three scanned instances accepted a seed from the same deterministic
  // enumeration (salt 0xBEEF), hence equal hashes with different costs.
  std::vector<Case> cases;
  cases.push_back({gen_random_regular(1024, 32, 7), 15904728131483325468ULL});
  cases.push_back({gen_gnp(512, 0.08, 3), 15904728131483325468ULL});
  cases.push_back({gen_power_law(800, 2.5, 24.0, 5), 15904728131483325468ULL});
  for (const auto& cs : cases) {
    const Instance inst = root_instance(cs.g);
    const PaletteSet pal = PaletteSet::delta_plus_one(cs.g);
    PartitionParams params;
    const unsigned bits = 2 * KWiseHash::seed_bits(params.independence);
    const double threshold =
        params.g0_budget * static_cast<double>(cs.g.num_nodes());
    SeedEvalEngine engine(inst, pal, cs.g.num_nodes(), params);
    SeedSelectConfig cfg;  // kThresholdScan
    const auto sel = select_seed(
        bits, [&engine](const SeedBits& s) { return engine.cost_size(s); },
        threshold, cfg, 0xBEEF);
    EXPECT_EQ(seed_hash(sel.seed), cs.want_hash);
  }
}

TEST(GoldenSeeds, SampledMceReproducesPreEngineSeed) {
  const Graph g = gen_random_regular(1024, 32, 7);
  const Instance inst = root_instance(g);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  PartitionParams params;
  const unsigned bits = 2 * KWiseHash::seed_bits(params.independence);
  const double threshold =
      params.g0_budget * static_cast<double>(g.num_nodes());
  SeedEvalEngine engine(inst, pal, g.num_nodes(), params);
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kMceSampled;
  const auto sel = select_seed(
      bits, [&engine](const SeedBits& s) { return engine.cost_size(s); },
      threshold, cfg, 0xBEEF);
  EXPECT_EQ(seed_hash(sel.seed), 10795400587065833925ULL);
  EXPECT_EQ(sel.cost, 33.0);
  EXPECT_EQ(sel.evaluations, 64769u);
}

TEST(GoldenSeeds, EndToEndColoringsUnchanged) {
  struct Case {
    Graph g;
    std::uint64_t want_colorhash;
    std::uint64_t want_rounds;
    std::uint64_t want_evals;
    std::uint64_t want_partitions;
  };
  std::vector<Case> cases;
  cases.push_back(
      {gen_random_regular(1024, 32, 7), 5179980065975731409ULL, 856, 6, 6});
  cases.push_back({gen_gnp(512, 0.08, 3), 7636738355350604075ULL, 844, 6, 6});
  cases.push_back(
      {gen_power_law(800, 2.5, 24.0, 5), 12403744315688176387ULL, 556, 4, 4});
  for (const auto& cs : cases) {
    const PaletteSet pal = PaletteSet::delta_plus_one(cs.g);
    const auto res = color_reduce(cs.g, pal, ColorReduceConfig{});
    std::uint64_t ch = 0xcbf29ce484222325ULL;
    for (NodeId v = 0; v < cs.g.num_nodes(); ++v) {
      ch = fnv(ch, res.coloring.color[v]);
    }
    EXPECT_EQ(ch, cs.want_colorhash);
    EXPECT_EQ(res.ledger.total_rounds(), cs.want_rounds);
    EXPECT_EQ(res.total_seed_evaluations, cs.want_evals);
    EXPECT_EQ(res.num_partitions, cs.want_partitions);
  }
}

// --- Layer 4: thread-count invariance (PR: parallel execution layer) -----
//
// The exec layer's contract: static shard boundaries + shard-ordered
// reduction + disjoint-palette sibling recursion make every observable —
// colorings, round ledgers, stats trees, seed-selection trajectories, and
// the PR 2 golden fingerprints above — bit-identical for any thread count.
// The matrix below runs the full pipeline at 1/2/4/7 pool threads and
// compares everything against the sequential (no-pool) baseline.

constexpr unsigned kThreadMatrix[] = {1, 2, 4, 7};

std::uint64_t coloring_hash(const Coloring& coloring) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Color c : coloring.color) h = fnv(h, c);
  return h;
}

TEST(ParallelInvariance, ColorReduceBitIdenticalAcrossThreadCounts) {
  struct Case {
    Graph g;
    std::uint64_t want_colorhash;  // the PR 2 golden fingerprints
    std::uint64_t want_rounds;
  };
  std::vector<Case> cases;
  cases.push_back(
      {gen_random_regular(1024, 32, 7), 5179980065975731409ULL, 856});
  cases.push_back({gen_gnp(512, 0.08, 3), 7636738355350604075ULL, 844});
  cases.push_back(
      {gen_power_law(800, 2.5, 24.0, 5), 12403744315688176387ULL, 556});
  for (const auto& cs : cases) {
    const PaletteSet pal = PaletteSet::delta_plus_one(cs.g);
    const auto base = color_reduce(cs.g, pal, ColorReduceConfig{});
    EXPECT_EQ(coloring_hash(base.coloring), cs.want_colorhash);
    EXPECT_EQ(base.ledger.total_rounds(), cs.want_rounds);
    const std::string base_ledger = ledger_to_json(base.ledger);
    const std::string base_stats = call_stats_to_json(base.root);
    const std::string base_mpc = mpc_costs_to_json(base.mpc);
    for (const unsigned t : kThreadMatrix) {
      ThreadPool pool(t);
      ColorReduceConfig cfg;
      cfg.exec = ExecContext(pool);
      const auto r = color_reduce(cs.g, pal, cfg);
      EXPECT_EQ(r.coloring.color, base.coloring.color) << t << " threads";
      EXPECT_EQ(ledger_to_json(r.ledger), base_ledger) << t << " threads";
      EXPECT_EQ(call_stats_to_json(r.root), base_stats) << t << " threads";
      EXPECT_EQ(mpc_costs_to_json(r.mpc), base_mpc) << t << " threads";
      EXPECT_EQ(r.num_partitions, base.num_partitions);
      EXPECT_EQ(r.max_depth_reached, base.max_depth_reached);
      EXPECT_EQ(r.total_seed_evaluations, base.total_seed_evaluations);
      EXPECT_EQ(r.threads_used, t);
    }
  }
}

TEST(ParallelInvariance, ForcedRecursionLedgersIdenticalAcrossThreadCounts) {
  // collect_factor=2 forces deep recursion (many sibling groups in flight);
  // deg+1 lists exercise the engine's partial-palette path concurrently.
  const Graph g = gen_power_law(1500, 2.5, 8.0, 31);
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 20, 7);
  ColorReduceConfig base_cfg;
  base_cfg.part.collect_factor = 2.0;
  const auto base = color_reduce(g, pal, base_cfg);
  for (const unsigned t : kThreadMatrix) {
    ThreadPool pool(t);
    ColorReduceConfig cfg = base_cfg;
    cfg.exec = ExecContext(pool);
    const auto r = color_reduce(g, pal, cfg);
    EXPECT_EQ(r.coloring.color, base.coloring.color) << t << " threads";
    EXPECT_EQ(ledger_to_json(r.ledger), ledger_to_json(base.ledger))
        << t << " threads";
    EXPECT_EQ(call_stats_to_json(r.root), call_stats_to_json(base.root))
        << t << " threads";
    EXPECT_EQ(mpc_costs_to_json(r.mpc), mpc_costs_to_json(base.mpc))
        << t << " threads";
  }
}

TEST(ParallelInvariance, ColorReduceShardedPassesAtScale) {
  // n = 2^13: the root's and depth 1's child builds, palette updates and
  // (min_bins = 3) palette restrictions each span several 2048-node shards,
  // so at 2+ threads those shards really run concurrently (every case above
  // fits in one shard). The (deg+1)-lists add 0, 2^64-2 and 2^64-1 to every
  // list. With the default b = 2 there is one color bin, which keeps every
  // color, so nothing is restricted; the min_bins = 3 case splits palettes
  // across two concurrently recursing color bins, and its fingerprint was
  // captured from the driver before the restriction became a table lookup.
  const NodeId n = NodeId{1} << 13;
  const Graph g = gen_gnp(n, 32.0 / n, 61);
  constexpr Color kMax = std::numeric_limits<Color>::max();
  std::vector<std::vector<Color>> lists(n);
  const PaletteSet deg1 = PaletteSet::deg_plus_one_lists(g, 1u << 20, 9);
  for (NodeId v = 0; v < n; ++v) {
    const auto p = deg1.palette(v);
    lists[v].assign(p.begin(), p.end());
    for (const Color c : {Color{0}, kMax - 1, kMax}) {
      if (!deg1.contains(v, c)) lists[v].push_back(c);
    }
  }
  const PaletteSet extreme_lists(std::move(lists));
  const PaletteSet delta1 = PaletteSet::delta_plus_one(g);
  ColorReduceConfig three_bins;
  three_bins.part.min_bins = 3;
  struct Case {
    const PaletteSet* pal;
    ColorReduceConfig cfg;
    std::uint64_t want_colorhash;  // 0 = not pinned
    std::uint64_t want_rounds;
  };
  const Case cases[] = {{&delta1, {}, 0, 0},
                        {&extreme_lists, {}, 0, 0},
                        {&delta1, three_bins, 11618304161388377040ULL, 430}};
  for (const Case& cs : cases) {
    const auto base = color_reduce(g, *cs.pal, cs.cfg);
    ASSERT_TRUE(verify_coloring(g, *cs.pal, base.coloring).ok);
    ASSERT_GE(base.num_partitions, 3u);  // the root and both depth-1 calls
    if (cs.want_colorhash != 0) {
      EXPECT_EQ(coloring_hash(base.coloring), cs.want_colorhash);
      EXPECT_EQ(base.ledger.total_rounds(), cs.want_rounds);
    }
    const std::string base_ledger = ledger_to_json(base.ledger);
    const std::string base_stats = call_stats_to_json(base.root);
    const std::string base_mpc = mpc_costs_to_json(base.mpc);
    for (const unsigned t : kThreadMatrix) {
      ThreadPool pool(t);
      ColorReduceConfig cfg = cs.cfg;
      cfg.exec = ExecContext(pool);
      const auto r = color_reduce(g, *cs.pal, cfg);
      EXPECT_EQ(r.coloring.color, base.coloring.color) << t << " threads";
      EXPECT_EQ(ledger_to_json(r.ledger), base_ledger) << t << " threads";
      EXPECT_EQ(call_stats_to_json(r.root), base_stats) << t << " threads";
      EXPECT_EQ(mpc_costs_to_json(r.mpc), base_mpc) << t << " threads";
    }
  }
}

std::uint64_t trajectory_hash(const std::vector<double>& trajectory) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : trajectory) {
    h = fnv(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

// The pre-engine sampled-MCE golden seed, cost and evaluation count, plus a
// pinned fingerprint of the search trajectory, reproduced with the engine
// sharding its evaluations over each thread count. One ctest case per
// thread count: n = 1024 fits in one shard, so each search runs
// sequentially and `ctest -j` runs the four side by side.
class SelectSeedTrajectory : public ::testing::TestWithParam<unsigned> {};

TEST_P(SelectSeedTrajectory, IdenticalAcrossThreadCounts) {
  const Graph g = gen_random_regular(1024, 32, 7);
  const Instance inst = root_instance(g);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  PartitionParams params;
  const unsigned bits = 2 * KWiseHash::seed_bits(params.independence);
  const double threshold =
      params.g0_budget * static_cast<double>(g.num_nodes());
  SeedSelectConfig cfg;
  cfg.strategy = SeedStrategy::kMceSampled;
  ThreadPool pool(GetParam());
  SeedEvalEngine engine(inst, pal, g.num_nodes(), params, ExecContext(pool));
  const auto sel = select_seed(
      bits, [&engine](const SeedBits& s) { return engine.cost_size(s); },
      threshold, cfg, 0xBEEF);
  EXPECT_EQ(seed_hash(sel.seed), 10795400587065833925ULL);
  EXPECT_EQ(sel.cost, 33.0);
  EXPECT_EQ(sel.evaluations, 64769u);
  EXPECT_EQ(trajectory_hash(sel.trajectory), 7711995698240882725ULL);
}

INSTANTIATE_TEST_SUITE_P(ParallelInvariance, SelectSeedTrajectory,
                         ::testing::ValuesIn(kThreadMatrix),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return std::to_string(info.param);
                         });

TEST(ParallelInvariance, MirrorImplicitStoreDeterministicUnderThreads) {
  // Internal hash-registration order may vary with the schedule; every
  // observable of the implicit store (footprint, materialized palettes)
  // must not.
  const Graph g = gen_gnp(500, 0.08, 53);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  ColorReduceConfig base_cfg;
  base_cfg.mirror_implicit = true;
  base_cfg.part.collect_factor = 2.0;
  const auto base = color_reduce(g, pal, base_cfg);
  ASSERT_NE(base.implicit_store, nullptr);
  for (const unsigned t : {4u, 7u}) {
    ThreadPool pool(t);
    ColorReduceConfig cfg = base_cfg;
    cfg.exec = ExecContext(pool);
    const auto r = color_reduce(g, pal, cfg);
    ASSERT_NE(r.implicit_store, nullptr);
    EXPECT_EQ(r.implicit_store->space_words(),
              base.implicit_store->space_words());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(r.implicit_store->materialize(v),
                base.implicit_store->materialize(v))
          << "node " << v << " at " << t << " threads";
    }
  }
}

}  // namespace
}  // namespace detcol
