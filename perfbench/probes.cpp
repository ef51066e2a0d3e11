// Outside-in probes of the layers under src/: root-level replays of both
// drivers, with every call into a layer inside a span named after the
// layer's module, and micro-probes of the hashing, exec and cli layers,
// which report the median of repeated calls.
#include <algorithm>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <optional>

#include "cli/spec.hpp"
#include "common.hpp"
#include "core/color_reduce.hpp"
#include "core/params.hpp"
#include "core/seed_eval.hpp"
#include "derand/strategies.hpp"
#include "exec/thread_pool.hpp"
#include "graph/coloring.hpp"
#include "hashing/batch_eval.hpp"
#include "hashing/kwise.hpp"
#include "lowspace/low_space.hpp"
#include "lowspace/mis.hpp"
#include "lowspace/reduction.hpp"
#include "lowspace/seed_engine.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using detcol::JsonValue;

const JsonValue* find_path(const JsonValue& doc,
                           std::initializer_list<const char*> keys) {
  const JsonValue* v = &doc;
  for (const char* k : keys) {
    v = v->find(k);
    if (v == nullptr) return nullptr;
  }
  return v;
}

std::uint64_t count_at(const JsonValue& doc,
                       std::initializer_list<const char*> keys,
                       std::vector<std::string>& errors) {
  const JsonValue* v = find_path(doc, keys);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    errors.push_back(std::string("stats document lacks ") + *keys.begin() +
                     "...");
    return 0;
  }
  return static_cast<std::uint64_t>(v->number);
}

void put_seconds(Metrics& out, const std::string& name, double v) {
  out[name] = {v, "s"};
}

/// Repeats `fn` `reps` times and returns the median wall time of one call.
template <typename Fn>
double median_time(unsigned reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (unsigned i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

}  // namespace

void stats_counts(const std::string& algo, const std::string& stats_json,
                  Counts& counts, std::vector<std::string>& errors) {
  const JsonValue doc = detcol::parse_json(stats_json, algo + " stats");
  const auto put = [&](const std::string& name,
                       std::initializer_list<const char*> keys) {
    put_count(counts, name, count_at(doc, keys, errors), errors);
  };
  if (algo == "reduce") {
    put("core.partitions", {"num_partitions"});
    put("core.seed_evals", {"total_seed_evaluations"});
    put("core.collects", {"num_collects"});
    put("core.max_depth", {"max_depth_reached"});
  } else {
    put("lowspace.depth", {"depth_reached"});
    put("lowspace.partitions", {"num_partitions"});
    put("lowspace.seed_evals", {"seed_evaluations"});
    put("lowspace.mis_calls", {"num_mis_calls"});
    put("lowspace.mis_phases", {"total_mis_phases"});
    put("lowspace.diverted", {"diverted_violators"});
  }
  put("sim." + algo + ".peak_local_words", {"mpc", "peak_local_words"});
  put("sim." + algo + ".ledger_words", {"mpc", "ledger", "total_words"});
  put("model_rounds." + algo, {"ledger", "total_rounds"});
}

std::vector<double> stats_depth_seconds(const std::string& stats_json) {
  const JsonValue doc = detcol::parse_json(stats_json, "reduce stats");
  std::vector<double> out;
  if (const JsonValue* d = find_path(doc, {"timing", "per_depth_seconds"})) {
    for (const JsonValue& x : d->items) out.push_back(x.number);
  }
  return out;
}

double stats_wall_seconds(const std::string& stats_json) {
  const JsonValue doc = detcol::parse_json(stats_json, "stats");
  const JsonValue* w = find_path(doc, {"timing", "wall_seconds"});
  return w != nullptr ? w->number : 0;
}

void replay_color_reduce(const Graph& g, const PaletteSet& palettes,
                         ExecContext exec, const std::string& root_stats_json,
                         Metrics& out, std::vector<std::string>& errors) {
  using namespace detcol;
  const ColorReduceConfig cfg;  // the configuration run_pipeline uses
  const PartitionParams& p = cfg.part;
  const NodeId n = g.num_nodes();
  Instance root;
  root.orig.resize(n);
  std::iota(root.orig.begin(), root.orig.end(), NodeId{0});
  root.graph = g;
  root.ell = std::max(1.0, static_cast<double>(g.max_degree()));

  ScopedSpan replay("replay.reduce");
  // partition() step by step: the same engine, seed search and final
  // evaluation it runs, each in its own span.
  const std::uint64_t b = num_bins(root.ell, p);
  const unsigned bits = 2 * KWiseHash::seed_bits(p.independence);
  std::vector<std::uint32_t> bin_of;
  std::uint64_t evaluations = 0, bad_nodes = 0;
  std::optional<KWiseHash> h2;
  std::optional<SeedEvalEngine> engine;
  {
    ScopedSpan part("core.partition");
    {
      ScopedSpan s("core.engine_setup");
      engine.emplace(root, palettes, n, p, exec);
    }
    const double threshold = p.g0_budget * static_cast<double>(n);
    const auto cost = [&](const SeedBits& sb) { return engine->cost_size(sb); };
    const SeedSelectResult sel = [&] {
      ScopedSpan s("derand.select_seed");
      return select_seed(bits, cost, threshold, p.seed, cfg.salt);
    }();
    const Classification& cls = engine->evaluate(sel.seed);
    bin_of = cls.bin_of;
    bad_nodes = cls.num_bad_nodes;
    h2.emplace(sel.seed.word_range(p.independence, p.independence), b - 1);
    evaluations = sel.evaluations;
  }
  {
    // The engine memoizes the last seed, so evaluate() of the seed just
    // selected is nearly free; one evaluation of an unrelated seed (every
    // word changed) is the real per-candidate cost. Not part of the driver.
    ScopedSpan s("core.engine_eval");
    engine->evaluate(SeedBits::expand(bits, 0xE7A1, 1));
  }
  engine.reset();

  // The replay must be the real root level: same bins, seed evaluations and
  // bad nodes as the root of the driver's stats tree.
  const JsonValue doc = parse_json(root_stats_json, "reduce stats");
  if (count_at(doc, {"stats", "num_bins"}, errors) != b ||
      count_at(doc, {"stats", "seed_evaluations"}, errors) != evaluations ||
      count_at(doc, {"stats", "bad_nodes"}, errors) != bad_nodes) {
    errors.push_back("root replay differs from the driver's root call");
  }

  PaletteSet pal = palettes;
  {
    ScopedSpan s("palette.materialize");
    pal.truncate(0, pal.palette_size(0));
  }
  std::vector<std::vector<NodeId>> bin_local(b);
  std::vector<NodeId> bad_local;
  for (NodeId v = 0; v < n; ++v) {
    const auto bin = bin_of[v];
    (bin == 0 ? bad_local : bin_local[bin - 1]).push_back(v);
  }
  {
    ScopedSpan s("palette.restrict");
    for (std::uint64_t i = 0; i + 1 < b; ++i) {
      for (const NodeId v : bin_local[i]) {
        pal.restrict(v, [&](Color c) { return (*h2)(c) + 1 == i + 1; });
      }
    }
  }
  std::uint64_t child_edges = 0;
  {
    ScopedSpan s("graph.child_build");
    for (const auto& nodes : bin_local) {
      child_edges += induced_subgraph(root.graph, nodes).num_edges();
    }
    child_edges += induced_subgraph(root.graph, bad_local).num_edges();
  }
  {
    ScopedSpan s("graph.collect");
    std::vector<NodeId> order = bad_local;
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId c) {
      const auto da = g.degree(a), dc = g.degree(c);
      return da != dc ? da > dc : a < c;
    });
    Coloring coloring(n);
    if (!greedy_color(g, pal, order, coloring)) {
      errors.push_back("replayed G0 collect ran out of colors");
    }
  }

  const Tracer& t = tracer();
  const double partition_s = t.self_seconds("core.partition") +
                             t.children_seconds("core.partition");
  double covered_s = partition_s;
  for (const char* name : {"palette.materialize", "palette.restrict",
                           "graph.child_build", "graph.collect"}) {
    covered_s += t.self_seconds(name);
  }
  const std::vector<double> depth = stats_depth_seconds(root_stats_json);
  const double d0 = depth.empty() ? 0 : depth[0];

  put_seconds(out, "core.partition_s", partition_s);
  put_seconds(out, "core.engine_setup_s", t.self_seconds("core.engine_setup"));
  put_seconds(out, "core.engine_eval_s", t.self_seconds("core.engine_eval"));
  put_seconds(out, "derand.select_seed_s",
              t.self_seconds("derand.select_seed"));
  put_seconds(out, "palette.materialize_s",
              t.self_seconds("palette.materialize"));
  put_seconds(out, "palette.restrict_s", t.self_seconds("palette.restrict"));
  const double build_s = t.self_seconds("graph.child_build");
  put_seconds(out, "graph.child_build_s", build_s);
  out["graph.child_build_medges_per_s"] = {
      build_s > 0 ? static_cast<double>(child_edges) / 1e6 / build_s : 0,
      "Medges/s"};
  put_seconds(out, "graph.collect_s", t.self_seconds("graph.collect"));
  out["core.replay_coverage"] = {d0 > 0 ? covered_s / d0 : 0, "ratio"};
}

void replay_low_space(const Graph& g, const PaletteSet& palettes,
                      ExecContext exec, const std::string& stats_json,
                      Metrics& out, std::vector<std::string>& errors) {
  using namespace detcol;
  LowSpaceParams params;  // the configuration run_pipeline uses
  params.exec = exec;
  params.mis.exec = exec;
  const std::uint64_t salt = 0x10053ACEULL;  // low_space_color's default
  const NodeId n = g.num_nodes();
  const double nd = static_cast<double>(n);
  const std::uint64_t low_deg = std::max<std::uint64_t>(
      2, ipow_floor(nd, params.low_deg_coeff * params.delta));
  const std::uint64_t b =
      std::max<std::uint64_t>(2, ipow_floor(nd, params.delta));

  ScopedSpan replay("replay.lowspace");
  std::vector<NodeId> low_local, high_local;
  for (NodeId v = 0; v < n; ++v) {
    (g.degree(v) <= low_deg ? low_local : high_local).push_back(v);
  }
  // With no node above the threshold the driver never partitions; the
  // engine is then probed on the whole graph so its cost is still measured.
  const bool all_low = high_local.empty();
  std::vector<NodeId> all_nodes;
  if (all_low) {
    all_nodes.resize(n);
    std::iota(all_nodes.begin(), all_nodes.end(), NodeId{0});
  }
  const std::vector<NodeId>& engine_nodes = all_low ? all_nodes : high_local;
  Graph high;
  if (!all_low) {
    ScopedSpan s("lowspace.split_build");
    high = induced_subgraph(g, high_local);
  }
  const Graph& engine_graph = all_low ? g : high;
  std::optional<LowSpaceSeedEngine> engine;
  {
    ScopedSpan s("lowspace.engine_setup");
    engine.emplace(engine_graph, engine_nodes, palettes, b,
                   params.independence, params.slack_exp, exec, nullptr);
  }
  const unsigned bits = 2 * KWiseHash::seed_bits(params.independence);
  const auto cost = [&](const SeedBits& sb) { return engine->cost(sb); };
  const SeedSelectResult sel = [&] {
    ScopedSpan s("lowspace.select_seed");
    SeedSelectResult r =
        select_seed(bits, cost, 0.0, params.seed, sub_seed(salt, 1));
    engine->violations(r.seed);  // the driver's final evaluation
    return r;
  }();

  std::vector<NodeId> g0_nodes = all_low ? all_nodes : low_local;
  if (!all_low) {
    const auto good = engine->good();
    for (NodeId v = 0; v < high.num_nodes(); ++v) {
      if (good[v] == 0) g0_nodes.push_back(high_local[v]);
    }
  }
  {
    // One evaluation of an unrelated seed (every word changed): the real
    // per-candidate cost, as for core.engine_eval_s. Not part of the driver.
    ScopedSpan s("lowspace.engine_eval");
    engine->violations(SeedBits::expand(bits, 0xE7A1, 1));
  }
  engine.reset();
  Graph g0_sub;
  if (!all_low) {
    ScopedSpan s("lowspace.g0_build");
    g0_sub = induced_subgraph(g, g0_nodes);
  }
  const Graph& g0 = all_low ? g : g0_sub;
  std::vector<std::vector<Color>> pals(g0_nodes.size());
  {
    ScopedSpan s("lowspace.palette_copy");
    for (std::size_t i = 0; i < g0_nodes.size(); ++i) {
      const auto span = palettes.palette(g0_nodes[i]);
      pals[i].assign(span.begin(), span.end());
    }
  }
  {
    ScopedSpan s("lowspace.reduction_build");
    [[maybe_unused]] const ReductionGraph red = build_reduction(g0, pals);
  }
  const MisColorResult mis = [&] {
    ScopedSpan s("lowspace.mis");
    return mis_list_color(g0, pals, params.mis,
                          sub_seed(salt, all_low ? 7 : 1234), nullptr);
  }();

  Counts stats;
  stats_counts("lowspace", stats_json, stats, errors);
  if (all_low && (mis.phases != stats["lowspace.mis_phases"] ||
                  mis.seed_evaluations != stats["lowspace.seed_evals"])) {
    errors.push_back("replayed MIS differs from the driver's root MIS");
  }

  const Tracer& t = tracer();
  double covered_s = t.self_seconds("lowspace.palette_copy") +
                     t.self_seconds("lowspace.mis");
  if (!all_low) {
    for (const char* name :
         {"lowspace.split_build", "lowspace.engine_setup",
          "lowspace.select_seed", "lowspace.g0_build"}) {
      covered_s += t.self_seconds(name);
    }
  }
  const double wall = stats_wall_seconds(stats_json);
  put_seconds(out, "lowspace.engine_setup_s",
              t.self_seconds("lowspace.engine_setup"));
  put_seconds(out, "lowspace.engine_eval_s",
              t.self_seconds("lowspace.engine_eval"));
  put_seconds(out, "lowspace.reduction_build_s",
              t.self_seconds("lowspace.reduction_build"));
  put_seconds(out, "lowspace.mis_s", t.self_seconds("lowspace.mis"));
  out["lowspace.mis_accept_ratio"] = {
      mis.seed_evaluations > 0 ? static_cast<double>(mis.phases) /
                                     static_cast<double>(mis.seed_evaluations)
                               : 0,
      "ratio"};
  out["lowspace.replay_coverage"] = {wall > 0 ? covered_s / wall : 0, "ratio"};
}

void probe_hashing(NodeId n, Metrics& out) {
  using namespace detcol;
  constexpr unsigned kIndependence = 4;
  std::vector<std::uint64_t> points(n);
  std::iota(points.begin(), points.end(), std::uint64_t{0});
  std::shared_ptr<const M61PowerTable> table;
  const double build_s = median_time(3, [&] {
    table = std::make_shared<const M61PowerTable>(points, kIndependence);
  });
  BatchKWiseEval eval(table, /*range=*/2);
  // Two coefficient vectors that differ in every word, loaded in turn: each
  // load changes all c coefficients.
  Xoshiro256 rng(0x5EED);
  std::vector<std::uint64_t> words[2];
  for (auto& w : words) {
    for (unsigned j = 0; j < kIndependence; ++j) w.push_back(rng.next());
  }
  unsigned which = 0;
  const double load_s = median_time(21, [&] {
    eval.load(words[which]);
    which ^= 1;
  });
  std::vector<std::uint32_t> bins(n);
  const double bins_s = median_time(21, [&] { eval.bins_into(bins, 1); });
  const double nd = std::max(1.0, static_cast<double>(n));
  put_seconds(out, "hashing.table_build_s", build_s);
  out["hashing.load_ns_per_point"] = {load_s * 1e9 / nd, "ns"};
  out["hashing.bins_ns_per_point"] = {bins_s * 1e9 / nd, "ns"};
  out["hashing.load_bytes"] = {nd * kIndependence * 8, "bytes"};
}

void probe_exec(NodeId n, ExecContext exec, Metrics& out) {
  using namespace detcol;
  const double fork_join_s = median_time(2001, [&] {
    TaskGroup group(*exec.pool());
    for (int i = 0; i < 4; ++i) group.spawn([] {});
    group.wait();
  });
  std::vector<std::size_t> slots(shard_count(n));
  const double shard_s = median_time(201, [&] {
    parallel_for_shards(exec, n,
                        [&](std::size_t s, std::size_t begin,
                            std::size_t end) { slots[s] = end - begin; });
  });
  out["exec.fork_join_us"] = {fork_join_s * 1e6, "us"};
  out["exec.shard_pass_us"] = {shard_s * 1e6, "us"};
}

void probe_instance_build(const std::string& graph_spec,
                          const std::string& palette_spec, Metrics& out) {
  using namespace detcol;
  const double s = median_time(3, [&] {
    const cli::GraphSource gs =
        cli::build_graph(cli::parse_spec(graph_spec), false);
    const cli::PaletteSource ps =
        cli::build_palettes(cli::parse_spec(palette_spec), gs.graph);
  });
  put_seconds(out, "cli.instance_build_s", s);
}

}  // namespace perfbench
