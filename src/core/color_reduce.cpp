#include "core/color_reduce.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/partition.hpp"
#include "exec/thread_pool.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace detcol {
namespace {

/// Hard safety bound on recursion depth (the paper proves 9 suffices at its
/// asymptotic parameterization, Lemma 3.14; practical runs stay well below
/// this). A call this deep is collected directly.
constexpr unsigned kMaxDepth = 32;

/// Words needed to collect an instance onto one machine: the graph plus
/// palettes truncated to deg+1 (Theorem 1.3's trick: dropping surplus colors
/// before a local solve is always safe). Shard-ordered reduction over the
/// instance's nodes (an integer sum, so the fold order cannot matter; small
/// instances collapse to one inline shard).
std::uint64_t collect_words(const Instance& inst, const PaletteSet& pal,
                            ExecContext exec) {
  return parallel_reduce_shards(
      exec, inst.n(), inst.size_words(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::uint64_t w = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId v = static_cast<NodeId>(i);
          w += std::min<std::uint64_t>(
              pal.palette_size(inst.orig[v]),
              std::uint64_t{inst.graph.degree(v)} + 1);
        }
        return w;
      },
      [](std::uint64_t acc, std::uint64_t part) { return acc + part; });
}

/// Everything one recursion branch accumulates: MPC costs (ledger + peaks +
/// op counters), recursion telemetry, per-depth wall-clock, and the branch's
/// implicit-palette registrations. Branches own their RunState privately;
/// join points merge children into the parent in bin-index order, so the
/// merged values are independent of the schedule. merge_sequential is
/// associative with a default-constructed RunState as identity.
struct RunState {
  MpcCosts costs;
  unsigned max_depth = 0;
  std::uint64_t num_partitions = 0;
  std::uint64_t total_seed_evaluations = 0;
  std::vector<double> depth_seconds;  // telemetry only, never bit-compared
  ImplicitPaletteStore::LocalBatch implicit;

  void add_depth_seconds(unsigned depth, double seconds) {
    if (depth_seconds.size() <= depth) depth_seconds.resize(depth + 1, 0.0);
    depth_seconds[depth] += seconds;
  }

  /// Scalar part shared by both compositions (the ledger is what differs).
  void fold_scalars(RunState&& child) {
    max_depth = std::max(max_depth, child.max_depth);
    num_partitions += child.num_partitions;
    total_seed_evaluations += child.total_seed_evaluations;
    if (depth_seconds.size() < child.depth_seconds.size()) {
      depth_seconds.resize(child.depth_seconds.size(), 0.0);
    }
    for (std::size_t d = 0; d < child.depth_seconds.size(); ++d) {
      depth_seconds[d] += child.depth_seconds[d];
    }
    implicit.merge(std::move(child.implicit));
  }

  /// Child ran after this state's charges (model time): ledgers add.
  void merge_sequential(RunState&& child) {
    costs.merge(child.costs);
    fold_scalars(std::move(child));
  }

  /// Children ran simultaneously in the model: rounds advance by the
  /// critical path, everything else folds in bin-index order.
  void merge_group(std::vector<RunState>&& children) {
    std::vector<MpcCosts> group;
    group.reserve(children.size());
    for (RunState& c : children) group.push_back(std::move(c.costs));
    costs.merge_parallel(group);
    for (RunState& c : children) fold_scalars(std::move(c));
  }
};

// Concurrency discipline of the driver (the "why this is deterministic"):
//
// Sibling color bins G1..G_{b-1} of one Partition call run as pool tasks.
// Two branches that run concurrently are always members of distinct bins of
// some common ancestor partition, so
//   * their node sets are disjoint — every per-node slot (coloring entries,
//     palettes, implicit chains/removals, CallStats children) has exactly
//     one writer;
//   * their palettes are restricted to disjoint h2 color classes *before*
//     the group is spawned — so a color committed by a concurrent branch is
//     never present in (and never removable from) a palette this branch
//     reads, and never collides with a greedy candidate. Whether a cross-
//     branch read observes such a color therefore cannot change any output.
// Cross-branch color reads go through relaxed atomics (greedy_collect,
// remove_neighbor_colors) purely to make them well-defined; everything else
// lives in the branch-private RunState and merges at the fork/join
// boundaries in bin-index order (TaskGroup::fold). The driver itself is
// immutable during the recursion apart from those per-node slots: no
// mutexes, no atomic counters. Net effect: colorings, ledgers, cost blocks
// and stats are bit-identical for every thread count.
class Driver {
 public:
  Driver(const Graph& g, const PaletteSet& palettes,
         const ColorReduceConfig& cfg)
      : g_(g),
        cfg_(cfg),
        model_(std::max<std::uint64_t>(1, g.num_nodes()), cfg.route_slack,
               cfg.collect_slack),
        pal_(palettes),
        result_(g.num_nodes()) {}

  ColorReduceResult run() {
    WallTimer wall;
    Instance root;
    root.orig.resize(g_.num_nodes());
    std::iota(root.orig.begin(), root.orig.end(), NodeId{0});
    root.graph = g_;
    root.ell = std::max(1.0, static_cast<double>(g_.max_degree()));
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      DC_CHECK(pal_.palette_size(v) > g_.degree(v),
               "node ", v, " has palette of size ", pal_.palette_size(v),
               " but degree ", g_.degree(v),
               " — (deg+1)-list precondition violated");
    }
    result_.explicit_palette_words = pal_.total_size();
    if (cfg_.mirror_implicit) {
      // Theorem 1.3 applies to the uniform-palette case only: every node
      // must hold exactly {0, ..., Δ}.
      const Color k = static_cast<Color>(g_.max_degree()) + 1;
      for (NodeId v = 0; v < g_.num_nodes(); ++v) {
        const auto p = pal_.palette(v);
        DC_CHECK(p.size() == k,
                 "mirror_implicit requires uniform [Δ+1] palettes");
        for (Color c = 0; c < k; ++c) {
          DC_CHECK(p[c] == c,
                   "mirror_implicit requires uniform [Δ+1] palettes");
        }
      }
      result_.implicit_store =
          std::make_unique<ImplicitPaletteStore>(g_.num_nodes(), k);
    }
    RunState st = recurse(root, 0, cfg_.salt, result_.root);

    // Collect point: the merged run state becomes the result. Hash
    // registrations install into the store here, in recursion-tree order.
    if (result_.implicit_store) {
      result_.implicit_store->apply(std::move(st.implicit));
    }
    result_.ledger = st.costs.ledger;
    result_.max_depth_reached = st.max_depth;
    result_.num_partitions = st.num_partitions;
    result_.total_seed_evaluations = st.total_seed_evaluations;
    result_.mpc = std::move(st.costs);
    result_.threads_used = cfg_.exec.num_threads();
    result_.depth_seconds = std::move(st.depth_seconds);
    result_.wall_seconds = wall.seconds();
    return std::move(result_);
  }

 private:
  /// Collect `inst` (already costed at `words` words) onto one machine and
  /// greedily color it highest-degree-first, consulting already-colored
  /// neighbors in the original graph. The greedy runs in Jones–Plassmann
  /// rounds sharded over the pool (greedy_collect); its coloring equals the
  /// serial pass in that order.
  void collect_and_color(const Instance& inst, std::uint64_t words,
                         RunState& st) {
    model_.collect(words, "collect-color", st.costs);
    const bool ok = greedy_collect(g_, pal_, inst.graph, inst.orig,
                                   result_.coloring, cfg_.exec);
    DC_CHECK(ok, "local greedy ran out of colors — the p(v) > d(v) "
                 "invariant was broken upstream");
    // Announce the new colors to all neighbors (one word per node).
    if (inst.n() > 0) {
      model_.lenzen_route(inst.n(), 1 + inst.graph.max_degree(),
                          "color-announce", st.costs);
    }
  }

  /// Remove colors of already-colored original-graph neighbors from the
  /// palettes of `nodes` (the paper's "update color palettes" steps). The
  /// routed message count is the number of removals that actually changed a
  /// palette: that count is schedule-independent (see the class comment —
  /// a concurrently-committed color is never present), so the ledger words
  /// are identical for every thread count. Implicit-store removals write
  /// per-node lists owned by this branch, so they go straight to the store.
  void update_palettes(std::span<const NodeId> nodes, RunState& st) {
    ImplicitPaletteStore* const store = result_.implicit_store.get();
    const std::uint64_t touched = remove_neighbor_colors(
        g_, result_.coloring, nodes, pal_, cfg_.exec,
        [store](NodeId v, Color c) {
          if (store != nullptr) store->remove_color(v, c);
        });
    if (!nodes.empty()) {
      model_.lenzen_route(std::max<std::uint64_t>(1, touched),
                          1 + g_.max_degree(), "palette-update", st.costs);
    }
  }

  Instance make_child(const Instance& inst,
                      std::span<const NodeId> local_nodes,
                      double ell) const {
    Instance child;
    child.graph = induced_subgraph(inst.graph, local_nodes, cfg_.exec);
    child.orig.reserve(local_nodes.size());
    for (const NodeId l : local_nodes) child.orig.push_back(inst.orig[l]);
    child.ell = ell;
    return child;
  }

  RunState recurse(const Instance& inst, unsigned depth, std::uint64_t salt,
                   CallStats& stats) {
    // Coarse, safe point for the cooperative budget and fault-injection
    // checks: no partial state exists yet at a recursion entry, so throwing
    // here unwinds cleanly through the fork/join joins.
    cfg_.exec.check_deadline("color-reduce");
    DC_FAILPOINT("color_reduce.recurse");
    WallTimer timer;
    double own_seconds = 0.0;
    RunState st;
    st.max_depth = depth;
    stats.depth = depth;
    stats.n = inst.n();
    stats.m = inst.graph.num_edges();
    stats.max_deg = inst.n() > 0 ? inst.graph.max_degree() : 0;
    stats.ell = inst.ell;

    if (inst.n() == 0) return st;

    const auto& p = cfg_.part;
    const double collect_limit =
        p.collect_factor * static_cast<double>(g_.num_nodes());
    const std::uint64_t inst_words = collect_words(inst, pal_, cfg_.exec);
    const bool small = static_cast<double>(inst_words) <= collect_limit;
    if (small || depth >= kMaxDepth || inst.ell < p.min_ell) {
      if (!small) {
        // Expected when ell bottoms out before the size threshold; the
        // collect-capacity check still guards the model limit.
        DC_LOG_DEBUG << "forced collect at depth " << depth << " (n="
                     << inst.n() << ", ell=" << inst.ell << ")";
      }
      stats.collected = true;
      collect_and_color(inst, inst_words, st);
      st.add_depth_seconds(depth, timer.seconds());
      return st;
    }

    // --- Partition (Algorithm 2) with derandomized seeds (Lemma 3.9). ---
    PartitionResult pr = partition(inst, pal_, g_.num_nodes(), p, &model_,
                                   &st.costs, salt, cfg_.exec);
    st.num_partitions += 1;
    st.total_seed_evaluations += pr.seed.evaluations;
    stats.num_bins = pr.num_bins;
    stats.bad_nodes = pr.cls.num_bad_nodes;
    stats.bad_bins = pr.cls.num_bad_bins;
    stats.reclassified = pr.cls.reclassified;
    stats.g0_words = pr.cls.bad_graph_words;
    stats.seed_evaluations = pr.seed.evaluations;
    stats.seed_met_threshold = pr.seed.met_threshold;

    const std::uint64_t b = pr.num_bins;
    std::vector<std::vector<NodeId>> bin_local(b);  // index 0..b-1 = bins 1..b
    std::vector<NodeId> bad_local;
    for (NodeId v = 0; v < inst.n(); ++v) {
      const auto bin = pr.cls.bin_of[v];
      if (bin == 0) {
        bad_local.push_back(v);
      } else {
        bin_local[bin - 1].push_back(v);
      }
    }

    // Restrict palettes of the color bins 1..b-1 to their h2 share, by
    // lookup in the bins the seed engine computed per distinct color. This
    // happens *before* the sibling group is spawned: it is what makes the
    // group's palettes pairwise disjoint, and with them every cross-branch
    // interaction harmless (class comment). At b = 2 there is no group: h2
    // has range 1, the one color bin keeps every color and recurses inline.
    // The hash and its restrictions register into this branch's batch
    // either way — ancestors land before descendants when the batch finally
    // applies.
    if (b > 2) {
      const PaletteIndex index = std::move(pr.palettes);
      for (std::uint64_t i = 0; i + 1 < b; ++i) {
        pal_.restrict_to_bin(bin_local[i], inst.orig, index, pr.color_bin,
                             static_cast<std::uint32_t>(i + 1), cfg_.exec);
      }
    }
    if (result_.implicit_store) {
      const std::uint32_t hash_id = st.implicit.add_hash(pr.h2);
      for (std::uint64_t i = 0; i + 1 < b; ++i) {
        for (const NodeId l : bin_local[i]) {
          st.implicit.push_restriction(inst.orig[l], hash_id,
                                       static_cast<std::uint32_t>(i + 1));
        }
      }
    }

    // Recurse on the color bins in parallel (disjoint palettes): dispatched
    // as pool tasks when an ExecContext is configured, inline otherwise.
    // TaskGroup::fold joins the branch states in bin-index order either
    // way, so both paths produce identical merged results.
    const std::uint64_t groups = b - 1;
    const bool par = cfg_.exec.parallel() && groups > 1;
    std::vector<RunState> children;
    children.reserve(groups);
    std::vector<CallStats> child_stats(groups);
    own_seconds += timer.seconds();
    TaskGroup::fold(
        par ? cfg_.exec.pool() : nullptr, groups,
        [&](std::size_t i) -> RunState {
          Instance child = make_child(inst, bin_local[i], pr.ell_next);
          return recurse(child, depth + 1, sub_seed(salt, i + 1),
                         child_stats[i]);
        },
        [&](std::size_t, RunState&& rs) { children.push_back(std::move(rs)); });
    st.merge_group(std::move(children));
    timer.reset();
    stats.children.reserve(b);
    for (auto& cs : child_stats) stats.children.push_back(std::move(cs));

    // Last bin: update palettes, then recurse. This runs strictly after the
    // group join — exactly the model's schedule, where G_b's palette update
    // sees every color the parallel phase committed. update_palettes only
    // touches the palette stores, so last.orig can be passed directly.
    Instance last = make_child(inst, bin_local[b - 1], pr.ell_next);
    update_palettes(last.orig, st);
    own_seconds += timer.seconds();
    CallStats last_stats;
    RunState last_st =
        recurse(last, depth + 1, sub_seed(salt, b + 1), last_stats);
    st.merge_sequential(std::move(last_st));
    timer.reset();
    stats.children.push_back(std::move(last_stats));

    // G0 (bad nodes): collect and color locally. Greedy consults colored
    // neighbors directly, so the palette update is implicit.
    if (!bad_local.empty()) {
      Instance g0 = make_child(inst, bad_local, inst.ell);
      collect_and_color(g0, collect_words(g0, pal_, cfg_.exec), st);
    }

    own_seconds += timer.seconds();
    st.add_depth_seconds(depth, own_seconds);
    return st;
  }

  // Immutable instance state: shared read-only across every branch.
  const Graph& g_;
  const ColorReduceConfig cfg_;
  const CliqueModel model_;

  // Per-node slots with exactly one writer per entry (see class comment).
  // Restricted and updated during the run. It shares the caller's rows
  // until its first write, which copies them (graph/palette.hpp).
  PaletteSet pal_;
  ColorReduceResult result_;
};

}  // namespace

ColorReduceResult color_reduce(const Graph& g, const PaletteSet& palettes,
                               const ColorReduceConfig& config) {
  Driver driver(g, palettes, config);
  return driver.run();
}

}  // namespace detcol
