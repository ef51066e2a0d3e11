#include "lowspace/low_space.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "exec/thread_pool.hpp"
#include "hashing/kwise.hpp"
#include "lowspace/seed_engine.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace detcol {
namespace {

/// Local space s = max(kLocalSpaceFloor, kSpaceCoeff * n^{22*delta}) words.
constexpr std::uint64_t kLocalSpaceFloor = 1 << 14;
constexpr double kSpaceCoeff = 8.0;

/// Safety cap on recursion depth: a call this deep colors everything left
/// through the MIS reduction.
constexpr unsigned kMaxDepth = 64;

struct LsInstance {
  Graph graph;
  std::vector<NodeId> orig;
  NodeId n() const { return graph.num_nodes(); }
};

/// Per-branch run state (two-tier model, docs/ARCHITECTURE.md): everything a
/// recursion branch accumulates — the round ledger, the MPC cost block and
/// the recursion counters. Branches own their state privately; join points
/// merge children in bin-index order, so the merged values are independent
/// of the schedule. merge_sequential is associative with a default-
/// constructed state as identity.
struct LsRunState {
  RoundLedger ledger;  // the algorithm's round schedule (result_.ledger)
  MpcCosts mpc;        // MPC primitive costs + residency peaks
  unsigned depth_reached = 0;
  std::uint64_t num_partitions = 0;
  std::uint64_t num_mis_calls = 0;
  std::uint64_t total_mis_phases = 0;
  std::uint64_t seed_evaluations = 0;
  std::uint64_t diverted_violators = 0;

  void fold_scalars(const LsRunState& child) {
    depth_reached = std::max(depth_reached, child.depth_reached);
    num_partitions += child.num_partitions;
    num_mis_calls += child.num_mis_calls;
    total_mis_phases += child.total_mis_phases;
    seed_evaluations += child.seed_evaluations;
    diverted_violators += child.diverted_violators;
  }

  /// Child ran after this state's charges (model time): ledgers add.
  void merge_sequential(LsRunState&& child) {
    ledger.merge_sequential(child.ledger);
    mpc.merge(child.mpc);
    fold_scalars(child);
  }

  /// Children ran simultaneously in the model: rounds advance by the
  /// critical path, everything else folds in bin-index order.
  void merge_group(std::vector<LsRunState>&& children) {
    std::vector<RoundLedger> ledgers;
    std::vector<MpcCosts> costs;
    ledgers.reserve(children.size());
    costs.reserve(children.size());
    for (LsRunState& c : children) {
      ledgers.push_back(std::move(c.ledger));
      costs.push_back(std::move(c.mpc));
    }
    ledger.merge_parallel(ledgers);
    mpc.merge_parallel(costs);
    for (const LsRunState& c : children) fold_scalars(c);
  }
};

// Concurrency discipline (mirrors core/color_reduce.cpp's driver): the
// sibling color bins G1..G_{b-1} of one LowSpacePartition run as pool tasks.
// Two branches running concurrently belong to distinct bins of a common
// ancestor partition, so their node sets are disjoint (every coloring entry
// and palette row has one writer) and their palettes were restricted to
// disjoint h2 color classes *before* the group was spawned — a color
// committed by a concurrent branch is never present in (and never removable
// from) a palette this branch reads, so whether a cross-branch color read
// observes it cannot change any output. Cross-branch color accesses go
// through relaxed atomics purely to make them well-defined; everything else
// lives in the branch-private LsRunState (costs charged through the
// immutable MpcModel) and merges at the fork/join boundaries in bin-index
// order. No mutexes, no atomic counters. Net effect: colorings, ledgers,
// cost blocks and every counter are bit-identical for any thread count.
class LsDriver {
 public:
  LsDriver(const Graph& g, const PaletteSet& palettes,
           const LowSpaceParams& params, std::uint64_t salt)
      : g_(g),
        pal_(palettes),
        p_(params),
        salt_(salt),
        result_(g.num_nodes()),
        mpc_model_(local_space(), total_space()) {
    // The MIS sub-searches shard over the driver's pool.
    p_.mis.exec = p_.exec;
  }

  LowSpaceResult run() {
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      DC_CHECK(pal_.palette_size(v) > g_.degree(v),
               "(deg+1)-list precondition violated at node ", v);
    }
    LsInstance root;
    root.orig.resize(g_.num_nodes());
    std::iota(root.orig.begin(), root.orig.end(), NodeId{0});
    root.graph = g_;
    LsRunState st = recurse(root, 0, salt_);
    result_.ledger = std::move(st.ledger);
    result_.depth_reached = st.depth_reached;
    result_.num_partitions = st.num_partitions;
    result_.num_mis_calls = st.num_mis_calls;
    result_.total_mis_phases = st.total_mis_phases;
    result_.seed_evaluations = st.seed_evaluations;
    result_.diverted_violators = st.diverted_violators;
    result_.mpc = std::move(st.mpc);
    return std::move(result_);
  }

 private:
  std::uint64_t low_deg_threshold() const {
    const double n = static_cast<double>(g_.num_nodes());
    return std::max<std::uint64_t>(
        2, ipow_floor(n, p_.low_deg_coeff * p_.delta));
  }

  std::uint64_t bins() const {
    const double n = static_cast<double>(g_.num_nodes());
    return std::max<std::uint64_t>(2, ipow_floor(n, p_.delta));
  }

  std::uint64_t local_space() const {
    const double n = static_cast<double>(std::max<NodeId>(g_.num_nodes(), 2));
    const auto s = static_cast<std::uint64_t>(
        kSpaceCoeff * std::pow(n, 22.0 * p_.delta));
    return std::max(kLocalSpaceFloor, s);
  }

  std::uint64_t total_space() const {
    const double n = static_cast<double>(std::max<NodeId>(g_.num_nodes(), 2));
    const std::uint64_t input =
        g_.size_words() + pal_.total_size();
    const auto extra = static_cast<std::uint64_t>(
        16.0 * std::pow(n, 1.0 + 22.0 * p_.delta));
    return 4 * input + extra;
  }

  /// Drop colors used by colored original-graph neighbors. The routed word
  /// count is the number of removals that actually changed a palette — a
  /// schedule-independent quantity (class comment: a concurrently committed
  /// color is never present in this branch's palettes).
  void update_palettes(std::span<const NodeId> nodes, LsRunState& st) {
    const std::uint64_t touched = remove_neighbor_colors(
        g_, result_.coloring, nodes, pal_, p_.exec, [](NodeId, Color) {});
    if (touched > 0) {
      mpc_model_.route(touched,
                       std::min(touched, mpc_model_.local_space()),
                       "palette-update", st.mpc);
    }
  }

  /// Color an all-low-degree instance through the MIS reduction. The MIS
  /// call carries the driver's model, so the reduction graph it builds is
  /// contract-checked and charged into its own cost block exactly once —
  /// merged here into the branch state. The reduction borrows this branch's
  /// palette rows for the call (the lifetime rule in lowspace/reduction.hpp).
  void color_via_mis(const LsInstance& inst, std::uint64_t salt,
                     LsRunState& st) {
    if (inst.n() == 0) return;
    MisColorResult mis = mis_list_color(inst.graph, inst.orig, pal_, p_.mis,
                                        salt, &mpc_model_);
    for (NodeId v = 0; v < inst.n(); ++v) {
      DC_CHECK(mis.color[v] != Coloring::kUncolored, "MIS left a node");
      std::atomic_ref<Color>(result_.coloring.color[inst.orig[v]])
          .store(mis.color[v], std::memory_order_relaxed);
    }
    st.num_mis_calls += 1;
    st.total_mis_phases += mis.phases;
    st.seed_evaluations += mis.seed_evaluations;
    st.ledger.merge_sequential(mis.mpc.ledger);
    st.mpc.merge(mis.mpc);
  }

  LsRunState recurse(const LsInstance& inst, unsigned depth,
                     std::uint64_t salt) {
    // Recursion entry = safe point: budget poll + fault-injection site.
    p_.exec.check_deadline("lowspace");
    DC_FAILPOINT("lowspace.recurse");
    LsRunState st;
    st.depth_reached = depth;
    if (inst.n() == 0) return st;

    const std::uint64_t low_deg = low_deg_threshold();
    std::vector<NodeId> low_local, high_local;
    for (NodeId v = 0; v < inst.n(); ++v) {
      (inst.graph.degree(v) <= low_deg ? low_local : high_local)
          .push_back(v);
    }

    if (high_local.empty() || depth >= kMaxDepth) {
      if (!high_local.empty()) {
        DC_LOG_WARN << "low-space recursion depth cap hit at depth " << depth;
      }
      update_palettes(inst.orig, st);
      color_via_mis(inst, sub_seed(salt, 7), st);
      return st;
    }

    // --- LowSpacePartition (Algorithm 4). ---
    const std::uint64_t b = bins();
    const unsigned c = p_.independence;
    const unsigned bits = 2 * KWiseHash::seed_bits(c);
    LsInstance high = make_child(inst, high_local);

    // Batched incremental violator counts (lowspace/seed_engine.hpp): power
    // tables amortized over the whole search, per-node passes sharded over
    // the pool; bit-identical to the naive per-candidate recomputation.
    LowSpaceSeedEngine engine(high.graph, high.orig, pal_, b, c, p_.slack_exp,
                              p_.exec);
    const auto cost = [&engine](const SeedBits& s) { return engine.cost(s); };
    const SeedSelectResult sel =
        select_seed(bits, cost, 0.0, p_.seed, sub_seed(salt, 1));
    st.seed_evaluations += sel.evaluations;
    st.num_partitions += 1;
    // Seed schedule: per chunk one concurrent prefix-sum family (Lemma 2.1).
    mpc_model_.prefix_sum(high.n(), "seed-selection", st.mpc,
                          ceil_div(bits, p_.seed.chunk_bits));
    st.ledger.charge("seed-selection", sel.rounds_charged, sel.words_charged);

    // One evaluation of the selected seed (usually already cached from the
    // search) yields the violator count, the per-node bins *and* the
    // Lemma 4.5 verdicts — the assign loop below reuses them instead of
    // recomputing d'/p' from scratch.
    const std::uint64_t bad = engine.violations(sel.seed);
    const std::span<const std::uint32_t> bin = engine.bins();
    const std::span<const char> good = engine.good();
    if (bad > 0) {
      DC_LOG_DEBUG << "low-space partition diverts " << bad
                   << " violator(s) to G0";
      st.diverted_violators += bad;
    }

    // Assign: violators join the low-degree set G0. Bins list `high`-local
    // ids — the engine's node positions — so the children are induced from
    // `high` (the same subgraphs as from `inst`: high_local is ascending).
    std::vector<std::vector<NodeId>> bin_high(b);
    std::vector<NodeId> g0_local = low_local;
    for (NodeId v = 0; v < high.n(); ++v) {
      if (good[v] != 0) {
        bin_high[bin[v] - 1].push_back(v);
      } else {
        g0_local.push_back(high_local[v]);
      }
    }
    mpc_model_.sort(inst.graph.size_words(), "partition-route", st.mpc);

    // Restrict palettes of color bins, by lookup in the bins the engine
    // computed per distinct color for the chosen seed. This happens
    // *before* the sibling group is spawned: it is what makes the group's
    // palettes pairwise disjoint, and with them every cross-branch
    // interaction harmless. At b = 2 there is no group: h2 has range 1, the
    // one color bin keeps every color and recurses inline.
    if (b > 2) {
      for (std::uint64_t i = 0; i + 1 < b; ++i) {
        pal_.restrict_to_bin(bin_high[i], high.orig, engine.palette_index(),
                             engine.color_bins(),
                             static_cast<std::uint32_t>(i + 1), p_.exec);
      }
    }

    // Recurse on color bins in parallel (disjoint palettes): dispatched as
    // pool tasks when an ExecContext is configured, inline otherwise.
    // TaskGroup::fold joins the branch states in bin-index order either
    // way, so both paths produce identical merged results.
    const std::uint64_t groups = b - 1;
    const bool par = p_.exec.parallel() && groups > 1;
    std::vector<LsRunState> children;
    children.reserve(groups);
    TaskGroup::fold(
        par ? p_.exec.pool() : nullptr, groups,
        [&](std::size_t i) {
          LsInstance child = make_child(high, bin_high[i]);
          return recurse(child, depth + 1, sub_seed(salt, 100 + i));
        },
        [&](std::size_t, LsRunState&& rs) {
          children.push_back(std::move(rs));
        });
    st.merge_group(std::move(children));

    // Last bin: update palettes, recurse. Runs strictly after the group
    // join — exactly the model's schedule, where G_b's palette update sees
    // every color the parallel phase committed.
    LsInstance last = make_child(high, bin_high[b - 1]);
    update_palettes(last.orig, st);
    st.merge_sequential(recurse(last, depth + 1, sub_seed(salt, 999)));

    // G0: update palettes, color via the MIS reduction.
    LsInstance g0 = make_child(inst, g0_local);
    update_palettes(g0.orig, st);
    color_via_mis(g0, sub_seed(salt, 1234), st);
    return st;
  }

  LsInstance make_child(const LsInstance& inst,
                        std::span<const NodeId> local_nodes) const {
    LsInstance child;
    child.graph = induced_subgraph(inst.graph, local_nodes, p_.exec);
    child.orig.reserve(local_nodes.size());
    for (const NodeId l : local_nodes) child.orig.push_back(inst.orig[l]);
    return child;
  }

  // Immutable instance state (after the ctor): shared read-only everywhere.
  const Graph& g_;
  // The caller's rows until the first write gives the driver its own
  // (graph/palette.hpp); then one writer per row (class comment).
  PaletteSet pal_;
  LowSpaceParams p_;
  std::uint64_t salt_;
  LowSpaceResult result_;  // coloring entries: one writer each
  const MpcModel mpc_model_;
};

}  // namespace

LowSpaceResult low_space_color(const Graph& g, const PaletteSet& palettes,
                               const LowSpaceParams& params,
                               std::uint64_t salt) {
  LsDriver driver(g, palettes, params, salt);
  return driver.run();
}

}  // namespace detcol
