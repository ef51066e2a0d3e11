#include "lowspace/mis.hpp"

#include <algorithm>

#include "derand/strategies.hpp"
#include "hashing/kwise.hpp"
#include "lowspace/seed_engine.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace detcol {
namespace {

struct MisState {
  const ReductionGraph* r;
  std::vector<char> active;            // per reduction vertex
  std::vector<Color> color;            // per node, kUncolored until joined
  std::uint64_t remaining_edges = 0;
  std::uint64_t uncolored = 0;         // tracked incrementally per phase
};

/// One simulated phase under the engine's loaded seed. The per-vertex marks
/// are scratch reused across seeds; they are valid at the active vertices
/// (all of an uncolored node's vertices are rewritten by every simulation,
/// and a colored node has no active vertex).
struct PhaseSim {
  std::vector<char> joined;           // per vertex: enters the MIS
  std::vector<char> removed;          // per vertex: leaves the graph
  std::uint64_t num_joined = 0;
  std::uint64_t removed_edges = 0;    // conflict edges deleted by the phase
};

constexpr auto add = [](std::uint64_t a, std::uint64_t b) { return a + b; };

/// Safety cap on phases (the theory gives O(log m)).
constexpr unsigned kMaxPhases = 256;

/// Model rounds charged per phase on top of the seed-selection schedule
/// (priority exchange + join resolution + cleanup).
constexpr std::uint64_t kRoundsPerPhase = 4;

/// Phase seeds: the engine's 4 coefficient words, found by the default
/// search (a threshold scan of up to 64 candidates).
constexpr unsigned kSeedBits =
    KWiseHash::seed_bits(MisPhaseEngine::kIndependence);
constexpr SeedSelectConfig kSeedSearch{};

/// Priority of vertex x under the loaded phase seed: field value with id
/// tiebreak.
inline std::pair<std::uint64_t, std::uint64_t> priority(
    const MisPhaseEngine& eng, std::uint64_t x) {
  return {eng.priority(x), x};
}

/// Simulate one Luby phase under the engine's loaded seed without mutating
/// the state: three sharded per-node passes over `exec` (joins, then removal
/// marks, then the removed-edge count), each reading only what the previous
/// one finished writing. Every mark has one writer and the counts are
/// shard-ordered integer sums, so the outcome is bit-identical for every
/// thread count.
void simulate_phase(const MisState& st, const MisPhaseEngine& eng,
                    ExecContext exec, PhaseSim& sim) {
  const ReductionGraph& r = *st.r;
  sim.num_joined = parallel_reduce_shards(
      exec, r.num_nodes(), std::uint64_t{0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::uint64_t joins = 0;
        for (std::size_t v = begin; v < end; ++v) {
          if (st.color[v] != Coloring::kUncolored) continue;
          // Clique candidate: the active palette position with minimum
          // priority.
          std::uint64_t best = ~std::uint64_t{0};
          std::pair<std::uint64_t, std::uint64_t> best_pri{~std::uint64_t{0},
                                                           ~std::uint64_t{0}};
          for (std::uint64_t x = r.base[v]; x < r.base[v + 1]; ++x) {
            sim.joined[x] = 0;
            if (st.active[x] == 0) continue;
            const auto pri = priority(eng, x);
            if (pri < best_pri) {
              best_pri = pri;
              best = x;
            }
          }
          DC_CHECK(best != ~std::uint64_t{0},
                   "uncolored node lost its whole palette — invariant broken");
          // The candidate joins iff it beats every *active* conflict
          // neighbor.
          bool wins = true;
          for (const std::uint64_t y : r.conflicts(best)) {
            if (st.active[y] != 0 && priority(eng, y) < best_pri) {
              wins = false;
              break;
            }
          }
          if (wins) {
            sim.joined[best] = 1;
            ++joins;
          }
        }
        return joins;
      },
      add);

  // Removal marks, pulled per vertex: an active vertex leaves iff its node
  // joins or one of its active conflict neighbors joins.
  parallel_for_shards(exec, r.num_nodes(), [&](std::size_t, std::size_t begin,
                                               std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      if (st.color[v] != Coloring::kUncolored) continue;
      const std::uint64_t lo = r.base[v];
      const std::uint64_t hi = r.base[v + 1];
      const bool node_joins =
          std::find(sim.joined.begin() + lo, sim.joined.begin() + hi, 1) !=
          sim.joined.begin() + hi;
      for (std::uint64_t x = lo; x < hi; ++x) {
        if (st.active[x] == 0) continue;
        const auto nbrs = r.conflicts(x);
        sim.removed[x] =
            node_joins || std::any_of(nbrs.begin(), nbrs.end(),
                                      [&](std::uint64_t y) {
                                        return st.active[y] != 0 &&
                                               sim.joined[y] != 0;
                                      });
      }
    }
  });

  // Count conflict edges losing at least one endpoint (pure reads of the
  // finished removal marks).
  sim.removed_edges = parallel_reduce_shards(
      exec, r.num_nodes(), std::uint64_t{0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::uint64_t cnt = 0;
        for (std::size_t v = begin; v < end; ++v) {
          if (st.color[v] != Coloring::kUncolored) continue;
          for (std::uint64_t x = r.base[v]; x < r.base[v + 1]; ++x) {
            if (st.active[x] == 0 || sim.removed[x] == 0) continue;
            for (const std::uint64_t y : r.conflicts(x)) {
              if (st.active[y] == 0) continue;
              if (sim.removed[y] != 0 && y < x) continue;  // counted at y
              ++cnt;
            }
          }
        }
        return cnt;
      },
      add);
}

/// Apply a simulated phase: color joiners, deactivate removed vertices,
/// maintain the remaining-edge and uncolored counts. Sharded per node; each
/// shard writes only its own nodes' colors and vertices.
void apply_phase(MisState& st, const PhaseSim& sim, ExecContext exec) {
  const ReductionGraph& r = *st.r;
  st.uncolored -= parallel_reduce_shards(
      exec, r.num_nodes(), std::uint64_t{0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::uint64_t colored = 0;
        for (std::size_t v = begin; v < end; ++v) {
          if (st.color[v] != Coloring::kUncolored) continue;
          for (std::uint64_t x = r.base[v]; x < r.base[v + 1]; ++x) {
            if (st.active[x] == 0) continue;
            if (sim.joined[x] != 0) {
              st.color[v] = r.palettes[v][x - r.base[v]];
              ++colored;
            }
            if (sim.removed[x] != 0) st.active[x] = 0;
          }
        }
        return colored;
      },
      add);
  st.remaining_edges -= sim.removed_edges;
}

/// The MIS loop on a built reduction of `g`.
MisColorResult solve(const Graph& g, const ReductionGraph& r,
                     const MisParams& params, std::uint64_t salt,
                     const MpcModel* model) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // The reduction truncated to deg+1, so p(v) > d(v) iff nothing is short.
    DC_CHECK(r.palettes[v].size() > g.degree(v),
             "MIS reduction needs p(v) > d(v) at node ", v);
  }
  MisState st{&r,
              std::vector<char>(r.num_vertices, 1),
              std::vector<Color>(g.num_nodes(), Coloring::kUncolored),
              r.num_conflict_edges,
              g.num_nodes()};
  PhaseSim sim{std::vector<char>(r.num_vertices),
               std::vector<char>(r.num_vertices)};

  MisColorResult result;
  MisPhaseEngine engine;

  while (st.uncolored > 0) {
    params.exec.check_deadline("mis");
    DC_CHECK(result.phases < kMaxPhases,
             "MIS failed to converge within ", kMaxPhases, " phases");
    const std::uint64_t remaining = st.remaining_edges;
    const double target =
        remaining == 0
            ? 0.0
            : static_cast<double>(remaining) -
                  static_cast<double>(ceil_div(remaining,
                                               params.removal_fraction));
    // One simulation per *distinct* loaded seed: the state is fixed for the
    // whole phase, so when the selected seed was the last one evaluated (or
    // a candidate repeats under the enumeration), the marks in `sim` are
    // reused instead of re-simulating.
    bool sim_valid = false;
    const auto simulate = [&]() -> const PhaseSim& {
      if (!sim_valid) {
        simulate_phase(st, engine, params.exec, sim);
        sim_valid = true;
      }
      return sim;
    };
    const auto cost = [&](const SeedBits& s) {
      if (engine.load(s)) sim_valid = false;
      const PhaseSim& out = simulate();
      // Cost: edges left after the phase; joining progress breaks zero-edge
      // ties so the final conflict-free phases still advance.
      return static_cast<double>(remaining - out.removed_edges) -
             (out.num_joined == 0 ? 0.0 : 0.5);
    };
    const SeedSelectResult sel =
        select_seed(kSeedBits, cost, target, kSeedSearch,
                    sub_seed(salt, result.phases));
    result.seed_evaluations += sel.evaluations;
    result.mpc.ledger.charge("mis-seed", sel.rounds_charged,
                             sel.words_charged);
    result.mpc.ledger.charge("mis-phase", kRoundsPerPhase, r.num_vertices);

    if (engine.load(sel.seed)) sim_valid = false;
    apply_phase(st, simulate(), params.exec);
    ++result.phases;
  }
  result.color = std::move(st.color);
  // Residency of the reduction graph (Section 4.1's space bound): checked
  // against the caller's model when one is supplied, recorded raw otherwise.
  if (model != nullptr) {
    model->note_resident(
        std::min<std::uint64_t>(r.size_words(), model->local_space()),
        r.size_words(), result.mpc);
  } else {
    result.mpc.note_resident(r.size_words(), r.size_words());
  }
  return result;
}

}  // namespace

MisColorResult mis_list_color(const Graph& g, std::span<const NodeId> orig,
                              const PaletteSet& palettes,
                              const MisParams& params, std::uint64_t salt,
                              const MpcModel* model) {
  return solve(g, build_reduction(g, orig, palettes, params.exec), params,
               salt, model);
}

MisColorResult mis_list_color(
    const Graph& g, const std::vector<std::vector<Color>>& palettes,
    const MisParams& params, std::uint64_t salt, const MpcModel* model) {
  return solve(g, build_reduction(g, palettes, params.exec), params, salt,
               model);
}

}  // namespace detcol
