// Experiment T5 + T7 (Theorem 1.4): low-space MPC (deg+1)-list coloring.
// Part 1: rounds over an (n, Delta) grid on regular graphs — the paper's
// O(log Delta + log log n) shape means strong growth in Delta, negligible
// growth in n.
// Part 2: (deg+1)-list coloring on skewed power-law graphs, the regime the
// low-space algorithm is designed for.
#include <cmath>
#include <cstdio>
#include <memory>

#include "exec/exec.hpp"
#include "graph/generators.hpp"
#include "lowspace/low_space.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace detcol;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto ns = args.get_uint_list("ns", {2000, 8000});
  const auto degs = args.get_uint_list("degs", {8, 32, 128});
  // Host threads for the driver (results are bit-identical for every value;
  // only the wall-clock column moves).
  const ExecHolder holder = make_exec_holder(
      static_cast<unsigned>(args.get_uint("threads", 1)));
  const ExecContext exec = holder.exec;

  Table t({"n", "Delta", "rounds", "mis phases", "mis calls", "partitions",
           "depth", "rounds/(lgD+lglg n)", "wall ms"});
  for (const auto n : ns) {
    for (const auto d : degs) {
      const Graph g = gen_random_regular(static_cast<NodeId>(n),
                                         static_cast<NodeId>(d), 7 + n + d);
      const PaletteSet pal = PaletteSet::delta_plus_one(g);
      LowSpaceParams params;
      params.delta = 0.04;
      params.exec = exec;
      WallTimer timer;
      const auto r = low_space_color(g, pal, params);
      const double ms = timer.millis();
      const auto v = verify_coloring(g, pal, r.coloring);
      if (!v.ok) {
        std::fprintf(stderr, "INVALID: %s\n", v.issue.c_str());
        return 1;
      }
      const double shape = std::log2(static_cast<double>(g.max_degree())) +
                           loglog2(static_cast<double>(n));
      t.row()
          .cell(n)
          .cell(std::uint64_t{g.max_degree()})
          .cell(r.ledger.total_rounds())
          .cell(r.total_mis_phases)
          .cell(r.num_mis_calls)
          .cell(r.num_partitions)
          .cell(r.depth_reached)
          .cell(static_cast<double>(r.ledger.total_rounds()) / shape, 1)
          .cell(ms, 1);
    }
  }
  t.print("T5 — Theorem 1.4: low-space MPC rounds over (n, Delta)");

  Table t2({"n", "avg deg", "max deg", "rounds", "mis phases", "violators",
            "peak total words", "wall ms"});
  for (const auto n : ns) {
    const Graph g = gen_power_law(static_cast<NodeId>(n), 2.5, 8.0, 99 + n);
    const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 20, 3);
    LowSpaceParams params;
    params.delta = 0.04;
    params.exec = exec;
    WallTimer timer;
    const auto r = low_space_color(g, pal, params);
    const double ms = timer.millis();
    const auto v = verify_coloring(g, pal, r.coloring);
    if (!v.ok) {
      std::fprintf(stderr, "INVALID: %s\n", v.issue.c_str());
      return 1;
    }
    t2.row()
        .cell(n)
        .cell(2.0 * static_cast<double>(g.num_edges()) /
                  static_cast<double>(n),
              1)
        .cell(std::uint64_t{g.max_degree()})
        .cell(r.ledger.total_rounds())
        .cell(r.total_mis_phases)
        .cell(r.diverted_violators)
        .cell(r.peak_total_words)
        .cell(ms, 1);
  }
  t2.print("T7 — Theorem 1.4: (deg+1)-list coloring on power-law graphs");
  std::printf(
      "\nPaper prediction: rounds grow with log(Delta) (the MIS term) and\n"
      "are nearly flat in n; our MIS substitute (derandomized Luby, see\n"
      "\"Deviations from the paper\" in docs/ARCHITECTURE.md) carries a\n"
      "log(conflict-edges) phase count, so the n-term is log n rather\n"
      "than [7]'s log log n — same Delta shape.\n");
  return 0;
}
