// Low-space MPC demo (Theorem 1.4): (deg+1)-list coloring of a power-law
// "social network" when no machine can hold even one node's full
// neighborhood — the sublinear-space regime where instances are colored
// through the MIS reduction instead of being collected.
//
//   ./lowspace_demo [--n=5000] [--beta=2.5] [--avgdeg=8]
#include <cstdio>

#include "graph/generators.hpp"
#include "lowspace/low_space.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace detcol;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const NodeId n = static_cast<NodeId>(args.get_uint("n", 5000));
  const double beta = args.get_double("beta", 2.5);
  const double avgdeg = args.get_double("avgdeg", 8.0);

  const Graph g = gen_power_law(n, beta, avgdeg, /*seed=*/13);
  std::printf("power-law graph: n=%u, m=%zu, max degree %u (skewed: the\n"
              "(deg+1)-list problem gives small palettes to small nodes)\n",
              g.num_nodes(), g.num_edges(), g.max_degree());

  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 22, 3);

  LowSpaceParams params;
  params.delta = 0.04;  // bins = n^delta, low-degree threshold n^{7*delta}
  const LowSpaceResult r = low_space_color(g, pal, params);

  const VerifyResult v = verify_coloring(g, pal, r.coloring);
  if (!v.ok) {
    std::fprintf(stderr, "invalid: %s\n", v.issue.c_str());
    return 1;
  }

  Table t({"metric", "value"});
  t.row().cell("model rounds").cell(r.ledger.total_rounds());
  t.row().cell("recursion depth").cell(r.depth_reached);
  t.row().cell("partitions").cell(r.num_partitions);
  t.row().cell("MIS reduction calls").cell(r.num_mis_calls);
  t.row().cell("total MIS phases").cell(r.total_mis_phases);
  t.row().cell("violators diverted to G0").cell(r.diverted_violators);
  t.row().cell("peak global space (words)").cell(r.mpc.peak_total_words);
  t.print("low-space MPC (deg+1)-list coloring (Theorem 1.4)");

  std::printf("\nmodel cost breakdown:\n%s", r.ledger.summary().c_str());
  std::printf("\nRounds are dominated by the MIS phases — the paper's\n"
              "O(log Delta + log log n) term (see \"Deviations from the\n"
              "paper\" in docs/ARCHITECTURE.md for the MIS substitution).\n");
  return 0;
}
