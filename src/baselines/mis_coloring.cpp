#include "baselines/mis_coloring.hpp"

#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace detcol {

MisBaselineResult mis_baseline_color(const Graph& g,
                                     const PaletteSet& palettes,
                                     const MisParams& params,
                                     std::uint64_t salt) {
  MisBaselineResult r(g.num_nodes());
  std::vector<NodeId> orig(g.num_nodes());
  std::iota(orig.begin(), orig.end(), NodeId{0});
  MisColorResult mis = mis_list_color(g, orig, palettes, params, salt);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    DC_CHECK(mis.color[v] != Coloring::kUncolored, "MIS left node ", v);
    r.coloring.color[v] = mis.color[v];
  }
  r.phases = mis.phases;
  r.rounds = mis.mpc.ledger.total_rounds();
  r.words = mis.mpc.ledger.total_words();
  r.seed_evaluations = mis.seed_evaluations;
  r.mpc = std::move(mis.mpc);
  return r;
}

}  // namespace detcol
