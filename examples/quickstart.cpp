// Quickstart: color a random graph with the paper's deterministic
// constant-round CONGESTED CLIQUE algorithm and inspect what happened.
//
//   ./quickstart [--n=5000] [--p=0.01] [--lists] [--dump-stats=run.json]
//
// Walks through the full public API: generate a graph, build palettes, run
// color_reduce, verify, and read the round ledger and recursion stats.
#include <cstdio>

#include "core/color_reduce.hpp"
#include "core/stats_export.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"

using namespace detcol;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const NodeId n = static_cast<NodeId>(args.get_uint("n", 5000));
  const double p = args.get_double("p", 0.01);
  const bool lists = args.get_bool("lists", false);

  // 1. The input graph.
  const Graph g = gen_gnp(n, p, /*seed=*/7);
  std::printf("graph: n=%u, m=%zu, Delta=%u\n", g.num_nodes(), g.num_edges(),
              g.max_degree());

  // 2. Palettes: plain (Δ+1)-coloring, or (Δ+1)-list coloring where every
  //    node brings its own list from a large color space.
  const PaletteSet palettes =
      lists ? PaletteSet::random_lists(g, /*color_space=*/1u << 24, 3)
            : PaletteSet::delta_plus_one(g);
  std::printf("palettes: %s, total %zu color entries\n",
              lists ? "(Δ+1)-lists" : "(Δ+1) uniform", palettes.total_size());

  // 3. Run deterministic ColorReduce (Algorithm 1, Theorem 1.1).
  ColorReduceConfig cfg;
  cfg.part.collect_factor = 2.0;
  const ColorReduceResult result = color_reduce(g, palettes, cfg);

  // 4. Verify against the original graph and initial palettes.
  const VerifyResult v = verify_coloring(g, palettes, result.coloring);
  if (!v.ok) {
    std::fprintf(stderr, "BUG: invalid coloring: %s\n", v.issue.c_str());
    return 1;
  }
  std::printf("coloring verified: every node colored from its own palette, "
              "no monochromatic edge\n\n");

  // 5. What did it cost in the CONGESTED CLIQUE model?
  std::printf("model cost (CONGESTED CLIQUE):\n%s\n",
              result.ledger.summary().c_str());
  std::printf("recursion: depth=%u, partitions=%llu, local collects=%llu, "
              "seed evaluations=%llu\n",
              result.max_depth_reached,
              static_cast<unsigned long long>(result.num_partitions),
              static_cast<unsigned long long>(result.mpc.num_collects),
              static_cast<unsigned long long>(result.total_seed_evaluations));
  std::printf("peak collected instance: %llu words (machine capacity %u*16)\n",
              static_cast<unsigned long long>(result.mpc.peak_local_words),
              g.num_nodes());

  // 6. Optional: machine-readable dump of the whole run for plotting.
  const std::string dump = args.get_string("dump-stats", "");
  if (!dump.empty()) {
    write_json_file(dump, result_to_json(result));
    std::printf("wrote stats JSON to %s\n", dump.c_str());
  }
  return 0;
}
