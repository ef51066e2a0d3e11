// Ablation study of the constants "Deviations from the paper" in
// docs/ARCHITECTURE.md calls out:
//   A1 — hash-family independence c (Lemma 2.2 needs c >= 4);
//   A2 — collect threshold (the "size O(n)" constant of Algorithm 1);
//   A3 — G0 acceptance budget (Corollary 3.10 constant);
//   A4 — bin exponent (Algorithm 2's ell^0.1).
// What the tables show at the default instance is recorded in
// docs/BENCHMARKS.md; flags: --n, --deg.
#include <cstdio>

#include "core/color_reduce.hpp"
#include "util/check.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace detcol;

namespace {
struct Sums {
  std::uint64_t bad = 0, parts = 0;
  void walk(const CallStats& s) {
    if (!s.collected && s.n > 0) {
      bad += s.bad_nodes;
      ++parts;
    }
    for (const auto& c : s.children) walk(c);
  }
};

void run_row(Table& t, const std::string& label, const Graph& g,
             const PaletteSet& pal, const ColorReduceConfig& cfg) {
  WallTimer w;
  try {
    const auto r = color_reduce(g, pal, cfg);
    const double ms = w.millis();
    const auto v = verify_coloring(g, pal, r.coloring);
    Sums sums;
    sums.walk(r.root);
    t.row()
        .cell(label)
        .cell(r.ledger.total_rounds())
        .cell(r.max_depth_reached)
        .cell(sums.parts)
        .cell(sums.bad)
        .cell(r.total_seed_evaluations)
        .cell(r.mpc.peak_local_words)
        .cell(v.ok ? "yes" : "NO")
        .cell(ms, 1);
  } catch (const CheckError&) {
    // The simulator rejected a model-limit violation (e.g. G0 outgrew the
    // O(n) machine): that *is* the ablation's result for this variant.
    t.row()
        .cell(label)
        .cell("-")
        .cell("-")
        .cell("-")
        .cell("-")
        .cell("-")
        .cell("-")
        .cell("MODEL VIOLATION")
        .cell(w.millis(), 1);
  }
}
}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const NodeId n = static_cast<NodeId>(args.get_uint("n", 6000));
  const NodeId deg = static_cast<NodeId>(args.get_uint("deg", 48));
  const Graph g = gen_random_regular(n, deg, 404);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  std::printf("instance: random %u-regular, n=%u\n", deg, n);

  const std::vector<std::string> headers = {
      "variant",    "rounds",     "depth", "partitions", "bad nodes",
      "seed evals", "peak collect", "valid", "wall ms"};

  {
    Table t(headers);
    for (const unsigned c : {2u, 4u, 8u}) {
      ColorReduceConfig cfg;
      cfg.part.collect_factor = 2.0;
      cfg.part.independence = c;
      run_row(t, "c = " + std::to_string(c), g, pal, cfg);
    }
    t.print("A1 — independence of the hash families");
  }
  {
    Table t(headers);
    for (const double f : {1.0, 2.0, 4.0, 8.0}) {
      ColorReduceConfig cfg;
      cfg.part.collect_factor = f;
      run_row(t, "collect_factor = " + format_double(f, 1), g, pal, cfg);
    }
    t.print("A2 — collect threshold (Algorithm 1's 'size O(n)')");
  }
  {
    Table t(headers);
    for (const double b : {0.25, 0.5, 1.0, 2.0}) {
      ColorReduceConfig cfg;
      cfg.part.collect_factor = 2.0;
      cfg.part.g0_budget = b;
      run_row(t, "g0_budget = " + format_double(b, 2), g, pal, cfg);
    }
    t.print("A3 — G0 acceptance budget (Corollary 3.10 constant)");
  }
  {
    Table t(headers);
    for (const double e : {0.1, 0.2, 0.3, 0.4}) {
      ColorReduceConfig cfg;
      cfg.part.collect_factor = 2.0;
      cfg.part.bin_exp = e;
      run_row(t, "bin_exp = " + format_double(e, 1), g, pal, cfg);
    }
    t.print("A4 — bin exponent (Algorithm 2's ell^0.1)");
  }
  return 0;
}
