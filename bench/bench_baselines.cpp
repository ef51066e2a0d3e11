// Experiment T6: deterministic ColorReduce vs every baseline on identical
// instances. Who wins on model rounds, by what factor, and at what
// wall-clock cost. The headline comparison of the paper:
//   * vs randomized O(log n) color trial (the classic baseline),
//   * vs deterministic MIS-reduction coloring (pre-paper deterministic SoTA
//     proxy, O(log Delta)-ish phases),
//   * vs randomized ColorReduce (ablation: what derandomization costs),
//   * vs sequential greedy (wall-clock reference, no rounds).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "baselines/greedy.hpp"
#include "baselines/mis_coloring.hpp"
#include "baselines/random_trial.hpp"
#include "baselines/randomized_reduce.hpp"
#include "core/color_reduce.hpp"
#include "exec/exec.hpp"
#include "graph/generators.hpp"
#include "lowspace/low_space.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace detcol;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const NodeId n = static_cast<NodeId>(args.get_uint("n", 8000));
  const NodeId deg = static_cast<NodeId>(args.get_uint("deg", 32));
  // One pool shared by every contender: ColorReduce, the low-space driver
  // AND the trial/mis baselines all shard over it, so wall-clock columns
  // compare like for like at any --threads value (results stay bit-identical
  // to the sequential run by the exec-layer contract).
  const ExecHolder holder = make_exec_holder(
      static_cast<unsigned>(args.get_uint("threads", 1)));
  const ExecContext exec = holder.exec;

  struct Row {
    std::string name;
    std::uint64_t rounds;
    std::uint64_t words;
    bool valid;
    double ms;
    std::string note;
  };
  std::vector<Row> rows;

  const Graph g = gen_random_regular(n, deg, 31337);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);

  {
    ColorReduceConfig cfg;
    cfg.part.collect_factor = 2.0;
    cfg.exec = exec;
    WallTimer w;
    const auto r = color_reduce(g, pal, cfg);
    rows.push_back({"ColorReduce (det, this paper)", r.ledger.total_rounds(),
                    r.ledger.total_words(),
                    verify_coloring(g, pal, r.coloring).ok, w.millis(),
                    "depth " + std::to_string(r.max_depth_reached)});
  }
  {
    ColorReduceConfig cfg;
    cfg.part.collect_factor = 2.0;
    cfg.exec = exec;
    WallTimer w;
    const auto r = randomized_reduce(g, pal, 0, cfg);
    rows.push_back({"ColorReduce (randomized ablation)",
                    r.ledger.total_rounds(), r.ledger.total_words(),
                    verify_coloring(g, pal, r.coloring).ok, w.millis(),
                    "first seed, no search"});
  }
  {
    WallTimer w;
    const auto r = random_trial_color(g, pal, 4242, kRandomTrialMaxRounds, exec);
    rows.push_back({"Randomized color trial", r.model_rounds, r.words_sent,
                    verify_coloring(g, pal, r.coloring).ok, w.millis(),
                    std::to_string(r.trial_rounds) + " trials"});
  }
  {
    MisParams mis_params;
    mis_params.exec = exec;
    WallTimer w;
    const auto r = mis_baseline_color(g, pal, mis_params);
    rows.push_back({"Det. MIS-reduction (pre-paper det.)", r.rounds, r.words,
                    verify_coloring(g, pal, r.coloring).ok, w.millis(),
                    std::to_string(r.phases) + " Luby phases"});
  }
  {
    LowSpaceParams params;
    params.delta = 0.04;
    params.exec = exec;
    WallTimer w;
    const auto r = low_space_color(g, pal, params);
    rows.push_back({"LowSpaceColorReduce (Thm 1.4)", r.ledger.total_rounds(),
                    r.ledger.total_words(),
                    verify_coloring(g, pal, r.coloring).ok, w.millis(),
                    std::to_string(r.total_mis_phases) + " MIS phases"});
  }
  {
    WallTimer w;
    const auto r = greedy_baseline(g, pal);
    rows.push_back({"Sequential greedy (centralized)", 0, 0,
                    verify_coloring(g, pal, r.coloring).ok, w.millis(),
                    "no communication model"});
  }

  Table t({"algorithm", "model rounds", "words", "valid", "wall ms", "notes"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.name)
        .cell(r.rounds)
        .cell(r.words)
        .cell(r.valid ? "yes" : "NO")
        .cell(r.ms, 1)
        .cell(r.note);
  }
  t.print("T6 — baselines on random " + std::to_string(deg) + "-regular, n=" +
          std::to_string(n));

  // F3 — crossover analysis: the deterministic algorithm's rounds are a
  // constant C(Δ); the randomized trial needs ~a + b*log2(n). Fit (a, b)
  // over an n-sweep and report where the curves cross.
  {
    Table t2({"n", "det rounds", "trial rounds (avg of 3 seeds)"});
    std::vector<double> xs, ys;
    std::uint64_t det_rounds = 0;
    for (const std::uint64_t nn : {2000ull, 8000ull, 32000ull}) {
      const Graph gg = gen_random_regular(static_cast<NodeId>(nn), deg,
                                          91 + nn);
      const PaletteSet pp = PaletteSet::delta_plus_one(gg);
      ColorReduceConfig cfg;
      cfg.part.collect_factor = 2.0;
      const auto d = color_reduce(gg, pp, cfg);
      det_rounds = d.ledger.total_rounds();
      double trial_avg = 0.0;
      for (std::uint64_t s = 0; s < 3; ++s) {
        trial_avg += static_cast<double>(
            random_trial_color(gg, pp, 100 + s).model_rounds);
      }
      trial_avg /= 3.0;
      xs.push_back(std::log2(static_cast<double>(nn)));
      ys.push_back(trial_avg);
      t2.row().cell(nn).cell(det_rounds).cell(trial_avg, 1);
    }
    // Least-squares fit of trial rounds = a + b*log2(n).
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const double k = static_cast<double>(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sx += xs[i];
      sy += ys[i];
      sxx += xs[i] * xs[i];
      sxy += xs[i] * ys[i];
    }
    const double b = (k * sxy - sx * sy) / std::max(1e-9, k * sxx - sx * sx);
    const double a = (sy - b * sx) / k;
    t2.print("F3 — crossover: constant deterministic vs O(log n) randomized");
    if (b > 1e-6) {
      const double cross_log2 =
          (static_cast<double>(det_rounds) - a) / b;
      std::printf(
          "\ntrial-rounds fit: %.1f + %.2f*log2(n). Deterministic constant "
          "%llu\n=> curves cross at n ~= 2^%.0f — the paper's win is "
          "asymptotic\n(and, more importantly, deterministic).\n",
          a, b, static_cast<unsigned long long>(det_rounds), cross_log2);
    } else {
      std::printf("\ntrial rounds did not grow over this n range; the "
                  "crossover lies beyond it.\n");
    }
  }

  std::printf(
      "\nPaper prediction: the deterministic ColorReduce round count is a\n"
      "constant (independent of n), competitive with the randomized trial\n"
      "at this scale and far below the MIS-reduction deterministic\n"
      "baseline; the randomized ablation saves seed-search evaluations but\n"
      "loses the G0 = O(n) guarantee of Corollary 3.10.\n");
  return 0;
}
