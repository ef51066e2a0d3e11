#include "cli/pipeline.hpp"

#include <utility>
#include <vector>

#include "baselines/greedy.hpp"
#include "baselines/mis_coloring.hpp"
#include "baselines/random_trial.hpp"
#include "baselines/randomized_reduce.hpp"
#include "cli/spec.hpp"
#include "core/color_reduce.hpp"
#include "core/stats_export.hpp"
#include "lowspace/low_space.hpp"
#include "util/timer.hpp"

namespace detcol::cli {

namespace {

constexpr PipelineInfo kPipelines[] = {
    // name        threaded has_stats uses_seed
    {"reduce",     true,    true,     false},
    {"randreduce", true,    true,     true},
    {"lowspace",   true,    true,     false},
    {"mis",        true,    true,     false},
    {"trial",      true,    false,    true},
    {"greedy",     false,   false,    false},
};

}  // namespace

const PipelineInfo* find_pipeline(const std::string& name) {
  for (const PipelineInfo& row : kPipelines) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

std::string pipeline_names(bool PipelineInfo::*property) {
  std::vector<std::string> names;
  for (const PipelineInfo& row : kPipelines) {
    if (property == nullptr || row.*property) names.emplace_back(row.name);
  }
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += i + 1 == names.size() ? " or " : ", ";
    out += names[i];
  }
  return out;
}

PipelineRun run_pipeline(const std::string& algo, const Graph& g,
                         const PaletteSet& palettes, ExecContext exec,
                         std::uint64_t seed, bool want_stats) {
  PipelineRun out;
  out.coloring = Coloring(g.num_nodes());
  WallTimer timer;
  if (algo == "reduce" || algo == "randreduce") {
    ColorReduceConfig cfg;
    cfg.exec = exec;
    ColorReduceResult r = algo == "reduce"
                              ? color_reduce(g, palettes, cfg)
                              : randomized_reduce(g, palettes, seed, cfg);
    out.rounds = r.ledger.total_rounds();
    out.mpc_json = mpc_costs_to_json(r.mpc);
    if (want_stats) out.stats_json = result_to_json(r);
    out.coloring = std::move(r.coloring);
  } else if (algo == "lowspace") {
    LowSpaceParams params;
    params.exec = exec;
    LowSpaceResult r = low_space_color(g, palettes, params);
    out.rounds = r.ledger.total_rounds();
    out.mpc_json = mpc_costs_to_json(r.mpc);
    if (want_stats) out.stats_json = lowspace_result_to_json(r, timer.seconds());
    out.coloring = std::move(r.coloring);
  } else if (algo == "mis") {
    MisParams params;
    params.exec = exec;
    MisBaselineResult r = mis_baseline_color(g, palettes, params);
    out.rounds = r.rounds;
    out.mpc_json = mpc_costs_to_json(r.mpc);
    if (want_stats) out.stats_json = mis_result_to_json(r, timer.seconds());
    out.coloring = std::move(r.coloring);
  } else if (algo == "trial") {
    RandomTrialResult r =
        random_trial_color(g, palettes, seed, kRandomTrialMaxRounds, exec);
    out.rounds = r.model_rounds;
    out.coloring = std::move(r.coloring);
  } else if (algo == "greedy") {
    GreedyResult r = greedy_baseline(g, palettes);
    out.coloring = std::move(r.coloring);
  } else {
    usage_error("unknown --algo '" + algo + "'");
  }
  out.wall_seconds = timer.seconds();
  return out;
}

}  // namespace detcol::cli
