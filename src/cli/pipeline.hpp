// One dispatcher for every registered coloring pipeline, shared by the
// one-shot CLI (`detcol color`, the suite runner) and the serving layer.
// Keeping the dispatch in one place is what makes served responses
// byte-identical to one-shot runs: both sides execute the exact same
// pipeline code on the exact same Graph/PaletteSet, differing only in the
// ExecContext (the server hands down a thread-budgeted copy of its shared
// pool). Every run builds its own seed-evaluation tables.
#pragma once

#include <cstdint>
#include <string>

#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"

namespace detcol::cli {

/// One row of the pipeline registry — the only list of pipeline names and
/// properties. `detcol color`, the suite and the server all validate
/// against it ("colorreduce" is accepted as an alias of reduce by the suite
/// parser, not here).
struct PipelineInfo {
  const char* name;
  bool threaded;   // consumes an ExecContext (--threads applies); greedy is
                   // the sequential centralized baseline
  bool has_stats;  // can render a stats JSON document
  bool uses_seed;  // randomized: --seed doubles as the algorithm seed
};

/// The registry row named `name`, or nullptr for an unknown name.
const PipelineInfo* find_pipeline(const std::string& name);

/// The names of every row with `property` set (every row when null), in
/// registry order and joined for messages: "reduce, lowspace or mis".
std::string pipeline_names(bool PipelineInfo::*property = nullptr);

struct PipelineRun {
  Coloring coloring{0};
  std::uint64_t rounds = 0;  // model rounds where the pipeline reports them
  double wall_seconds = 0;
  std::string mpc_json;    // MPC cost block; empty for trial/greedy
  std::string stats_json;  // filled iff want_stats and the row's has_stats
};

/// Run `algo` on (g, palettes). `seed` feeds the randomized baselines
/// (trial, randreduce) and is ignored elsewhere. Throws UsageError on an
/// unknown algo name; pipeline failures (CheckError, DeadlineExceeded, ...)
/// propagate. Deterministic for every thread count/budget of `exec`; only
/// the "timing" block of stats_json and wall_seconds vary across runs.
PipelineRun run_pipeline(const std::string& algo, const Graph& g,
                         const PaletteSet& palettes, ExecContext exec,
                         std::uint64_t seed, bool want_stats);

}  // namespace detcol::cli
