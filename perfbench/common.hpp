// Shared pieces of the repository benchmark (perfbench/README.md): the span
// recorder that times calls into each layer from outside, the metric and
// exact-count containers, and the probe / serve-session entry points that
// bench.cpp drives.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"

namespace perfbench {

using detcol::ExecContext;
using detcol::Graph;
using detcol::NodeId;
using detcol::PaletteSet;

/// Seconds on the steady clock since the first call in this process.
double now_s();

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent span and request id, kept in memory and
// written out when the run ends. Only the benchmark's own code opens spans,
// around calls into the layers under src/.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  /// Returns the new span's index, or -1 when tracing is off.
  int open(const std::string& name, std::uint64_t request);
  void close(int id);

  std::vector<Span> spans() const;
  /// Summed self time (duration minus direct children) of every span with
  /// this name.
  double self_seconds(const std::string& name) const;
  /// Summed duration of the direct children of every span named `parent`.
  double children_seconds(const std::string& parent) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  bool on_ = false;
};

Tracer& tracer();

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, std::uint64_t request = 0)
      : id_(tracer().open(name, request)) {}
  ~ScopedSpan() { tracer().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Metrics and exact counts.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Count metrics that must repeat exactly across thread counts, traced and
/// untraced runs, and repeated runs of one seed.
using Counts = std::map<std::string, std::uint64_t>;

/// Records `value` under `name`; a second, different value for the same
/// name is an exact-count violation, reported through `errors`.
void put_count(Counts& counts, const std::string& name, std::uint64_t value,
               std::vector<std::string>& errors);

struct PipelineCall {
  double seconds = 0;          // wall time of the run_pipeline call
  double reported_seconds = 0; // PipelineRun::wall_seconds
  std::uint64_t rounds = 0;
  std::uint64_t colors_used = 0;
  std::uint64_t coloring_hash = 0;
  std::string stats_json;
  bool verified = false;
  std::string issue;
  double verify_seconds = 0;
};

/// One cli::run_pipeline call plus verify_coloring against `palettes` (the
/// initial palettes: run_pipeline never mutates them).
PipelineCall call_pipeline(const std::string& algo, const Graph& g,
                           const PaletteSet& palettes, ExecContext exec,
                           bool want_stats);

std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

// ---------------------------------------------------------------------------
// Layer probes (probes.cpp). Each records spans when tracing is on and
// writes its per-layer metrics into `out`.
// ---------------------------------------------------------------------------

/// The exact counts and timings of a stats document from run_pipeline:
/// core.* counts for reduce, lowspace.* counts for lowspace, sim.* for both
/// (prefixed with the algorithm: "sim.reduce.peak_local_words").
void stats_counts(const std::string& algo, const std::string& stats_json,
                  Counts& counts, std::vector<std::string>& errors);
std::vector<double> stats_depth_seconds(const std::string& stats_json);
double stats_wall_seconds(const std::string& stats_json);

/// Replays ColorReduce's root level through the public functions, in the
/// driver's order: partition (then engine setup, select_seed and one
/// evaluate on their own), materialize, restrict, induced_subgraph for every
/// child, greedy_color on G0. `root_stats_json` is a reduce stats document
/// of the same instance; the replay must pick the same seed.
void replay_color_reduce(const Graph& g, const PaletteSet& palettes,
                         ExecContext exec, const std::string& root_stats_json,
                         Metrics& out, std::vector<std::string>& errors);

/// Replays LowSpace's root level: the low/high degree split, the
/// LowSpaceSeedEngine search on the high part (on the whole graph when no
/// node is above the low-degree threshold), build_reduction and
/// mis_list_color on the low-degree part. `stats_json` is a lowspace stats
/// document of the same instance.
void replay_low_space(const Graph& g, const PaletteSet& palettes,
                      ExecContext exec, const std::string& stats_json,
                      Metrics& out, std::vector<std::string>& errors);

void probe_hashing(NodeId n, Metrics& out);
void probe_exec(NodeId n, ExecContext exec, Metrics& out);
/// cli.instance_build_s: spec -> Graph + PaletteSet through cli::build_graph
/// and cli::build_palettes.
void probe_instance_build(const std::string& graph_spec,
                          const std::string& palette_spec, Metrics& out);

// ---------------------------------------------------------------------------
// The serve-mixed session (serve_session.cpp).
// ---------------------------------------------------------------------------

struct ServeConfig {
  std::uint64_t seed = 1;
  std::vector<NodeId> sizes;  // three instance sizes, four instances each
  double avg_deg = 32;
  unsigned clients = 2;
  unsigned server_threads = 4;
  std::string socket_path;
};

struct ServeResult {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  // ok responses that passed every check
  std::uint64_t failed = 0;
  std::uint64_t overloaded = 0;
  double elapsed = 0;
  std::vector<double> miss_latency;  // client send -> reply, result misses
  std::vector<double> hit_latency;   // the same for result-cache hits
  std::vector<double> miss_handle;   // transient.wall_seconds of misses
  std::vector<double> handle;        // transient.wall_seconds, every reply
  std::vector<double> wait;          // round trip minus handle time
  std::vector<double> ping_rtt;
  std::uint64_t result_hits = 0;
  std::uint64_t instance_hits = 0;
  std::uint64_t instance_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t model_rounds = 0;  // reduce on the probe instance
  std::uint64_t colors_used = 0;
  std::vector<std::string> errors;
};

class ServeBench {
 public:
  /// Plans the instances and request streams and builds the local
  /// reference instances used to check every served coloring.
  explicit ServeBench(const ServeConfig& config);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Starts an in-process server and warms it with one request per
  /// instance. Returns the seconds this took.
  double start();
  void stop();

  /// Closed loop of `clients` connections for `seconds`, then the output
  /// checks. Spans per request when tracing is on.
  ServeResult run(double seconds, ExecContext local_exec);

  /// The probe instance: the most popular instance of the largest size. The
  /// traced run probes the layers on it; palettes and specs are given for
  /// reduce (delta1) or lowspace (deg1).
  const Graph& probe_graph() const;
  const PaletteSet& probe_palettes(bool lowspace) const;
  const std::string& probe_graph_spec() const;
  const std::string& probe_palette_spec(bool lowspace) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
