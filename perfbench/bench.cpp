// detcol_perfbench: the repository benchmark (perfbench/README.md).
//
//   detcol_perfbench --workload W --seed N --seconds S --trace 0|1
//                    [--scale full|tiny] [--work-dir DIR] [--source-id ID]
//
// Workloads: reduce-sparse, lowspace-lists, serve-mixed. With --trace 0 the
// last stdout line carries the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run. Inputs come only from --seed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"
#include "exec/thread_pool.hpp"
#include "graph/formats.hpp"
#include "graph/scalable_gen.hpp"
#include "hashing/simd_kernels.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr unsigned kThreads = 4;
constexpr unsigned kSetups = 3;  // setup_s is the median of these
constexpr detcol::Color kListColorSpace = detcol::Color{1} << 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string source_id = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("bad argument " + key);
    }
    key = key.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("--" + key + " needs a value");
    }
    if (key == "workload") {
      a.workload = value;
    } else if (key == "seed") {
      a.seed = std::stoull(value);
    } else if (key == "seconds") {
      a.seconds = std::stod(value);
    } else if (key == "trace" && (value == "0" || value == "1")) {
      a.trace = value == "1";
    } else if (key == "scale" && (value == "full" || value == "tiny")) {
      a.tiny = value == "tiny";
    } else if (key == "work-dir") {
      a.work_dir = value;
    } else if (key == "source-id") {
      a.source_id = value;
    } else {
      throw std::invalid_argument("bad flag --" + key + "=" + value);
    }
  }
  if (a.workload != "reduce-sparse" && a.workload != "lowspace-lists" &&
      a.workload != "serve-mixed") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ---------------------------------------------------------------------------
// Host and build fingerprint.
// ---------------------------------------------------------------------------

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return PERFBENCH_SANITIZE[0] != '\0';
#endif
}

bool debug_build() {
#ifndef NDEBUG
  return true;
#else
  return std::string(PERFBENCH_BUILD_TYPE) == "Debug";
#endif
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string fingerprint_json(const Args& a) {
  detcol::JsonWriter w;
  w.begin_object();
  w.key("nproc").value(std::thread::hardware_concurrency());
  w.key("cpu_model").value(cpu_model());
  const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  w.key("llc_bytes").value(static_cast<std::int64_t>(llc > 0 ? llc : 0));
  w.key("field_kernel").value(detcol::active_simd_name());
  w.key("compiler").value(PERFBENCH_COMPILER);
  w.key("flags").value(PERFBENCH_CXX_FLAGS);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("commit").value(a.source_id);
  w.key("threads").value(kThreads);
  w.key("scale").value(a.tiny ? "tiny" : "full");
  w.end_object();
  return w.str();
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// One run's outcome.
// ---------------------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Counts counts;
  std::vector<std::string> errors;
};

struct Scale {
  NodeId batch_n;
  NodeId batch_max_deg;  // the most likely Δ of sgnp(batch_n, avg_deg)
  std::vector<NodeId> serve_sizes;
  double avg_deg = 32;
};

Scale scale_of(const Args& a) {
  if (a.tiny) return {NodeId{1} << 12, 54, {1u << 8, 1u << 9, 1u << 10}};
  return {NodeId{1} << 17, 60, {1u << 12, 1u << 13, 1u << 14}};
}

ServeConfig serve_config(const Args& a) {
  ServeConfig c;
  c.seed = a.seed;
  c.sizes = scale_of(a).serve_sizes;
  c.socket_path = a.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  return c;
}

// ---------------------------------------------------------------------------
// Batch workloads: the instance is generated once per setup with the
// sharded generator, loaded from its .dcg file, and given its palettes.
// ---------------------------------------------------------------------------

struct BatchInstance {
  Graph g;
  PaletteSet pal;
};

PaletteSet list_palettes(const Args& a, const Graph& g) {
  return PaletteSet::deg_plus_one_lists(g, kListColorSpace,
                                        detcol::sub_seed(a.seed, 2) >> 40);
}

/// The batch graph is sgnp conditioned on its maximum degree: the first of
/// the seed's generator seeds whose graph has Δ = Scale::batch_max_deg.
/// ColorReduce colors from Δ+1 colors, and its time follows Δ: at n=2^17
/// a graph with Δ=62 took 25% longer than one with Δ=58. Without the
/// condition the seed would move color_s more than the host does. The
/// search runs once per run, before the timed setups.
detcol::ScalableGenSpec batch_graph_spec(const Args& a, ExecContext exec) {
  const Scale sc = scale_of(a);
  detcol::ScalableGenSpec spec;
  spec.family = detcol::ScalableFamily::kGnp;
  spec.n = sc.batch_n;
  spec.p = sc.avg_deg / (sc.batch_n - 1.0);
  const std::string path =
      a.work_dir + "/search-" + std::to_string(::getpid()) + ".dcg";
  // About one graph in four has the most likely Δ.
  constexpr std::uint64_t kAttempts = 256;
  for (std::uint64_t i = 0; i < kAttempts; ++i) {
    spec.seed = detcol::sub_seed(detcol::sub_seed(a.seed, 1), i) >> 40;
    detcol::generate_scalable_dcg(spec, path, exec);
    const NodeId delta = detcol::map_dcg_file(path, exec).max_degree();
    std::filesystem::remove(path);
    if (delta == sc.batch_max_deg) return spec;
  }
  throw std::runtime_error("no batch graph with the target maximum degree");
}

BatchInstance setup_batch(const Args& a, const detcol::ScalableGenSpec& spec,
                          bool lists, ExecContext exec, double* load_s) {
  ScopedSpan span("setup");
  const std::string path =
      a.work_dir + "/graph-" + std::to_string(::getpid()) + ".dcg";
  BatchInstance inst;
  {
    ScopedSpan s("graph.generate");
    detcol::generate_scalable_dcg(spec, path, exec);
  }
  const double t0 = now_s();
  {
    ScopedSpan s("graph.load");
    inst.g = detcol::read_graph_file(path, detcol::GraphFormat::kDcg, exec);
  }
  *load_s = now_s() - t0;
  std::filesystem::remove(path);
  {
    ScopedSpan s("palette.build");
    inst.pal = lists ? list_palettes(a, inst.g)
                     : PaletteSet::delta_plus_one(inst.g);
  }
  return inst;
}

/// Records the exact counts of one pipeline call. Every call of one
/// algorithm on one instance must agree, whatever its thread count.
void record_call(const std::string& algo, const PipelineCall& c,
                 Outcome& out) {
  ++out.attempted;
  if (!c.verified) {
    ++out.failed;
    out.errors.push_back(algo + " coloring failed verification: " + c.issue);
  }
  put_count(out.counts, "model_rounds." + algo, c.rounds, out.errors);
  put_count(out.counts, "colors_used." + algo, c.colors_used, out.errors);
  // 48 bits, so the value survives the JSON (double) counts file exactly.
  put_count(out.counts, "coloring_hash." + algo, c.coloring_hash >> 16,
            out.errors);
  if (!c.stats_json.empty()) {
    stats_counts(algo, c.stats_json, out.counts, out.errors);
  }
}

void end_to_end_batch(const Args& a, const std::string& algo, Outcome& out,
                      ExecContext exec) {
  const detcol::ScalableGenSpec spec = batch_graph_spec(a, exec);
  std::vector<double> setups;
  BatchInstance inst;
  double load_s = 0;
  for (unsigned i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    inst = setup_batch(a, spec, algo == "lowspace", exec, &load_s);
    setups.push_back(now_s() - t0);
  }
  const PipelineCall warm = call_pipeline(algo, inst.g, inst.pal, exec, true);
  record_call(algo, warm, out);
  out.attempted = 0;
  out.failed = 0;  // the warm-up call is untimed and not counted

  std::vector<double> color_s, req_s;
  const double t0 = now_s();
  while (color_s.empty() || now_s() - t0 < a.seconds) {
    const PipelineCall c = call_pipeline(algo, inst.g, inst.pal, exec, false);
    record_call(algo, c, out);
    color_s.push_back(c.seconds);
    req_s.push_back(c.seconds + c.verify_seconds);
  }
  const double elapsed = now_s() - t0;
  Metrics& m = out.metrics;
  m["color_s"] = {median(color_s), "s"};
  m["setup_s"] = {median(setups), "s"};
  m["model_rounds"] = {static_cast<double>(warm.rounds), "count"};
  m["colors_used"] = {static_cast<double>(warm.colors_used), "count"};
  m["req_s.p50"] = {quantile(req_s, 0.5), "s"};
  m["req_s.p90"] = {quantile(req_s, 0.9), "s"};
  m["throughput_rps"] = {static_cast<double>(color_s.size()) / elapsed,
                         "req/s"};
}

/// Failures, check errors and exact counts of one serve session.
void record_session(const ServeResult& r, Outcome& out) {
  out.failed += r.failed;
  out.errors.insert(out.errors.end(), r.errors.begin(), r.errors.end());
  put_count(out.counts, "serve.top.model_rounds", r.model_rounds, out.errors);
  put_count(out.counts, "serve.top.colors_used", r.colors_used, out.errors);
}

/// Starts the server kSetups times, stopping each one but the last; returns
/// the set-up times.
std::vector<double> start_repeatedly(ServeBench& sb) {
  std::vector<double> setups;
  for (unsigned i = 0; i < kSetups; ++i) {
    if (i > 0) sb.stop();
    setups.push_back(sb.start());
  }
  return setups;
}

void end_to_end_serve(const Args& a, Outcome& out, ExecContext exec) {
  ServeBench sb(serve_config(a));
  const std::vector<double> setups = start_repeatedly(sb);
  const ServeResult r = sb.run(a.seconds, exec);
  sb.stop();
  out.attempted = r.attempted;
  record_session(r, out);
  Metrics& m = out.metrics;
  m["color_s"] = {median(r.miss_handle), "s"};
  m["setup_s"] = {median(setups), "s"};
  m["model_rounds"] = {static_cast<double>(r.model_rounds), "count"};
  m["colors_used"] = {static_cast<double>(r.colors_used), "count"};
  m["req_s.p50"] = {quantile(r.miss_latency, 0.5), "s"};
  m["req_s.p90"] = {quantile(r.miss_latency, 0.9), "s"};
  m["throughput_rps"] = {static_cast<double>(r.completed) / r.elapsed,
                         "req/s"};
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.
// ---------------------------------------------------------------------------

void serve_layer_metrics(const ServeResult& r, Metrics& m) {
  m["serve.handle_s.p50"] = {median(r.handle), "s"};
  m["serve.wait_s.p50"] = {quantile(r.wait, 0.5), "s"};
  m["serve.wait_s.p99"] = {quantile(r.wait, 0.99), "s"};
  m["serve.hit_req_s.p50"] = {median(r.hit_latency), "s"};
  m["serve.ping_rtt_us"] = {median(r.ping_rtt) * 1e6, "us"};
  m["serve.result_hit_ratio"] = {
      r.completed > 0 ? static_cast<double>(r.result_hits) /
                            static_cast<double>(r.completed)
                      : 0,
      "ratio"};
  const std::uint64_t lookups = r.instance_hits + r.instance_misses;
  m["serve.instance_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(r.instance_hits) /
                        static_cast<double>(lookups)
                  : 0,
      "ratio"};
  m["serve.evictions"] = {static_cast<double>(r.evictions), "count"};
  m["serve.overloaded"] = {static_cast<double>(r.overloaded), "count"};
}

/// Every layer probe on one instance. `own` is the workload's algorithm:
/// it gets the timed traced/untraced pair and the 1-thread run; the other
/// algorithm runs at 4 threads and at 1 for its counts and replay.
void probe_layers(const std::string& own, const Graph& g,
                  const PaletteSet& pal_reduce, const PaletteSet& pal_lists,
                  ExecContext exec, Outcome& out) {
  Metrics& m = out.metrics;
  const PaletteSet& own_pal = own == "reduce" ? pal_reduce : pal_lists;
  const ExecContext seq{};

  // Warm-up, then untraced and traced calls at 4 threads in turn (so drift
  // on the host hits both alike), then 1 thread.
  record_call(own, call_pipeline(own, g, own_pal, exec, false), out);
  std::vector<double> untraced, traced, overhead, verify;
  std::string own_stats;
  for (int i = 0; i < 2; ++i) {
    const PipelineCall u = call_pipeline(own, g, own_pal, exec, false);
    record_call(own, u, out);
    untraced.push_back(u.seconds);
    verify.push_back(u.verify_seconds);
    const PipelineCall c = [&] {
      ScopedSpan s("cli.run_pipeline");
      return call_pipeline(own, g, own_pal, exec, true);
    }();
    record_call(own, c, out);
    traced.push_back(c.seconds);
    overhead.push_back(c.seconds - c.reported_seconds);
    verify.push_back(c.verify_seconds);
    own_stats = c.stats_json;
  }
  const PipelineCall one = [&] {
    ScopedSpan s("cli.run_pipeline");
    return call_pipeline(own, g, own_pal, seq, true);
  }();
  record_call(own, one, out);
  const double speedup = one.seconds / median(traced);
  m["exec.speedup_4t"] = {speedup, "x"};
  m["exec.parallel_eff"] = {speedup / kThreads, "ratio"};
  m["trace.overhead_s"] = {median(traced) - median(untraced), "s"};
  m["cli.pipeline_overhead_s"] = {median(overhead), "s"};
  m["graph.verify_s"] = {median(verify), "s"};
  m["palette.words"] = {static_cast<double>(own_pal.total_size()), "count"};

  // The other algorithm's 1-thread counts are checked on its own workload.
  const std::string other = own == "reduce" ? "lowspace" : "reduce";
  const PaletteSet& other_pal = own == "reduce" ? pal_lists : pal_reduce;
  const PipelineCall other_call = [&] {
    ScopedSpan s("cli.run_pipeline");
    return call_pipeline(other, g, other_pal, exec, true);
  }();
  record_call(other, other_call, out);
  const std::string& other_stats = other_call.stats_json;
  const std::string& reduce_stats = own == "reduce" ? own_stats : other_stats;
  const std::string& lowspace_stats =
      own == "reduce" ? other_stats : own_stats;

  const std::vector<double> depth = stats_depth_seconds(reduce_stats);
  for (unsigned d = 0; d < 4; ++d) {
    m["core.depth_s.d" + std::to_string(d)] = {d < depth.size() ? depth[d] : 0,
                                               "s"};
  }
  m["core.unattributed_s"] = {
      stats_wall_seconds(reduce_stats) -
          std::accumulate(depth.begin(), depth.end(), 0.0),
      "s"};

  replay_color_reduce(g, pal_reduce, exec, reduce_stats, m, out.errors);
  replay_low_space(g, pal_lists, exec, lowspace_stats, m, out.errors);
  probe_hashing(g.num_nodes(), m);
  probe_exec(g.num_nodes(), exec, m);

  const Counts& c = out.counts;
  const auto count = [&](const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const char* name :
       {"core.partitions", "core.seed_evals", "core.collects",
        "core.max_depth", "lowspace.depth", "lowspace.partitions",
        "lowspace.seed_evals", "lowspace.mis_calls", "lowspace.mis_phases",
        "lowspace.diverted"}) {
    m[name] = {count(name), "count"};
  }
  const double evals = count("core.seed_evals");
  m["core.seed_accept_ratio"] = {
      evals > 0 ? count("core.partitions") / evals : 0, "ratio"};
  m["sim.peak_local_words"] = {count("sim." + own + ".peak_local_words"),
                               "count"};
  m["sim.ledger_words"] = {count("sim." + own + ".ledger_words"), "count"};
}

void traced_batch(const Args& a, const std::string& algo, Outcome& out,
                  ExecContext exec) {
  const detcol::ScalableGenSpec spec = batch_graph_spec(a, exec);
  BatchInstance inst;
  std::vector<double> loads;
  for (unsigned i = 0; i < kSetups; ++i) {
    double load_s = 0;
    inst = setup_batch(a, spec, algo == "lowspace", exec, &load_s);
    loads.push_back(load_s);
  }
  out.metrics["graph.load_s"] = {median(loads), "s"};
  // LowSpace is probed on (deg+1)-lists, its own palette family; ColorReduce
  // runs on whatever the workload colors.
  const PaletteSet lists =
      algo == "reduce" ? list_palettes(a, inst.g) : inst.pal;
  probe_layers(algo, inst.g, inst.pal, lists, exec, out);

  // The serve layer at the same traffic mix, briefly: the batch workloads
  // do not exercise it, but every run reports every layer.
  ServeBench sb(serve_config(a));
  sb.start();
  const ServeResult r = sb.run(a.tiny ? 0.5 : 1.0, exec);
  sb.stop();
  record_session(r, out);
  serve_layer_metrics(r, out.metrics);
  probe_instance_build(sb.probe_graph_spec(), sb.probe_palette_spec(false),
                       out.metrics);
}

void traced_serve(const Args& a, Outcome& out, ExecContext exec) {
  ServeBench sb(serve_config(a));
  start_repeatedly(sb);
  const ServeResult r = sb.run(a.seconds, exec);
  sb.stop();
  out.attempted += r.attempted;
  record_session(r, out);
  serve_layer_metrics(r, out.metrics);

  const Graph& g = sb.probe_graph();
  const std::string path =
      a.work_dir + "/probe-" + std::to_string(::getpid()) + ".dcg";
  detcol::write_dcg_file(path, g);
  std::vector<double> loads;
  for (unsigned i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    {
      ScopedSpan s("graph.load");
      detcol::read_graph_file(path, detcol::GraphFormat::kDcg, exec);
    }
    loads.push_back(now_s() - t0);
  }
  std::filesystem::remove(path);
  out.metrics["graph.load_s"] = {median(loads), "s"};
  probe_layers("reduce", g, sb.probe_palettes(false), sb.probe_palettes(true),
               exec, out);
  probe_instance_build(sb.probe_graph_spec(), sb.probe_palette_spec(false),
                       out.metrics);
}

// ---------------------------------------------------------------------------
// Exact counts persist per (workload, scale, seed) across runs of one build:
// a later run of the same seed must reproduce every count.
// ---------------------------------------------------------------------------

void check_counts_across_runs(const Args& a, Outcome& out) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(a.work_dir) / "counts";
  fs::create_directories(dir);
  const fs::path file = dir / (a.workload + (a.tiny ? "-tiny" : "-full") +
                               "-s" + std::to_string(a.seed) + ".json");
  Counts merged = out.counts;
  if (fs::exists(file)) {
    std::ifstream in(file);
    std::stringstream buf;
    buf << in.rdbuf();
    const detcol::JsonValue doc = detcol::parse_json(buf.str(), file.string());
    for (const auto& [name, v] : doc.members) {
      put_count(merged, name, static_cast<std::uint64_t>(v.number),
                out.errors);
    }
  }
  detcol::JsonWriter w;
  w.begin_object();
  for (const auto& [name, v] : merged) w.key(name).value(v);
  w.end_object();
  const fs::path tmp = file.string() + ".tmp" + std::to_string(::getpid());
  std::ofstream(tmp) << w.str() << "\n";
  fs::rename(tmp, file);
}

std::string fmt_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(const Outcome& out, bool correct) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + fmt_number(metric.value) +
         ", \"unit\": \"" + metric.unit + "\"}";
  }
  s += "}}";
  return s;
}

/// Spans in the Chrome trace-event format (chrome://tracing, Perfetto).
void write_trace(const std::string& path) {
  detcol::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  const std::vector<Span> spans = tracer().spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("ts").value(s.start * 1e6);
    w.key("dur").value((s.end - s.start) * 1e6);
    w.key("pid").value(1);
    w.key("tid").value(static_cast<std::uint64_t>(s.request >> 32));
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i));
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.key("request").value(s.request);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream(path) << w.str() << "\n";
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (debug_build() || sanitizer_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to record results from a Debug or "
                 "sanitizer build (build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::filesystem::create_directories(a.work_dir);
  const std::string fingerprint = fingerprint_json(a);
  std::printf("{\"fingerprint\": %s}\n", fingerprint.c_str());
  std::fflush(stdout);

  // One malloc arena, and glibc's initial 128 KiB mmap threshold fixed so
  // it does not adapt: large blocks go back to the kernel when freed, so
  // RSS follows live memory, and peak_rss_mb does not depend on how thread
  // scheduling or earlier calls fragmented the heap.
  ::mallopt(M_ARENA_MAX, 1);
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  detcol::ThreadPool pool(kThreads);
  const ExecContext exec(pool);
  tracer().enable(a.trace);
  Outcome out;
  if (a.workload == "serve-mixed") {
    a.trace ? traced_serve(a, out, exec) : end_to_end_serve(a, out, exec);
  } else {
    const std::string algo =
        a.workload == "reduce-sparse" ? "reduce" : "lowspace";
    a.trace ? traced_batch(a, algo, out, exec)
            : end_to_end_batch(a, algo, out, exec);
  }
  check_counts_across_runs(a, out);
  if (!a.trace) {
    out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    out.metrics["ok_frac"] = {
        out.attempted > 0 ? static_cast<double>(out.attempted - out.failed) /
                                static_cast<double>(out.attempted)
                          : 0,
        "ratio"};
  }
  const bool correct = out.failed == 0 && out.errors.empty();
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }

  const std::string tag = a.workload + "-s" + std::to_string(a.seed) +
                          "-trace" + (a.trace ? "1" : "0");
  std::filesystem::create_directories(a.work_dir + "/results");
  const std::string line = result_json(out, correct);
  std::ofstream(a.work_dir + "/results/" + tag + ".json")
      << "{\"fingerprint\": " << fingerprint << ", \"result\": " << line
      << "}\n";
  if (a.trace) {
    std::filesystem::create_directories(a.work_dir + "/traces");
    write_trace(a.work_dir + "/traces/" + tag + ".json");
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
