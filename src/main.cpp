// detcol — unified command-line driver for the detcolor library.
//
// Subcommands:
//   gen     generate a graph and write it as an edge list
//   color   color a graph (generated or read from file) and emit the coloring
//   verify  check a coloring file against its graph and palettes
//   stats   run ColorReduce and emit the full JSON stats document
//   convert read a graph in any supported format, write it in another
//   suite   run a {graph x pipeline x threads} matrix from a spec file
//   serve   persistent coloring service over a Unix-domain socket
//
// The spec grammar (graph/palette flag strings), the coloring-file format,
// the pipeline registry and dispatch, and the exception -> error-class
// mapping live in src/cli/ — shared verbatim with the serving layer, which
// is what makes `detcol color --server=SOCK` responses byte-identical to
// one-shot runs.
//
// Typical session:
//   detcol color --n=1000 --p=0.02 --out=run.colors
//   detcol verify --coloring=run.colors
//
// Served session (amortizes graph + palette setup across requests):
//   detcol serve --listen=/tmp/detcol.sock &
//   detcol color --n=1000 --p=0.02 --server=/tmp/detcol.sock --out=run.colors
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/pipeline.hpp"
#include "cli/spec.hpp"
#include "core/stats_export.hpp"
#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/formats.hpp"
#include "graph/io.hpp"
#include "hashing/simd_kernels.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

#include <thread>

namespace detcol {
namespace {

using namespace ::detcol::cli;  // spec grammar + pipeline dispatch

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;

const char kUsage[] = R"(detcol — deterministic (Δ+1)/(deg+1)-list coloring driver

Usage: detcol <command> [--flags]

Commands:
  gen     Generate a graph, write "n m" + edge-per-line to --out (default stdout).
  color   Color a graph and write a self-describing coloring file to --out.
  verify  Check a coloring file; rebuilds graph/palettes from its header.
  stats   Run ColorReduce and emit the full stats JSON to --out.
  convert Read a graph in any supported format, write it as --to to --out.
  suite   Run a {graph x pipeline x threads} matrix from --spec, emit JSON.
  serve   Long-running coloring service on --listen=SOCKET (see below).
  help    Show this message.

Graph source (gen, color, stats, convert):
  --input=FILE       Read a graph file. The format is sniffed (edge list,
                     DIMACS "p edge", METIS adjacency, or the .dcg binary
                     CSR container — see docs/FORMATS.md).
  --gen=KIND         Generator when no --input: gnp (default), gnm, regular,
                     powerlaw, grid, ring, complete, bipartite, geometric,
                     planted, tree; or a scalable out-of-core family — ba
                     (preferential attachment, --d arcs/node), rgg (random
                     geometric, --radius), sgnm (~--m uniform edges), sgnp
                     (per-row G(n,p)). Scalable families stream to a .dcg
                     and are colored through the mmap read path, so they
                     scale past RAM; `gen` with one requires --out=FILE.dcg
                     and accepts --threads (output is bit-identical for
                     every thread count and is the canonical .dcg encoding).
  --n=N              Nodes (default 1000); also --m, --d, --p (default 0.02),
                     --beta, --avgdeg, --rows, --cols, --a, --b, --radius,
                     --k as each generator requires.
  --seed=S           Generator seed (default 1); identical flags always
                     reproduce the identical graph. Also the algorithm seed
                     for --algo=trial/randreduce.
  --cache=FILE       (color, stats, suite; scalable --gen only) Generate the
                     .dcg once at FILE and map it on later runs instead of
                     regenerating (a present cache is validated at map time
                     and cross-checked against --n). Without it the instance
                     streams to an unlinked temp file. Placement only — the
                     recorded graph spec never includes --cache.
  --mmap=1           (with --input, .dcg only) Map the file instead of
                     loading it: offsets validated eagerly, adjacency blocks
                     lazily on first touch, checksum/symmetry NOT re-checked
                     (see docs/FORMATS.md). Colors graphs larger than RAM;
                     results are byte-identical to the loaded path.

Palettes (color, stats):
  --palette=KIND     delta1 (default): uniform [Δ+1].
                     lists:  (Δ+1)-lists from [0, --color-space).
                     deg1:   (deg+1)-lists from [0, --color-space).
  --color-space=C    Color universe for lists/deg1 (default 1048576).
  --palette-seed=S   List-sampling seed (default 1).

Algorithm (color):
  --algo=NAME        reduce (default): ColorReduce, Theorem 1.1.
                     lowspace: low-space MPC coloring, Theorem 1.4.
                     greedy:   centralized sequential baseline.
                     mis:      deterministic MIS-reduction baseline.
                     trial:    randomized iterated color trial baseline.
                     randreduce: ColorReduce with seed search disabled.

Execution (color with --algo=reduce/randreduce/lowspace/mis/trial, stats,
convert):
  --threads=N        Host threads (sibling color-bin recursion +
                     seed-evaluation shards; baselines shard their per-node
                     passes; convert shards the text parse). Results are
                     bit-identical for every N.
                     Default: $DETCOL_THREADS, else 1.

Field kernel (all commands):
  --simd=KIND        Vector kernel for the F_(2^61-1) field passes: auto
                     (default: the best this host supports), scalar, avx2,
                     neon. Also readable from $DETCOL_SIMD; the flag wins.
                     Naming an ISA the host or build cannot run is a usage
                     error. Every kernel is bit-identical — forcing one
                     never changes any output, only throughput. The stats
                     and suite JSON record the selection as "kernel".

Convert:
  --from=FMT         Input format override: auto (default), edges, dimacs,
                     metis, dcg. Only applies with --input.
  --to=FMT           Output format; defaults to the --out extension
                     (.edges/.txt, .col/.dimacs, .graph/.metis, .dcg).

Suite:
  --spec=FILE        Declarative scenario matrix. Directives, one per line
                     ('#' comments): "graph NAME FLAGS..." (generator or
                     --input flags, repeatable), "palette FLAGS...",
                     "pipelines NAME..." (reduce, randreduce, lowspace,
                     mis, trial, greedy), "threads N...", "kernels
                     NAME..." (field kernels to force per cell: auto,
                     scalar, avx2, neon; "auto" resolves to the host's best
                     at parse time and resolved duplicates collapse;
                     default: the --simd / $DETCOL_SIMD selection), "seed
                     S" (the trial/randreduce algorithm seed),
                     "timeout_seconds S" (per-cell wall budget;
                     expired cells report status "timeout"), "timing off"
                     (report wall_seconds as 0 for byte-identical reports),
                     "server ENDPOINT" (run every cell as a request against
                     a running `detcol serve` — the suite becomes a load
                     generator; mutually exclusive with "kernels", and the
                     cells record kernel "server").
                     Runs every {graph x pipeline x threads x kernel} cell
                     (greedy is sequential: one threads=1 cell per graph)
                     and writes one JSON report to --out. Each cell is
                     isolated: a failing or timed-out cell becomes a
                     structured "error"/"timeout" entry and the rest of
                     the matrix proceeds; an unreadable graph marks only
                     its own cells as errors. With --out=FILE the report
                     is checkpointed durably after every cell.
  --resume=REPORT    Skip every cell already recorded in REPORT (a prior,
                     possibly partial, report of the same spec), splicing
                     those entries into the new report byte-for-byte.

Serve (see docs/ARCHITECTURE.md "Serving layer", docs/FORMATS.md protocol):
  --listen=PATH      Unix-domain socket to listen on (required).
  --tcp-port=P       Also listen on 127.0.0.1:P.
  --threads=N        Shared worker pool size (default $DETCOL_THREADS or 1).
  --executors=N      Concurrent request executors (default 4).
  --queue-depth=N    Admission queue bound; beyond it requests get an
                     "overloaded" error frame (default 16).
  --cache-instances=N  Resident parsed graphs, LRU-evicted (default 8).
  --result-cache=N   Memoized responses (identical requests re-answered
                     without recomputation; sound because every pipeline is
                     deterministic). 0 disables. Default 64.
  --log=FILE         Append one JSON line per request, plus a final
                     {"event":"shutdown"} line after a graceful drain.

Server client (color, verify, stats):
  --server=ENDPOINT  Route the command through a running server instead of
                     computing locally: a socket path or "tcp:HOST:PORT".
                     --threads becomes the request's data-parallel budget;
                     outputs are byte-identical to the local run.

Fault injection (all commands):
  --failpoints=SPEC  Arm deterministic failpoints: "name@k[:action],..."
                     fires `action` (io, oom, check, timeout, kill) on the
                     k-th execution of the named site. Also readable from
                     $DETCOL_FAILPOINTS; the flag wins. See
                     docs/ARCHITECTURE.md "Failure model & fault injection".

Output (gen, color, stats):
  --out=FILE         Write to FILE instead of stdout.
  --stats=FILE       (color, reduce/randreduce/lowspace/mis) also dump run
                     JSON; every block except "timing" is bit-identical
                     across thread counts.
  --quiet            Suppress the run summary on stderr.

Verify:
  --coloring=FILE    Coloring file to check (or first positional argument).
  --graph=FILE       Override: check against this edge list instead of the
                     header's generator spec (local verify only).
  --proper-only      Skip palette-membership checking.

Exit status: 0 on success / valid coloring, 1 on failure or invalid
coloring, 2 on usage errors.
)";

/// Strictly validated --threads/DETCOL_THREADS resolved into the exec
/// layer's pool + context pair (exec/exec.hpp owns the lifetime rule).
ExecHolder make_exec(const ArgParser& args) {
  return make_exec_holder(resolve_threads(args));
}

/// Apply a global setting from --`flag` (wins) or the `env` variable
/// through `apply` — the --failpoints and --simd selections. A value
/// `apply` rejects is a bad invocation (exit 2), never a silent no-op or
/// fallback.
void init_global(const ArgParser& args, const std::string& flag,
                 const char* env,
                 bool (*apply)(const std::string&, std::string*)) {
  std::string spec;
  std::string src = "flag --" + flag;
  if (args.has(flag)) {
    spec = get_value_flag(args, flag, "");
  } else if (const char* value = std::getenv(env)) {
    src = env;
    spec = value;
  } else {
    return;
  }
  std::string error;
  if (!apply(spec, &error)) usage_error(src + ": " + error);
}

// ---------------------------------------------------------------------------
// Output helpers.
// ---------------------------------------------------------------------------

/// Writes via `fn` to --out if set, else to stdout. File targets go through
/// the atomic temp+fsync+rename writer, so an interrupted or failed run
/// never leaves a torn output file behind.
template <typename Fn>
void with_output(const ArgParser& args, Fn&& fn) {
  const std::string out = get_value_flag(args, "out", "-");
  if (out == "-" || out.empty()) {
    fn(std::cout);
    std::cout.flush();
    DC_CHECK(std::cout.good(), "write to stdout failed");
  } else {
    DC_FAILPOINT("out.write");
    atomic_write_stream(out, fn);
  }
}

// ---------------------------------------------------------------------------
// Server-client routing: re-render the command line's graph/palette flags
// as the raw spec strings the request carries. The server canonicalizes
// them through the same cli::build_graph/build_palettes this process would
// run locally.
// ---------------------------------------------------------------------------

std::string client_graph_spec(const ArgParser& args) {
  if (args.has("input")) {
    // Absolutize: the server may run in a different working directory.
    return "--input=" +
           std::filesystem::absolute(get_value_flag(args, "input", ""))
               .string();
  }
  std::string out;
  for (const char* flag : kGraphFlags) {
    if (std::string(flag) == "input" || !args.has(flag)) continue;
    if (!out.empty()) out += ' ';
    out += "--" + std::string(flag) + "=" + get_value_flag(args, flag, "");
  }
  return out;  // empty = the server-side defaults (gnp, n=1000)
}

std::string client_palette_spec(const ArgParser& args) {
  std::string out;
  for (const char* flag : kPaletteFlags) {
    if (!args.has(flag)) continue;
    if (!out.empty()) out += ' ';
    out += "--" + std::string(flag) + "=" + get_value_flag(args, flag, "");
  }
  return out;
}

/// One request/response exchange with a running `detcol serve`. `raw` keeps
/// the payload bytes, so sub-documents (stats, mpc) re-emit byte-identically
/// through `bytes`; an ok reply always has a "result" object.
struct ServerReply {
  std::string raw;
  JsonValue doc;
  bool ok = false;

  ServerReply(const std::string& endpoint, const serve::Request& req)
      : doc(serve::ServeClient(endpoint).roundtrip(req, &raw)) {
    const JsonValue* v = doc.find("ok");
    ok = v != nullptr && v->kind == JsonValue::Kind::kBool && v->bool_value;
    DC_CHECK(!ok || result() != nullptr, "server response has no \"result\"");
  }

  const JsonValue* result() const { return doc.find("result"); }
  std::string bytes(const JsonValue& v) const {
    return raw.substr(v.raw_begin, v.raw_end - v.raw_begin);
  }
  /// An error reply's "error_class" or "message", or `fallback` if absent.
  std::string text(std::string_view key, const char* fallback) const {
    const JsonValue* v = doc.find(key);
    return v != nullptr ? v->string_value : fallback;
  }
  /// `detcol <cmd>`'s report of an error reply: the server's diagnostic on
  /// stderr, exit 2 for class "usage" and 1 for every other class.
  int report(const char* cmd) const {
    const std::string cls = text("error_class", "unknown");
    std::fprintf(stderr, "detcol %s: server error (%s): %s\n", cmd,
                 cls.c_str(), text("message", "no message").c_str());
    return cls == "usage" ? kExitUsage : kExitFailure;
  }
};

int run_color_via_server(const ArgParser& args, const std::string& algo) {
  const bool quiet = get_bool_strict(args, "quiet");
  serve::Request req;
  req.op = "color";
  req.graph_spec = client_graph_spec(args);
  req.palette_spec = client_palette_spec(args);
  req.algo = algo;
  req.seed = get_uint_strict(args, "seed", 1);
  req.threads = resolve_threads(args);
  req.want_stats = args.has("stats");
  const ServerReply reply(get_value_flag(args, "server", ""), req);
  if (!reply.ok) return reply.report("color");
  const JsonValue* result = reply.result();
  const JsonValue* file = result->find("coloring_file");
  DC_CHECK(file != nullptr, "server response has no \"coloring_file\"");
  with_output(args, [&](std::ostream& os) { os << file->string_value; });
  const std::string stats_path = get_value_flag(args, "stats", "");
  if (!stats_path.empty()) {
    const JsonValue* stats = reply.doc.find("stats");
    DC_CHECK(stats != nullptr, "server returned no stats document");
    write_json_file(stats_path, reply.bytes(*stats));
    if (!quiet) {
      std::fprintf(stderr, "wrote stats JSON to %s\n", stats_path.c_str());
    }
  }
  if (!quiet) {
    const JsonValue* graph = result->find("graph");
    const JsonValue* colors = result->find("colors_used");
    const JsonValue* rounds = result->find("rounds");
    std::fprintf(
        stderr,
        "colored %s with algo=%s via server: %llu colors used, %llu model "
        "rounds; verified OK\n",
        graph != nullptr ? graph->string_value.c_str() : "?",
        req.algo.c_str(),
        static_cast<unsigned long long>(
            colors != nullptr ? colors->number : 0),
        static_cast<unsigned long long>(
            rounds != nullptr ? rounds->number : 0));
  }
  return kExitOk;
}

int run_verify_via_server(const ArgParser& args, const std::string& path) {
  if (args.has("graph")) {
    usage_error("--graph does not apply with --server (the graph file lives "
                "on the client)");
  }
  serve::Request req;
  req.op = "verify";
  req.coloring_text = slurp_file(path);
  req.proper_only = get_bool_strict(args, "proper-only");
  const ServerReply reply(get_value_flag(args, "server", ""), req);
  if (!reply.ok) {
    // Any failed verification attempt — corrupt file, unknown spec — is a
    // data problem: exit 1, like the local path.
    std::fprintf(stderr, "INVALID: %s\n",
                 reply.text("message", "server error").c_str());
    return kExitFailure;
  }
  const JsonValue* result = reply.result();
  const JsonValue* valid = result->find("valid");
  DC_CHECK(valid != nullptr, "server response has no \"valid\"");
  if (!valid->bool_value) {
    const JsonValue* issue = result->find("issue");
    std::fprintf(stderr, "INVALID: %s\n",
                 issue != nullptr ? issue->string_value.c_str() : "");
    return kExitFailure;
  }
  const JsonValue* proper = result->find("proper_only");
  const JsonValue* n = result->find("n");
  const JsonValue* m = result->find("m");
  const JsonValue* colors = result->find("colors_used");
  std::fprintf(stderr, "OK: proper%s coloring of n=%llu, m=%llu with %llu "
               "colors\n",
               proper != nullptr && proper->bool_value
                   ? ""
                   : ", palette-respecting",
               static_cast<unsigned long long>(n != nullptr ? n->number : 0),
               static_cast<unsigned long long>(m != nullptr ? m->number : 0),
               static_cast<unsigned long long>(
                   colors != nullptr ? colors->number : 0));
  return kExitOk;
}

int run_stats_via_server(const ArgParser& args) {
  serve::Request req;
  req.op = "stats";
  req.graph_spec = client_graph_spec(args);
  req.palette_spec = client_palette_spec(args);
  req.threads = resolve_threads(args);
  const ServerReply reply(get_value_flag(args, "server", ""), req);
  if (!reply.ok) return reply.report("stats");
  const JsonValue* stats = reply.doc.find("stats");
  DC_CHECK(stats != nullptr, "server returned no stats document");
  const std::string doc = reply.bytes(*stats);
  with_output(args, [&](std::ostream& os) { os << doc << '\n'; });
  return kExitOk;
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

/// The scalable families stream straight into a .dcg container — the graph
/// never exists as a heap CSR, so the classic "build then write_edge_list"
/// shape below does not apply. They are the only `gen` path that accepts
/// --threads (sharded producers; output bit-identical for every count).
int cmd_gen_scalable(const ArgParser& args, ScalableFamily family) {
  const ScalableSource src =
      parse_scalable_spec(args, family, /*allow_algo_seed=*/false,
                          /*allow_cache=*/false);
  const std::string out = get_value_flag(args, "out", "");
  if (out.empty()) {
    usage_error(std::string("--gen=") + scalable_family_name(family) +
                " streams a .dcg container; --out=FILE.dcg is required");
  }
  if (format_from_extension(out) != GraphFormat::kDcg) {
    usage_error("--gen=" + std::string(scalable_family_name(family)) +
                " writes the .dcg container; --out must end in .dcg (use "
                "`detcol convert` for other formats)");
  }
  const ExecHolder ex = make_exec(args);
  const ScalableGenResult res = generate_scalable_dcg(src.gen, out, ex.exec);
  if (!get_bool_strict(args, "quiet")) {
    std::fprintf(stderr, "generated %s: n=%u, m=%llu, Delta=%u -> %s\n",
                 src.spec.c_str(), res.n,
                 static_cast<unsigned long long>(res.num_edges),
                 res.max_degree, out.c_str());
  }
  return kExitOk;
}

int cmd_gen(const ArgParser& args) {
  reject_unknown_flags(args, combine(kGraphFlags, {"out", "quiet", "threads"}));
  reject_positionals(args);
  if (ScalableFamily family;
      !args.has("input") &&
      parse_scalable_family(get_value_flag(args, "gen", "gnp"), &family)) {
    return cmd_gen_scalable(args, family);
  }
  if (args.has("threads")) {
    usage_error("--threads only applies to the scalable generators "
                "(--gen=ba, rgg, sgnm, sgnp)");
  }
  const GraphSource src = build_graph(args, /*allow_algo_seed=*/false);
  with_output(args, [&](std::ostream& os) { write_edge_list(os, src.graph); });
  if (!get_bool_strict(args, "quiet")) {
    std::fprintf(stderr, "generated %s: n=%u, m=%zu, Delta=%u\n",
                 src.spec.c_str(), src.graph.num_nodes(),
                 src.graph.num_edges(), src.graph.max_degree());
  }
  return kExitOk;
}

int cmd_color(const ArgParser& args) {
  reject_unknown_flags(args, combine(kGraphFlags, kPaletteFlags,
                                     {"algo", "stats", "out", "quiet",
                                      "threads", "server"}));
  reject_positionals(args);
  // One registry check for the local and the --server path, so a bad
  // invocation fails identically either way.
  const std::string algo = get_value_flag(args, "algo", "reduce");
  const PipelineInfo* pipeline = find_pipeline(algo);
  if (pipeline == nullptr) usage_error("unknown --algo '" + algo + "'");
  if (args.has("stats") && !pipeline->has_stats) {
    usage_error("--stats is only supported with --algo=" +
                pipeline_names(&PipelineInfo::has_stats));
  }
  if (args.has("threads") && !pipeline->threaded) {
    usage_error("--threads only applies to --algo=" +
                pipeline_names(&PipelineInfo::threaded));
  }
  if (args.has("server")) return run_color_via_server(args, algo);
  // --seed doubles as the algorithm seed only for the randomized pipelines;
  // anywhere else it must be consumed by the generator or rejected.
  const GraphSource src = build_graph(args, pipeline->uses_seed);
  const Graph& g = src.graph;
  const PaletteSource pal = build_palettes(args, g);
  const bool quiet = get_bool_strict(args, "quiet");

  const ExecHolder ex = make_exec(args);
  const std::string stats_path = get_value_flag(args, "stats", "");
  PipelineRun run =
      run_pipeline(algo, g, pal.palettes, ex.exec,
                   get_uint_strict(args, "seed", 1), !stats_path.empty());
  if (!stats_path.empty()) {
    write_json_file(stats_path, run.stats_json);
    if (!quiet) {
      std::fprintf(stderr, "wrote stats JSON to %s\n", stats_path.c_str());
    }
  }

  const VerifyResult v = verify_coloring(g, pal.palettes, run.coloring);
  if (!v.ok) {
    std::fprintf(stderr, "detcol color: algorithm '%s' produced an INVALID "
                 "coloring: %s\n", algo.c_str(), v.issue.c_str());
    return kExitFailure;
  }
  with_output(args, [&](std::ostream& os) {
    write_coloring(os, run.coloring, src.spec, pal.spec);
  });
  if (!quiet) {
    std::string round_note;
    if (run.rounds > 0) {
      round_note = ", " + std::to_string(run.rounds) + " model rounds";
    }
    std::fprintf(stderr,
                 "colored %s (n=%u, m=%zu, Delta=%u) with algo=%s: "
                 "%zu colors used%s; verified OK\n",
                 src.spec.c_str(), g.num_nodes(), g.num_edges(),
                 g.max_degree(), algo.c_str(),
                 count_distinct_colors(run.coloring), round_note.c_str());
  }
  return kExitOk;
}

int cmd_verify(const ArgParser& args) {
  reject_unknown_flags(args,
                       combine({"coloring", "graph", "proper-only", "server"}));
  std::string path = get_value_flag(args, "coloring", "");
  if (!args.positional().empty()) {
    // A positional is only the coloring file when --coloring wasn't given;
    // anything beyond that would be silently ignored, so reject it.
    if (!path.empty() || args.positional().size() > 1) {
      usage_error("verify takes exactly one coloring file");
    }
    path = args.positional().front();
  }
  if (path.empty()) usage_error("verify needs --coloring=FILE");
  if (args.has("server")) return run_verify_via_server(args, path);
  const ColoringFile file = read_coloring_file(path);

  Graph g;
  if (args.has("graph")) {
    g = read_edge_list_file(get_value_flag(args, "graph", ""));
  } else if (!file.graph_spec.empty()) {
    try {
      g = build_graph(parse_spec(file.graph_spec),
                      /*allow_algo_seed=*/false).graph;
    } catch (const UsageError& e) {
      std::fprintf(stderr, "INVALID: corrupt '# graph:' header in %s: %s\n",
                   path.c_str(), e.what());
      return kExitFailure;
    }
  } else {
    usage_error("coloring file has no '# graph:' header; pass --graph=FILE");
  }
  DC_CHECK(g.num_nodes() == file.coloring.color.size(),
           "graph has ", g.num_nodes(), " nodes but coloring file has ",
           file.coloring.color.size(), " entries");

  const bool proper_only =
      get_bool_strict(args, "proper-only") || file.palette_spec.empty();
  PaletteSet palettes;
  if (!proper_only) {
    try {
      palettes = build_palettes(parse_spec(file.palette_spec), g).palettes;
    } catch (const UsageError& e) {
      std::fprintf(stderr, "INVALID: corrupt '# palette:' header in %s: %s\n",
                   path.c_str(), e.what());
      return kExitFailure;
    }
  }
  const VerifyResult v =
      verify_coloring_file(g, file, proper_only ? nullptr : &palettes);
  if (!v.ok) {
    std::fprintf(stderr, "INVALID: %s\n", v.issue.c_str());
    return kExitFailure;
  }
  std::fprintf(stderr,
               "OK: proper%s coloring of n=%u, m=%zu with %zu colors\n",
               proper_only ? "" : ", palette-respecting", g.num_nodes(),
               g.num_edges(), count_distinct_colors(file.coloring));
  return kExitOk;
}

int cmd_stats(const ArgParser& args) {
  reject_unknown_flags(args, combine(kGraphFlags, kPaletteFlags,
                                     {"out", "quiet", "threads", "server"}));
  reject_positionals(args);
  get_bool_strict(args, "quiet");  // accepted as a no-op, but validated
  if (args.has("server")) return run_stats_via_server(args);
  const GraphSource src = build_graph(args, /*allow_algo_seed=*/false);
  const PaletteSource pal = build_palettes(args, src.graph);
  const ExecHolder ex = make_exec(args);
  PipelineRun run = run_pipeline("reduce", src.graph, pal.palettes, ex.exec,
                                 /*seed=*/1, /*want_stats=*/true);
  const VerifyResult v = verify_coloring(src.graph, pal.palettes,
                                         run.coloring);
  DC_CHECK(v.ok, "ColorReduce produced an invalid coloring: ", v.issue);
  with_output(args,
              [&](std::ostream& os) { os << run.stats_json << '\n'; });
  return kExitOk;
}

int cmd_convert(const ArgParser& args) {
  reject_unknown_flags(args, combine(kGraphFlags,
                                     {"from", "to", "out", "quiet",
                                      "threads"}));
  reject_positionals(args);
  const ExecHolder ex = make_exec(args);

  GraphFormat from = GraphFormat::kAuto;
  if (args.has("from")) {
    if (!args.has("input")) usage_error("--from only applies with --input");
    const std::string name = get_value_flag(args, "from", "auto");
    if (!parse_format_name(name, &from)) {
      usage_error("unknown --from format '" + name +
                  "' (auto, edges, dimacs, metis, dcg)");
    }
  }
  const GraphSource src =
      build_graph(args, /*allow_algo_seed=*/false, from, ex.exec);

  const std::string out = get_value_flag(args, "out", "");
  if (out.empty() || out == "-") {
    usage_error("convert needs --out=FILE (binary formats cannot go to a "
                "terminal)");
  }
  GraphFormat to = GraphFormat::kAuto;
  if (args.has("to")) {
    const std::string name = get_value_flag(args, "to", "auto");
    if (!parse_format_name(name, &to)) {
      usage_error("unknown --to format '" + name +
                  "' (edges, dimacs, metis, dcg)");
    }
  }
  if (to == GraphFormat::kAuto) to = format_from_extension(out);
  if (to == GraphFormat::kAuto) {
    usage_error("cannot infer --to from the extension of '" + out +
                "'; pass --to=edges|dimacs|metis|dcg");
  }
  write_graph_file(out, src.graph, to);
  if (!get_bool_strict(args, "quiet")) {
    std::fprintf(stderr, "converted %s (n=%u, m=%zu, Delta=%u) to %s: %s\n",
                 src.spec.c_str(), src.graph.num_nodes(),
                 src.graph.num_edges(), src.graph.max_degree(),
                 format_name(to), out.c_str());
  }
  return kExitOk;
}

int cmd_serve(const ArgParser& args) {
  reject_unknown_flags(
      args, combine({"listen", "tcp-port", "threads", "executors",
                     "queue-depth", "cache-instances", "result-cache", "log",
                     "quiet"}));
  reject_positionals(args);
  serve::ServeOptions opts;
  opts.listen_path = get_value_flag(args, "listen", "");
  if (opts.listen_path.empty()) usage_error("serve needs --listen=PATH");
  if (args.has("tcp-port")) {
    const std::uint64_t port = get_uint_strict(args, "tcp-port", 0);
    if (port == 0 || port > 65535) {
      usage_error("--tcp-port must be in [1, 65535]");
    }
    opts.tcp_port = static_cast<int>(port);
  }
  opts.threads = resolve_threads(args);
  const std::uint64_t executors = get_uint_strict(args, "executors", 4);
  if (executors < 1 || executors > 64) {
    usage_error("--executors must be in [1, 64]");
  }
  opts.executors = static_cast<unsigned>(executors);
  opts.queue_depth = get_uint_strict(args, "queue-depth", 16);
  if (opts.queue_depth < 1) usage_error("--queue-depth must be >= 1");
  opts.max_instances = get_uint_strict(args, "cache-instances", 8);
  if (opts.max_instances < 1) usage_error("--cache-instances must be >= 1");
  opts.result_cache = get_uint_strict(args, "result-cache", 64);
  opts.log_path = get_value_flag(args, "log", "");
  opts.quiet = get_bool_strict(args, "quiet");
  return serve::run_server(opts);
}

// ---------------------------------------------------------------------------
// The suite runner: a declarative {graph x pipeline x threads} matrix.
// ---------------------------------------------------------------------------

/// Parsed suite spec. Spec problems are data errors (CheckError, exit 1) —
/// the spec is an input file, not the command line.
struct SuiteSpec {
  struct GraphDecl {
    std::string name;
    std::string flags;  // "--gen=... --n=..." or "--input=path"
  };
  std::vector<GraphDecl> graphs;
  std::string palette_flags;                   // empty -> delta1
  std::vector<const PipelineInfo*> pipelines;  // registry rows
  std::vector<unsigned> threads{1};
  std::vector<std::string> kernels;  // resolved kernel names; empty -> the
                                     // process-active (--simd) selection
  std::string server;             // endpoint: run cells as served requests
  std::uint64_t algo_seed = 1;    // the randomized pipelines' seed
  double timeout_seconds = 0;     // per-cell wall budget; 0 = unlimited
  bool timing = true;             // false: report wall_seconds as 0
};

SuiteSpec parse_suite_spec(const std::string& text, const std::string& what) {
  SuiteSpec spec;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;
    std::vector<std::string> rest;
    for (std::string tok; ls >> tok;) rest.push_back(tok);
    const auto join = [](const std::vector<std::string>& tokens,
                         std::size_t from) {
      std::string out;
      for (std::size_t i = from; i < tokens.size(); ++i) {
        if (!out.empty()) out += ' ';
        out += tokens[i];
      }
      return out;
    };
    if (directive == "graph") {
      DC_CHECK(rest.size() >= 2, what, ":", line_no,
               ": 'graph' needs a name and flags (graph NAME --gen=... | "
               "--input=FILE)");
      for (const auto& g : spec.graphs) {
        DC_CHECK(g.name != rest[0], what, ":", line_no,
                 ": duplicate graph name '", rest[0], "'");
      }
      spec.graphs.push_back({rest[0], join(rest, 1)});
    } else if (directive == "palette") {
      DC_CHECK(!rest.empty(), what, ":", line_no, ": 'palette' needs flags");
      spec.palette_flags = join(rest, 0);
    } else if (directive == "pipelines") {
      DC_CHECK(!rest.empty(), what, ":", line_no,
               ": 'pipelines' needs at least one name");
      for (const std::string& name : rest) {
        const PipelineInfo* pipeline =
            find_pipeline(name == "colorreduce" ? "reduce" : name);
        DC_CHECK(pipeline != nullptr, what, ":", line_no,
                 ": unknown pipeline '", name, "' (", pipeline_names(), ")");
        spec.pipelines.push_back(pipeline);
      }
    } else if (directive == "threads") {
      DC_CHECK(!rest.empty(), what, ":", line_no,
               ": 'threads' needs at least one count");
      spec.threads.clear();
      for (const auto& tok : rest) {
        std::uint64_t t = 0;
        DC_CHECK(io_detail::parse_u64(tok, &t) && t >= 1 && t <= kMaxThreads,
                 what, ":", line_no, ": thread count must be in [1, ",
                 kMaxThreads, "], got '", tok, "'");
        spec.threads.push_back(static_cast<unsigned>(t));
      }
    } else if (directive == "kernels") {
      DC_CHECK(!rest.empty(), what, ":", line_no,
               ": 'kernels' needs at least one name");
      spec.kernels.clear();
      for (const auto& tok : rest) {
        // Resolve "auto" to the host's best kernel at parse time, so the
        // cell key is a concrete kernel name; a name this host cannot run
        // is a spec (data) error, like an out-of-range thread count.
        SimdKind kind = SimdKind::kScalar;
        std::string error;
        DC_CHECK(parse_simd_spec(tok, &kind, &error), what, ":", line_no,
                 ": ", error);
        const std::string name = simd_kind_name(kind);
        if (std::find(spec.kernels.begin(), spec.kernels.end(), name) ==
            spec.kernels.end()) {
          spec.kernels.push_back(name);
        }
      }
    } else if (directive == "server") {
      DC_CHECK(rest.size() == 1, what, ":", line_no,
               ": 'server' needs one endpoint (socket path or "
               "tcp:HOST:PORT)");
      spec.server = rest[0];
    } else if (directive == "seed") {
      DC_CHECK(rest.size() == 1 && io_detail::parse_u64(rest[0],
                                                        &spec.algo_seed),
               what, ":", line_no, ": 'seed' needs one unsigned integer");
    } else if (directive == "timeout_seconds") {
      DC_CHECK(rest.size() == 1, what, ":", line_no,
               ": 'timeout_seconds' needs one value");
      char* end = nullptr;
      spec.timeout_seconds = std::strtod(rest[0].c_str(), &end);
      DC_CHECK(!rest[0].empty() && *end == '\0' && spec.timeout_seconds > 0,
               what, ":", line_no,
               ": 'timeout_seconds' must be a positive number, got '",
               rest[0], "'");
    } else if (directive == "timing") {
      DC_CHECK(rest.size() == 1 && (rest[0] == "on" || rest[0] == "off"),
               what, ":", line_no, ": 'timing' needs 'on' or 'off'");
      spec.timing = rest[0] == "on";
    } else {
      DC_CHECK(false, what, ":", line_no, ": unknown directive '", directive,
               "' (graph, palette, pipelines, threads, kernels, server, "
               "seed, timeout_seconds, timing)");
    }
  }
  DC_CHECK(!spec.graphs.empty(), what, ": spec declares no 'graph' lines");
  DC_CHECK(!spec.pipelines.empty(), what,
           ": spec declares no 'pipelines' line");
  DC_CHECK(spec.server.empty() || spec.kernels.empty(), what,
           ": 'server' and 'kernels' are mutually exclusive (the kernel is "
           "the server's --simd selection)");
  return spec;
}

/// The numbers of a verified cell.
struct SuiteCell {
  std::uint64_t rounds = 0;
  std::size_t colors = 0;
  double wall_seconds = 0;
  std::string mpc_json;  // the pipeline's MPC cost block; empty for baselines
};

/// One graph declaration, built lazily the first time one of its cells runs.
/// A build failure (unreadable file, corrupt content, bad generator flags)
/// is captured here instead of thrown, so it marks only this graph's cells
/// as errors while the rest of the matrix proceeds.
struct GraphSlot {
  SuiteSpec::GraphDecl decl;
  bool attempted = false;
  bool failed = false;
  std::string error;
  Graph graph;
  PaletteSet palettes;
};

void ensure_graph(GraphSlot& slot, const std::string& palette_flags,
                  ExecContext exec) {
  if (slot.attempted) return;
  slot.attempted = true;
  try {
    slot.graph = build_graph(parse_spec(slot.decl.flags),
                             /*allow_algo_seed=*/false, GraphFormat::kAuto,
                             exec)
                     .graph;
    const std::string pal_flags =
        palette_flags.empty() ? "--palette=delta1" : palette_flags;
    slot.palettes = build_palettes(parse_spec(pal_flags), slot.graph).palettes;
  } catch (const std::exception& e) {  // UsageError, CheckError, ...
    slot.failed = true;
    slot.error = e.what();
  }
  if (slot.failed) {
    slot.graph = Graph();
    slot.palettes = PaletteSet();
  }
}

/// A cell's structured outcome: "ok" with the run's numbers, "timeout", or
/// "error" with a taxonomy class (load, verify, or an error_info class).
struct CellOutcome {
  std::string status;
  std::string error_class;
  std::string message;
  SuiteCell cell;
};

/// A failed cell: the "timeout" class is its own status, every other class
/// is status "error".
CellOutcome failed_cell(const std::string& error_class, std::string message) {
  CellOutcome out;
  out.status = error_class == "timeout" ? "timeout" : "error";
  if (out.status == "error") out.error_class = error_class;
  out.message = std::move(message);
  return out;
}

CellOutcome run_cell_isolated(const GraphSlot& slot,
                              const std::string& pipeline, ExecContext exec,
                              std::uint64_t seed, double timeout_seconds) {
  // The deadline lives on this frame for the whole pipeline call; the exec
  // copy handed down carries a pointer to it (exec/exec.hpp lifetime rule).
  Deadline deadline;
  if (timeout_seconds > 0) deadline = Deadline::after_seconds(timeout_seconds);
  exec.set_deadline(&deadline);
  try {
    DC_FAILPOINT("suite.cell");
    PipelineRun run = run_pipeline(pipeline, slot.graph, slot.palettes, exec,
                                   seed, /*want_stats=*/false);
    const VerifyResult v =
        verify_coloring(slot.graph, slot.palettes, run.coloring);
    if (!v.ok) return failed_cell("verify", v.issue);
    CellOutcome out;
    out.status = "ok";
    out.cell = {run.rounds, count_distinct_colors(run.coloring),
                run.wall_seconds, std::move(run.mpc_json)};
    return out;
  } catch (...) {
    const ErrorInfo e = error_info(std::current_exception());
    return failed_cell(e.error_class, e.message);
  }
}

/// The 'server' directive: the cell becomes one request against a running
/// `detcol serve` — a load-generator mode. The graph is still built locally
/// (the report header records n/m/Δ), but the pipeline runs server-side
/// under the cell's thread budget; the response's deterministic fields map
/// onto the same cell schema, and its error frame onto the same classes.
CellOutcome run_cell_via_server(const std::string& endpoint,
                                const SuiteSpec& spec, const GraphSlot& slot,
                                const std::string& pipeline,
                                unsigned threads) {
  try {
    DC_FAILPOINT("suite.cell");
    serve::Request req;
    req.op = "color";
    req.graph_spec = slot.decl.flags;
    req.palette_spec = spec.palette_flags;
    req.algo = pipeline;
    req.seed = spec.algo_seed;
    req.threads = threads;
    req.timeout_seconds = spec.timeout_seconds;
    const ServerReply reply(endpoint, req);
    if (!reply.ok) {
      return failed_cell(reply.text("error_class", "internal"),
                         reply.text("message", "server error"));
    }
    const JsonValue* result = reply.result();
    const JsonValue* rounds = result->find("rounds");
    const JsonValue* colors = result->find("colors_used");
    DC_CHECK(rounds != nullptr && colors != nullptr,
             "server response result lacks rounds/colors_used");
    CellOutcome out;
    out.status = "ok";
    out.cell.rounds = static_cast<std::uint64_t>(rounds->number);
    out.cell.colors = static_cast<std::size_t>(colors->number);
    if (const JsonValue* mpc = result->find("mpc")) {
      out.cell.mpc_json = reply.bytes(*mpc);
    }
    if (const JsonValue* transient = reply.doc.find("transient")) {
      if (const JsonValue* wall = transient->find("wall_seconds")) {
        out.cell.wall_seconds = wall->number;
      }
    }
    return out;
  } catch (const CheckError& e) {  // connect/transport failures
    return failed_cell("io", e.what());
  } catch (const std::exception& e) {
    return failed_cell("internal", e.what());
  }
}

/// Render a suite cell's JSON object. `timing` off reports wall_seconds as 0
/// so full reports are byte-identical across runs (the resume tests rely on
/// this).
std::string render_cell_json(const std::string& graph,
                             const std::string& pipeline, unsigned threads,
                             const std::string& kernel, const CellOutcome& out,
                             bool timing) {
  JsonWriter w;
  w.begin_object();
  w.key("graph").value(graph);
  w.key("pipeline").value(pipeline);
  w.key("threads").value(threads);
  w.key("kernel").value(kernel);
  w.key("status").value(out.status);
  if (out.status == "ok") {
    w.key("rounds").value(out.cell.rounds);
    w.key("colors_used").value(std::uint64_t{out.cell.colors});
    w.key("wall_seconds").value(timing ? out.cell.wall_seconds : 0.0);
    w.key("verified").value(true);
    if (!out.cell.mpc_json.empty()) w.key("mpc").raw(out.cell.mpc_json);
  } else if (out.status == "timeout") {
    w.key("message").value(out.message);
  } else {  // "error"
    w.key("error_class").value(out.error_class);
    w.key("message").value(out.message);
  }
  w.end_object();
  return w.str();
}

int cmd_suite(const ArgParser& args) {
  reject_unknown_flags(args, combine({"spec", "out", "quiet", "resume"}));
  reject_positionals(args);
  const std::string spec_path = get_value_flag(args, "spec", "");
  if (spec_path.empty()) usage_error("suite needs --spec=FILE");
  const bool quiet = get_bool_strict(args, "quiet");
  const SuiteSpec spec = parse_suite_spec(slurp_file(spec_path), spec_path);
  const std::string out_path = get_value_flag(args, "out", "-");
  const bool file_out = !(out_path.empty() || out_path == "-");
  const bool via_server = !spec.server.empty();

  // --resume=REPORT: reload a prior (possibly partial) report of the same
  // spec; every cell it records is skipped and re-emitted byte-for-byte from
  // its raw span, so a clean run and a kill + resume produce identical
  // reports (with `timing off`). Problems in the report are data errors.
  std::map<std::string, std::string> resume_cells;  // key -> raw JSON object
  std::map<std::string, bool> resume_ok;            // key -> status == "ok"
  std::map<std::string, std::string> resume_graphs;  // name -> raw header row
  const auto cell_key = [](const std::string& graph,
                           const std::string& pipeline, unsigned threads,
                           const std::string& kernel) {
    return graph + '|' + pipeline + '|' + std::to_string(threads) + '|' +
           kernel;
  };
  if (args.has("resume")) {
    const std::string rpath = get_value_flag(args, "resume", "");
    if (rpath.empty()) usage_error("--resume requires a report path");
    const std::string text = slurp_file(rpath);
    const JsonValue doc = parse_json(text, rpath);
    DC_CHECK(doc.find("detcol_suite") != nullptr, rpath,
             ": not a detcol suite report (no \"detcol_suite\" field)");
    const auto raw_of = [&](const JsonValue& v) {
      return text.substr(v.raw_begin, v.raw_end - v.raw_begin);
    };
    if (const JsonValue* rows = doc.find("graphs")) {
      for (const JsonValue& row : rows->items) {
        const JsonValue* name = row.find("name");
        // Rows checkpointed before their graph was built carry a "pending"
        // marker; the resumed run rebuilds those, so skip their stubs.
        if (name != nullptr && row.find("pending") == nullptr) {
          resume_graphs[name->string_value] = raw_of(row);
        }
      }
    }
    if (const JsonValue* rows = doc.find("cells")) {
      for (const JsonValue& row : rows->items) {
        const JsonValue* graph = row.find("graph");
        const JsonValue* pipeline = row.find("pipeline");
        const JsonValue* threads = row.find("threads");
        const JsonValue* kernel = row.find("kernel");
        const JsonValue* status = row.find("status");
        DC_CHECK(graph != nullptr && pipeline != nullptr &&
                     threads != nullptr && kernel != nullptr &&
                     status != nullptr,
                 rpath, ": malformed cell entry (needs graph, pipeline, "
                 "threads, kernel, status)");
        const auto key = cell_key(
            graph->string_value, pipeline->string_value,
            static_cast<unsigned>(threads->number), kernel->string_value);
        resume_cells[key] = raw_of(row);
        resume_ok[key] = status->string_value == "ok";
      }
    }
  }

  // One pool per distinct thread count, built up front; cells reuse them.
  // In server mode the cells run remotely, but graphs are still built
  // locally for the report header.
  std::map<unsigned, ExecHolder> holders;
  for (const unsigned t : spec.threads) {
    if (!holders.count(t)) holders.emplace(t, make_exec_holder(t));
  }
  if (!holders.count(1)) holders.emplace(1, make_exec_holder(1));
  const unsigned max_threads =
      *std::max_element(spec.threads.begin(), spec.threads.end());

  std::vector<GraphSlot> slots;
  slots.reserve(spec.graphs.size());
  for (const auto& decl : spec.graphs) {
    GraphSlot slot;
    slot.decl = decl;
    slots.push_back(std::move(slot));
  }

  std::vector<std::string> cell_json;  // rendered cells, matrix order
  bool all_ok = true;

  // Full report from the current state; called after every executed cell
  // (checkpoint) and once at the end. Graph header rows: fresh for built
  // graphs, load_error for failed ones, resumed raw for graphs whose cells
  // all came from --resume, and a "pending" stub for graphs not yet reached
  // (stubs appear only in checkpoints, never in a completed report).
  const auto render_report = [&]() {
    JsonWriter w;
    w.begin_object();
    w.key("detcol_suite").value(1);
    w.key("spec").value(spec_path);  // as passed: reports should be portable
    w.key("host_cpus")
        .value(std::uint64_t{std::thread::hardware_concurrency()});
    if (via_server) w.key("server").value(spec.server);
    if (spec.timeout_seconds > 0) {
      w.key("timeout_seconds").value(spec.timeout_seconds);
    }
    w.key("graphs").begin_array();
    for (const GraphSlot& slot : slots) {
      if (!slot.attempted) {
        const auto resumed = resume_graphs.find(slot.decl.name);
        if (resumed != resume_graphs.end()) {
          w.raw(resumed->second);
          continue;
        }
      }
      w.begin_object();
      w.key("name").value(slot.decl.name);
      w.key("spec").value(slot.decl.flags);
      if (slot.failed) {
        w.key("load_error").value(slot.error);
      } else if (slot.attempted) {
        w.key("n").value(std::uint64_t{slot.graph.num_nodes()});
        w.key("m").value(std::uint64_t{slot.graph.num_edges()});
        w.key("max_degree").value(std::uint64_t{slot.graph.max_degree()});
      } else {
        w.key("pending").value(true);
      }
      w.end_object();
    }
    w.end_array();
    w.key("cells").begin_array();
    for (const std::string& cell : cell_json) w.raw(cell);
    w.end_array();
    w.end_object();
    return w.str();
  };

  // Kernel axis: the spec's resolved 'kernels' list, or the process-active
  // selection (--simd / $DETCOL_SIMD) when the spec is silent. Every engine
  // captures the kernel at construction, so selecting per cell is exact. In
  // server mode the kernel is whatever the server runs; cells record the
  // pseudo-kernel "server".
  const std::vector<std::string> suite_kernels =
      via_server ? std::vector<std::string>{"server"}
      : spec.kernels.empty()
          ? std::vector<std::string>{active_simd_name()}
          : spec.kernels;

  for (GraphSlot& slot : slots) {
    for (const PipelineInfo* info : spec.pipelines) {
      const std::string pipeline = info->name;
      // An unthreaded row (greedy, the sequential centralized baseline)
      // collapses its thread axis to one cell instead of re-running
      // identical work — and its kernel axis too (it does no field
      // arithmetic at all).
      const std::vector<unsigned> cell_threads =
          info->threaded ? spec.threads : std::vector<unsigned>{1};
      const std::vector<std::string> cell_kernels =
          info->threaded ? suite_kernels
                         : std::vector<std::string>{suite_kernels.front()};
      for (const unsigned t : cell_threads) {
        for (const std::string& kernel : cell_kernels) {
          const std::string key = cell_key(slot.decl.name, pipeline, t,
                                           kernel);
          const auto resumed = resume_cells.find(key);
          if (resumed != resume_cells.end()) {
            cell_json.push_back(resumed->second);
            all_ok = all_ok && resume_ok.at(key);
            continue;
          }
          ensure_graph(slot, spec.palette_flags, holders.at(max_threads).exec);
          if (!via_server) {
            std::string error;
            DC_CHECK(select_simd(kernel, &error), error);  // validated above
          }
          const CellOutcome out =
              slot.failed ? failed_cell("load", slot.error)
              : via_server
                  ? run_cell_via_server(spec.server, spec, slot, pipeline, t)
                  : run_cell_isolated(slot, pipeline, holders.at(t).exec,
                                      spec.algo_seed, spec.timeout_seconds);
          all_ok = all_ok && out.status == "ok";
          cell_json.push_back(render_cell_json(slot.decl.name, pipeline, t,
                                               kernel, out, spec.timing));
          if (!quiet) {
            if (out.status == "ok") {
              std::fprintf(stderr,
                           "suite: graph=%s pipeline=%s threads=%u kernel=%s "
                           "-> %zu colors, %llu rounds, %.3fs\n",
                           slot.decl.name.c_str(), pipeline.c_str(), t,
                           kernel.c_str(), out.cell.colors,
                           static_cast<unsigned long long>(out.cell.rounds),
                           out.cell.wall_seconds);
            } else {
              std::fprintf(stderr,
                           "suite: graph=%s pipeline=%s threads=%u kernel=%s "
                           "-> %s%s%s (%s)\n",
                           slot.decl.name.c_str(), pipeline.c_str(), t,
                           kernel.c_str(), out.status.c_str(),
                           out.error_class.empty() ? "" : "/",
                           out.error_class.c_str(), out.message.c_str());
            }
          }
          // Durable checkpoint after every executed cell: a killed run loses
          // at most the cell in flight, and --resume picks up from here.
          if (file_out) {
            atomic_write_file(out_path, render_report() + "\n");
            DC_FAILPOINT("suite.checkpoint");
          }
        }
      }
    }
  }

  with_output(args, [&](std::ostream& os) { os << render_report() << '\n'; });
  if (!all_ok) {
    std::fprintf(stderr,
                 "suite: at least one cell failed, timed out, or did not "
                 "verify\n");
    return kExitFailure;
  }
  return kExitOk;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return kExitUsage;
  }
  const std::string command = argv[1];
  // ArgParser skips its argv[0]; handing it argv + 1 makes the subcommand
  // name the skipped slot and parses everything after it.
  const ArgParser args(argc - 1, argv + 1);
  init_global(args, "failpoints", "DETCOL_FAILPOINTS", arm_failpoints);
  init_global(args, "simd", "DETCOL_SIMD", select_simd);
  if (command == "gen") return cmd_gen(args);
  if (command == "color") return cmd_color(args);
  if (command == "verify") return cmd_verify(args);
  if (command == "stats") return cmd_stats(args);
  if (command == "convert") return cmd_convert(args);
  if (command == "suite") return cmd_suite(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(kUsage, stdout);
    return kExitOk;
  }
  usage_error("unknown command '" + command + "'");
}

/// Every failure that reaches main(): a usage error exits 2 with the help
/// hint, every other class exits 1 with a one-line diagnostic.
int report_failure(std::exception_ptr error) {
  const ErrorInfo e = error_info(error);
  if (e.error_class == "usage") {
    std::fprintf(stderr, "detcol: %s\nRun `detcol help` for usage.\n",
                 e.message.c_str());
    return kExitUsage;
  }
  const char* prefix = e.error_class == "io"         ? "I/O error: "
                       : e.error_class == "internal" ? "unexpected error: "
                                                     : "";
  std::fprintf(stderr, "detcol: %s%s\n", prefix,
               e.error_class == "oom" ? "out of memory" : e.message.c_str());
  return kExitFailure;
}

}  // namespace
}  // namespace detcol

int main(int argc, char** argv) {
  try {
    return detcol::run(argc, argv);
  } catch (...) {
    return detcol::report_failure(std::current_exception());
  }
}
