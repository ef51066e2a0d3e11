// Canonical instance specs shared by the one-shot CLI and the serving layer.
//
// A detcol instance is described by two flag strings — a graph spec
// ("--gen=gnp --n=1000 ..." or "--input=path") and a palette spec
// ("--palette=delta1" ...). They are the format recorded in coloring-file
// headers, the keys of the server's instance cache, and the only way any
// entry point builds a Graph/PaletteSet — so one-shot runs, `verify`
// re-builds and served requests construct bit-identical instances from the
// same bytes. This header owns that spec grammar: strict flag parsing
// (reject typos and malformed numbers with exit 2 instead of silently
// running a different instance), the generator/palette dispatch plus the
// canonical spec string each produces, and the coloring-file format itself.
#pragma once

#include <cstdint>
#include <exception>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/formats.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/palette.hpp"
#include "graph/scalable_gen.hpp"
#include "util/cli.hpp"

namespace detcol::cli {

/// Bad invocation (exit 2) — distinct from CheckError, which is bad data /
/// failed verification (exit 1). cmd_verify converts UsageError raised while
/// re-parsing a coloring file's recorded spec into a data error (a corrupt
/// header is a file problem, not a command-line problem); the server maps it
/// to an "invalid request" error frame.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] void usage_error(const std::string& msg);

/// The one exception -> error-class mapping, shared by main()'s exit codes,
/// the suite's cell outcomes and the server's error frames.
struct ErrorInfo {
  std::string error_class;  // usage, timeout, check, oom, io or internal
  std::string message;      // what(); "allocation failure" for oom
};

ErrorInfo error_info(std::exception_ptr error);

// ---------------------------------------------------------------------------
// Strict flag handling: ArgParser is deliberately permissive for benches and
// examples, but a user-facing entry point must reject typos and malformed
// numbers rather than silently running a different instance.
// ---------------------------------------------------------------------------

/// `what` names the value's source in the error ("flag --n", "DETCOL_THREADS").
std::uint64_t parse_uint_strict(const std::string& s, const std::string& what);

std::uint64_t get_uint_strict(const ArgParser& args, const std::string& name,
                              std::uint64_t fallback);

NodeId get_nodeid_strict(const ArgParser& args, const std::string& name,
                         NodeId fallback);

/// For flags whose value is a path or name: a bare `--out` would otherwise
/// read as the string "true" and e.g. write output to a file named "true".
std::string get_value_flag(const ArgParser& args, const std::string& name,
                           const std::string& fallback);

double get_double_strict(const ArgParser& args, const std::string& name,
                         double fallback);

bool get_bool_strict(const ArgParser& args, const std::string& name);

inline constexpr unsigned kMaxThreads = 256;

/// Thread count: --threads flag first, DETCOL_THREADS env second, 1
/// otherwise. Both sources are validated strictly against [1, kMaxThreads].
unsigned resolve_threads(const ArgParser& args);

inline constexpr std::initializer_list<const char*> kGraphFlags = {
    "input", "gen",  "n", "m", "d",      "p", "beta", "avgdeg", "rows",
    "cols",  "a",    "b", "radius", "k", "seed", "cache", "mmap"};
inline constexpr std::initializer_list<const char*> kPaletteFlags = {
    "palette", "color-space", "palette-seed"};

/// Which graph flags each generator actually consumes. A flag from the graph
/// family that the chosen source ignores is a misdirected invocation (the
/// user probably meant a different --gen), not something to drop silently.
void check_graph_flag_applicability(const ArgParser& args,
                                    const std::string& kind,
                                    std::initializer_list<const char*> used,
                                    bool allow_algo_seed);

std::vector<const char*> combine(std::initializer_list<const char*> a,
                                 std::initializer_list<const char*> b = {},
                                 std::initializer_list<const char*> c = {});

void reject_unknown_flags(const ArgParser& args,
                          const std::vector<const char*>& allowed);

void reject_positionals(const ArgParser& args);

/// Shortest round-trippable decimal rendering ("%.17g").
std::string fmt_double(double v);

// ---------------------------------------------------------------------------
// Graph construction + the canonical flag spec recorded in coloring headers
// and used as the server's instance-cache key.
// ---------------------------------------------------------------------------

struct GraphSource {
  Graph graph;
  std::string spec;  // "--gen=... --n=..." or "--input=path[ --mmap=1]"
};

GraphSource build_graph(const ArgParser& args, bool allow_algo_seed,
                        GraphFormat input_format = GraphFormat::kAuto,
                        ExecContext exec = {});

struct ScalableSource {
  ScalableGenSpec gen;
  std::string spec;  // canonical "--gen=... --n=... --seed=..." string
};

/// Parse + strictly validate the flags of one scalable generator family
/// (graph/scalable_gen.hpp). Out-of-range parameters are usage errors, like
/// every in-RAM generator. `allow_cache` admits --cache in the family's
/// used-flag set (build_graph realizes specs through a cache file) or
/// rejects it (`detcol gen`, where --out is already the .dcg artifact).
ScalableSource parse_scalable_spec(const ArgParser& args,
                                   ScalableFamily family, bool allow_algo_seed,
                                   bool allow_cache);

struct PaletteSource {
  PaletteSet palettes;
  std::string spec;
};

PaletteSource build_palettes(const ArgParser& args, const Graph& g);

/// Re-parse a recorded "--key=value ..." spec line through ArgParser.
ArgParser parse_spec(const std::string& spec);

// ---------------------------------------------------------------------------
// The self-describing coloring-file format (header + one color per line).
// ---------------------------------------------------------------------------

void write_coloring(std::ostream& os, const Coloring& coloring,
                    const std::string& graph_spec,
                    const std::string& palette_spec);

struct ColoringFile {
  Coloring coloring{0};
  std::string graph_spec;    // empty when absent
  std::string palette_spec;  // empty when absent
};

ColoringFile read_coloring(std::istream& is, const std::string& what);

ColoringFile read_coloring_file(const std::string& path);

/// Check a coloring file against its graph: palette-respecting against
/// `palettes`, or — when `palettes` is null (--proper-only, or no recorded
/// palette) — proper and complete.
VerifyResult verify_coloring_file(const Graph& g, const ColoringFile& file,
                                  const PaletteSet* palettes);

std::size_t count_distinct_colors(const Coloring& coloring);

}  // namespace detcol::cli
