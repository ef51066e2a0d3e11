#include "cli/spec.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <string_view>
#include <system_error>

#include "graph/generators.hpp"
#include "graph/scalable_gen.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace detcol::cli {

namespace {

/// Realize a scalable-generator spec as a mapped Graph. With --cache=PATH
/// the .dcg is generated once and reused on later runs (a present cache is
/// trusted after map-time validation plus an n cross-check against the
/// spec); without it the graph streams to a temp file that is unlinked as
/// soon as the mapping is live — the mapping keeps the pages reachable, so
/// the instance never occupies a heap-resident CSR either way.
Graph realize_scalable(const ScalableGenSpec& gen_spec, const ArgParser& args,
                       ExecContext exec) {
  const std::string cache = get_value_flag(args, "cache", "");
  if (!cache.empty()) {
    if (std::filesystem::exists(cache)) {
      Graph g = map_dcg_file(cache, exec);
      DC_CHECK(g.num_nodes() == gen_spec.n, cache, ": cached graph has n=",
               g.num_nodes(), " but the generator spec says n=", gen_spec.n,
               " — stale cache? delete it to regenerate");
      return g;
    }
    generate_scalable_dcg(gen_spec, cache, exec);
    return map_dcg_file(cache, exec);
  }
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp =
      (std::filesystem::temp_directory_path() /
       ("detcol-scalable-" + std::to_string(::getpid()) + "-" +
        std::to_string(counter.fetch_add(1)) + ".dcg"))
          .string();
  generate_scalable_dcg(gen_spec, tmp, exec);
  Graph g = map_dcg_file(tmp, exec);
  std::error_code ec;
  std::filesystem::remove(tmp, ec);  // the live mapping outlives the name
  return g;
}

}  // namespace

void usage_error(const std::string& msg) { throw UsageError(msg); }

ErrorInfo error_info(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const UsageError& e) {
    return {"usage", e.what()};
  } catch (const DeadlineExceeded& e) {
    return {"timeout", e.what()};
  } catch (const CheckError& e) {
    return {"check", e.what()};
  } catch (const std::bad_alloc&) {
    return {"oom", "allocation failure"};
  } catch (const std::system_error& e) {
    return {"io", e.what()};
  } catch (const std::exception& e) {
    return {"internal", e.what()};
  } catch (...) {
    return {"internal", "unknown exception"};
  }
}

std::uint64_t parse_uint_strict(const std::string& s, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  // strtoull silently wraps a leading '-', so require a digit up front.
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])) ||
      *end != '\0' || errno == ERANGE) {
    usage_error(what + " expects an unsigned integer, got '" + s + "'");
  }
  return v;
}

std::uint64_t get_uint_strict(const ArgParser& args, const std::string& name,
                              std::uint64_t fallback) {
  if (!args.has(name)) return fallback;
  return parse_uint_strict(args.get_string(name, ""), "flag --" + name);
}

NodeId get_nodeid_strict(const ArgParser& args, const std::string& name,
                         NodeId fallback) {
  const std::uint64_t v = get_uint_strict(args, name, fallback);
  if (v > std::numeric_limits<NodeId>::max()) {
    usage_error("flag --" + name + " exceeds the node-id limit (2^32-1), got " +
                std::to_string(v));
  }
  return static_cast<NodeId>(v);
}

std::string get_value_flag(const ArgParser& args, const std::string& name,
                           const std::string& fallback) {
  if (args.was_bare(name)) {
    usage_error("flag --" + name + " requires a value (--" + name + "=...)");
  }
  return args.get_string(name, fallback);
}

double get_double_strict(const ArgParser& args, const std::string& name,
                         double fallback) {
  if (!args.has(name)) return fallback;
  const std::string s = args.get_string(name, "");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || errno == ERANGE) {
    usage_error("flag --" + name + " expects a number, got '" + s + "'");
  }
  return v;
}

bool get_bool_strict(const ArgParser& args, const std::string& name) {
  if (!args.has(name)) return false;
  const std::string s = args.get_string(name, "");
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  usage_error("flag --" + name + " is boolean, got '" + s + "'");
}

unsigned resolve_threads(const ArgParser& args) {
  std::string src = "flag --threads";
  std::string s;
  if (args.has("threads")) {
    s = args.get_string("threads", "");
  } else if (const char* env = std::getenv("DETCOL_THREADS")) {
    src = "DETCOL_THREADS";
    s = env;
  } else {
    return 1;
  }
  const std::uint64_t v = parse_uint_strict(s, src);
  if (v < 1 || v > kMaxThreads) {
    usage_error(src + " must be in [1, " + std::to_string(kMaxThreads) +
                "], got " + s);
  }
  return static_cast<unsigned>(v);
}

void check_graph_flag_applicability(const ArgParser& args,
                                    const std::string& kind,
                                    std::initializer_list<const char*> used,
                                    bool allow_algo_seed) {
  for (const char* flag : kGraphFlags) {
    if (std::string(flag) == "input" || std::string(flag) == "gen") continue;
    // --seed is dual-role: for `color` it is also the trial/randreduce
    // algorithm seed, so it is accepted there even when the generator is
    // deterministic; for `gen`/`stats` a seed on ring/grid/complete is a
    // misdirected flag like any other.
    if (allow_algo_seed && std::string(flag) == "seed") continue;
    if (!args.has(flag)) continue;
    const bool applies = std::any_of(
        used.begin(), used.end(),
        [&](const char* u) { return std::string(u) == flag; });
    if (!applies) {
      usage_error("flag --" + std::string(flag) + " does not apply to " +
                  kind);
    }
  }
}

std::vector<const char*> combine(std::initializer_list<const char*> a,
                                 std::initializer_list<const char*> b,
                                 std::initializer_list<const char*> c) {
  std::vector<const char*> out(a);
  out.insert(out.end(), b.begin(), b.end());
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

void reject_unknown_flags(const ArgParser& args,
                          const std::vector<const char*>& allowed) {
  for (const std::string& name : args.flag_names()) {
    if (name == "failpoints") continue;  // global flag, consumed in run()
    if (name == "simd") continue;        // global flag, consumed in run()
    const bool known = std::any_of(allowed.begin(), allowed.end(),
                                   [&](const char* a) { return name == a; });
    if (!known) usage_error("unknown flag --" + name);
  }
}

void reject_positionals(const ArgParser& args) {
  if (!args.positional().empty()) {
    usage_error("unexpected argument '" + args.positional().front() + "'");
  }
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

GraphSource build_graph(const ArgParser& args, bool allow_algo_seed,
                        GraphFormat input_format, ExecContext exec) {
  GraphSource out;
  const auto check_flags = [&](const std::string& kind,
                               std::initializer_list<const char*> used) {
    check_graph_flag_applicability(args, kind, used, allow_algo_seed);
  };
  if (args.has("input")) {
    if (args.has("gen")) {
      usage_error("--gen does not apply with --input");
    }
    check_flags("--input", {"mmap"});
    const std::string path = get_value_flag(args, "input", "");
    // Record an absolute path: the coloring file may be verified (or the
    // served request re-built) from a different working directory.
    out.spec = "--input=" + std::filesystem::absolute(path).string();
    if (get_bool_strict(args, "mmap")) {
      // Out-of-core read path (graphs larger than RAM): only the .dcg
      // container supports it. A wrong file is a data error (exit 1) from
      // map_dcg_file's magic check; a wrong *flag combination* is exit 2.
      if (input_format != GraphFormat::kAuto &&
          input_format != GraphFormat::kDcg) {
        usage_error("--mmap=1 requires the .dcg format, not --format=" +
                    std::string(format_name(input_format)));
      }
      out.graph = map_dcg_file(path, exec);
      out.spec += " --mmap=1";
    } else {
      out.graph = read_graph_file(path, input_format, exec);
    }
    return out;
  }
  const std::string kind = get_value_flag(args, "gen", "gnp");
  const auto n = get_nodeid_strict(args, "n", 1000);
  const std::uint64_t seed = get_uint_strict(args, "seed", 1);
  std::ostringstream spec;
  spec << "--gen=" << kind;
  // Scalable families validate parameters inside the try below but run the
  // generator after it: a cache/temp-file I/O failure or corrupt cache is a
  // data error (exit 1, CheckError propagates), not a bad invocation.
  std::optional<ScalableGenSpec> scalable;
  try {
  if (kind == "gnp") {
    check_flags("--gen=gnp", {"n", "p", "seed"});
    const double p = get_double_strict(args, "p", 0.02);
    out.graph = gen_gnp(n, p, seed);
    spec << " --n=" << n << " --p=" << fmt_double(p) << " --seed=" << seed;
  } else if (kind == "gnm") {
    check_flags("--gen=gnm", {"n", "m", "seed"});
    // Default m = 4n, clamped to the number of possible edges so the
    // default is always feasible (gen_gnm rejects m > n(n-1)/2).
    const std::uint64_t max_m =
        n == 0 ? 0 : std::uint64_t{n} * (n - 1) / 2;
    const std::size_t m = get_uint_strict(
        args, "m", std::min(std::uint64_t{4} * n, max_m));
    out.graph = gen_gnm(n, m, seed);
    spec << " --n=" << n << " --m=" << m << " --seed=" << seed;
  } else if (kind == "regular") {
    check_flags("--gen=regular", {"n", "d", "seed"});
    const auto d = get_nodeid_strict(args, "d", 16);
    out.graph = gen_random_regular(n, d, seed);
    spec << " --n=" << n << " --d=" << d << " --seed=" << seed;
  } else if (kind == "powerlaw") {
    check_flags("--gen=powerlaw", {"n", "beta", "avgdeg", "seed"});
    const double beta = get_double_strict(args, "beta", 2.5);
    const double avgdeg = get_double_strict(args, "avgdeg", 8.0);
    out.graph = gen_power_law(n, beta, avgdeg, seed);
    spec << " --n=" << n << " --beta=" << fmt_double(beta)
         << " --avgdeg=" << fmt_double(avgdeg) << " --seed=" << seed;
  } else if (kind == "grid") {
    check_flags("--gen=grid", {"rows", "cols"});
    const auto rows = get_nodeid_strict(args, "rows", 32);
    const auto cols = get_nodeid_strict(args, "cols", 32);
    out.graph = gen_grid(rows, cols);
    spec << " --rows=" << rows << " --cols=" << cols;
  } else if (kind == "ring") {
    check_flags("--gen=ring", {"n"});
    out.graph = gen_ring(n);
    spec << " --n=" << n;
  } else if (kind == "complete") {
    check_flags("--gen=complete", {"n"});
    out.graph = gen_complete(n);
    spec << " --n=" << n;
  } else if (kind == "bipartite") {
    check_flags("--gen=bipartite", {"n", "a", "b", "p", "seed"});
    const auto a = get_nodeid_strict(args, "a", n / 2);
    const auto b = get_nodeid_strict(args, "b", n / 2);
    const double p = get_double_strict(args, "p", 0.02);
    out.graph = gen_bipartite(a, b, p, seed);
    spec << " --a=" << a << " --b=" << b << " --p=" << fmt_double(p)
         << " --seed=" << seed;
  } else if (kind == "geometric") {
    check_flags("--gen=geometric", {"n", "radius", "seed"});
    const double radius = get_double_strict(args, "radius", 0.05);
    out.graph = gen_geometric(n, radius, seed);
    spec << " --n=" << n << " --radius=" << fmt_double(radius)
         << " --seed=" << seed;
  } else if (kind == "planted") {
    check_flags("--gen=planted", {"n", "k", "p", "seed"});
    const auto k = get_nodeid_strict(args, "k", 8);
    const double p = get_double_strict(args, "p", 0.02);
    out.graph = gen_planted_kcolorable(n, k, p, seed);
    spec << " --n=" << n << " --k=" << k << " --p=" << fmt_double(p)
         << " --seed=" << seed;
  } else if (kind == "tree") {
    check_flags("--gen=tree", {"n", "seed"});
    out.graph = gen_random_tree(n, seed);
    spec << " --n=" << n << " --seed=" << seed;
  } else if (ScalableFamily family; parse_scalable_family(kind, &family)) {
    // Sharded out-of-core families (graph/scalable_gen.hpp): the instance
    // streams to a .dcg and is consumed through the mmap read path, never
    // as a heap CSR. The canonical spec deliberately omits --cache (the
    // cache is a placement detail — the same spec must name the same
    // instance on any machine, with or without a cache file).
    ScalableSource src = parse_scalable_spec(args, family, allow_algo_seed,
                                             /*allow_cache=*/true);
    scalable = src.gen;
    spec.str(src.spec);  // replaces the "--gen=KIND" prefix written above
  } else {
    usage_error("unknown --gen kind '" + kind + "'");
  }
  } catch (const CheckError& e) {
    // Out-of-domain parameters (p > 1, infeasible m, n too small) are bad
    // invocations, not data errors.
    usage_error(std::string("invalid generator parameters: ") + e.what());
  }
  if (scalable) out.graph = realize_scalable(*scalable, args, exec);
  out.spec = spec.str();
  return out;
}

ScalableSource parse_scalable_spec(const ArgParser& args,
                                   ScalableFamily family, bool allow_algo_seed,
                                   bool allow_cache) {
  ScalableSource out;
  out.gen.family = family;
  out.gen.n = get_nodeid_strict(args, "n", 1000);
  out.gen.seed = get_uint_strict(args, "seed", 1);
  const std::string kind =
      std::string("--gen=") + scalable_family_name(family);
  if (out.gen.n < 1) usage_error(kind + " needs --n >= 1");
  const auto check = [&](std::initializer_list<const char*> used,
                         std::initializer_list<const char*> used_cache) {
    check_graph_flag_applicability(args, kind,
                                   allow_cache ? used_cache : used,
                                   allow_algo_seed);
  };
  std::ostringstream spec;
  spec << kind;
  if (family == ScalableFamily::kBarabasiAlbert) {
    check({"n", "d", "seed"}, {"n", "d", "seed", "cache"});
    out.gen.d = get_nodeid_strict(args, "d", 4);
    if (out.gen.d < 1) usage_error("--gen=ba needs --d >= 1");
    spec << " --n=" << out.gen.n << " --d=" << out.gen.d
         << " --seed=" << out.gen.seed;
  } else if (family == ScalableFamily::kGeometric) {
    check({"n", "radius", "seed"}, {"n", "radius", "seed", "cache"});
    out.gen.radius = get_double_strict(args, "radius", 0.05);
    if (!(out.gen.radius > 0.0 && out.gen.radius <= 1.0)) {
      usage_error("--gen=rgg needs --radius in (0, 1]");
    }
    spec << " --n=" << out.gen.n
         << " --radius=" << fmt_double(out.gen.radius)
         << " --seed=" << out.gen.seed;
  } else if (family == ScalableFamily::kGnm) {
    check({"n", "m", "seed"}, {"n", "m", "seed", "cache"});
    out.gen.m = get_uint_strict(args, "m", std::uint64_t{4} * out.gen.n);
    spec << " --n=" << out.gen.n << " --m=" << out.gen.m
         << " --seed=" << out.gen.seed;
  } else {
    check({"n", "p", "seed"}, {"n", "p", "seed", "cache"});
    out.gen.p = get_double_strict(args, "p", 0.02);
    if (!(out.gen.p >= 0.0 && out.gen.p <= 1.0)) {
      usage_error("--gen=sgnp needs --p in [0, 1]");
    }
    spec << " --n=" << out.gen.n << " --p=" << fmt_double(out.gen.p)
         << " --seed=" << out.gen.seed;
  }
  out.spec = spec.str();
  return out;
}

PaletteSource build_palettes(const ArgParser& args, const Graph& g) {
  PaletteSource out;
  const std::string kind = get_value_flag(args, "palette", "delta1");
  const auto space =
      static_cast<Color>(get_uint_strict(args, "color-space", 1u << 20));
  const std::uint64_t pseed = get_uint_strict(args, "palette-seed", 1);
  std::ostringstream spec;
  spec << "--palette=" << kind;
  try {
  if (kind == "delta1") {
    if (args.has("color-space") || args.has("palette-seed")) {
      usage_error(
          "--color-space/--palette-seed only apply to --palette=lists or "
          "deg1");
    }
    out.palettes = PaletteSet::delta_plus_one(g);
  } else if (kind == "lists") {
    out.palettes = PaletteSet::random_lists(g, space, pseed);
    spec << " --color-space=" << space << " --palette-seed=" << pseed;
  } else if (kind == "deg1") {
    out.palettes = PaletteSet::deg_plus_one_lists(g, space, pseed);
    spec << " --color-space=" << space << " --palette-seed=" << pseed;
  } else {
    usage_error("unknown --palette kind '" + kind + "'");
  }
  } catch (const CheckError& e) {
    usage_error(std::string("invalid palette parameters: ") + e.what());
  }
  out.spec = spec.str();
  return out;
}

ArgParser parse_spec(const std::string& spec) {
  std::vector<std::string> tokens{"detcol-spec"};
  if (spec.rfind("--input=", 0) == 0) {
    // An --input spec is a single flag whose value is a file path; paths may
    // contain spaces, so never tokenize it. The one flag build_graph may
    // append after the path (" --mmap=1") is split off first.
    std::string body = spec;
    const std::string_view mm = " --mmap=1";
    if (body.size() > mm.size() &&
        std::string_view(body).substr(body.size() - mm.size()) == mm) {
      body.erase(body.size() - mm.size());
      tokens.push_back(body);
      tokens.emplace_back("--mmap=1");
    } else {
      tokens.push_back(body);
    }
  } else {
    std::istringstream is(spec);
    std::string tok;
    while (is >> tok) tokens.push_back(tok);
  }
  std::vector<const char*> argv;
  argv.reserve(tokens.size());
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

void write_coloring(std::ostream& os, const Coloring& coloring,
                    const std::string& graph_spec,
                    const std::string& palette_spec) {
  os << "# detcol coloring v1\n";
  os << "# graph: " << graph_spec << '\n';
  os << "# palette: " << palette_spec << '\n';
  os << coloring.color.size() << '\n';
  for (const Color c : coloring.color) os << c << '\n';
}

ColoringFile read_coloring(std::istream& is, const std::string& what) {
  ColoringFile out;
  std::string line;
  bool have_n = false;
  NodeId n = 0;
  NodeId next = 0;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] == '#') {
      const auto record = [&](const char* prefix, std::string* dst) {
        const std::string p(prefix);
        if (line.rfind(p, 0) == 0) *dst = line.substr(p.size());
      };
      record("# graph: ", &out.graph_spec);
      record("# palette: ", &out.palette_spec);
      continue;
    }
    // Token-based parse: istream >> uint silently wraps negative input, so
    // every non-blank line must be a single all-digit token.
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;  // whitespace-only line
    std::string rest;
    DC_CHECK(!(ls >> rest), what, ": trailing garbage on line '", line, "'");
    const bool numeric =
        std::all_of(tok.begin(), tok.end(), [](unsigned char ch) {
          return std::isdigit(ch) != 0;
        });
    DC_CHECK(numeric, what, ": malformed line '", line, "'");
    errno = 0;
    const std::uint64_t value = std::strtoull(tok.c_str(), nullptr, 10);
    DC_CHECK(errno != ERANGE, what, ": value out of range on line '", line,
             "'");
    if (!have_n) {
      DC_CHECK(value <= std::numeric_limits<NodeId>::max(), what,
               ": node count ", value, " exceeds the node-id limit");
      n = static_cast<NodeId>(value);
      have_n = true;
      out.coloring = Coloring(n);
      continue;
    }
    DC_CHECK(next < n, what, ": more than ", n, " color entries");
    out.coloring.color[next++] = value;
  }
  DC_CHECK(have_n, what, ": missing node-count header line");
  DC_CHECK(next == n, what, ": expected ", n, " color entries, found ", next);
  return out;
}

ColoringFile read_coloring_file(const std::string& path) {
  std::ifstream is(path);
  DC_CHECK(is.good(), "cannot open ", path, " for reading");
  return read_coloring(is, path);
}

VerifyResult verify_coloring_file(const Graph& g, const ColoringFile& file,
                                  const PaletteSet* palettes) {
  if (palettes != nullptr) return verify_coloring(g, *palettes, file.coloring);
  VerifyResult v = verify_proper_partial(g, file.coloring);
  if (v.ok && !file.coloring.complete()) {
    v.ok = false;
    v.issue = "coloring is incomplete (" +
              std::to_string(file.coloring.num_colored()) + " of " +
              std::to_string(file.coloring.color.size()) + " nodes colored)";
  }
  return v;
}

std::size_t count_distinct_colors(const Coloring& coloring) {
  std::vector<Color> used;
  used.reserve(coloring.color.size());
  for (const Color c : coloring.color) {
    if (c != Coloring::kUncolored) used.push_back(c);
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used.size();
}

}  // namespace detcol::cli
