// End-to-end tests of the `detcol` CLI driver: shells out to the real binary
// (path injected by CMake as DETCOL_BIN) and round-trips graphs and
// colorings through files, including the self-describing-header path where
// `verify` rebuilds the instance from the coloring file alone.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/pipeline.hpp"
#include "cli/spec.hpp"
#include "graph/coloring.hpp"
#include "graph/io.hpp"
#include "graph/palette.hpp"
#include "util/json.hpp"

namespace detcol {
namespace {

namespace fs = std::filesystem;

/// Single-quotes a path for the shell (temp paths never contain quotes
/// themselves, but may contain spaces).
std::string shq(const std::string& s) { return "'" + s + "'"; }

/// Runs `detcol <args>` through the shell; returns the process exit code.
int run_detcol(const std::string& args) {
  const std::string cmd = shq(DETCOL_BIN) + " " + args;
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1) << "system() failed for: " << cmd;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

fs::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      fs::path(::testing::TempDir()) / "detcol_cli" / info->name();
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(CliDriver, GenWritesReadableEdgeList) {
  const fs::path dir = test_dir();
  const fs::path graph = dir / "g.txt";
  ASSERT_EQ(run_detcol("gen --gen=gnp --n=400 --p=0.03 --seed=7 --quiet "
                       "--out=" + shq(graph.string())),
            0);
  const Graph g = read_edge_list_file(graph.string());
  EXPECT_EQ(g.num_nodes(), 400u);
  EXPECT_GT(g.num_edges(), 0u);
}

TEST(CliDriver, ColorThenVerifyAgainstGraphFile) {
  const fs::path dir = test_dir();
  const fs::path graph = dir / "g.txt";
  const fs::path colors = dir / "c.txt";
  ASSERT_EQ(run_detcol("gen --gen=gnp --n=400 --p=0.03 --seed=7 --quiet "
                       "--out=" + shq(graph.string())),
            0);
  ASSERT_EQ(run_detcol("color --input=" + shq(graph.string()) +
                       " --quiet --out=" + shq(colors.string())),
            0);
  EXPECT_EQ(run_detcol("verify --coloring=" + shq(colors.string()) +
                       " --graph=" + shq(graph.string())),
            0);

  // Cross-check the emitted file against the library's own verifier.
  std::ifstream is(colors);
  std::string line;
  NodeId n = 0;
  std::vector<Color> parsed;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    if (n == 0) {
      ASSERT_TRUE(static_cast<bool>(ls >> n));
      continue;
    }
    Color c = 0;
    ASSERT_TRUE(static_cast<bool>(ls >> c)) << line;
    parsed.push_back(c);
  }
  ASSERT_EQ(parsed.size(), n);
  const Graph g = read_edge_list_file(graph.string());
  Coloring coloring(n);
  coloring.color = parsed;
  const auto v =
      verify_coloring(g, PaletteSet::delta_plus_one(g), coloring);
  EXPECT_TRUE(v.ok) << v.issue;
}

TEST(CliDriver, VerifyRebuildsInstanceFromHeader) {
  // The ISSUE acceptance flow: color a generated graph, then verify from the
  // coloring file alone — graph and palettes come from the recorded spec.
  const fs::path dir = test_dir();
  const fs::path colors = dir / "c.txt";
  ASSERT_EQ(run_detcol("color --n=500 --p=0.02 --quiet --out=" +
                       shq(colors.string())),
            0);
  EXPECT_EQ(run_detcol("verify --coloring=" + shq(colors.string())), 0);
}

TEST(CliDriver, VerifyRejectsMonochromaticColoring) {
  const fs::path dir = test_dir();
  const fs::path colors = dir / "bad.txt";
  std::ofstream os(colors);
  os << "# detcol coloring v1\n";
  os << "# graph: --gen=complete --n=5\n";
  os << "5\n";
  for (int i = 0; i < 5; ++i) os << "0\n";
  os.close();
  EXPECT_NE(run_detcol("verify --coloring=" + shq(colors.string())), 0);
}

TEST(CliDriver, LowSpaceAlgoWithDegPlusOneLists) {
  const fs::path dir = test_dir();
  const fs::path colors = dir / "c.txt";
  ASSERT_EQ(run_detcol("color --gen=powerlaw --n=300 --avgdeg=6 --seed=3 "
                       "--algo=lowspace --palette=deg1 --quiet --out=" +
                       shq(colors.string())),
            0);
  EXPECT_EQ(run_detcol("verify --coloring=" + shq(colors.string())), 0);
  EXPECT_NE(read_file(colors).find("--palette=deg1"), std::string::npos);
}

TEST(CliDriver, StatsEmitsJsonDocument) {
  const fs::path dir = test_dir();
  const fs::path json = dir / "stats.json";
  ASSERT_EQ(run_detcol("stats --n=300 --p=0.03 --out=" + shq(json.string())), 0);
  const std::string doc = read_file(json);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_NE(doc.find("\"ledger\""), std::string::npos) << doc.substr(0, 200);
}

TEST(CliDriver, ThreadsFlagKeepsOutputBitIdenticalAndIsRecorded) {
  const fs::path dir = test_dir();
  const fs::path seq = dir / "seq.colors";
  const fs::path par = dir / "par.colors";
  const fs::path json = dir / "stats.json";
  ASSERT_EQ(run_detcol("color --n=400 --p=0.03 --seed=7 --quiet "
                       "--out=" + shq(seq.string())),
            0);
  ASSERT_EQ(run_detcol("color --n=400 --p=0.03 --seed=7 --quiet --threads=4 "
                       "--out=" + shq(par.string())),
            0);
  EXPECT_EQ(read_file(seq), read_file(par));  // determinism contract
  ASSERT_EQ(run_detcol("stats --n=300 --p=0.03 --threads=3 --out=" +
                       shq(json.string())),
            0);
  const std::string doc = read_file(json);
  EXPECT_NE(doc.find("\"threads\":3"), std::string::npos)
      << doc.substr(0, 200);
  EXPECT_NE(doc.find("\"per_depth_seconds\""), std::string::npos);
  // Bad thread counts are usage errors, not data errors.
  EXPECT_EQ(run_detcol("color --n=50 --threads=0 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --n=50 --threads=abc 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --n=50 --algo=greedy --threads=2 2>/dev/null"),
            2);
}

TEST(CliDriver, ThreadsFlagCoversLowSpaceAndBaselines) {
  // The low-space path (and the exec-aware baselines) honor --threads with
  // bit-identical output — the same determinism contract as ColorReduce.
  const fs::path dir = test_dir();
  const fs::path seq = dir / "seq.colors";
  const fs::path par = dir / "par.colors";
  ASSERT_EQ(run_detcol("color --n=400 --p=0.03 --algo=lowspace --quiet "
                       "--out=" + shq(seq.string())),
            0);
  ASSERT_EQ(run_detcol("color --n=400 --p=0.03 --algo=lowspace --quiet "
                       "--threads=4 --out=" + shq(par.string())),
            0);
  EXPECT_EQ(read_file(seq), read_file(par));  // determinism contract
  ASSERT_EQ(run_detcol("color --n=200 --p=0.04 --algo=mis --quiet "
                       "--threads=2 --out=" + shq(par.string())),
            0);
  EXPECT_EQ(run_detcol("verify --coloring=" + shq(par.string())), 0);
  ASSERT_EQ(run_detcol("color --n=200 --p=0.04 --seed=5 --algo=trial --quiet "
                       "--threads=2 --out=" + shq(par.string())),
            0);
  EXPECT_EQ(run_detcol("verify --coloring=" + shq(par.string())), 0);
}

TEST(CliDriver, UnknownCommandAndBadFlagsFailCleanly) {
  EXPECT_EQ(run_detcol("frobnicate 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --gen=nosuch 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("verify 2>/dev/null"), 2);
  // Typo'd flag names and malformed numbers must not silently run a
  // different instance.
  EXPECT_EQ(run_detcol("color --palete=deg1 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("gen --n=1e6 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --p=abc 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("gen --n=-5 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("gen --n=4294967297 2>/dev/null"), 2);
  // Bare value-flags must not be read as the string "true" (a bare --out
  // would write the coloring to a file literally named "true").
  EXPECT_EQ(run_detcol("color --n=50 --out 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --n=50 --stats 2>/dev/null"), 2);
  // Flags of a different generator / palette kind are misdirected, not
  // ignorable; likewise malformed boolean values.
  EXPECT_EQ(run_detcol("gen --gen=gnp --n=20 --radius=0.5 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --palette=delta1 --palette-seed=9 "
                       "2>/dev/null"),
            2);
  EXPECT_EQ(run_detcol("gen --n=20 --quiet=banana 2>/dev/null"), 2);
  // Out-of-domain values and dual-role --seed on deterministic generators.
  EXPECT_EQ(run_detcol("color --n=50 --p=1.5 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --gen=ring --n=100 --algo=trial --seed=7 "
                       "--quiet --out=/dev/null 2>/dev/null"),
            0);
  EXPECT_EQ(run_detcol("stats --n=100 --quiet --out=/dev/null 2>/dev/null"),
            0);
}

TEST(CliDriver, ScalableGenEndToEndThroughMmap) {
  const fs::path dir = test_dir();
  const fs::path ba = dir / "ba.dcg";
  ASSERT_EQ(run_detcol("gen --gen=ba --n=5000 --d=3 --seed=9 --threads=4 "
                       "--quiet --out=" + shq(ba.string())), 0);
  const fs::path mm = dir / "mm.txt";
  const fs::path ram = dir / "ram.txt";
  ASSERT_EQ(run_detcol("color --input=" + shq(ba.string()) +
                       " --mmap=1 --quiet --out=" + shq(mm.string())), 0);
  ASSERT_EQ(run_detcol("color --input=" + shq(ba.string()) +
                       " --quiet --out=" + shq(ram.string())), 0);
  // The mmap read path must be invisible to results: identical color lines
  // (the headers differ by the recorded " --mmap=1" spec suffix).
  std::istringstream a(read_file(mm)), b(read_file(ram));
  std::string la, lb;
  while (std::getline(a, la) && std::getline(b, lb)) {
    if (la.rfind('#', 0) == 0 && lb.rfind('#', 0) == 0) continue;
    EXPECT_EQ(la, lb);
  }
  EXPECT_EQ(run_detcol("verify --coloring=" + shq(mm.string())), 0);
}

TEST(CliDriver, ScalableCacheGeneratesOnceAndDetectsStaleness) {
  const fs::path dir = test_dir();
  const fs::path cache = dir / "ba-cache.dcg";
  const fs::path c1 = dir / "c1.txt";
  const fs::path c2 = dir / "c2.txt";
  ASSERT_EQ(run_detcol("color --gen=ba --n=3000 --d=3 --seed=2 --cache=" +
                       shq(cache.string()) + " --quiet --out=" +
                       shq(c1.string())), 0);
  ASSERT_TRUE(fs::exists(cache));
  ASSERT_EQ(run_detcol("color --gen=ba --n=3000 --d=3 --seed=2 --cache=" +
                       shq(cache.string()) + " --quiet --out=" +
                       shq(c2.string())), 0);
  EXPECT_EQ(read_file(c1), read_file(c2));
  // A cache file that disagrees with the spec is a data error (exit 1, not
  // a usage error): the file exists and parses — its *content* is stale.
  EXPECT_EQ(run_detcol("color --gen=ba --n=4000 --d=3 --seed=2 --cache=" +
                       shq(cache.string()) +
                       " --quiet --out=/dev/null 2>/dev/null"),
            1);
}

TEST(CliDriver, ScalableAndMmapFlagsStayStrict) {
  // The scalable families stream .dcg only; other extensions and a missing
  // --out are contract violations, not silent fallbacks.
  EXPECT_EQ(run_detcol("gen --gen=ba --n=100 --d=2 --out=/tmp/x.edges "
                       "2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("gen --gen=ba --n=100 --d=2 2>/dev/null"), 2);
  // --threads applies to the scalable generators only; classic generators
  // are sequential and must say so instead of ignoring the flag.
  EXPECT_EQ(run_detcol("gen --gen=gnp --n=100 --p=0.1 --threads=2 "
                       "--out=/dev/null 2>/dev/null"), 2);
  // Misdirected family parameters keep the strict-applicability contract.
  EXPECT_EQ(run_detcol("gen --gen=ba --n=100 --p=0.5 --out=/tmp/x.dcg "
                       "2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("gen --gen=rgg --n=100 --d=4 --out=/tmp/x.dcg "
                       "2>/dev/null"), 2);
  // --cache is a placement detail of the scalable families in graph-consuming
  // commands; `gen` (which has --out) and classic generators reject it.
  EXPECT_EQ(run_detcol("gen --gen=ba --n=100 --d=2 --cache=/tmp/c.dcg "
                       "--out=/tmp/x.dcg 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --gen=gnp --n=100 --p=0.1 --cache=/tmp/c.dcg "
                       "2>/dev/null"), 2);
  // --mmap applies to --input sources with the .dcg format only.
  EXPECT_EQ(run_detcol("color --gen=gnp --n=100 --p=0.1 --mmap=1 "
                       "2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --input=/tmp/x.edges --format=edges --mmap=1 "
                       "2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("color --input=/tmp/x.dcg --mmap=banana "
                       "2>/dev/null"), 2);
  // Scalable kinds reject the dual-role --seed ambiguity like every other
  // generator when an algorithm seed is also in play.
  EXPECT_EQ(run_detcol("color --gen=ba --n=100 --d=2 --algo=trial --seed=7 "
                       "--quiet --out=/dev/null 2>/dev/null"), 0);
}

TEST(CliDriver, VerifyRejectsCorruptedColorLines) {
  const fs::path dir = test_dir();
  const fs::path colors = dir / "garbage.txt";
  std::ofstream os(colors);
  os << "# graph: --gen=ring --n=3\n";
  os << "3\n0\n1junk\n2\n";
  os.close();
  EXPECT_EQ(run_detcol("verify --coloring=" + shq(colors.string()) +
                       " 2>/dev/null"),
            1);

  // Negative entries must be corruption, not a silent unsigned wrap.
  const fs::path neg = dir / "negative.txt";
  std::ofstream os2(neg);
  os2 << "# graph: --gen=ring --n=3\n";
  os2 << "3\n0\n-2\n1\n";
  os2.close();
  EXPECT_EQ(run_detcol("verify --proper-only --coloring=" + shq(neg.string()) +
                       " 2>/dev/null"),
            1);

  // A positional alongside --coloring would be silently ignored; reject it.
  EXPECT_EQ(run_detcol("verify --coloring=" + shq(colors.string()) + " " +
                       shq(neg.string()) + " 2>/dev/null"),
            2);

  // A corrupt recorded spec is a data problem (exit 1), not a usage error.
  const fs::path corrupt = dir / "corrupt-header.txt";
  std::ofstream os3(corrupt);
  os3 << "# graph: --gen=bogus --n=3\n";
  os3 << "3\n0\n1\n2\n";
  os3.close();
  EXPECT_EQ(run_detcol("verify --coloring=" + shq(corrupt.string()) +
                       " 2>/dev/null"),
            1);
}

TEST(CliDriver, ConvertRoundTripsEveryGeneratorThroughDcg) {
  // The ISSUE acceptance flow: for every generator, gen -> edge list,
  // convert -> .dcg -> edge list, and the two text files are byte-equal.
  const fs::path dir = test_dir();
  const std::vector<std::string> gens = {
      "--gen=gnp --n=120 --p=0.05 --seed=7",
      "--gen=gnm --n=100 --m=250 --seed=3",
      "--gen=regular --n=80 --d=6 --seed=5",
      "--gen=powerlaw --n=90 --beta=2.5 --avgdeg=5 --seed=9",
      "--gen=grid --rows=7 --cols=9",
      "--gen=ring --n=31",
      "--gen=complete --n=13",
      "--gen=bipartite --a=30 --b=40 --p=0.1 --seed=11",
      "--gen=geometric --n=90 --radius=0.15 --seed=13",
      "--gen=planted --n=90 --k=4 --p=0.08 --seed=15",
      "--gen=tree --n=60 --seed=17",
  };
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const fs::path text = dir / ("g" + std::to_string(i) + ".edges");
    const fs::path dcg = dir / ("g" + std::to_string(i) + ".dcg");
    const fs::path back = dir / ("g" + std::to_string(i) + ".back.edges");
    ASSERT_EQ(run_detcol("gen " + gens[i] + " --quiet --out=" +
                         shq(text.string())),
              0)
        << gens[i];
    ASSERT_EQ(run_detcol("convert --input=" + shq(text.string()) +
                         " --quiet --out=" + shq(dcg.string())),
              0)
        << gens[i];
    ASSERT_EQ(run_detcol("convert --input=" + shq(dcg.string()) +
                         " --to=edges --quiet --out=" + shq(back.string())),
              0)
        << gens[i];
    EXPECT_EQ(read_file(text), read_file(back)) << gens[i];
  }
}

TEST(CliDriver, ConvertParallelParseMatchesSequential) {
  const fs::path dir = test_dir();
  const fs::path text = dir / "g.edges";
  const fs::path seq = dir / "seq.dcg";
  const fs::path par = dir / "par.dcg";
  ASSERT_EQ(run_detcol("gen --gen=gnp --n=1500 --p=0.01 --seed=2 --quiet "
                       "--out=" + shq(text.string())),
            0);
  ASSERT_EQ(run_detcol("convert --input=" + shq(text.string()) +
                       " --quiet --out=" + shq(seq.string())),
            0);
  ASSERT_EQ(run_detcol("convert --input=" + shq(text.string()) +
                       " --threads=4 --quiet --out=" + shq(par.string())),
            0);
  EXPECT_EQ(read_file(seq), read_file(par));  // determinism contract
}

TEST(CliDriver, ConvertUsageAndDataErrors) {
  const fs::path dir = test_dir();
  // Usage errors: missing --out, unknown formats, --from without --input.
  EXPECT_EQ(run_detcol("convert --n=20 2>/dev/null"), 2);
  EXPECT_EQ(run_detcol("convert --n=20 --to=nosuch --out=/dev/null "
                       "2>/dev/null"),
            2);
  EXPECT_EQ(run_detcol("convert --n=20 --from=edges --out=x.dcg 2>/dev/null"),
            2);
  EXPECT_EQ(run_detcol("convert --n=20 --out=noextension 2>/dev/null"), 2);
  // Data error: a corrupt .dcg is exit 1, not 2.
  const fs::path bad = dir / "bad.dcg";
  std::ofstream os(bad, std::ios::binary);
  os << "DCG1 but truncated garbage";
  os.close();
  EXPECT_EQ(run_detcol("convert --input=" + shq(bad.string()) +
                       " --to=edges --out=/dev/null 2>/dev/null"),
            1);
}

TEST(CliDriver, SuiteRunsMatrixAndWritesReport) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "suite.spec";
  const fs::path report = dir / "report.json";
  std::ofstream os(spec);
  os << "# two graphs x two pipelines x two thread counts\n";
  os << "graph tiny --gen=gnp --n=150 --p=0.05 --seed=1\n";
  os << "graph ringy --gen=ring --n=60\n";
  os << "pipelines reduce greedy\n";
  os << "threads 1 2\n";
  os.close();
  ASSERT_EQ(run_detcol("suite --spec=" + shq(spec.string()) +
                       " --quiet --out=" + shq(report.string())),
            0);
  const std::string doc = read_file(report);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_NE(doc.find("\"detcol_suite\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"host_cpus\""), std::string::npos);
  EXPECT_NE(doc.find("\"graph\":\"ringy\""), std::string::npos);
  // reduce runs at both thread counts, greedy collapses to one cell:
  // 2 graphs x (2 + 1) cells.
  std::size_t cells = 0;
  for (std::size_t at = doc.find("\"pipeline\""); at != std::string::npos;
       at = doc.find("\"pipeline\"", at + 1)) {
    ++cells;
  }
  EXPECT_EQ(cells, 6u);
  EXPECT_EQ(doc.find("\"verified\":false"), std::string::npos);
}

TEST(CliDriver, SuiteRunsRandreduceWithItsSeed) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "suite.spec";
  const fs::path report = dir / "report.json";
  const std::string graph = "--gen=gnp --n=300 --p=0.05 --seed=4";
  std::ofstream os(spec);
  os << "graph g " << graph << "\npipelines randreduce\nthreads 1 2\n"
     << "seed 9\n";
  os.close();
  ASSERT_EQ(run_detcol("suite --spec=" + shq(spec.string()) +
                       " --quiet --out=" + shq(report.string())),
            0);
  // The suite's cells equal an in-process run with the spec's seed.
  const Graph g =
      cli::build_graph(cli::parse_spec(graph), /*allow_algo_seed=*/false)
          .graph;
  const PaletteSet palettes = PaletteSet::delta_plus_one(g);
  const cli::PipelineRun run =
      cli::run_pipeline("randreduce", g, palettes, {}, /*seed=*/9, false);
  // The default seed gives another run on this graph, so matching the
  // seed-9 run shows the 'seed' directive reaches randreduce.
  ASSERT_NE(cli::run_pipeline("randreduce", g, palettes, {}, 1, false).rounds,
            run.rounds);
  const JsonValue doc = parse_json(read_file(report), "report");
  const JsonValue* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items.size(), 2u);  // one cell per thread count
  for (const JsonValue& cell : cells->items) {
    EXPECT_EQ(cell.find("pipeline")->string_value, "randreduce");
    EXPECT_EQ(cell.find("status")->string_value, "ok");
    EXPECT_EQ(cell.find("rounds")->number, static_cast<double>(run.rounds));
    EXPECT_EQ(cell.find("colors_used")->number,
              static_cast<double>(cli::count_distinct_colors(run.coloring)));
  }
}

TEST(CliDriver, SuiteSpecErrorsAreDataErrors) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "bad.spec";
  // Missing --spec is a usage error.
  EXPECT_EQ(run_detcol("suite 2>/dev/null"), 2);
  // Unknown directive / pipeline / bad graph flags are data errors (exit 1).
  std::ofstream os(spec);
  os << "frobnicate all the things\n";
  os.close();
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " 2>/dev/null"),
            1);
  std::ofstream os2(spec);
  os2 << "graph g --gen=gnp --n=50\npipelines nosuch\n";
  os2.close();
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " 2>/dev/null"),
            1);
  std::ofstream os3(spec);
  os3 << "graph g --gen=nosuch --n=50\npipelines reduce\n";
  os3.close();
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " 2>/dev/null"),
            1);
}

TEST(CliDriver, ColorAcceptsDimacsAndMetisInputs) {
  const fs::path dir = test_dir();
  const fs::path dimacs = dir / "g.col";
  const fs::path metis = dir / "g.graph";
  const fs::path colors = dir / "c.txt";
  ASSERT_EQ(run_detcol("convert --gen=gnp --n=200 --p=0.04 --seed=9 --quiet "
                       "--out=" + shq(dimacs.string())),
            0);
  ASSERT_EQ(run_detcol("convert --input=" + shq(dimacs.string()) +
                       " --quiet --out=" + shq(metis.string())),
            0);
  for (const fs::path& input : {dimacs, metis}) {
    ASSERT_EQ(run_detcol("color --input=" + shq(input.string()) +
                         " --quiet --out=" + shq(colors.string())),
              0)
        << input;
    EXPECT_EQ(run_detcol("verify --coloring=" + shq(colors.string())), 0)
        << input;
  }
}

TEST(CliDriver, GnmDefaultEdgesFeasibleForTinyGraphs) {
  const fs::path dir = test_dir();
  const fs::path graph = dir / "tiny.txt";
  ASSERT_EQ(run_detcol("gen --gen=gnm --n=3 --quiet --out=" + shq(graph.string())),
            0);
  EXPECT_EQ(read_edge_list_file(graph.string()).num_edges(), 3u);
}

TEST(CliDriver, StatsFlagRejectedForAlgosWithoutStats) {
  EXPECT_EQ(run_detcol("color --algo=greedy --n=50 --stats=/dev/null "
                       "2>/dev/null"),
            2);
}

TEST(CliDriver, UsageErrorsPrintTheHelpHint) {
  const fs::path err = test_dir() / "stderr.txt";
  EXPECT_EQ(run_detcol("color --n=50 --frobnicate=1 2>" + shq(err.string())),
            2);
  EXPECT_EQ(read_file(err),
            "detcol: unknown flag --frobnicate\n"
            "Run `detcol help` for usage.\n");
}

}  // namespace
}  // namespace detcol
