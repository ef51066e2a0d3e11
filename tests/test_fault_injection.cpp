// End-to-end fault-injection tests: drive the real detcol binary (path
// injected by CMake as DETCOL_BIN) through injected write failures,
// allocation failures, per-cell timeouts and mid-run kills, and assert the
// crash-safety contract — correct exit codes, no torn or leftover .tmp
// files, structured error cells, and byte-identical reports after a
// kill + --resume. The failpoint/atomic-file unit tests live in
// test_failpoint.cpp.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace detcol {
namespace {

namespace fs = std::filesystem;

std::string shq(const std::string& s) { return "'" + s + "'"; }

/// Runs `detcol <args>` through the shell; returns the process exit code
/// (or 128+signal for a signalled child — std::_Exit(137) from the kill
/// action arrives as a normal exit with status 137).
int run_detcol(const std::string& args) {
  const std::string cmd = shq(DETCOL_BIN) + " " + args;
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1) << "system() failed for: " << cmd;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

fs::path test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      fs::path(::testing::TempDir()) / "detcol_fi" / info->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  os << content;
  ASSERT_TRUE(os.good()) << path;
}

/// No stray atomic-writer temp file anywhere in the test directory.
void expect_no_tmp_files(const fs::path& dir) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

/// The spec used by the suite tests: two graphs (one per-generator), three
/// pipelines, two thread counts; `timing off` so full reports are
/// byte-identical across runs.
std::string matrix_spec() {
  return
      "graph small --gen=gnp --n=80 --p=0.08 --seed=3\n"
      "graph ring --gen=ring --n=64\n"
      "pipelines reduce greedy trial\n"
      "threads 1 2\n"
      "timing off\n";
}

// ---------------------------------------------------------------------------
// Injected write failures: the target is never torn.
// ---------------------------------------------------------------------------

TEST(FaultInjection, ConvertEnospcLeavesNoArtifactAndNoTmp) {
  const fs::path dir = test_dir();
  const fs::path out = dir / "g.dcg";
  for (const char* site :
       {"atomic.write.body@1", "atomic.fsync@1", "atomic.rename@1",
        "dcg.write.body@1"}) {
    EXPECT_EQ(run_detcol("convert --gen=gnp --n=64 --seed=1 --quiet --out=" +
                         shq(out.string()) + " --failpoints=" + site),
              1)
        << site;
    EXPECT_FALSE(fs::exists(out)) << site;
    expect_no_tmp_files(dir);
  }
  // Same invocation unarmed succeeds and leaves a clean directory.
  EXPECT_EQ(run_detcol("convert --gen=gnp --n=64 --seed=1 --quiet --out=" +
                       shq(out.string())),
            0);
  EXPECT_TRUE(fs::exists(out));
  expect_no_tmp_files(dir);
}

TEST(FaultInjection, ConvertEnospcPreservesPreviousFileContent) {
  const fs::path dir = test_dir();
  const fs::path out = dir / "g.edges";
  ASSERT_EQ(run_detcol("convert --gen=ring --n=16 --quiet --out=" +
                       shq(out.string())),
            0);
  const std::string before = read_file(out);
  EXPECT_EQ(run_detcol("convert --gen=ring --n=32 --quiet --out=" +
                       shq(out.string()) + " --failpoints=atomic.rename@1"),
            1);
  EXPECT_EQ(read_file(out), before);  // old content intact, not torn
  expect_no_tmp_files(dir);
}

TEST(FaultInjection, ColoringOutputWriteFailureIsExitOneNoTorn) {
  const fs::path dir = test_dir();
  const fs::path out = dir / "run.colors";
  EXPECT_EQ(run_detcol("color --gen=gnp --n=60 --seed=1 --quiet --out=" +
                       shq(out.string()) + " --failpoints=out.write@1"),
            1);
  EXPECT_FALSE(fs::exists(out));
  expect_no_tmp_files(dir);
}

// ---------------------------------------------------------------------------
// Injected pipeline failures: taxonomy-correct exit codes.
// ---------------------------------------------------------------------------

TEST(FaultInjection, ColorInjectedOomAndCheckExitOne) {
  EXPECT_EQ(run_detcol("color --gen=gnp --n=60 --seed=1 --quiet "
                       "--out=/dev/null "
                       "--failpoints=color_reduce.recurse@1:oom"),
            1);
  EXPECT_EQ(run_detcol("color --gen=gnp --n=60 --seed=1 --quiet "
                       "--out=/dev/null "
                       "--failpoints=color_reduce.recurse@1:check"),
            1);
  EXPECT_EQ(run_detcol("color --algo=lowspace --gen=gnp --n=60 --seed=1 "
                       "--quiet --out=/dev/null "
                       "--failpoints=lowspace.recurse@1:check"),
            1);
}

TEST(FaultInjection, ColorInjectedFailuresPrintOneLinePerClass) {
  // main() maps each failure class to exit 1 and one stderr line.
  const fs::path dir = test_dir();
  const fs::path err = dir / "stderr.txt";
  const auto run = [&](const char* action) {
    EXPECT_EQ(run_detcol("color --gen=gnp --n=60 --seed=1 --quiet "
                         "--out=/dev/null "
                         "--failpoints=color_reduce.recurse@1:" +
                         std::string(action) + " 2>" + shq(err.string())),
              1)
        << action;
    return read_file(err);
  };
  const std::string site = "failpoint 'color_reduce.recurse' injected ";
  EXPECT_EQ(run("oom"), "detcol: out of memory\n");
  const std::string io = run("io");
  EXPECT_EQ(io.rfind("detcol: I/O error: " + site + "I/O failure", 0), 0u)
      << io;
  EXPECT_EQ(std::count(io.begin(), io.end(), '\n'), 1) << io;
  EXPECT_EQ(run("check"), "detcol: " + site + "CheckError\n");
  EXPECT_EQ(run("timeout"), "detcol: " + site + "deadline expiry\n");
}

TEST(FaultInjection, EnvVarArmsAndFlagWins) {
  // Env arms the failpoint ...
  EXPECT_EQ(run_detcol("color --gen=gnp --n=60 --seed=1 --quiet "
                       "--out=/dev/null "
                       "--failpoints=color_reduce.recurse@1:check"),
            1);
  const std::string env_cmd =
      "DETCOL_FAILPOINTS=color_reduce.recurse@1:check " + shq(DETCOL_BIN) +
      " color --gen=gnp --n=60 --seed=1 --quiet --out=/dev/null";
  EXPECT_EQ(WEXITSTATUS(std::system(env_cmd.c_str())), 1);
  // ... and an explicit (harmless) flag overrides the env spec.
  const std::string win_cmd =
      "DETCOL_FAILPOINTS=color_reduce.recurse@1:check " + shq(DETCOL_BIN) +
      " color --gen=gnp --n=60 --seed=1 --quiet --out=/dev/null "
      "--failpoints=unused.site@1";
  EXPECT_EQ(WEXITSTATUS(std::system(win_cmd.c_str())), 0);
}

TEST(FaultInjection, MalformedFailpointSpecIsUsageError) {
  EXPECT_EQ(run_detcol("color --gen=gnp --n=60 --seed=1 --quiet "
                       "--out=/dev/null --failpoints=bogus"),
            2);
  EXPECT_EQ(run_detcol("color --gen=gnp --n=60 --seed=1 --quiet "
                       "--out=/dev/null --failpoints=x@0"),
            2);
  EXPECT_EQ(run_detcol("color --gen=gnp --n=60 --seed=1 --quiet "
                       "--out=/dev/null --failpoints=x@1:frob"),
            2);
}

// ---------------------------------------------------------------------------
// Suite: per-cell isolation, timeouts, corrupt graphs.
// ---------------------------------------------------------------------------

/// Parses the report and returns its cells as (status, error_class) pairs in
/// matrix order.
std::vector<std::pair<std::string, std::string>> cell_statuses(
    const std::string& report) {
  const JsonValue doc = parse_json(report, "report");
  std::vector<std::pair<std::string, std::string>> out;
  for (const JsonValue& cell : doc.find("cells")->items) {
    const JsonValue* cls = cell.find("error_class");
    out.emplace_back(cell.find("status")->string_value,
                     cls != nullptr ? cls->string_value : "");
  }
  return out;
}

TEST(FaultInjection, SuiteCellFailureIsIsolated) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "m.spec";
  const fs::path report = dir / "r.json";
  write_file(spec, matrix_spec());
  // Cell 2 of the 14-cell matrix fails with an injected CheckError; every
  // other cell still runs and verifies.
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " --quiet "
                       "--out=" + shq(report.string()) +
                       " --failpoints=suite.cell@2:check"),
            1);
  const auto cells = cell_statuses(read_file(report));
  ASSERT_EQ(cells.size(), 10u);  // 2 graphs x (reduce,trial x 2 + greedy x 1)
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 1) {
      EXPECT_EQ(cells[i].first, "error");
      EXPECT_EQ(cells[i].second, "check");
    } else {
      EXPECT_EQ(cells[i].first, "ok") << "cell " << i;
    }
  }
  expect_no_tmp_files(dir);
}

TEST(FaultInjection, SuiteInjectedTimeoutCell) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "m.spec";
  const fs::path report = dir / "r.json";
  write_file(spec, matrix_spec());
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " --quiet "
                       "--out=" + shq(report.string()) +
                       " --failpoints=suite.cell@3:timeout"),
            1);
  const auto cells = cell_statuses(read_file(report));
  ASSERT_EQ(cells.size(), 10u);
  EXPECT_EQ(cells[2].first, "timeout");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 2) {
      EXPECT_EQ(cells[i].first, "ok") << "cell " << i;
    }
  }
}

TEST(FaultInjection, SuiteRealDeadlineExpiresCell) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "t.spec";
  const fs::path report = dir / "r.json";
  // A budget far below any real run: the first recursion-entry poll fires.
  write_file(spec,
             "graph g --gen=gnp --n=200 --p=0.05 --seed=1\n"
             "pipelines reduce\n"
             "threads 1\n"
             "timeout_seconds 0.000001\n"
             "timing off\n");
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " --quiet "
                       "--out=" + shq(report.string())),
            1);
  const JsonValue doc = parse_json(read_file(report), "report");
  ASSERT_EQ(doc.find("cells")->items.size(), 1u);
  EXPECT_EQ(doc.find("cells")->items[0].find("status")->string_value,
            "timeout");
  EXPECT_EQ(doc.find("timeout_seconds")->number, 0.000001);
}

TEST(FaultInjection, SuiteCorruptGraphMarksOnlyItsCells) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "m.spec";
  const fs::path report = dir / "r.json";
  const fs::path corrupt = dir / "corrupt.dcg";
  write_file(corrupt, "this is not a dcg file");
  write_file(spec,
             "graph good --gen=ring --n=32\n"
             "graph bad --input=" + corrupt.string() + "\n"
             "graph missing --input=" + (dir / "nope.graph").string() + "\n"
             "pipelines greedy\n"
             "timing off\n");
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " --quiet "
                       "--out=" + shq(report.string())),
            1);
  const std::string text = read_file(report);
  const auto cells = cell_statuses(text);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].first, "ok");
  EXPECT_EQ(cells[1], (std::pair<std::string, std::string>{"error", "load"}));
  EXPECT_EQ(cells[2], (std::pair<std::string, std::string>{"error", "load"}));
  // The failed graphs' header rows record the load error.
  const JsonValue doc = parse_json(text, "report");
  const auto& graphs = doc.find("graphs")->items;
  ASSERT_EQ(graphs.size(), 3u);
  EXPECT_EQ(graphs[0].find("load_error"), nullptr);
  EXPECT_NE(graphs[1].find("load_error"), nullptr);
  EXPECT_NE(graphs[2].find("load_error"), nullptr);
}

// ---------------------------------------------------------------------------
// Crash-safety: kill between checkpoints, resume, byte-identical reports.
// ---------------------------------------------------------------------------

TEST(FaultInjection, SuiteResumeAfterKillIsByteIdentical) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "m.spec";
  write_file(spec, matrix_spec());
  const std::string base = "suite --spec=" + shq(spec.string()) + " --quiet ";

  const fs::path clean = dir / "clean.json";
  ASSERT_EQ(run_detcol(base + "--out=" + shq(clean.string())), 0);

  // Kill the run right after the 3rd durable checkpoint (simulated SIGKILL:
  // no unwinding, no flushes).
  const fs::path partial = dir / "partial.json";
  ASSERT_EQ(run_detcol(base + "--out=" + shq(partial.string()) +
                       " --failpoints=suite.checkpoint@3:kill"),
            137);
  expect_no_tmp_files(dir);
  // The partial report is well-formed and holds exactly 3 cells.
  const JsonValue pdoc = parse_json(read_file(partial), "partial");
  ASSERT_EQ(pdoc.find("cells")->items.size(), 3u);

  // Resume: skips the 3 recorded cells, runs the rest, and the final report
  // is byte-identical to the uninterrupted run's.
  const fs::path resumed = dir / "resumed.json";
  ASSERT_EQ(run_detcol(base + "--out=" + shq(resumed.string()) +
                       " --resume=" + shq(partial.string())),
            0);
  EXPECT_EQ(read_file(resumed), read_file(clean));
  expect_no_tmp_files(dir);
}

TEST(FaultInjection, SuiteResumeAfterEnospcCheckpoint) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "m.spec";
  write_file(spec, matrix_spec());
  const std::string base = "suite --spec=" + shq(spec.string()) + " --quiet ";

  const fs::path clean = dir / "clean.json";
  ASSERT_EQ(run_detcol(base + "--out=" + shq(clean.string())), 0);

  // Disk fills during the 4th checkpoint write: the run aborts with an I/O
  // error, but the 3rd checkpoint survives untorn.
  const fs::path report = dir / "r.json";
  ASSERT_EQ(run_detcol(base + "--out=" + shq(report.string()) +
                       " --failpoints=atomic.write.body@4"),
            1);
  expect_no_tmp_files(dir);
  const JsonValue pdoc = parse_json(read_file(report), "partial");
  ASSERT_EQ(pdoc.find("cells")->items.size(), 3u);

  // Resuming over the same output path completes the matrix.
  ASSERT_EQ(run_detcol(base + "--out=" + shq(report.string()) +
                       " --resume=" + shq(report.string())),
            0);
  EXPECT_EQ(read_file(report), read_file(clean));
}

TEST(FaultInjection, AcceptanceMatrixWithInjectedTimeoutAndCheck) {
  // The ISSUE's acceptance scenario: one corrupt graph, one injected
  // timeout, one injected CheckError — exit 1, well-formed report,
  // error/timeout entries for exactly those cells, and every other cell
  // byte-identical to the clean run's.
  const fs::path dir = test_dir();
  const fs::path spec = dir / "m.spec";
  const fs::path corrupt = dir / "corrupt.dcg";
  write_file(corrupt, "DCG1 garbage");
  write_file(spec, matrix_spec() +
                       "graph corrupt --input=" + corrupt.string() + "\n");
  const std::string base = "suite --spec=" + shq(spec.string()) + " --quiet ";

  const fs::path clean = dir / "clean.json";
  // Clean run: the corrupt graph still fails (exit 1) but everything else
  // verifies.
  ASSERT_EQ(run_detcol(base + "--out=" + shq(clean.string())), 1);
  const fs::path faulty = dir / "faulty.json";
  ASSERT_EQ(run_detcol(base + "--out=" + shq(faulty.string()) +
                       " --failpoints=suite.cell@2:timeout,suite.cell@4:check"),
            1);

  const JsonValue cdoc = parse_json(read_file(clean), "clean");
  const std::string ftext = read_file(faulty);
  const JsonValue fdoc = parse_json(ftext, "faulty");
  const auto& ccells = cdoc.find("cells")->items;
  const auto& fcells = fdoc.find("cells")->items;
  ASSERT_EQ(ccells.size(), fcells.size());
  ASSERT_EQ(fcells.size(), 15u);  // 10 matrix + 5 corrupt-graph cells
  const std::string cleantext = read_file(clean);
  for (std::size_t i = 0; i < fcells.size(); ++i) {
    const std::string fstatus = fcells[i].find("status")->string_value;
    if (i == 1) {
      EXPECT_EQ(fstatus, "timeout");
    } else if (i == 3) {
      EXPECT_EQ(fstatus, "error");
      EXPECT_EQ(fcells[i].find("error_class")->string_value, "check");
    } else {
      // Identical raw bytes to the clean run's cell.
      const auto raw = [](const std::string& t, const JsonValue& v) {
        return t.substr(v.raw_begin, v.raw_end - v.raw_begin);
      };
      EXPECT_EQ(raw(ftext, fcells[i]), raw(cleantext, ccells[i]))
          << "cell " << i;
    }
  }
}

TEST(FaultInjection, SuiteResumeRejectsNonReportJson) {
  const fs::path dir = test_dir();
  const fs::path spec = dir / "m.spec";
  const fs::path bogus = dir / "bogus.json";
  write_file(spec, matrix_spec());
  write_file(bogus, "{\"not_a_report\":true}");
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " --quiet "
                       "--out=/dev/null --resume=" + shq(bogus.string())),
            1);
  write_file(bogus, "{torn");
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " --quiet "
                       "--out=/dev/null --resume=" + shq(bogus.string())),
            1);
}

}  // namespace
}  // namespace detcol
