// End-to-end serving-layer tests: fork a real `detcol serve` subprocess
// (binary path injected by CMake as DETCOL_BIN), drive it over its
// Unix-domain socket, and assert the serving contract — responses
// byte-identical to one-shot CLI runs under concurrency and at any server
// worker count, cache eviction without determinism loss, injected faults
// confined to one request, and a graceful SIGTERM drain with a final
// request-log line. In-process unit tests live in test_serve.cpp.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/scalable_gen.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace detcol {
namespace {

namespace fs = std::filesystem;

std::string shq(const std::string& s) { return "'" + s + "'"; }

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
      fs::path(::testing::TempDir()) / "detcol_serve" / info->name();
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

/// A `detcol serve` subprocess. Started via fork/exec (keeps the pid for
/// signalling); the constructor blocks until the socket is accepting.
class ServerGuard {
 public:
  ServerGuard(const fs::path& socket, std::vector<std::string> extra_flags,
              const std::string& failpoints = "") {
    start(socket, std::move(extra_flags), failpoints);
  }

  ~ServerGuard() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// SIGTERM + waitpid; returns the exit code (or 128+signal).
  int terminate() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    const pid_t pid = pid_;
    pid_ = -1;
    (void)pid;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

 private:
  void start(const fs::path& socket, std::vector<std::string> extra_flags,
             const std::string& failpoints) {
    std::vector<std::string> args = {DETCOL_BIN, "serve",
                                     "--listen=" + socket.string(),
                                     "--quiet"};
    for (std::string& flag : extra_flags) args.push_back(std::move(flag));
    pid_ = ::fork();
    if (pid_ == 0) {
      if (!failpoints.empty()) {
        ::setenv("DETCOL_FAILPOINTS", failpoints.c_str(), 1);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(DETCOL_BIN, argv.data());
      ::_exit(127);
    }
    ASSERT_GT(pid_, 0) << "fork failed";
    // Wait for the listener. The socket file appears at bind(), which may
    // come before listen(), so wait until a connect succeeds. The probe
    // sends nothing: the server sees a connection that closes at once and
    // neither logs nor counts a request.
    for (int i = 0; i < 500; ++i) {
      if (accepts_connections(socket)) return;
      ::usleep(10 * 1000);
    }
    FAIL() << "server did not listen on " << socket << " within 5s";
  }

  /// A bare connect: refused before bind() (no file) and before listen().
  static bool accepts_connections(const fs::path& socket) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string path = socket.string();
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) == 0;
    ::close(fd);
    return ok;
  }

  pid_t pid_ = -1;
};

/// Raw bytes of one response sub-value.
std::string raw_span(const std::string& raw, const JsonValue& v) {
  return raw.substr(v.raw_begin, v.raw_end - v.raw_begin);
}

/// Roundtrip a request and return the raw bytes of the deterministic
/// "result" object (asserting ok:true).
std::string result_span(const std::string& endpoint,
                        const serve::Request& req) {
  serve::ServeClient client(endpoint);
  std::string raw;
  const JsonValue resp = client.roundtrip(req, &raw);
  const JsonValue* ok = resp.find("ok");
  EXPECT_TRUE(ok != nullptr && ok->bool_value) << raw;
  const JsonValue* result = resp.find("result");
  if (result == nullptr) return "";
  return raw_span(raw, *result);
}

serve::Request color_request(const std::string& graph, unsigned threads = 1) {
  serve::Request req;
  req.op = "color";
  req.graph_spec = graph;
  req.threads = threads;
  return req;
}

constexpr char kGraph[] = "--gen=gnp --n=600 --p=0.03 --seed=5";

// ---------------------------------------------------------------------------
// Determinism under concurrency and across server worker counts.
// ---------------------------------------------------------------------------

TEST(ServeE2E, ConcurrentClientsGetByteIdenticalResponses) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  // The coloring the one-shot CLI produces for the same instance.
  const fs::path oneshot = dir / "oneshot.colors";
  ASSERT_EQ(run_detcol(std::string("color ") + kGraph + " --quiet --out=" +
                       shq(oneshot.string())),
            0);
  const std::string golden_file = read_file(oneshot);

  std::vector<std::string> results[2];
  std::vector<std::string> coloring_files[2];
  const unsigned worker_counts[2] = {2, 7};
  for (int round = 0; round < 2; ++round) {
    ServerGuard server(
        sock, {"--threads=" + std::to_string(worker_counts[round]),
               "--executors=4"});
    constexpr int kClients = 6;
    results[round].resize(kClients);
    coloring_files[round].resize(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        serve::ServeClient client(sock.string());
        std::string raw;
        const JsonValue resp =
            client.roundtrip(color_request(kGraph, /*threads=*/2), &raw);
        const JsonValue* ok = resp.find("ok");
        ASSERT_TRUE(ok != nullptr && ok->bool_value) << raw;
        const JsonValue* result = resp.find("result");
        ASSERT_NE(result, nullptr);
        results[round][i] = raw_span(raw, *result);
        const JsonValue* file = result->find("coloring_file");
        ASSERT_NE(file, nullptr);
        coloring_files[round][i] = file->string_value;
      });
    }
    for (auto& t : clients) t.join();
    ASSERT_EQ(server.terminate(), 0);
    fs::remove(sock);
  }
  // Every client, both rounds: identical "result" bytes; and the coloring
  // file matches the one-shot CLI byte-for-byte.
  for (int round = 0; round < 2; ++round) {
    for (const std::string& r : results[round]) {
      EXPECT_EQ(r, results[0][0]) << "worker_count round " << round;
    }
    for (const std::string& f : coloring_files[round]) {
      EXPECT_EQ(f, golden_file);
    }
  }
}

TEST(ServeE2E, RequestThreadBudgetDoesNotChangeTheColoring) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {"--threads=2"});
  // Different per-request budgets: the "result" object differs only in its
  // recorded "threads" field; the coloring file bytes are identical.
  std::string files[3];
  const unsigned budgets[3] = {1, 2, 7};
  for (int i = 0; i < 3; ++i) {
    serve::ServeClient client(sock.string());
    std::string raw;
    const JsonValue resp =
        client.roundtrip(color_request(kGraph, budgets[i]), &raw);
    const JsonValue* result = resp.find("result");
    ASSERT_NE(result, nullptr) << raw;
    const JsonValue* threads = result->find("threads");
    ASSERT_NE(threads, nullptr);
    EXPECT_EQ(static_cast<unsigned>(threads->number), budgets[i]);
    files[i] = result->find("coloring_file")->string_value;
  }
  EXPECT_EQ(files[0], files[1]);
  EXPECT_EQ(files[0], files[2]);
}

TEST(ServeE2E, EvictionThenReloadReproducesTheBytes) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  // One residency slot and no result cache: the second graph evicts the
  // first, so the third request rebuilds it from scratch — and must produce
  // the identical bytes.
  ServerGuard server(sock, {"--cache-instances=1", "--result-cache=0"});
  const std::string first = result_span(sock.string(), color_request(kGraph));
  result_span(sock.string(),
              color_request("--gen=gnp --n=500 --p=0.05 --seed=9"));
  const std::string again = result_span(sock.string(), color_request(kGraph));
  EXPECT_EQ(first, again);

  serve::ServeClient client(sock.string());
  serve::Request info;
  info.op = "info";
  std::string raw;
  const JsonValue resp = client.roundtrip(info, &raw);
  const JsonValue* result = resp.find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* instances = result->find("instances");
  ASSERT_NE(instances, nullptr);
  EXPECT_GE(instances->find("evictions")->number, 2.0) << raw;
  EXPECT_EQ(instances->find("resident")->number, 1.0);
}

TEST(ServeE2E, MmapInstancesEvictReloadAndDedupeAgainstInRam) {
  const fs::path dir = test_dir();
  const fs::path a = dir / "a.dcg";
  const fs::path b = dir / "b.dcg";
  {
    ScalableGenSpec spec;
    spec.family = ScalableFamily::kBarabasiAlbert;
    spec.n = 4000;
    spec.d = 3;
    spec.seed = 1;
    generate_scalable_dcg(spec, a.string());
    spec.seed = 2;
    generate_scalable_dcg(spec, b.string());
  }
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {"--cache-instances=1", "--result-cache=0"});
  const std::string spec_a = "--input=" + a.string() + " --mmap=1";
  const std::string spec_b = "--input=" + b.string() + " --mmap=1";
  // B evicts A's instance (one residency slot): the mapping must come down
  // cleanly and come back byte-identical when A is requested again.
  const std::string first = result_span(sock.string(), color_request(spec_a));
  ASSERT_NE(first, "");
  const std::string other = result_span(sock.string(), color_request(spec_b));
  ASSERT_NE(other, "");
  EXPECT_NE(first, other) << "different seeds must color differently";
  EXPECT_EQ(result_span(sock.string(), color_request(spec_a)), first);
  // The in-RAM spelling of the same file dedupes onto the mapped instance:
  // the .dcg encoding is canonical, so the content checksum of the mapping
  // equals the checksum of the re-serialized heap graph.
  EXPECT_EQ(result_span(sock.string(),
                        color_request("--input=" + a.string())),
            first);
}

TEST(ServeE2E, ResultCacheHitsReplayIdenticalBytes) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {});
  serve::ServeClient cold(sock.string());
  std::string cold_raw;
  const JsonValue cold_resp =
      cold.roundtrip(color_request(kGraph), &cold_raw);
  ASSERT_NE(cold_resp.find("result"), nullptr);
  EXPECT_FALSE(
      cold_resp.find("transient")->find("result_hit")->bool_value);
  serve::ServeClient warm(sock.string());
  std::string warm_raw;
  const JsonValue warm_resp =
      warm.roundtrip(color_request(kGraph), &warm_raw);
  EXPECT_TRUE(
      warm_resp.find("transient")->find("result_hit")->bool_value);
  EXPECT_EQ(raw_span(cold_raw, *cold_resp.find("result")),
            raw_span(warm_raw, *warm_resp.find("result")));
}

// ---------------------------------------------------------------------------
// CLI client routing (`--server=`) through the real binary.
// ---------------------------------------------------------------------------

TEST(ServeE2E, CliColorThroughServerMatchesLocalRun) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {});
  const fs::path local = dir / "local.colors";
  const fs::path served = dir / "served.colors";
  for (const char* algo : {"reduce", "lowspace", "mis"}) {
    const std::string color =
        std::string("color ") + kGraph + " --algo=" + algo + " --quiet";
    ASSERT_EQ(run_detcol(color + " --out=" + shq(local.string())), 0) << algo;
    ASSERT_EQ(run_detcol(color + " --server=" + shq(sock.string()) +
                         " --out=" + shq(served.string())),
              0)
        << algo;
    EXPECT_EQ(read_file(local), read_file(served)) << algo;
  }

  // verify through the server accepts what color produced.
  EXPECT_EQ(run_detcol("verify " + shq(served.string()) + " --server=" +
                       shq(sock.string())),
            0);

  // A tampered coloring is INVALID through the server too (exit 1).
  std::string text = read_file(served);
  const auto nl = text.rfind("\n", text.size() - 2);
  ASSERT_NE(nl, std::string::npos);
  text.resize(nl + 1);
  text += "999999\n";  // out-of-palette color on the last node
  const fs::path bad = dir / "bad.colors";
  write_file(bad, text);
  EXPECT_EQ(run_detcol("verify " + shq(bad.string()) + " --server=" +
                       shq(sock.string()) + " 2>/dev/null"),
            1);
}

TEST(ServeE2E, CliStatsThroughServerRecordsRequestThreads) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {"--threads=2"});
  const fs::path out = dir / "stats.json";
  ASSERT_EQ(run_detcol(std::string("stats ") + kGraph + " --threads=4" +
                       " --server=" + shq(sock.string()) + " --out=" +
                       shq(out.string())),
            0);
  const std::string text = read_file(out);
  const JsonValue doc = parse_json(text, "stats");
  const JsonValue* threads = doc.find("threads");
  ASSERT_NE(threads, nullptr) << text;
  // The request's budget, not the server's worker count.
  EXPECT_EQ(threads->number, 4.0);
}

TEST(ServeE2E, CliUsageErrorsSurfaceAsExitTwo) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {});
  EXPECT_EQ(run_detcol(std::string("color ") + kGraph +
                       " --algo=nosuch --server=" + shq(sock.string()) +
                       " 2>/dev/null"),
            2);
  // Unreachable server is a data/environment failure (exit 1), not usage.
  EXPECT_EQ(run_detcol(std::string("color ") + kGraph + " --server=" +
                       shq((dir / "nope.sock").string()) + " 2>/dev/null"),
            1);
}

TEST(ServeE2E, CliFlagMisuseFailsTheSameWithAndWithoutServer) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  const fs::path err = dir / "stderr.txt";
  ServerGuard server(sock, {});
  const auto run = [&](const std::string& flags) {
    EXPECT_EQ(run_detcol(std::string("color ") + kGraph + " --quiet " + flags +
                         " 2>" + shq(err.string())),
              2)
        << flags;
    return read_file(err);
  };
  for (const std::string& misuse :
       {"--algo=greedy --stats=" + shq((dir / "s.json").string()),
        std::string("--algo=greedy --threads=2")}) {
    const std::string local = run(misuse);
    EXPECT_NE(local.find("Run `detcol help` for usage."), std::string::npos)
        << local;
    EXPECT_EQ(run(misuse + " --server=" + shq(sock.string())), local);
  }
  run("--algo=bogus --server=" + shq(sock.string()));
}

TEST(ServeE2E, SuiteServerDirectiveRunsCellsRemotely) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {});
  const fs::path spec = dir / "suite.spec";
  const fs::path local_out = dir / "local.json";
  const fs::path served_out = dir / "served.json";
  const std::string base =
      "graph g1 --gen=gnp --n=120 --p=0.05 --seed=2\n"
      "pipelines reduce greedy\n"
      "threads 1 2\n"
      "timing off\n";
  write_file(spec, base);
  ASSERT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " --quiet" +
                       " --out=" + shq(local_out.string())),
            0);
  write_file(spec, base + "server " + sock.string() + "\n");
  ASSERT_EQ(run_detcol("suite --spec=" + shq(spec.string()) + " --quiet" +
                       " --out=" + shq(served_out.string())),
            0);
  const JsonValue local_doc = parse_json(read_file(local_out), "local");
  const JsonValue served_doc = parse_json(read_file(served_out), "served");
  const JsonValue* local_cells = local_doc.find("cells");
  const JsonValue* served_cells = served_doc.find("cells");
  ASSERT_NE(local_cells, nullptr);
  ASSERT_NE(served_cells, nullptr);
  ASSERT_EQ(local_cells->items.size(), served_cells->items.size());
  for (std::size_t i = 0; i < local_cells->items.size(); ++i) {
    const JsonValue& lc = local_cells->items[i];
    const JsonValue& sc = served_cells->items[i];
    EXPECT_EQ(sc.find("status")->string_value, "ok");
    EXPECT_EQ(sc.find("kernel")->string_value, "server");
    // The deterministic numbers agree with the locally computed cells.
    EXPECT_EQ(sc.find("rounds")->number, lc.find("rounds")->number);
    EXPECT_EQ(sc.find("colors_used")->number, lc.find("colors_used")->number);
  }
  // The server directive refuses to combine with a kernels axis.
  write_file(spec, base + "server " + sock.string() + "\nkernels scalar\n");
  EXPECT_EQ(run_detcol("suite --spec=" + shq(spec.string()) +
                       " --quiet --out=" + shq((dir / "x.json").string()) +
                       " 2>/dev/null"),
            1);
}

// ---------------------------------------------------------------------------
// Fault injection: a failing request never takes the server down.
// ---------------------------------------------------------------------------

TEST(ServeE2E, InjectedReadFaultFailsOnlyThatRequest) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {}, "serve.request.read@1:io");
  {
    serve::ServeClient client(sock.string());
    std::string raw;
    const JsonValue resp = client.roundtrip(color_request(kGraph), &raw);
    const JsonValue* ok = resp.find("ok");
    ASSERT_NE(ok, nullptr) << raw;
    EXPECT_FALSE(ok->bool_value);
    EXPECT_EQ(resp.find("error_class")->string_value, "io");
  }
  // The server survives and the next request succeeds.
  EXPECT_NE(result_span(sock.string(), color_request(kGraph)), "");
}

TEST(ServeE2E, InjectedWriteFaultYieldsCleanErrorFrameNotTornResponse) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {}, "serve.response.write@1:oom");
  {
    serve::ServeClient client(sock.string());
    std::string raw;
    const JsonValue resp = client.roundtrip(color_request(kGraph), &raw);
    // The frame parses cleanly (not torn) and names the injected class.
    const JsonValue* ok = resp.find("ok");
    ASSERT_NE(ok, nullptr) << raw;
    EXPECT_FALSE(ok->bool_value);
    EXPECT_EQ(resp.find("error_class")->string_value, "oom");
  }
  EXPECT_NE(result_span(sock.string(), color_request(kGraph)), "");
}

TEST(ServeE2E, InjectedEvictionFaultLeavesTheStoreIntact) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {"--cache-instances=1", "--result-cache=0"},
                     "serve.instance.evict@1:io");
  const std::string first = result_span(sock.string(), color_request(kGraph));
  {
    // This request needs an eviction; the injected fault fails it cleanly.
    serve::ServeClient client(sock.string());
    std::string raw;
    const JsonValue resp = client.roundtrip(
        color_request("--gen=gnp --n=500 --p=0.05 --seed=9"), &raw);
    const JsonValue* ok = resp.find("ok");
    ASSERT_NE(ok, nullptr) << raw;
    EXPECT_FALSE(ok->bool_value);
    EXPECT_EQ(resp.find("error_class")->string_value, "io");
  }
  // The failpoint fired before any mutation: the original instance is still
  // resident and still serves byte-identical results; the evicting request
  // now succeeds (failpoint consumed).
  EXPECT_EQ(result_span(sock.string(), color_request(kGraph)), first);
  EXPECT_NE(result_span(sock.string(),
                        color_request("--gen=gnp --n=500 --p=0.05 --seed=9")),
            "");
}

TEST(ServeE2E, PerRequestDeadlineMapsToTimeoutClass) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {"--result-cache=0"});
  serve::ServeClient client(sock.string());
  serve::Request req = color_request(kGraph);
  req.timeout_seconds = 1e-9;
  std::string raw;
  const JsonValue resp = client.roundtrip(req, &raw);
  const JsonValue* ok = resp.find("ok");
  ASSERT_NE(ok, nullptr) << raw;
  EXPECT_FALSE(ok->bool_value);
  EXPECT_EQ(resp.find("error_class")->string_value, "timeout");
  // And without the deadline the same connection still works.
  const JsonValue retry = client.roundtrip(color_request(kGraph), &raw);
  EXPECT_TRUE(retry.find("ok")->bool_value);
}

TEST(ServeE2E, MalformedRequestsGetUsageFramesAndTheConnectionLives) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {});
  serve::ServeClient client(sock.string());
  serve::Request bad;
  bad.op = "color";  // no graph spec
  std::string raw;
  const JsonValue resp = client.roundtrip(bad, &raw);
  EXPECT_FALSE(resp.find("ok")->bool_value);
  EXPECT_EQ(resp.find("error_class")->string_value, "usage");
  serve::Request unknown;
  unknown.op = "frobnicate";
  const JsonValue resp2 = client.roundtrip(unknown, &raw);
  EXPECT_EQ(resp2.find("error_class")->string_value, "usage");
  // Same connection, a good request still answers.
  const JsonValue resp3 = client.roundtrip(color_request(kGraph), &raw);
  EXPECT_TRUE(resp3.find("ok")->bool_value);
}

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

TEST(ServeE2E, SigtermDrainsAndWritesFinalLogLine) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  const fs::path log = dir / "requests.log";
  ServerGuard server(sock, {"--log=" + log.string()});
  result_span(sock.string(), color_request(kGraph));
  result_span(sock.string(), color_request(kGraph));
  ASSERT_EQ(server.terminate(), 0);
  EXPECT_FALSE(fs::exists(sock)) << "socket not unlinked on shutdown";
  const std::string text = read_file(log);
  // One JSON line per request, then the shutdown marker.
  std::istringstream is(text);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << text;
  for (int i = 0; i < 2; ++i) {
    const JsonValue row = parse_json(lines[i], "log line");
    EXPECT_EQ(row.find("op")->string_value, "color");
    EXPECT_EQ(row.find("status")->string_value, "ok");
  }
  const JsonValue last = parse_json(lines.back(), "shutdown line");
  EXPECT_EQ(last.find("event")->string_value, "shutdown");
  EXPECT_TRUE(last.find("drained")->bool_value);
  EXPECT_EQ(last.find("requests")->number, 2.0);
}

TEST(ServeE2E, ShutdownOpStopsTheServerGracefully) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  const fs::path log = dir / "requests.log";
  ServerGuard server(sock, {"--log=" + log.string()});
  {
    serve::ServeClient client(sock.string());
    serve::Request req;
    req.op = "shutdown";
    std::string raw;
    const JsonValue resp = client.roundtrip(req, &raw);
    EXPECT_TRUE(resp.find("ok")->bool_value);
  }
  // The server exits on its own; terminate() just reaps it.
  for (int i = 0; i < 500 && fs::exists(sock); ++i) ::usleep(10 * 1000);
  EXPECT_EQ(server.terminate(), 0);
  const std::string text = read_file(log);
  EXPECT_NE(text.find("\"event\":\"shutdown\""), std::string::npos) << text;
}

TEST(ServeE2E, BindFailureOnOccupiedPathIsAStartupError) {
  const fs::path dir = test_dir();
  const fs::path sock = dir / "s.sock";
  ServerGuard server(sock, {});
  // Second server on the same path must fail fast with exit 1.
  EXPECT_EQ(run_detcol("serve --listen=" + shq(sock.string()) +
                       " --quiet 2>/dev/null"),
            1);
  // The incumbent is unaffected.
  EXPECT_NE(result_span(sock.string(), color_request(kGraph)), "");
}

}  // namespace
}  // namespace detcol
