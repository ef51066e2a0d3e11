// bench_serve — measures what the serving layer amortizes.
//
// Three latencies per pipeline on the same n=2^14 instance:
//
//   cold_oneshot   full `detcol color` subprocess (DETCOL_BIN): process
//                  startup + graph build + palette build + the pipeline
//                  itself, per request;
//   warm_cached    a request against a running server whose result cache
//                  holds this exact request — the steady state of a client
//                  re-asking an identical question;
//   warm_compute   a request that misses the result cache (fresh seed in
//                  the cache key) but hits the resident instance — graph
//                  and palettes are amortized; the pipeline recomputes,
//                  power tables included.
//
// The server runs in-process on a background thread; requests travel over a
// real Unix-domain socket through the real client, so the measured warm
// latencies include framing, JSON, and scheduling. DC_CHECKs assert the
// acceptance bar (warm cached >= 10x cold for ColorReduce) and that the
// served coloring file is byte-identical to the one-shot CLI's output.
// Writes BENCH_serve.json (override with --out).
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace detcol {
namespace {

constexpr char kGraphSpec[] = "--gen=gnp --n=16384 --p=0.002 --seed=1";
constexpr std::uint64_t kN = 16384;

std::string shq(const std::string& s) { return "'" + s + "'"; }

double time_oneshot(const std::string& algo, const std::string& out_path) {
  const std::string cmd = shq(DETCOL_BIN) + " color " + kGraphSpec +
                          " --algo=" + algo + " --quiet --out=" +
                          shq(out_path);
  WallTimer timer;
  const int status = std::system(cmd.c_str());
  const double seconds = timer.seconds();
  DC_CHECK(status == 0, "one-shot run failed: ", cmd);
  return seconds;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DC_CHECK(is.good(), "cannot read ", path);
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct WarmResult {
  double seconds = 0;
  std::string coloring_file;  // from the last response
};

/// One timed round trip. A distinct `seed` forces a result-cache miss (the
/// seed is part of the cache key) without changing the coloring — reduce and
/// lowspace ignore it — so it isolates warm_compute from warm_cached.
WarmResult timed_request(const std::string& endpoint, const std::string& algo,
                         std::uint64_t seed) {
  serve::Request req;
  req.op = "color";
  req.graph_spec = kGraphSpec;
  req.algo = algo;
  req.seed = seed;
  serve::ServeClient client(endpoint);
  std::string raw;
  WallTimer timer;
  const JsonValue resp = client.roundtrip(req, &raw);
  WarmResult out;
  out.seconds = timer.seconds();
  const JsonValue* ok = resp.find("ok");
  DC_CHECK(ok != nullptr && ok->bool_value, "request failed: ", raw);
  const JsonValue* result = resp.find("result");
  const JsonValue* file = result->find("coloring_file");
  DC_CHECK(file != nullptr, "response has no coloring_file");
  out.coloring_file = file->string_value;
  return out;
}

struct Row {
  std::string algo;
  double cold = 0;
  double warm_cached = 0;
  double warm_compute = 0;
  bool byte_identical = false;
};

int run(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_serve.json");
  const int cold_reps = static_cast<int>(args.get_uint("cold-reps", 3));
  const int warm_reps = static_cast<int>(args.get_uint("warm-reps", 21));

  const std::string sock = "/tmp/detcol_bench_serve." +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(sock.c_str());
  serve::ServeOptions opts;
  opts.listen_path = sock;
  opts.threads = 1;
  opts.executors = 2;
  opts.quiet = true;
  std::thread server([&opts] { serve::run_server(opts); });
  for (int i = 0; i < 500; ++i) {
    struct stat st{};
    if (::stat(sock.c_str(), &st) == 0) break;
    ::usleep(10 * 1000);
  }

  std::vector<Row> rows;
  for (const std::string algo : {"reduce", "lowspace"}) {
    Row row;
    row.algo = algo;
    std::fprintf(stderr, "bench_serve: %s cold one-shot x%d...\n",
                 algo.c_str(), cold_reps);
    const std::string oneshot_path = sock + "." + algo + ".colors";
    double cold = 0;
    for (int i = 0; i < cold_reps; ++i) {
      const double s = time_oneshot(algo, oneshot_path);
      cold = i == 0 ? s : std::min(cold, s);
    }
    row.cold = cold;

    // Prime: first request builds the instance and caches the result.
    const WarmResult primed = timed_request(sock, algo, /*seed=*/1);
    row.byte_identical = primed.coloring_file == read_file(oneshot_path);
    DC_CHECK(row.byte_identical,
             "served coloring differs from the one-shot CLI for ", algo);

    std::fprintf(stderr, "bench_serve: %s warm cached x%d...\n", algo.c_str(),
                 warm_reps);
    std::vector<double> cached;
    for (int i = 0; i < warm_reps; ++i) {
      cached.push_back(timed_request(sock, algo, /*seed=*/1).seconds);
    }
    row.warm_cached = median(cached);

    std::fprintf(stderr, "bench_serve: %s warm compute x%d...\n",
                 algo.c_str(), cold_reps);
    std::vector<double> compute;
    for (int i = 0; i < cold_reps; ++i) {
      // Fresh seed each time: instance-warm, result-cold.
      compute.push_back(
          timed_request(sock, algo, /*seed=*/100 + i).seconds);
    }
    row.warm_compute = median(compute);
    ::unlink(oneshot_path.c_str());
    rows.push_back(row);
  }

  {
    serve::Request req;
    req.op = "shutdown";
    serve::ServeClient client(sock);
    client.roundtrip(req);
  }
  server.join();
  ::unlink(sock.c_str());

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("serve_warm_requests");
  w.key("graph").value(kGraphSpec);
  w.key("n").value(kN);
  w.key("host_cpus").value(std::uint64_t{std::thread::hardware_concurrency()});
  w.key("cold_reps").value(std::uint64_t(cold_reps));
  w.key("warm_reps").value(std::uint64_t(warm_reps));
  w.key("requirement").value(
      "warm cached request latency >= 10x better than cold one-shot CLI "
      "(reduce row)");
  w.key("rows").begin_array();
  for (const Row& row : rows) {
    w.begin_object();
    w.key("algo").value(row.algo);
    w.key("cold_oneshot_seconds").value(row.cold);
    w.key("warm_cached_seconds").value(row.warm_cached);
    w.key("warm_compute_seconds").value(row.warm_compute);
    w.key("speedup_cached").value(row.cold / row.warm_cached);
    w.key("speedup_compute").value(row.cold / row.warm_compute);
    w.key("byte_identical_to_cli").value(row.byte_identical);
    w.end_object();
    std::fprintf(stderr,
                 "bench_serve: %s cold=%.4fs cached=%.6fs (%.0fx) "
                 "compute=%.4fs (%.1fx)\n",
                 row.algo.c_str(), row.cold, row.warm_cached,
                 row.cold / row.warm_cached, row.warm_compute,
                 row.cold / row.warm_compute);
  }
  w.end_array();
  const double reduce_speedup = rows[0].cold / rows[0].warm_cached;
  w.key("pass").value(reduce_speedup >= 10.0);
  w.end_object();

  std::ofstream os(out_path, std::ios::binary);
  os << w.str() << "\n";
  DC_CHECK(os.good(), "cannot write ", out_path);
  os.close();
  std::fprintf(stderr, "bench_serve: wrote %s\n", out_path.c_str());
  DC_CHECK(reduce_speedup >= 10.0,
           "acceptance: warm cached speedup ", reduce_speedup, " < 10x");
  return 0;
}

}  // namespace
}  // namespace detcol

int main(int argc, char** argv) {
  try {
    return detcol::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 1;
  }
}
