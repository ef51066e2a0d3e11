// The serve-mixed traffic: a closed loop of client connections against an
// in-process `detcol serve`, with every served coloring checked afterwards.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cli/pipeline.hpp"
#include "cli/spec.hpp"
#include "common.hpp"
#include "graph/coloring.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using detcol::JsonValue;
using detcol::serve::Request;
using detcol::serve::ServeClient;

constexpr unsigned kInstancesPerSize = 4;
constexpr double kRepeatShare = 0.3;     // requests that repeat an earlier one
constexpr double kLowSpaceShare = 0.25;  // the rest run reduce
constexpr std::size_t kRepeatWindow = 8; // repeats come from the last 8

struct LocalInstance {
  std::string graph_spec;  // as sent
  std::string canonical_graph;
  Graph graph;
  std::string pal_spec[2];  // [0] reduce, [1] lowspace
  std::string canonical_pal[2];
  PaletteSet pal[2];
};

struct Planned {
  unsigned inst = 0;
  bool lowspace = false;
  std::uint64_t seed = 0;
};

/// u_k = frac(u_0 + k * step) with an irrational step: every stretch of the
/// sequence is spread evenly over [0, 1). Drawing the request mix from it
/// keeps the shares of repeats, instances and algorithms close to plan in
/// every run, so the mix does not move throughput between seeds; the seed
/// sets the starting points.
class EvenSequence {
 public:
  EvenSequence(double start, double step) : u_(start), step_(step) {}
  double next() {
    u_ += step_;
    if (u_ >= 1) u_ -= 1;
    return u_;
  }

 private:
  double u_;
  double step_;
};

/// One client's deterministic request stream: Zipf-popular instances, 75%
/// reduce / 25% lowspace, and ~30% exact repeats of one of the client's
/// last few requests (recent enough to still be in the result cache). New
/// requests carry a fresh "seed" field: the deterministic pipelines ignore
/// it, but it is part of the result-cache key, so they are cache misses.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, unsigned client,
                const std::vector<double>& cdf,
                const std::vector<unsigned>& by_rank)
      : rng_(detcol::sub_seed(seed, 1000 + client)),
        // Steps sqrt(2)-1, (sqrt(5)-1)/2 and sqrt(3)-1 are independent over
        // the rationals, so the three sequences do not move in step.
        repeat_(rng_.next_double(), 0.41421356237309515),
        rank_(rng_.next_double(), 0.61803398874989485),
        algo_(rng_.next_double(), 0.73205080756887719),
        cdf_(cdf),
        by_rank_(by_rank),
        next_seed_((std::uint64_t{client} + 1) << 24) {}

  Planned next() {
    if (!recent_.empty() && repeat_.next() < kRepeatShare) {
      return recent_[rng_.next_below(recent_.size())];
    }
    Planned p;
    const double u = rank_.next();
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    p.inst = by_rank_[std::min(rank, by_rank_.size() - 1)];
    p.lowspace = algo_.next() < kLowSpaceShare;
    p.seed = ++next_seed_;
    recent_.push_back(p);
    if (recent_.size() > kRepeatWindow) recent_.pop_front();
    return p;
  }

 private:
  detcol::Xoshiro256 rng_;
  EvenSequence repeat_;
  EvenSequence rank_;
  EvenSequence algo_;
  const std::vector<double>& cdf_;
  const std::vector<unsigned>& by_rank_;
  std::uint64_t next_seed_;
  std::deque<Planned> recent_;
};

struct Reply {
  unsigned key = 0;  // inst * 2 + lowspace
  std::uint64_t hash = 0;
  std::uint64_t rounds = 0;
  std::uint64_t colors = 0;
  bool result_hit = false;
  double latency = 0;
  double handle = 0;
};

struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t overloaded = 0;
  std::vector<Reply> replies;
  std::map<unsigned, std::string> texts;  // first coloring file per key
  std::vector<std::string> errors;
};

const JsonValue& member(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  DC_CHECK(m != nullptr, "serve response lacks \"", key, "\"");
  return *m;
}

Request color_request(const LocalInstance& inst, bool lowspace,
                      std::uint64_t seed) {
  Request q;
  q.op = "color";
  q.graph_spec = inst.graph_spec;
  q.palette_spec = inst.pal_spec[lowspace ? 1 : 0];
  q.algo = lowspace ? "lowspace" : "reduce";
  q.seed = seed;
  q.threads = 1;
  return q;
}

struct InfoCounters {
  std::uint64_t hits = 0, misses = 0, evictions = 0;
};

InfoCounters server_info(ServeClient& client) {
  Request q;
  q.op = "info";
  const JsonValue resp = client.roundtrip(q);
  const JsonValue& inst = member(member(resp, "result"), "instances");
  return {static_cast<std::uint64_t>(member(inst, "hits").number),
          static_cast<std::uint64_t>(member(inst, "misses").number),
          static_cast<std::uint64_t>(member(inst, "evictions").number)};
}

}  // namespace

struct ServeBench::Impl {
  ServeConfig cfg;
  std::vector<LocalInstance> inst;
  std::vector<unsigned> by_rank;  // instance indices, most popular first
  std::vector<double> zipf_cdf;
  unsigned probe = 0;
  detcol::serve::ServeOptions opts;
  std::thread server;
  bool running = false;

  std::unique_ptr<ServeClient> connect(double timeout_s) const {
    const double until = now_s() + timeout_s;
    for (;;) {
      try {
        return std::make_unique<ServeClient>(cfg.socket_path);
      } catch (const detcol::CheckError&) {
        if (now_s() > until) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  void client_loop(unsigned c, double deadline, ClientLog& log) const {
    RequestStream stream(cfg.seed, c, zipf_cdf, by_rank);
    std::unique_ptr<ServeClient> client = connect(10);
    std::uint64_t k = 0;
    while (now_s() < deadline) {
      const Planned p = stream.next();
      const Request q = color_request(inst[p.inst], p.lowspace, p.seed);
      ++log.attempted;
      const std::uint64_t request_id = (std::uint64_t{c} + 1) << 32 | ++k;
      JsonValue resp;
      double latency = 0;
      try {
        ScopedSpan span("serve.request", request_id);
        const double t0 = now_s();
        resp = client->roundtrip(q);
        latency = now_s() - t0;
      } catch (const std::exception& e) {
        ++log.failed;
        log.errors.push_back(std::string("request failed: ") + e.what());
        client = connect(10);
        continue;
      }
      const JsonValue* ok = resp.find("ok");
      if (ok == nullptr || !ok->bool_value) {
        ++log.failed;
        const JsonValue* cls = resp.find("error_class");
        const std::string name = cls != nullptr ? cls->string_value : "?";
        if (name == "overloaded") ++log.overloaded;
        log.errors.push_back("error frame: " + name);
        continue;
      }
      const JsonValue& result = member(resp, "result");
      const JsonValue& transient = member(resp, "transient");
      const std::string& text = member(result, "coloring_file").string_value;
      Reply r;
      r.key = p.inst * 2 + (p.lowspace ? 1 : 0);
      r.hash = fnv1a(text.data(), text.size());
      r.rounds = static_cast<std::uint64_t>(member(result, "rounds").number);
      r.colors =
          static_cast<std::uint64_t>(member(result, "colors_used").number);
      r.result_hit = member(transient, "result_hit").bool_value;
      r.latency = latency;
      r.handle = member(transient, "wall_seconds").number;
      log.replies.push_back(r);
      log.texts.emplace(r.key, text);
    }
  }
};

ServeBench::ServeBench(const ServeConfig& config)
    : impl_(std::make_unique<Impl>()) {
  Impl& s = *impl_;
  s.cfg = config;
  DC_CHECK(config.sizes.size() == 3, "serve-mixed needs three sizes");
  for (unsigned i = 0; i < 3 * kInstancesPerSize; ++i) {
    const NodeId n = config.sizes[i / kInstancesPerSize];
    const std::uint64_t gseed = detcol::sub_seed(config.seed, 100 + i) >> 40;
    const std::uint64_t pseed = detcol::sub_seed(config.seed, 200 + i) >> 40;
    LocalInstance li;
    li.graph_spec = "--gen=gnp --n=" + std::to_string(n) + " --p=" +
                    detcol::cli::fmt_double(config.avg_deg / (n - 1.0)) +
                    " --seed=" + std::to_string(gseed);
    li.pal_spec[0] = "--palette=delta1";
    li.pal_spec[1] = "--palette=deg1 --palette-seed=" + std::to_string(pseed);
    detcol::cli::GraphSource gs =
        detcol::cli::build_graph(detcol::cli::parse_spec(li.graph_spec), false);
    li.canonical_graph = gs.spec;
    li.graph = std::move(gs.graph);
    for (int a = 0; a < 2; ++a) {
      detcol::cli::PaletteSource ps = detcol::cli::build_palettes(
          detcol::cli::parse_spec(li.pal_spec[a]), li.graph);
      li.canonical_pal[a] = ps.spec;
      li.pal[a] = std::move(ps.palettes);
    }
    s.inst.push_back(std::move(li));
  }
  // Popularity rank r goes to an instance of size sizes[{1, 0, 2}[r % 3]],
  // the same for every seed, so seeds change the graphs but not how load is
  // spread over sizes. Zipf law with exponent 1 over the ranks. The middle
  // size then gets 48% of requests, the smallest 30%, the largest 22%, which
  // puts the median miss latency inside one mode (the middle size's reduce
  // requests) rather than between two, where it would jump between seeds.
  constexpr unsigned kSizeOfRank[3] = {1, 0, 2};
  for (unsigned r = 0; r < kInstancesPerSize; ++r) {
    for (const unsigned k : kSizeOfRank) {
      s.by_rank.push_back(k * kInstancesPerSize + r);
    }
  }
  double total = 0;
  for (std::size_t r = 0; r < s.by_rank.size(); ++r) total += 1.0 / (r + 1.0);
  double acc = 0;
  for (std::size_t r = 0; r < s.by_rank.size(); ++r) {
    acc += 1.0 / (r + 1.0) / total;
    s.zipf_cdf.push_back(acc);
  }
  // The most popular of the largest instances carries the layer probes.
  const NodeId largest = config.sizes.back();
  for (const unsigned i : s.by_rank) {
    if (s.inst[i].graph.num_nodes() == largest) {
      s.probe = i;
      break;
    }
  }
  s.opts.listen_path = config.socket_path;
  s.opts.threads = config.server_threads;
  s.opts.quiet = true;
}

ServeBench::~ServeBench() {
  try {
    stop();
  } catch (...) {
    // stop() already fell back to a signal; nothing more to release.
  }
}

double ServeBench::start() {
  Impl& s = *impl_;
  DC_CHECK(!s.running, "server already running");
  const double t0 = now_s();
  ::unlink(s.cfg.socket_path.c_str());
  s.server = std::thread([&s] { detcol::serve::run_server(s.opts); });
  s.running = true;
  std::unique_ptr<ServeClient> client = s.connect(30);
  for (const LocalInstance& li : s.inst) {
    const JsonValue resp = client->roundtrip(color_request(li, false, 0));
    const JsonValue* ok = resp.find("ok");
    if (ok == nullptr || !ok->bool_value) {
      throw std::runtime_error("serve warm-up request failed");
    }
  }
  return now_s() - t0;
}

void ServeBench::stop() {
  Impl& s = *impl_;
  if (!s.running) return;
  try {
    ServeClient client(s.cfg.socket_path);
    Request q;
    q.op = "shutdown";
    client.roundtrip(q);
  } catch (const std::exception&) {
    // run_server drains and exits on SIGTERM too.
    ::kill(::getpid(), SIGTERM);
  }
  s.server.join();
  s.running = false;
}

ServeResult ServeBench::run(double seconds, ExecContext local_exec) {
  Impl& s = *impl_;
  ServeResult r;
  std::unique_ptr<ServeClient> admin = s.connect(10);
  const InfoCounters before = server_info(*admin);
  Request ping;
  ping.op = "ping";
  for (int i = 0; i < 64; ++i) {
    const double t0 = now_s();
    admin->roundtrip(ping);
    r.ping_rtt.push_back(now_s() - t0);
  }
  admin.reset();  // frees its executor for the clients

  std::vector<ClientLog> logs(s.cfg.clients);
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < s.cfg.clients; ++c) {
      clients.emplace_back([&, c] {
        try {
          s.client_loop(c, deadline, logs[c]);
        } catch (const std::exception& e) {
          ++logs[c].failed;
          logs[c].errors.push_back(std::string("client: ") + e.what());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  r.elapsed = now_s() - t0;
  admin = s.connect(10);
  const InfoCounters after = server_info(*admin);
  admin.reset();
  r.instance_hits = after.hits - before.hits;
  r.instance_misses = after.misses - before.misses;
  r.evictions = after.evictions - before.evictions;

  // Every served coloring of one (instance, algo) pair must be the same
  // bytes; those bytes must verify against the initial palettes, and a
  // sample must equal a local run_pipeline of the same request.
  std::map<unsigned, std::string> texts;
  for (ClientLog& log : logs) {
    for (auto& [key, text] : log.texts) texts.emplace(key, std::move(text));
  }
  std::set<unsigned> bad;
  std::map<unsigned, std::uint64_t> ref_hash;
  for (const auto& [key, text] : texts) {
    const LocalInstance& li = s.inst[key / 2];
    const int a = static_cast<int>(key % 2);
    ref_hash[key] = fnv1a(text.data(), text.size());
    std::istringstream is(text);
    const detcol::cli::ColoringFile file =
        detcol::cli::read_coloring(is, "served coloring");
    const detcol::VerifyResult v =
        detcol::verify_coloring(li.graph, li.pal[a], file.coloring);
    if (!v.ok || file.graph_spec != li.canonical_graph ||
        file.palette_spec != li.canonical_pal[a]) {
      bad.insert(key);
      r.errors.push_back("served coloring of " + li.graph_spec +
                         " failed verification: " + v.issue);
    }
  }
  // The sample: both algorithms on the probe instance (always of the largest
  // size, so its model rounds do not depend on which size the seed made
  // popular) and reduce on the most popular instance.
  const unsigned top = s.probe;
  const unsigned sample[] = {top * 2, top * 2 + 1, s.by_rank[0] * 2};
  for (const unsigned key : sample) {
    const LocalInstance& li = s.inst[key / 2];
    const int a = static_cast<int>(key % 2);
    const detcol::cli::PipelineRun run = detcol::cli::run_pipeline(
        a == 0 ? "reduce" : "lowspace", li.graph, li.pal[a], local_exec, 1,
        false);
    std::ostringstream os;
    detcol::cli::write_coloring(os, run.coloring, li.canonical_graph,
                                li.canonical_pal[a]);
    if (key == top * 2) {
      r.model_rounds = run.rounds;
      r.colors_used = detcol::cli::count_distinct_colors(run.coloring);
    }
    const auto it = texts.find(key);
    if (it != texts.end() && it->second != os.str()) {
      bad.insert(key);
      r.errors.push_back("served coloring of " + li.graph_spec +
                         " differs from a local run_pipeline");
    }
  }

  for (const ClientLog& log : logs) {
    r.attempted += log.attempted;
    r.failed += log.failed;
    r.overloaded += log.overloaded;
    for (const std::string& e : log.errors) r.errors.push_back(e);
    for (const Reply& rep : log.replies) {
      const bool mismatch = rep.hash != ref_hash[rep.key] ||
                            (rep.key == top * 2 &&
                             (rep.rounds != r.model_rounds ||
                              rep.colors != r.colors_used));
      if (bad.count(rep.key) != 0 || mismatch) {
        ++r.failed;
        if (mismatch) r.errors.push_back("served replies disagree");
        continue;
      }
      ++r.completed;
      r.handle.push_back(rep.handle);
      r.wait.push_back(rep.latency - rep.handle);
      if (rep.result_hit) {
        ++r.result_hits;
        r.hit_latency.push_back(rep.latency);
      } else {
        r.miss_latency.push_back(rep.latency);
        r.miss_handle.push_back(rep.handle);
      }
    }
  }
  return r;
}

const Graph& ServeBench::probe_graph() const {
  return impl_->inst[impl_->probe].graph;
}
const PaletteSet& ServeBench::probe_palettes(bool lowspace) const {
  return impl_->inst[impl_->probe].pal[lowspace ? 1 : 0];
}
const std::string& ServeBench::probe_graph_spec() const {
  return impl_->inst[impl_->probe].graph_spec;
}
const std::string& ServeBench::probe_palette_spec(bool lowspace) const {
  return impl_->inst[impl_->probe].pal_spec[lowspace ? 1 : 0];
}

}  // namespace perfbench
