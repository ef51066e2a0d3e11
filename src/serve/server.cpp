#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/pipeline.hpp"
#include "cli/spec.hpp"
#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "serve/instance_store.hpp"
#include "serve/protocol.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace detcol::serve {
namespace {

// Self-pipe written by the signal handler to wake the poll() accept loop.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  // Best effort: the pipe is non-blocking; a full pipe already guarantees a
  // pending wake-up.
  [[maybe_unused]] const ssize_t r = ::write(g_signal_pipe[1], &byte, 1);
}

/// Memoized deterministic response parts for one (instance, palette, algo,
/// seed, threads, stats) request shape.
struct CachedResult {
  std::string result_json;
  std::string stats_json;  // replayed verbatim; its "timing" block is the
                           // original run's (documented in FORMATS.md)
};

class ResultCache {
 public:
  explicit ResultCache(std::size_t max_entries) : max_(max_entries) {}

  bool get(const std::string& key, CachedResult* out) {
    if (max_ == 0) return false;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    *out = it->second->second;
    return true;
  }

  void put(const std::string& key, CachedResult value) {
    if (max_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->second = std::move(value);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    while (lru_.size() > max_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }

 private:
  const std::size_t max_;
  std::mutex mu_;
  std::list<std::pair<std::string, CachedResult>> lru_;
  std::map<std::string, std::list<std::pair<std::string, CachedResult>>::
                            iterator> index_;
};

/// JSON-lines request log over a POSIX fd (O_APPEND: each line is one
/// atomic-enough append; a torn tail after a crash is at most one line).
class RequestLog {
 public:
  bool open(const std::string& path, std::string* error) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
      *error = path + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  void line(const std::string& json) {
    if (fd_ < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const std::string buf = json + "\n";
    std::size_t done = 0;
    while (done < buf.size()) {
      const ssize_t w = ::write(fd_, buf.data() + done, buf.size() - done);
      if (w < 0) {
        if (errno == EINTR) continue;
        return;  // logging must never take a request down
      }
      done += static_cast<std::size_t>(w);
    }
  }

  void close_synced() {
    if (fd_ < 0) return;
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::mutex mu_;
};

struct ServerState {
  const ServeOptions* opts = nullptr;
  ExecContext exec;  // shared pool (budgeted per request)
  InstanceStore* store = nullptr;
  ResultCache* results = nullptr;
  RequestLog* log = nullptr;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> requests{0};

  // Admission queue of accepted connection fds.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> queue;
  bool draining = false;

  void request_stop() {
    stop.store(true);
    on_signal(0);  // wake the accept loop
  }
};

/// The deterministic core of color/stats: resolve the instance, run the
/// pipeline under the request's budget, render the "result" object. Returns
/// via CachedResult so hits and misses share one rendering.
CachedResult run_color(ServerState& st, const Request& req,
                       bool* instance_hit, bool* result_hit) {
  if (req.graph_spec.empty()) {
    cli::usage_error("\"" + req.op + "\" request needs a \"graph\" spec");
  }
  if (cli::find_pipeline(req.algo) == nullptr) {
    cli::usage_error("unknown algo '" + req.algo + "'");
  }
  const InstanceStore::Acquired acq =
      st.store->acquire(req.graph_spec, st.exec);
  *instance_hit = acq.hit;
  ServeInstance& inst = *acq.instance;
  std::string pal_canonical;
  const std::shared_ptr<const PaletteSet> palettes =
      inst.palettes(req.palette_spec, &pal_canonical);

  // The key pins every input the rendered bytes depend on — including
  // "threads", which the stats document records verbatim.
  const std::string key = req.op + '\n' + inst.canonical_spec() + '\n' +
                          pal_canonical + '\n' + req.algo + '\n' +
                          std::to_string(req.seed) + '\n' +
                          std::to_string(req.threads) + '\n' +
                          (req.want_stats ? '1' : '0');
  CachedResult out;
  if (st.results->get(key, &out)) {
    *result_hit = true;
    return out;
  }
  *result_hit = false;

  Deadline deadline;
  ExecContext exec = st.exec.with_budget(req.threads);
  if (req.timeout_seconds > 0) {
    deadline = Deadline::after_seconds(req.timeout_seconds);
    exec.set_deadline(&deadline);
  }
  const bool want_stats = req.want_stats || req.op == "stats";
  cli::PipelineRun run = cli::run_pipeline(
      req.algo, inst.graph(), *palettes, exec, req.seed, want_stats);
  const VerifyResult v =
      verify_coloring(inst.graph(), *palettes, run.coloring);
  DC_CHECK(v.ok, "algo '", req.algo, "' produced an invalid coloring: ",
           v.issue);

  JsonWriter w;
  w.begin_object();
  w.key("op").value(req.op);
  w.key("graph").value(inst.canonical_spec());
  w.key("palette").value(pal_canonical);
  w.key("algo").value(req.algo);
  w.key("seed").value(req.seed);
  w.key("threads").value(req.threads);
  w.key("n").value(std::uint64_t{inst.graph().num_nodes()});
  w.key("m").value(std::uint64_t{inst.graph().num_edges()});
  w.key("rounds").value(run.rounds);
  w.key("colors_used")
      .value(std::uint64_t{cli::count_distinct_colors(run.coloring)});
  w.key("verified").value(true);
  if (req.op == "color") {
    std::ostringstream file;
    cli::write_coloring(file, run.coloring, inst.canonical_spec(),
                        pal_canonical);
    w.key("coloring_file").value(file.str());
  }
  if (!run.mpc_json.empty()) w.key("mpc").raw(run.mpc_json);
  w.end_object();
  out.result_json = w.str();
  out.stats_json = std::move(run.stats_json);
  st.results->put(key, out);
  return out;
}

std::string render_verify_result(ServerState& st, const Request& req,
                                 bool* instance_hit) {
  if (req.coloring_text.empty()) {
    cli::usage_error("\"verify\" request needs a \"coloring\" file text");
  }
  std::istringstream is(req.coloring_text);
  const cli::ColoringFile file = cli::read_coloring(is, "request coloring");
  if (file.graph_spec.empty()) {
    cli::usage_error(
        "coloring file has no '# graph:' header; the server cannot rebuild "
        "its graph");
  }
  const InstanceStore::Acquired acq =
      st.store->acquire(file.graph_spec, st.exec);
  *instance_hit = acq.hit;
  const ServeInstance& inst = *acq.instance;
  DC_CHECK(inst.graph().num_nodes() == file.coloring.color.size(),
           "graph has ", inst.graph().num_nodes(),
           " nodes but the coloring has ", file.coloring.color.size(),
           " entries");
  const bool proper_only = req.proper_only || file.palette_spec.empty();
  std::shared_ptr<const PaletteSet> palettes;
  if (!proper_only) {
    palettes = acq.instance->palettes(file.palette_spec, nullptr);
  }
  const VerifyResult v =
      cli::verify_coloring_file(inst.graph(), file, palettes.get());
  JsonWriter w;
  w.begin_object();
  w.key("op").value("verify");
  w.key("graph").value(inst.canonical_spec());
  w.key("valid").value(v.ok);
  if (!v.ok) w.key("issue").value(v.issue);
  w.key("proper_only").value(proper_only);
  w.key("n").value(std::uint64_t{inst.graph().num_nodes()});
  w.key("m").value(std::uint64_t{inst.graph().num_edges()});
  w.key("colors_used")
      .value(std::uint64_t{cli::count_distinct_colors(file.coloring)});
  w.end_object();
  return w.str();
}

std::string render_info_result(ServerState& st) {
  const InstanceStore::Counters c = st.store->counters();
  JsonWriter w;
  w.begin_object();
  w.key("op").value("info");
  w.key("threads").value(st.opts->threads);
  w.key("executors").value(st.opts->executors);
  w.key("queue_depth").value(std::uint64_t{st.opts->queue_depth});
  w.key("max_instances").value(std::uint64_t{st.opts->max_instances});
  w.key("result_cache").value(std::uint64_t{st.opts->result_cache});
  w.key("requests").value(st.requests.load());
  w.key("instances").begin_object();
  w.key("resident").value(c.resident);
  w.key("hits").value(c.hits);
  w.key("misses").value(c.misses);
  w.key("evictions").value(c.evictions);
  w.end_object();
  w.end_object();
  return w.str();
}

/// One request -> one response payload. Exceptions map to error classes
/// through cli::error_info, like the suite's cells; only this request is
/// affected.
std::string handle_payload(ServerState& st, const std::string& payload) {
  const std::uint64_t seq = st.requests.fetch_add(1) + 1;
  WallTimer timer;
  std::string op = "?";
  std::string log_status = "ok";
  std::string log_class;
  bool instance_hit = false;
  bool result_hit = false;
  std::string response;
  try {
    const Request req = parse_request(payload);
    op = req.op;
    // Ops that touch an instance also report per-run noise in "transient".
    const bool transient =
        req.op == "color" || req.op == "stats" || req.op == "verify";
    CachedResult r;
    if (req.op == "ping" || req.op == "shutdown") {
      if (req.op == "shutdown") st.request_stop();
      JsonWriter w;
      w.begin_object();
      w.key("op").value(req.op);
      w.end_object();
      r.result_json = w.str();
    } else if (req.op == "info") {
      r.result_json = render_info_result(st);
    } else if (req.op == "color" || req.op == "stats") {
      r = run_color(st, req, &instance_hit, &result_hit);
    } else if (req.op == "verify") {
      r.result_json = render_verify_result(st, req, &instance_hit);
    } else {
      cli::usage_error("unknown op '" + req.op + "'");
    }
    JsonWriter w;
    w.begin_object();
    w.key("ok").value(true);
    w.key("result").raw(r.result_json);
    if (!r.stats_json.empty()) w.key("stats").raw(r.stats_json);
    if (transient) {
      w.key("transient").begin_object();
      w.key("wall_seconds").value(timer.seconds());
      w.key("instance_hit").value(instance_hit);
      if (req.op != "verify") w.key("result_hit").value(result_hit);
      w.end_object();
    }
    w.end_object();
    response = w.str();
  } catch (...) {
    const cli::ErrorInfo e = cli::error_info(std::current_exception());
    log_status = "error";
    log_class = e.error_class;
    response = render_error(e.error_class, e.message);
  }
  {
    JsonWriter w;
    w.begin_object();
    w.key("seq").value(seq);
    w.key("op").value(op);
    w.key("status").value(log_status);
    if (!log_class.empty()) w.key("error_class").value(log_class);
    w.key("wall_seconds").value(timer.seconds());
    w.key("instance_hit").value(instance_hit);
    w.key("result_hit").value(result_hit);
    w.end_object();
    st.log->line(w.str());
  }
  return response;
}

/// Serve one accepted connection: frames in, frames out, until the peer
/// closes. A failed read or write affects only this connection.
void handle_connection(ServerState& st, int fd) {
  for (;;) {
    std::string payload;
    std::string error;
    const FrameStatus status = read_frame(fd, &payload, &error);
    if (status == FrameStatus::kEof) break;
    if (status == FrameStatus::kError) {
      // Best effort: the peer may still be able to read the diagnostic.
      write_frame(fd, render_error("protocol", error), nullptr);
      break;
    }
    std::string response;
    try {
      DC_FAILPOINT("serve.request.read");
      response = handle_payload(st, payload);
      DC_FAILPOINT("serve.response.write");
    } catch (const std::bad_alloc&) {
      response = render_error("oom", "allocation failure");
    } catch (const std::exception& e) {
      // Failpoint io/check/timeout actions land here: the request dies with
      // a clean error frame, the connection and server live on.
      response = render_error("io", e.what());
    }
    if (!write_frame(fd, response, &error)) break;
    if (st.stop.load()) break;
  }
  ::close(fd);
}

void executor_loop(ServerState& st) {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(st.mu);
      st.cv.wait(lock, [&] { return !st.queue.empty() || st.draining; });
      if (st.queue.empty()) return;  // draining and nothing left
      fd = st.queue.front();
      st.queue.pop_front();
    }
    handle_connection(st, fd);
  }
}

int make_unix_listener(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    *error = path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int make_tcp_listener(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, always
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    *error = "tcp 127.0.0.1:" + std::to_string(port) + ": " +
             std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

int run_server(const ServeOptions& opts) {
  DC_CHECK(!opts.listen_path.empty(), "serve needs --listen=PATH");

  // A client that disappears mid-response must surface as EPIPE on our
  // write, never as a process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "detcol serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  ::fcntl(g_signal_pipe[1], F_SETFL, O_NONBLOCK);
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::string error;
  const int unix_fd = make_unix_listener(opts.listen_path, &error);
  if (unix_fd < 0) {
    std::fprintf(stderr, "detcol serve: %s\n", error.c_str());
    return 1;
  }
  int tcp_fd = -1;
  if (opts.tcp_port >= 0) {
    tcp_fd = make_tcp_listener(opts.tcp_port, &error);
    if (tcp_fd < 0) {
      std::fprintf(stderr, "detcol serve: %s\n", error.c_str());
      ::close(unix_fd);
      ::unlink(opts.listen_path.c_str());
      return 1;
    }
  }

  RequestLog log;
  if (!opts.log_path.empty() && !log.open(opts.log_path, &error)) {
    std::fprintf(stderr, "detcol serve: --log: %s\n", error.c_str());
    ::close(unix_fd);
    if (tcp_fd >= 0) ::close(tcp_fd);
    ::unlink(opts.listen_path.c_str());
    return 1;
  }

  const ExecHolder holder = make_exec_holder(opts.threads);
  InstanceStore store(opts.max_instances);
  ResultCache results(opts.result_cache);
  ServerState st;
  st.opts = &opts;
  st.exec = holder.exec;
  st.store = &store;
  st.results = &results;
  st.log = &log;

  std::vector<std::thread> executors;
  const unsigned num_exec = opts.executors == 0 ? 1 : opts.executors;
  executors.reserve(num_exec);
  for (unsigned i = 0; i < num_exec; ++i) {
    executors.emplace_back([&st] { executor_loop(st); });
  }

  if (!opts.quiet) {
    const std::string tcp_note =
        tcp_fd >= 0 ? " and tcp 127.0.0.1:" + std::to_string(opts.tcp_port)
                    : "";
    std::fprintf(stderr,
                 "detcol serve: listening on %s%s (threads=%u executors=%u "
                 "instances=%zu)\n",
                 opts.listen_path.c_str(), tcp_note.c_str(), opts.threads,
                 num_exec, opts.max_instances);
  }

  // Accept loop: poll the listeners plus the signal self-pipe.
  while (!st.stop.load()) {
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = {g_signal_pipe[0], POLLIN, 0};
    fds[nfds++] = {unix_fd, POLLIN, 0};
    if (tcp_fd >= 0) fds[nfds++] = {tcp_fd, POLLIN, 0};
    const int ready = ::poll(fds, nfds, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "detcol serve: poll: %s\n", std::strerror(errno));
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // SIGTERM/SIGINT/shutdown op
    for (nfds_t i = 1; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      int conn = -1;
      try {
        DC_FAILPOINT("serve.accept");
        conn = ::accept(fds[i].fd, nullptr, nullptr);
      } catch (const std::exception& e) {
        // An injected accept failure drops this one connection attempt; the
        // next poll iteration accepts again.
        log.line(std::string("{\"event\":\"accept_error\",\"message\":\"") +
                 JsonWriter::escape(e.what()) + "\"}");
        continue;
      }
      if (conn < 0) continue;
      std::unique_lock<std::mutex> lock(st.mu);
      if (st.queue.size() >= opts.queue_depth) {
        lock.unlock();
        write_frame(conn,
                    render_error("overloaded", "admission queue is full"),
                    nullptr);
        ::close(conn);
        continue;
      }
      st.queue.push_back(conn);
      lock.unlock();
      st.cv.notify_one();
    }
  }

  // Graceful drain: stop accepting, serve everything already admitted,
  // then write the final log line.
  ::close(unix_fd);
  if (tcp_fd >= 0) ::close(tcp_fd);
  ::unlink(opts.listen_path.c_str());
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.draining = true;
  }
  st.cv.notify_all();
  for (std::thread& t : executors) t.join();
  {
    JsonWriter w;
    w.begin_object();
    w.key("event").value("shutdown");
    w.key("requests").value(st.requests.load());
    w.key("drained").value(true);
    w.end_object();
    log.line(w.str());
  }
  log.close_synced();
  if (!opts.quiet) {
    std::fprintf(stderr, "detcol serve: drained %llu request(s), exiting\n",
                 static_cast<unsigned long long>(st.requests.load()));
  }
  return 0;
}

}  // namespace detcol::serve
