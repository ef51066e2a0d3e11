// `detcol serve` — a persistent coloring service over the one-shot CLI's
// exact pipeline code (docs/ARCHITECTURE.md, "Serving layer").
//
// One process listens on a Unix-domain socket (plus an optional loopback
// TCP port), keeps an LRU-bounded InstanceStore of parsed graphs with their
// palettes resident, and executes requests concurrently on one shared
// ThreadPool — each request running under a thread *budget*
// (ExecContext::with_budget) equal to its own "threads" field, so the
// response is byte-identical to `detcol color --threads=N` regardless of
// how many workers the server actually has. Identical requests are answered
// from a bounded result cache, which the determinism contract makes sound:
// re-running the pipeline could not produce different bytes.
//
// Failure model: a request that fails — malformed frame, bad spec, pipeline
// error, injected failpoint (serve.accept / serve.request.read /
// serve.response.write / serve.instance.evict) — gets a clean error frame
// (or, when the connection itself is broken, a closed connection) and
// nothing else: the server, its residency, and every other in-flight
// request continue. SIGTERM/SIGINT drain the admission queue, answer every
// accepted request, write a final "shutdown" line to the request log, and
// exit 0.
#pragma once

#include <cstdint>
#include <string>

namespace detcol::serve {

struct ServeOptions {
  std::string listen_path;  // Unix-domain socket path (required)
  int tcp_port = -1;        // also listen on 127.0.0.1:port when >= 0
  unsigned threads = 1;     // shared ThreadPool worker count
  unsigned executors = 4;   // concurrent request executors
  std::size_t queue_depth = 16;    // admission queue bound (beyond in-flight)
  std::size_t max_instances = 8;   // InstanceStore residency bound
  std::size_t result_cache = 64;   // memoized responses; 0 disables
  std::string log_path;            // JSON-lines request log; empty = none
  bool quiet = false;
};

/// Run the server until SIGTERM/SIGINT or a "shutdown" request. Returns the
/// process exit code (0 on graceful shutdown, 1 on a startup failure).
int run_server(const ServeOptions& opts);

}  // namespace detcol::serve
