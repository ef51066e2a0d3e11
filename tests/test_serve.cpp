// Serving-layer unit tests: wire framing, request schema, the instance LRU
// cache, the pipeline registry, coloring-file verifier and error taxonomy
// the server shares with the CLI, and the per-request thread-budget
// reporting contract. End-to-end server tests (real subprocess + socket)
// live in test_serve_e2e.cpp.
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "cli/pipeline.hpp"
#include "cli/spec.hpp"
#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "serve/client.hpp"
#include "serve/instance_store.hpp"
#include "serve/protocol.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"
#include "util/json.hpp"

namespace detcol::serve {
namespace {

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(ServeFraming, RoundTripsPayloadBytes) {
  SocketPair sp;
  const std::string payload = "{\"op\":\"ping\",\"blob\":\"snow\"}";
  std::string error;
  ASSERT_TRUE(write_frame(sp.a, payload, &error)) << error;
  std::string got;
  ASSERT_EQ(read_frame(sp.b, &got, &error), FrameStatus::kOk) << error;
  EXPECT_EQ(got, payload);
}

TEST(ServeFraming, EmptyPayloadRoundTrips) {
  SocketPair sp;
  std::string error;
  ASSERT_TRUE(write_frame(sp.a, "", &error)) << error;
  std::string got;
  ASSERT_EQ(read_frame(sp.b, &got, &error), FrameStatus::kOk) << error;
  EXPECT_EQ(got, "");
}

TEST(ServeFraming, CleanCloseBeforeHeaderIsEof) {
  SocketPair sp;
  ::close(sp.a);
  sp.a = -1;
  std::string got, error;
  EXPECT_EQ(read_frame(sp.b, &got, &error), FrameStatus::kEof);
}

TEST(ServeFraming, CloseMidHeaderIsTornFrameError) {
  SocketPair sp;
  const char partial[3] = {'D', 'C', 'S'};
  ASSERT_EQ(::send(sp.a, partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(sp.a);
  sp.a = -1;
  std::string got, error;
  EXPECT_EQ(read_frame(sp.b, &got, &error), FrameStatus::kError);
  EXPECT_NE(error.find("torn"), std::string::npos) << error;
}

TEST(ServeFraming, CloseMidPayloadIsTornFrameError) {
  SocketPair sp;
  // Header promising 100 bytes, then only 3 delivered.
  unsigned char header[8] = {'D', 'C', 'S', '1', 100, 0, 0, 0};
  ASSERT_EQ(::send(sp.a, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::send(sp.a, "abc", 3, 0), 3);
  ::close(sp.a);
  sp.a = -1;
  std::string got, error;
  EXPECT_EQ(read_frame(sp.b, &got, &error), FrameStatus::kError);
}

TEST(ServeFraming, BadMagicIsRejected) {
  SocketPair sp;
  unsigned char header[8] = {'X', 'C', 'S', '1', 0, 0, 0, 0};
  ASSERT_EQ(::send(sp.a, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  std::string got, error;
  EXPECT_EQ(read_frame(sp.b, &got, &error), FrameStatus::kError);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(ServeFraming, OversizeLengthIsRejectedBeforeAllocation) {
  SocketPair sp;
  // Length field 0xFFFFFFFF — must be rejected from the header alone.
  unsigned char header[8] = {'D', 'C', 'S', '1', 0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(sp.a, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  std::string got, error;
  EXPECT_EQ(read_frame(sp.b, &got, &error), FrameStatus::kError);
}

// ---------------------------------------------------------------------------
// Request schema.
// ---------------------------------------------------------------------------

TEST(ServeRequest, RenderParseRoundTripsEveryField) {
  Request req;
  req.op = "color";
  req.graph_spec = "--gen=gnp --n=64 --p=0.1 --seed=1";
  req.palette_spec = "--palette=lists --color-space=4096";
  req.algo = "lowspace";
  req.seed = 7;
  req.threads = 4;
  req.want_stats = true;
  req.timeout_seconds = 2.5;
  const Request back = parse_request(render_request(req));
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.graph_spec, req.graph_spec);
  EXPECT_EQ(back.palette_spec, req.palette_spec);
  EXPECT_EQ(back.algo, req.algo);
  EXPECT_EQ(back.seed, req.seed);
  EXPECT_EQ(back.threads, req.threads);
  EXPECT_EQ(back.want_stats, req.want_stats);
  EXPECT_DOUBLE_EQ(back.timeout_seconds, req.timeout_seconds);
}

TEST(ServeRequest, VerifyFieldsRoundTrip) {
  Request req;
  req.op = "verify";
  req.coloring_text = "# graph: --gen=ring --n=4\n0\n1\n0\n1\n";
  req.proper_only = true;
  const Request back = parse_request(render_request(req));
  EXPECT_EQ(back.coloring_text, req.coloring_text);
  EXPECT_TRUE(back.proper_only);
}

TEST(ServeRequest, DefaultsOmittedFromWireAndRestored) {
  Request req;
  req.op = "ping";
  const std::string wire = render_request(req);
  // Default-valued fields stay off the wire entirely.
  EXPECT_EQ(wire.find("threads"), std::string::npos) << wire;
  EXPECT_EQ(wire.find("seed"), std::string::npos) << wire;
  const Request back = parse_request(wire);
  EXPECT_EQ(back.threads, 1u);
  EXPECT_EQ(back.seed, 1u);
  EXPECT_EQ(back.algo, "reduce");
}

TEST(ServeRequest, MalformedPayloadsThrowUsageError) {
  EXPECT_THROW(parse_request("not json"), cli::UsageError);
  EXPECT_THROW(parse_request("{}"), cli::UsageError);          // no op
  EXPECT_THROW(parse_request("{\"op\":7}"), cli::UsageError);  // wrong type
  EXPECT_THROW(parse_request("{\"op\":\"color\",\"threads\":0}"),
               cli::UsageError);
  EXPECT_THROW(parse_request("{\"op\":\"color\",\"threads\":100000}"),
               cli::UsageError);
  EXPECT_THROW(parse_request("{\"op\":\"color\",\"seed\":\"x\"}"),
               cli::UsageError);
}

TEST(ServeRequest, ErrorFrameCarriesClassAndMessage) {
  const std::string payload = render_error("timeout", "deadline \"hit\"");
  const JsonValue doc = parse_json(payload, "error frame");
  const JsonValue* ok = doc.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->bool_value);
  ASSERT_NE(doc.find("error_class"), nullptr);
  EXPECT_EQ(doc.find("error_class")->string_value, "timeout");
  EXPECT_EQ(doc.find("message")->string_value, "deadline \"hit\"");
}

TEST(ServeRequest, ParseEndpointForms) {
  const Endpoint unix_ep = parse_endpoint("/tmp/x.sock");
  EXPECT_FALSE(unix_ep.tcp);
  EXPECT_EQ(unix_ep.path_or_host, "/tmp/x.sock");
  const Endpoint tcp_ep = parse_endpoint("tcp:127.0.0.1:9000");
  EXPECT_TRUE(tcp_ep.tcp);
  EXPECT_EQ(tcp_ep.path_or_host, "127.0.0.1");
  EXPECT_EQ(tcp_ep.port, 9000);
  EXPECT_THROW(parse_endpoint(""), cli::UsageError);
  EXPECT_THROW(parse_endpoint("tcp:nohost"), cli::UsageError);
  EXPECT_THROW(parse_endpoint("tcp:127.0.0.1:notaport"), cli::UsageError);
  EXPECT_THROW(parse_endpoint("tcp:127.0.0.1:99999"), cli::UsageError);
}

// ---------------------------------------------------------------------------
// InstanceStore.
// ---------------------------------------------------------------------------

TEST(InstanceStore, RawSpecAliasHitsAfterFirstBuild) {
  InstanceStore store(4);
  const auto first = store.acquire("--gen=gnp --n=60 --p=0.1", {});
  EXPECT_FALSE(first.hit);
  const auto second = store.acquire("--gen=gnp --n=60 --p=0.1", {});
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.instance.get(), second.instance.get());
}

TEST(InstanceStore, CanonicalSpellingResolvesToTheSameInstance) {
  InstanceStore store(4);
  const auto raw = store.acquire("--n=60 --p=0.1", {});  // gen/seed defaulted
  // The canonical spec build_graph produced for it is also registered.
  const auto canonical = store.acquire(raw.instance->canonical_spec(), {});
  EXPECT_TRUE(canonical.hit);
  EXPECT_EQ(raw.instance.get(), canonical.instance.get());
  EXPECT_EQ(store.counters().resident, 1u);
}

TEST(InstanceStore, ChecksumDedupsDifferentSpecsOfTheSameGraph) {
  InstanceStore store(4);
  // A 3-node ring and K3 are the same labeled graph from different specs.
  const auto ring = store.acquire("--gen=ring --n=3", {});
  const auto complete = store.acquire("--gen=complete --n=3", {});
  EXPECT_FALSE(ring.hit);
  EXPECT_TRUE(complete.hit);
  EXPECT_EQ(ring.instance.get(), complete.instance.get());
  EXPECT_EQ(store.counters().resident, 1u);
}

TEST(InstanceStore, LruEvictsTheOldestInstance) {
  InstanceStore store(2);
  store.acquire("--gen=ring --n=10", {});
  store.acquire("--gen=ring --n=11", {});
  store.acquire("--gen=ring --n=10", {});  // touch: 10 is now most recent
  store.acquire("--gen=ring --n=12", {});  // evicts 11
  EXPECT_EQ(store.counters().evictions, 1u);
  EXPECT_EQ(store.counters().resident, 2u);
  EXPECT_TRUE(store.acquire("--gen=ring --n=10", {}).hit);
  EXPECT_FALSE(store.acquire("--gen=ring --n=11", {}).hit);  // rebuilt
}

TEST(InstanceStore, EvictionIsSafeUnderAnOutstandingHandle) {
  InstanceStore store(1);
  const auto held = store.acquire("--gen=ring --n=20", {});
  store.acquire("--gen=ring --n=21", {});  // evicts n=20 from residency
  // The held instance stays fully usable.
  EXPECT_EQ(held.instance->graph().num_nodes(), 20u);
  const auto palettes = held.instance->palettes("", nullptr);
  EXPECT_EQ(palettes->num_nodes(), 20u);
}

TEST(InstanceStore, MalformedSpecThrowsWithoutPoisoningTheStore) {
  InstanceStore store(4);
  EXPECT_THROW(store.acquire("--gen=nosuch --n=10", {}), cli::UsageError);
  EXPECT_THROW(store.acquire("--n=banana", {}), cli::UsageError);
  const auto ok = store.acquire("--gen=ring --n=8", {});
  EXPECT_EQ(ok.instance->graph().num_nodes(), 8u);
  EXPECT_EQ(store.counters().resident, 1u);
}

TEST(ServeInstance, PaletteCacheAliasesRawSpellings) {
  InstanceStore store(2);
  const auto acq = store.acquire("--gen=gnp --n=40 --p=0.2", {});
  std::string canon_a, canon_b;
  const auto a = acq.instance->palettes("", &canon_a);
  const auto b = acq.instance->palettes("--palette=delta1", &canon_b);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(canon_a, canon_b);
  const auto c = acq.instance->palettes(
      "--palette=lists --color-space=4096 --palette-seed=3", nullptr);
  EXPECT_NE(a.get(), c.get());
}

// ---------------------------------------------------------------------------
// The pipeline registry and the error taxonomy every entry point shares.
// ---------------------------------------------------------------------------

TEST(PipelineRegistry, EveryRowColorsValidlyAndStatsFollowHasStats) {
  const cli::GraphSource src = cli::build_graph(
      cli::parse_spec("--gen=gnp --n=200 --p=0.05 --seed=4"),
      /*allow_algo_seed=*/false);
  const cli::PaletteSource pal =
      cli::build_palettes(cli::parse_spec(""), src.graph);
  const std::vector<std::string> names = {"reduce", "randreduce", "lowspace",
                                          "mis",    "trial",      "greedy"};
  for (const std::string& name : names) {
    const cli::PipelineInfo* row = cli::find_pipeline(name);
    ASSERT_NE(row, nullptr) << name;
    EXPECT_EQ(row->name, name);
    const cli::PipelineRun run = cli::run_pipeline(
        name, src.graph, pal.palettes, {}, /*seed=*/3, /*want_stats=*/true);
    EXPECT_TRUE(verify_coloring(src.graph, pal.palettes, run.coloring).ok)
        << name;
    EXPECT_EQ(!run.stats_json.empty(), row->has_stats) << name;
  }
  // The registry holds exactly these rows, in this order.
  EXPECT_EQ(cli::pipeline_names(),
            "reduce, randreduce, lowspace, mis, trial or greedy");
  EXPECT_EQ(cli::pipeline_names(&cli::PipelineInfo::has_stats),
            "reduce, randreduce, lowspace or mis");
  EXPECT_EQ(cli::pipeline_names(&cli::PipelineInfo::threaded),
            "reduce, randreduce, lowspace, mis or trial");
  EXPECT_EQ(cli::pipeline_names(&cli::PipelineInfo::uses_seed),
            "randreduce or trial");
}

TEST(PipelineRegistry, UnknownNameIsAUsageError) {
  EXPECT_EQ(cli::find_pipeline("bogus"), nullptr);
  EXPECT_EQ(cli::find_pipeline("colorreduce"), nullptr);  // suite-only alias
  const Graph g = cli::build_graph(cli::parse_spec("--gen=ring --n=8"),
                                   /*allow_algo_seed=*/false)
                      .graph;
  const PaletteSet palettes = PaletteSet::delta_plus_one(g);
  EXPECT_THROW(cli::run_pipeline("bogus", g, palettes, {}, 1, false),
               cli::UsageError);
}

TEST(VerifyColoringFile, ProperOnlyAlsoRequiresEveryNodeColored) {
  // The check `detcol verify` and the server's verify op share.
  const Graph g = cli::build_graph(cli::parse_spec("--gen=ring --n=4"),
                                   /*allow_algo_seed=*/false)
                      .graph;
  cli::ColoringFile file;
  file.coloring = Coloring(4);
  file.coloring.color = {0, 1, 0, Coloring::kUncolored};
  const VerifyResult partial = cli::verify_coloring_file(g, file, nullptr);
  EXPECT_FALSE(partial.ok);
  EXPECT_EQ(partial.issue, "coloring is incomplete (3 of 4 nodes colored)");
  // Proper and complete passes proper-only; with palettes, color 5 lies
  // outside ring's [Δ+1] = [0, 3).
  file.coloring.color[3] = 5;
  EXPECT_TRUE(cli::verify_coloring_file(g, file, nullptr).ok);
  const PaletteSet palettes = PaletteSet::delta_plus_one(g);
  EXPECT_FALSE(cli::verify_coloring_file(g, file, &palettes).ok);
  file.coloring.color[3] = 1;
  EXPECT_TRUE(cli::verify_coloring_file(g, file, &palettes).ok);
}

TEST(ErrorTaxonomy, ErrorInfoMapsEachExceptionToItsClass) {
  const auto info = [](auto&& exception) {
    return cli::error_info(std::make_exception_ptr(exception));
  };
  const struct {
    cli::ErrorInfo got;
    const char* error_class;
    const char* message;
  } cases[] = {
      {info(cli::UsageError("bad flag")), "usage", "bad flag"},
      {info(DeadlineExceeded("too slow")), "timeout", "too slow"},
      {info(CheckError("bad data")), "check", "bad data"},
      {info(std::bad_alloc()), "oom", "allocation failure"},
      {info(std::runtime_error("other")), "internal", "other"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.got.error_class, c.error_class) << c.message;
    EXPECT_EQ(c.got.message, c.message);
  }
  const std::system_error io(std::make_error_code(std::errc::io_error),
                             "disk");
  const cli::ErrorInfo got = info(io);
  EXPECT_EQ(got.error_class, "io");
  EXPECT_EQ(got.message, io.what());
}

TEST(ServeBudget, BudgetIsReportedVerbatimEvenAbovePoolWidth) {
  // A server with few workers must still *report* the request's thread
  // budget (the stats document records it), while execution is capped by
  // the pool — unobservable by determinism.
  const ExecHolder holder = make_exec_holder(2);
  EXPECT_EQ(holder.exec.num_threads(), 2u);
  const ExecContext over = holder.exec.with_budget(7);
  EXPECT_EQ(over.num_threads(), 7u);
  EXPECT_FALSE(over.budgeted());  // no narrowing: budget >= pool width
  const ExecContext under = holder.exec.with_budget(1);
  EXPECT_EQ(under.num_threads(), 1u);
  EXPECT_TRUE(under.budgeted());
}

}  // namespace
}  // namespace detcol::serve
