// Experiment F2 (Section 2.4): seed-evaluation throughput of the two seed
// engines on the sampled-MCE candidate stream. The properties of the seed
// search itself are asserted by tests (Partition.RandomSeedsMeetAcceptance,
// SelectSeedEquivalence, MceExact).
// Part F2d: the naive classify() backend vs the batched SeedEvalEngine,
// written machine-readable to BENCH_seed_eval.json (see README). Flags:
// --eval-n, --eval-deg, --eval-evals, --json=PATH (empty path skips the
// file).
// Part F2f: the low-space layer's seed search — naive per-candidate violator
// recomputation vs the batched LowSpaceSeedEngine on the same stream;
// written to BENCH_lowspace.json. Flags: --ls-n, --ls-deg, --ls-evals,
// --lowspace-json=PATH.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>
#include <vector>

#include "core/classify.hpp"
#include "core/partition.hpp"
#include "core/seed_eval.hpp"
#include "graph/generators.hpp"
#include "lowspace/seed_engine.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace detcol;

namespace {

struct StreamResult {
  std::uint64_t evals = 0;
  double seconds = 0.0;
  double checksum = 0.0;  // sum of costs: keeps the work observable
};

/// Drive `cost` through the sampled-MCE candidate stream (chunk flips with
/// common deterministic suffix completions — the exact access pattern of
/// run_mce_sampled), visiting every chunk position but capping candidates
/// per chunk so the eval budget spans the whole seed: chunks early in the
/// seed change many coefficients per eval, chunks in the h2 half change
/// none of h1's, and a run that never leaves chunk 0 would misrepresent
/// full-search throughput.
StreamResult drive_mce_stream(unsigned num_bits, SeedCostFn cost,
                              const SeedSelectConfig& cfg,
                              std::uint64_t max_evals,
                              std::uint64_t cands_per_chunk,
                              std::uint64_t salt) {
  StreamResult r;
  SeedBits prefix(num_bits);
  SeedBits completion(num_bits);
  WallTimer t;
  unsigned fixed = 0;
  while (fixed < num_bits && r.evals < max_evals) {
    const unsigned count = std::min(cfg.chunk_bits, num_bits - fixed);
    const std::uint64_t candidates =
        std::min(std::uint64_t{1} << count, cands_per_chunk);
    double best_est = 0.0;
    std::uint64_t best_value = 0;
    bool have_best = false;
    for (std::uint64_t v = 0; v < candidates && r.evals < max_evals; ++v) {
      prefix.set_bits(fixed, count, v);
      double est = 0.0;
      const bool last_chunk = fixed + count >= num_bits;
      const unsigned samples = last_chunk ? 1 : cfg.mce_samples;
      for (unsigned s = 0; s < samples && r.evals < max_evals; ++s) {
        completion = prefix;
        if (!last_chunk) {
          completion.fill_suffix(fixed + count, salt ^ (fixed * 0x9E37ULL), s);
        }
        const double c = cost(completion);
        est += c;
        r.checksum += c;
        ++r.evals;
      }
      if (!have_best || est < best_est) {
        best_est = est;
        best_value = v;
        have_best = true;
      }
    }
    prefix.set_bits(fixed, count, best_value);
    fixed += count;
  }
  r.seconds = t.seconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const NodeId eval_n = static_cast<NodeId>(args.get_uint("eval-n", 1 << 14));
  const NodeId eval_deg = static_cast<NodeId>(args.get_uint("eval-deg", 32));
  const std::uint64_t eval_evals = args.get_uint("eval-evals", 512);
  const std::string json_path =
      args.get_string("json", "BENCH_seed_eval.json");
  const PartitionParams params;

  // Part F2d: seed-evaluation throughput, naive classify() vs SeedEvalEngine
  // on the sampled-MCE candidate stream (uniform [Δ+1] palettes).
  {
    const Graph ge = gen_random_regular(eval_n, eval_deg, 11);
    const PaletteSet pale = PaletteSet::delta_plus_one(ge);
    Instance ie;
    ie.orig.resize(eval_n);
    std::iota(ie.orig.begin(), ie.orig.end(), NodeId{0});
    ie.graph = ge;
    ie.ell = static_cast<double>(ge.max_degree());
    const std::uint64_t be = num_bins(ie.ell, params);
    const unsigned ce = params.independence;
    const unsigned bits_e = 2 * KWiseHash::seed_bits(ce);
    SeedSelectConfig stream_cfg;  // sampled-MCE defaults: 8-bit chunks, 4 samples

    const auto naive_cost = [&](const SeedBits& s) {
      const auto [h1, h2] = seed_hash_pair(s, ce, be);
      return classify(ie, pale, h1, h2, eval_n, params).cost_size;
    };
    SeedEvalEngine engine(ie, pale, eval_n, params);
    const auto engine_cost = [&engine](const SeedBits& s) {
      return engine.cost_size(s);
    };

    // Spread the eval budget across every chunk position of the seed.
    const std::uint64_t chunks =
        (bits_e + stream_cfg.chunk_bits - 1) / stream_cfg.chunk_bits;
    const std::uint64_t cands_per_chunk = std::max<std::uint64_t>(
        1, eval_evals / (chunks * stream_cfg.mce_samples));
    // Warm both backends (page in power tables / palettes) before timing.
    drive_mce_stream(bits_e, naive_cost, stream_cfg, 2, 1, 0xF4);
    drive_mce_stream(bits_e, engine_cost, stream_cfg, 2, 1, 0xF4);
    const StreamResult rn = drive_mce_stream(bits_e, naive_cost, stream_cfg,
                                             eval_evals, cands_per_chunk, 0xF4);
    const StreamResult re = drive_mce_stream(bits_e, engine_cost, stream_cfg,
                                             eval_evals, cands_per_chunk, 0xF4);
    DC_CHECK(rn.evals == re.evals && rn.checksum == re.checksum,
             "backends diverged: the engine must be bit-identical");
    const double naive_eps = static_cast<double>(rn.evals) / rn.seconds;
    const double engine_eps = static_cast<double>(re.evals) / re.seconds;
    const double speedup = engine_eps / naive_eps;

    Table t4({"backend", "evals", "evals/sec", "ns/eval"});
    t4.row().cell("naive classify").cell(rn.evals).cell(naive_eps, 0).cell(
        1e9 * rn.seconds / static_cast<double>(rn.evals), 0);
    t4.row().cell("SeedEvalEngine").cell(re.evals).cell(engine_eps, 0).cell(
        1e9 * re.seconds / static_cast<double>(re.evals), 0);
    t4.print("F2d — seed-evaluation throughput (sampled-MCE stream, n=" +
             std::to_string(eval_n) + ")");
    std::printf("engine speedup: %.1fx\n", speedup);

    if (!json_path.empty()) {
      JsonWriter w;
      w.begin_object();
      w.key("bench").value("seed_eval");
      w.key("n").value(std::uint64_t{eval_n});
      w.key("max_degree").value(std::uint64_t{ge.max_degree()});
      w.key("num_bins").value(be);
      w.key("independence").value(ce);
      w.key("seed_bits").value(bits_e);
      w.key("chunk_bits").value(stream_cfg.chunk_bits);
      w.key("mce_samples").value(stream_cfg.mce_samples);
      w.key("evals").value(rn.evals);
      w.key("host_cpus")
          .value(std::uint64_t{std::thread::hardware_concurrency()});
      w.key("naive").begin_object();
      w.key("seconds").value(rn.seconds);
      w.key("evals_per_sec").value(naive_eps);
      w.key("ns_per_eval").value(1e9 * rn.seconds /
                                 static_cast<double>(rn.evals));
      w.end_object();
      w.key("engine").begin_object();
      w.key("seconds").value(re.seconds);
      w.key("evals_per_sec").value(engine_eps);
      w.key("ns_per_eval").value(1e9 * re.seconds /
                                 static_cast<double>(re.evals));
      w.end_object();
      w.key("speedup").value(speedup);
      w.end_object();
      std::ofstream out(json_path);
      out << w.str() << "\n";
      std::printf("wrote %s\n", json_path.c_str());
    }
  }

  // Part F2f: the low-space layer's seed search. Same MCE candidate
  // stream as F2d, driven through the Algorithm 4 violator count — naive
  // full recomputation per candidate vs the batched LowSpaceSeedEngine.
  {
    const NodeId ln = static_cast<NodeId>(args.get_uint("ls-n", 1u << 14));
    const NodeId ldeg = static_cast<NodeId>(args.get_uint("ls-deg", 32));
    const std::uint64_t ls_evals = args.get_uint("ls-evals", 512);
    const std::string ljson =
        args.get_string("lowspace-json", "BENCH_lowspace.json");

    const Graph gl = gen_random_regular(ln, ldeg, 11);
    const PaletteSet pall = PaletteSet::delta_plus_one(gl);
    std::vector<NodeId> orig(ln);
    std::iota(orig.begin(), orig.end(), NodeId{0});
    const std::uint64_t bl = std::max<std::uint64_t>(
        2, ipow_floor(static_cast<double>(ln), 0.25));
    const unsigned cl = 4;
    const double slack_exp = 0.6;
    const unsigned bits_l = 2 * KWiseHash::seed_bits(cl);
    SeedSelectConfig stream_cfg;  // sampled-MCE defaults

    // The naive cost exactly as the pre-engine low_space.cpp computed it
    // (the reference oracle the engine's tests diff against).
    const auto naive_cost = [&](const SeedBits& s) {
      const KWiseHash h1(s.word_range(0, cl), bl);
      const KWiseHash h2(s.word_range(cl, cl), bl - 1);
      return static_cast<double>(lowspace_naive_violations(
          gl, orig, pall, bl, slack_exp, h1, h2));
    };
    LowSpaceSeedEngine lengine(gl, orig, pall, bl, cl, slack_exp);
    const auto engine_cost = [&lengine](const SeedBits& s) {
      return lengine.cost(s);
    };

    const std::uint64_t chunks =
        (bits_l + stream_cfg.chunk_bits - 1) / stream_cfg.chunk_bits;
    const std::uint64_t cands_per_chunk = std::max<std::uint64_t>(
        1, ls_evals / (chunks * stream_cfg.mce_samples));
    drive_mce_stream(bits_l, naive_cost, stream_cfg, 2, 1, 0xF5);
    drive_mce_stream(bits_l, engine_cost, stream_cfg, 2, 1, 0xF5);
    const StreamResult rn = drive_mce_stream(bits_l, naive_cost, stream_cfg,
                                             ls_evals, cands_per_chunk, 0xF5);
    const StreamResult re = drive_mce_stream(bits_l, engine_cost, stream_cfg,
                                             ls_evals, cands_per_chunk, 0xF5);
    DC_CHECK(rn.evals == re.evals && rn.checksum == re.checksum,
             "backends diverged: the engine must be bit-identical");
    const double naive_eps = static_cast<double>(rn.evals) / rn.seconds;
    const double engine_eps = static_cast<double>(re.evals) / re.seconds;
    const double speedup = engine_eps / naive_eps;

    Table t6({"backend", "evals", "evals/sec", "ns/eval"});
    t6.row().cell("naive violations").cell(rn.evals).cell(naive_eps, 0).cell(
        1e9 * rn.seconds / static_cast<double>(rn.evals), 0);
    t6.row().cell("LowSpaceSeedEngine").cell(re.evals).cell(engine_eps, 0)
        .cell(1e9 * re.seconds / static_cast<double>(re.evals), 0);
    t6.print("F2f — low-space seed-evaluation throughput (n=" +
             std::to_string(ln) + ", b=" + std::to_string(bl) + ")");
    std::printf("lowspace engine speedup: %.1fx\n", speedup);

    if (!ljson.empty()) {
      JsonWriter w;
      w.begin_object();
      w.key("bench").value("lowspace_seed_eval");
      w.key("n").value(std::uint64_t{ln});
      w.key("max_degree").value(std::uint64_t{gl.max_degree()});
      w.key("num_bins").value(bl);
      w.key("independence").value(cl);
      w.key("seed_bits").value(bits_l);
      w.key("chunk_bits").value(stream_cfg.chunk_bits);
      w.key("mce_samples").value(stream_cfg.mce_samples);
      w.key("evals").value(rn.evals);
      w.key("host_cpus")
          .value(std::uint64_t{std::thread::hardware_concurrency()});
      w.key("naive").begin_object();
      w.key("seconds").value(rn.seconds);
      w.key("evals_per_sec").value(naive_eps);
      w.key("ns_per_eval").value(1e9 * rn.seconds /
                                 static_cast<double>(rn.evals));
      w.end_object();
      w.key("engine").begin_object();
      w.key("seconds").value(re.seconds);
      w.key("evals_per_sec").value(engine_eps);
      w.key("ns_per_eval").value(1e9 * re.seconds /
                                 static_cast<double>(re.evals));
      w.end_object();
      w.key("speedup").value(speedup);
      w.end_object();
      std::ofstream out(ljson);
      out << w.str() << "\n";
      std::printf("wrote %s\n", ljson.c_str());
    }
  }
  return 0;
}
