#include "core/stats_export.hpp"

#include "hashing/simd_kernels.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace detcol {
namespace {

void emit_call_stats(JsonWriter& w, const CallStats& s) {
  w.begin_object();
  w.key("depth").value(s.depth);
  w.key("n").value(s.n);
  w.key("m").value(s.m);
  w.key("max_deg").value(s.max_deg);
  w.key("ell").value(s.ell);
  w.key("collected").value(s.collected);
  if (!s.collected) {
    w.key("num_bins").value(s.num_bins);
    w.key("bad_nodes").value(s.bad_nodes);
    w.key("bad_bins").value(s.bad_bins);
    w.key("reclassified").value(s.reclassified);
    w.key("g0_words").value(s.g0_words);
    w.key("seed_evaluations").value(s.seed_evaluations);
    w.key("seed_met_threshold").value(s.seed_met_threshold);
  }
  w.key("children").begin_array();
  for (const auto& c : s.children) emit_call_stats(w, c);
  w.end_array();
  w.end_object();
}

void emit_ledger(JsonWriter& w, const RoundLedger& ledger) {
  w.begin_object();
  w.key("total_rounds").value(ledger.total_rounds());
  w.key("total_words").value(ledger.total_words());
  w.key("phases").begin_object();
  for (const auto& [name, cost] : ledger.by_phase()) {
    w.key(name).begin_object();
    w.key("rounds").value(cost.rounds);
    w.key("words").value(cost.words);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void emit_mpc_costs(JsonWriter& w, const MpcCosts& c) {
  w.begin_object();
  w.key("peak_local_words").value(c.peak_local_words);
  w.key("peak_total_words").value(c.peak_total_words);
  w.key("num_sorts").value(c.num_sorts);
  w.key("num_prefix_sums").value(c.num_prefix_sums);
  w.key("num_routes").value(c.num_routes);
  w.key("num_gathers").value(c.num_gathers);
  w.key("num_broadcasts").value(c.num_broadcasts);
  w.key("num_aggregates").value(c.num_aggregates);
  w.key("num_collects").value(c.num_collects);
  w.key("ledger");
  emit_ledger(w, c.ledger);
  w.end_object();
}

}  // namespace

std::string call_stats_to_json(const CallStats& stats) {
  JsonWriter w;
  emit_call_stats(w, stats);
  return w.str();
}

std::string ledger_to_json(const RoundLedger& ledger) {
  JsonWriter w;
  emit_ledger(w, ledger);
  return w.str();
}

std::string mpc_costs_to_json(const MpcCosts& costs) {
  JsonWriter w;
  emit_mpc_costs(w, costs);
  return w.str();
}

std::string result_to_json(const ColorReduceResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("max_depth_reached").value(result.max_depth_reached);
  w.key("num_partitions").value(result.num_partitions);
  w.key("num_collects").value(result.mpc.num_collects);
  w.key("peak_collect_words").value(result.mpc.peak_local_words);
  w.key("total_seed_evaluations").value(result.total_seed_evaluations);
  w.key("explicit_palette_words").value(result.explicit_palette_words);
  if (result.implicit_store) {
    w.key("implicit_palette_words")
        .value(result.implicit_store->space_words());
  }
  w.key("num_colored")
      .value(static_cast<std::uint64_t>(result.coloring.num_colored()));
  // Host-side execution telemetry: thread count, field kernel and per-depth
  // wall-clock, so bench trajectories can attribute speedups to recursion
  // levels. "kernel" names the selected field kernel — host-dependent like
  // "timing", so cross-host bit-compares exclude both; every other block is
  // bit-identical across thread counts *and* kernels.
  w.key("threads").value(result.threads_used);
  w.key("kernel").value(active_simd_name());
  w.key("timing").begin_object();
  w.key("wall_seconds").value(result.wall_seconds);
  w.key("per_depth_seconds").begin_array();
  for (const double s : result.depth_seconds) w.value(s);
  w.end_array();
  w.end_object();
  w.key("mpc");
  emit_mpc_costs(w, result.mpc);
  w.key("ledger");
  emit_ledger(w, result.ledger);
  w.key("stats");
  emit_call_stats(w, result.root);
  w.end_object();
  return w.str();
}

std::string lowspace_result_to_json(const LowSpaceResult& result,
                                    double wall_seconds) {
  JsonWriter w;
  w.begin_object();
  w.key("depth_reached").value(result.depth_reached);
  w.key("num_partitions").value(result.num_partitions);
  w.key("num_mis_calls").value(result.num_mis_calls);
  w.key("total_mis_phases").value(result.total_mis_phases);
  w.key("seed_evaluations").value(result.seed_evaluations);
  w.key("diverted_violators").value(result.diverted_violators);
  w.key("peak_local_words").value(result.mpc.peak_local_words);
  w.key("peak_total_words").value(result.mpc.peak_total_words);
  w.key("num_colored")
      .value(static_cast<std::uint64_t>(result.coloring.num_colored()));
  w.key("kernel").value(active_simd_name());
  w.key("timing").begin_object();
  w.key("wall_seconds").value(wall_seconds);
  w.end_object();
  w.key("mpc");
  emit_mpc_costs(w, result.mpc);
  w.key("ledger");
  emit_ledger(w, result.ledger);
  w.end_object();
  return w.str();
}

std::string mis_result_to_json(const MisBaselineResult& result,
                               double wall_seconds) {
  JsonWriter w;
  w.begin_object();
  w.key("phases").value(result.phases);
  w.key("rounds").value(result.rounds);
  w.key("words").value(result.words);
  w.key("seed_evaluations").value(result.seed_evaluations);
  w.key("num_colored")
      .value(static_cast<std::uint64_t>(result.coloring.num_colored()));
  w.key("kernel").value(active_simd_name());
  w.key("timing").begin_object();
  w.key("wall_seconds").value(wall_seconds);
  w.end_object();
  w.key("mpc");
  emit_mpc_costs(w, result.mpc);
  w.end_object();
  return w.str();
}

void write_json_file(const std::string& path, const std::string& json) {
  DC_FAILPOINT("stats.write.body");
  atomic_write_file(path, json + "\n");
}

}  // namespace detcol
