#include "core/classify.hpp"

#include "util/check.hpp"
#include "util/math.hpp"

namespace detcol {

namespace classify_detail {
namespace {

// Good-bin capacity: fewer than kBinCapCoeff * n_G / b + n^kBinCapExp.
constexpr double kBinCapCoeff = 2.0;
constexpr double kBinCapExp = 0.6;

}  // namespace

NodeSlack::NodeSlack(double ell)
    : deg(fpow(ell, kDegSlackExp)), pal(fpow(ell, kPalSlackExp)) {}

double bin_capacity(std::uint64_t n, std::uint64_t b, std::uint64_t n_orig) {
  return kBinCapCoeff * static_cast<double>(n) / static_cast<double>(b) +
         fpow(static_cast<double>(n_orig), kBinCapExp);
}

void fill_deg_in_bin(const Graph& g, std::span<const std::uint32_t> raw_bin,
                     std::vector<std::uint32_t>& deg_in_bin,
                     ExecContext exec) {
  const NodeId n = g.num_nodes();
  deg_in_bin.resize(n);  // every slot is overwritten by its shard below
  parallel_for_shards(exec, n, [&](std::size_t, std::size_t begin,
                                   std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      std::uint32_t d = 0;
      for (const NodeId u : g.neighbors(v)) {
        if (raw_bin[u] == raw_bin[v]) ++d;
      }
      deg_in_bin[v] = d;
    }
  });
}

void finish(const Instance& inst, const PaletteSet& palettes,
            std::uint64_t n_orig, ClassifyScratch& scratch,
            ExecContext exec) {
  const Graph& g = inst.graph;
  const NodeId n = g.num_nodes();
  Classification& out = scratch.cls;
  const std::uint64_t b = out.num_bins;
  const std::vector<std::uint32_t>& raw_bin = scratch.raw_bin;

  out.bin_of.resize(n);  // every slot is written by its shard below
  out.bin_sizes.assign(b, 0);
  out.num_bad_nodes = 0;
  out.num_bad_bins = 0;
  out.reclassified = 0;
  out.bad_graph_words = 0;

  // Definition 3.1 node goodness (node_verdict). Every node's decision is
  // independent of every other's, so the pass shards over exec: each shard
  // writes its own bin_of slots and accumulates into its own
  // ClassifyScratch::FinishShard, folded below in shard order.
  const NodeSlack slack(inst.ell);
  scratch.finish_shards.resize(shard_count(n));
  parallel_for_shards(exec, n, [&](std::size_t s, std::size_t begin,
                                   std::size_t end) {
    ClassifyScratch::FinishShard& part = scratch.finish_shards[s];
    part.num_bad_nodes = 0;
    part.reclassified = 0;
    part.bad_graph_words = 0;
    part.bin_sizes.assign(b, 0);
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      const NodeVerdict verdict = node_verdict(
          slack, b, raw_bin[v], static_cast<double>(g.degree(v)),
          static_cast<double>(out.deg_in_bin[v]), palettes, inst.orig[v],
          [&] { return out.pal_in_bin[v]; });
      if (verdict == NodeVerdict::kReclassified) ++part.reclassified;
      if (verdict == NodeVerdict::kGood) {
        out.bin_of[v] = raw_bin[v];
        ++part.bin_sizes[raw_bin[v] - 1];
      } else {
        out.bin_of[v] = 0;
        ++part.num_bad_nodes;
        part.bad_graph_words += 1 + g.degree(v);
      }
    }
  });
  for (const ClassifyScratch::FinishShard& part : scratch.finish_shards) {
    out.num_bad_nodes += part.num_bad_nodes;
    out.reclassified += part.reclassified;
    out.bad_graph_words += part.bad_graph_words;
    for (std::uint64_t i = 0; i < b; ++i) {
      out.bin_sizes[i] += part.bin_sizes[i];
    }
  }

  const double cap = bin_capacity(n, b, n_orig);
  for (std::uint64_t i = 0; i < b; ++i) {
    if (static_cast<double>(out.bin_sizes[i]) >= cap) ++out.num_bad_bins;
  }

  const double nw = static_cast<double>(n_orig);
  out.cost_q = static_cast<double>(out.num_bad_nodes) +
               nw * static_cast<double>(out.num_bad_bins);
  out.cost_size = static_cast<double>(out.bad_graph_words) +
                  nw * static_cast<double>(out.num_bad_bins);
}

}  // namespace classify_detail

const Classification& classify(const Instance& inst, const PaletteSet& palettes,
                               const KWiseHash& h1, const KWiseHash& h2,
                               std::uint64_t n_orig,
                               const PartitionParams& params,
                               ClassifyScratch& scratch) {
  const NodeId n = inst.graph.num_nodes();
  Classification& out = scratch.cls;
  out.num_bins = num_bins(inst.ell, params);
  const std::uint64_t b = out.num_bins;
  DC_CHECK(h1.range() == b, "h1 range mismatch");
  DC_CHECK(h2.range() == b - 1, "h2 range mismatch");

  // Raw bin assignment: h1 over *original* ids (the paper's domain [N]),
  // as one bulk pass through the active field kernel.
  scratch.raw_bin.resize(n);
  const std::vector<std::uint64_t> pts(inst.orig.begin(), inst.orig.end());
  h1.eval_bins_many(pts, scratch.raw_bin, /*offset=*/1);

  // p'(v) for color-bin nodes: palette colors h2 sends to the node's bin.
  out.pal_in_bin.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (scratch.raw_bin[v] == b) continue;  // last bin receives no colors
    std::uint64_t p = 0;
    for (const Color c : palettes.palette(inst.orig[v])) {
      if (h2(c) + 1 == scratch.raw_bin[v]) ++p;
    }
    out.pal_in_bin[v] = p;
  }

  classify_detail::fill_deg_in_bin(inst.graph, scratch.raw_bin,
                                   out.deg_in_bin);
  classify_detail::finish(inst, palettes, n_orig, scratch);
  return out;
}

Classification classify(const Instance& inst, const PaletteSet& palettes,
                        const KWiseHash& h1, const KWiseHash& h2,
                        std::uint64_t n_orig, const PartitionParams& params) {
  ClassifyScratch scratch;
  return classify(inst, palettes, h1, h2, n_orig, params, scratch);
}

}  // namespace detcol
