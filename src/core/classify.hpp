// Good/bad classification (Definition 3.1) for a candidate hash pair.
//
// Given an instance, a pair (h1: nodes -> bins, h2: colors -> color bins) and
// the partition parameters, computes for every node its bin, its within-bin
// degree d', its within-bin palette size p' (for color bins), applies the
// paper's goodness conditions, and produces the cost values that drive seed
// selection: the paper's q (Equation 1) and the size-based acceptance cost
// (bad subgraph words) that Corollary 3.10 is really about.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"
#include "hashing/kwise.hpp"
#include "core/params.hpp"

namespace detcol {

/// A coloring (sub)instance: an induced graph over original node ids plus the
/// paper's degree proxy ell. Palettes live in the driver's global PaletteSet,
/// keyed by original id.
struct Instance {
  Graph graph;                // induced subgraph, local ids
  std::vector<NodeId> orig;   // local -> original node id
  double ell = 0.0;

  NodeId n() const { return graph.num_nodes(); }
  std::size_t size_words() const { return graph.size_words(); }
};

struct Classification {
  std::uint64_t num_bins = 0;       // b (node bins; color bins = b-1)
  std::vector<std::uint32_t> bin_of;   // per local node: 0 = bad, 1..b = bin
  std::vector<std::uint32_t> deg_in_bin;   // d'(v)
  std::vector<std::uint64_t> pal_in_bin;   // p'(v) for bins 1..b-1, else 0

  std::uint64_t num_bad_nodes = 0;
  std::uint64_t num_bad_bins = 0;
  std::uint64_t reclassified = 0;   // good-by-Def-3.1 but p' <= d' guards
  std::uint64_t bad_graph_words = 0;  // sum over bad v of (1 + d(v))
  std::vector<std::uint64_t> bin_sizes;  // good nodes per bin, index 0..b-1

  /// Paper cost (Equation 1): |bad nodes| + n * |bad bins|.
  double cost_q = 0.0;
  /// Acceptance cost: bad-subgraph words + n * |bad bins| (what must be O(n)
  /// for the collect of G0 to be legal, Corollary 3.10).
  double cost_size = 0.0;
};

/// Reusable workspace for classify(): every buffer a classification pass
/// needs, including the output itself. Owned by seed-search loops so that the
/// ~tens of thousands of evaluations behind one partition() call perform no
/// allocation after the first (vector::assign reuses capacity).
struct ClassifyScratch {
  std::vector<std::uint32_t> raw_bin;  // per local node: bin 1..b under h1
  Classification cls;

  /// Per-shard partial accumulators for the parallel goodness pass of
  /// classify_detail::finish — one slot per static node shard, reused across
  /// evaluations (the seed-search hot loop must not allocate). Totals are
  /// folded in shard-index order (all integers, so order cannot matter, but
  /// the exec layer's shard-ordered contract holds regardless).
  struct FinishShard {
    std::uint64_t num_bad_nodes = 0;
    std::uint64_t reclassified = 0;
    std::uint64_t bad_graph_words = 0;
    std::vector<std::uint64_t> bin_sizes;
  };
  std::vector<FinishShard> finish_shards;
};

/// Evaluate Definition 3.1 for the pair (h1, h2) on `inst`.
/// `n_orig` is the original graph's node count (the capital-N of the bin
/// capacity and of the cost weighting).
Classification classify(const Instance& inst, const PaletteSet& palettes,
                        const KWiseHash& h1, const KWiseHash& h2,
                        std::uint64_t n_orig, const PartitionParams& params);

/// Workspace-taking overload: identical outputs, all buffers reused from
/// `scratch`. Returns a reference to scratch.cls (valid until the next call
/// with the same scratch).
const Classification& classify(const Instance& inst, const PaletteSet& palettes,
                               const KWiseHash& h1, const KWiseHash& h2,
                               std::uint64_t n_orig,
                               const PartitionParams& params,
                               ClassifyScratch& scratch);

namespace classify_detail {

/// d'(v): neighbors hashed to the same bin. The engine computes this over a
/// narrower (cache-resident) bin array; counts are identical either way.
/// Shards over `exec` (each shard writes its own deg_in_bin slots; raw_bin
/// must be fully written before the call).
void fill_deg_in_bin(const Graph& g, std::span<const std::uint32_t> raw_bin,
                     std::vector<std::uint32_t>& deg_in_bin,
                     ExecContext exec = {});

/// Definition 3.1's slacks at degree proxy ell: the degree deviation
/// allowance ell^0.6 and the palette surplus ell^0.7.
struct NodeSlack {
  explicit NodeSlack(double ell);
  double deg;
  double pal;
};

enum class NodeVerdict { kGood, kBad, kReclassified };

/// Definition 3.1 for node `v` (its id in `palettes`): degree `d`, `dprime`
/// neighbors in its raw bin `bin` of `b`. Every node needs
/// |d' - d/b| <= ell^0.6; the expected within-bin degree share is d/b with
/// the realized bin count b <= ell^0.1, which only loosens the condition. A
/// node in a color bin (bin < b) also needs p'(v) >= p(v)/b + ell^0.7, and
/// p'(v) > d'(v) so that it stays colorable (kReclassified when only that
/// last test fails). `pprime()` counts p'(v); like p(v), it is read only
/// for a color-bin node that passed the degree test. finish() and the
/// message-level round (core/network_color.cpp) both decide through this
/// one test.
template <class PPrimeFn>
NodeVerdict node_verdict(const NodeSlack& slack, std::uint64_t b,
                         std::uint64_t bin, double d, double dprime,
                         const PaletteSet& palettes, NodeId v,
                         PPrimeFn&& pprime) {
  const double bins = static_cast<double>(b);
  if (!(std::abs(dprime - d / bins) <= slack.deg)) return NodeVerdict::kBad;
  if (bin == b) return NodeVerdict::kGood;  // the last bin gets no colors
  const double p = static_cast<double>(palettes.palette_size(v));
  const double pp = static_cast<double>(pprime());
  if (pp < p / bins + slack.pal) return NodeVerdict::kBad;
  // Belt and braces: Lemma 3.2 guarantees p' > d' at the paper's asymptotic
  // scale; at laptop scale we enforce it directly (see "Deviations from the
  // paper" in docs/ARCHITECTURE.md).
  return pp <= dprime ? NodeVerdict::kReclassified : NodeVerdict::kGood;
}

/// The good-bin capacity: a bin of an `n`-node instance split into `b` bins
/// is good with fewer than 2 * n / b + n_orig^0.6 good nodes.
double bin_capacity(std::uint64_t n, std::uint64_t b, std::uint64_t n_orig);

/// The shared tail of a classification pass: given the raw bin assignment in
/// scratch.raw_bin and d'(v) / p'(v) already filled in scratch.cls (with
/// scratch.cls.num_bins set), applies node_verdict and the good-bin
/// capacity, and fills every remaining Classification field. Both the naive
/// classify() and the batched SeedEvalEngine run through this one kernel, so
/// their goodness arithmetic cannot drift apart. The per-node pass shards
/// over `exec` into scratch.finish_shards (per-node decisions are
/// independent; the per-shard counters fold in shard order), so the output
/// is bit-identical for every thread count.
void finish(const Instance& inst, const PaletteSet& palettes,
            std::uint64_t n_orig, ClassifyScratch& scratch,
            ExecContext exec = {});

}  // namespace classify_detail

}  // namespace detcol
