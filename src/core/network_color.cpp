#include "core/network_color.hpp"

#include <algorithm>
#include <numeric>

#include "derand/distributed_mce.hpp"
#include "hashing/kwise.hpp"
#include "sim/routing.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

/// Ship `words_per_node[v]` words from every node to its coordinator and a
/// one-word reply back; returns nothing (payloads are modeled, content is
/// assembled host-side — the *accounting* is what the network enforces).
void route_collect_and_reply(cc::Network& net,
                             const std::vector<NodeId>& members,
                             const std::vector<std::uint64_t>& words_per_node,
                             std::uint32_t coordinator) {
  std::vector<cc::Packet> up, down;
  for (const NodeId v : members) {
    for (std::uint64_t w = 0; w < words_per_node[v]; ++w) {
      up.push_back({v, coordinator, w});
    }
    down.push_back({coordinator, v, 0});
  }
  cc::route_packets(net, up);
  cc::route_packets(net, down);
}

/// One announcement round: every newly colored node tells its neighbors.
void announce_colors(cc::Network& net, const Graph& g,
                     const std::vector<NodeId>& members,
                     const Coloring& coloring) {
  bool any = false;
  for (const NodeId v : members) {
    for (const NodeId u : g.neighbors(v)) {
      net.send(v, u, coloring.color[v]);
      any = true;
    }
  }
  if (any) net.deliver();
}

}  // namespace

NetworkColorResult network_color_round(const Graph& g, const PaletteSet& pal,
                                       const PartitionParams& params,
                                       unsigned chunk_bits,
                                       std::uint64_t salt, ExecContext exec) {
  const NodeId n = g.num_nodes();
  DC_CHECK(n >= 4, "network demo needs at least 4 nodes");
  for (NodeId v = 0; v < n; ++v) {
    DC_CHECK(pal.palette_size(v) > g.degree(v),
             "p(v) > d(v) violated at node ", v);
  }
  NetworkColorResult result(n);
  cc::Network net(n);

  Instance inst;
  inst.orig.resize(n);
  std::iota(inst.orig.begin(), inst.orig.end(), NodeId{0});
  inst.graph = g;
  inst.ell = std::max(1.0, static_cast<double>(g.max_degree()));

  const std::uint64_t b = num_bins(inst.ell, params);
  const unsigned c = params.independence;
  const unsigned bits = 2 * KWiseHash::seed_bits(c);
  result.num_bins = b;

  // --- 1. Seed agreement (Section 2.4 on real messages). Each node scores
  // its own Definition 3.1 badness under the candidate seed; node 0 plays
  // the designated bin-capacity checker of Lemma 3.9's implementation note
  // (it knows the public id space, so it can count bin loads — an upper
  // bound on good-node loads, which only tightens the acceptance).
  const classify_detail::NodeSlack slack(inst.ell);
  const double bin_cap = classify_detail::bin_capacity(n, b, n);

  const auto node_cost = [&](std::uint32_t v, const SeedBits& s) {
    const KWiseHash h1(s.word_range(0, c), b);
    const KWiseHash h2(s.word_range(c, c), b - 1);
    const std::uint64_t my_bin = h1(v) + 1;
    std::uint64_t dprime = 0;
    for (const NodeId u : g.neighbors(static_cast<NodeId>(v))) {
      if (h1(u) + 1 == my_bin) ++dprime;
    }
    const double d = static_cast<double>(g.degree(static_cast<NodeId>(v)));
    const auto verdict = classify_detail::node_verdict(
        slack, b, my_bin, d, static_cast<double>(dprime), pal,
        static_cast<NodeId>(v), [&] {
          std::uint64_t pprime = 0;
          for (const Color col : pal.palette(static_cast<NodeId>(v))) {
            if (h2(col) + 1 == my_bin) ++pprime;
          }
          return pprime;
        });
    const bool good = verdict == classify_detail::NodeVerdict::kGood;
    double cost = good ? 0.0 : 1.0 + d;  // bad-subgraph words (Cor. 3.10)
    if (v == 0) {
      std::vector<std::uint64_t> load(b, 0);
      for (NodeId u = 0; u < n; ++u) ++load[h1(u)];
      for (const auto l : load) {
        if (static_cast<double>(l) >= bin_cap) cost += static_cast<double>(n);
      }
    }
    return cost;
  };

  const auto mce = distributed_mce(net, bits, chunk_bits, node_cost,
                                   /*samples=*/2, salt, exec);
  result.mce_rounds = mce.network_rounds;
  result.mpc.merge(mce.mpc);

  const KWiseHash h1(mce.seed.word_range(0, c), b);
  const KWiseHash h2(mce.seed.word_range(c, c), b - 1);
  result.cls = classify(inst, pal, h1, h2, n, params);

  // --- Materialize bin membership.
  std::vector<std::vector<NodeId>> bin_nodes(b);
  std::vector<NodeId> bad_nodes;
  for (NodeId v = 0; v < n; ++v) {
    if (result.cls.bin_of[v] == 0) {
      bad_nodes.push_back(v);
    } else {
      bin_nodes[result.cls.bin_of[v] - 1].push_back(v);
    }
  }

  // Working palettes: h2-restriction for the color bins.
  PaletteSet work = pal;
  for (std::uint64_t i = 0; i + 1 < b; ++i) {
    for (const NodeId v : bin_nodes[i]) {
      work.restrict(v, [&](Color col) { return h2(col) + 1 == i + 1; });
    }
  }

  // Row words per node: itself + within-bin neighbors + current palette.
  auto row_words = [&](NodeId v) {
    return std::uint64_t{1} + result.cls.deg_in_bin[v] +
           work.palette_size(v);
  };

  auto color_group = [&](const std::vector<NodeId>& members,
                         std::uint32_t coordinator) {
    if (members.empty()) return;
    std::uint64_t total = 0;
    std::vector<std::uint64_t> words(n, 0);
    for (const NodeId v : members) {
      words[v] = row_words(v);
      total += words[v];
    }
    DC_CHECK(total <= 16ull * n, "collected group of ", total,
             " words exceeds the O(n) machine bound");
    // Charge the measured deltas of the two phases into the cost block: the
    // group lands on one coordinator, so the collected words are its peak
    // residency.
    const std::uint64_t r0 = net.round();
    const std::uint64_t w0 = net.total_words_sent();
    route_collect_and_reply(net, members, words, coordinator);
    result.mpc.ledger.charge("bin-collect", net.round() - r0,
                             net.total_words_sent() - w0);
    result.mpc.note_resident(total, total);
    ++result.mpc.num_collects;
    // Coordinator-local greedy (local computation is free in the model).
    std::vector<NodeId> order(members);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId bb) {
      if (g.degree(a) != g.degree(bb)) return g.degree(a) > g.degree(bb);
      return a < bb;
    });
    const bool ok = greedy_color(g, work, order, result.coloring);
    DC_CHECK(ok, "coordinator greedy ran out of colors");
    const std::uint64_t r1 = net.round();
    const std::uint64_t w1 = net.total_words_sent();
    announce_colors(net, g, members, result.coloring);
    result.mpc.ledger.charge("color-announce", net.round() - r1,
                             net.total_words_sent() - w1);
  };

  // --- 2+3. Color bins 1..b-1. In the model these collects proceed in the
  // same rounds (disjoint coordinators, Lenzen-routed); the message network
  // executes them through one shared router call per group here, so the
  // measured round total is an upper bound on the parallel schedule.
  for (std::uint64_t i = 0; i + 1 < b; ++i) {
    color_group(bin_nodes[i], static_cast<std::uint32_t>(i));
  }

  // --- 4. Last bin: palettes lose the colors announced by neighbors.
  const auto no_op = [](NodeId, Color) {};
  remove_neighbor_colors(g, result.coloring, bin_nodes[b - 1], work, exec,
                         no_op);
  color_group(bin_nodes[b - 1], static_cast<std::uint32_t>(b - 1));

  // --- 5. G0 (bad nodes), palettes updated the same way.
  remove_neighbor_colors(g, result.coloring, bad_nodes, work, exec, no_op);
  color_group(bad_nodes, static_cast<std::uint32_t>(b % n));

  result.network_rounds = net.round();
  result.words_sent = net.total_words_sent();
  return result;
}

}  // namespace detcol
