// Message-level routing on the cc::Network at true per-link granularity.
//
// Lenzen's result [15]: any pattern in which every node sends and receives
// O(n) words can be delivered in O(1) rounds of the CONGESTED CLIQUE. The
// costed CliqueSim consumes that as a black box. This module is not
// Lenzen's scheme: it implements a deterministic two-phase scheme (send via
// spread-out intermediaries, then forward to destinations) on the
// bandwidth-enforcing network, so tests can deliver real messages.
//
// The scheme is the classical Valiant-style two-phase (deterministic
// variant): sender v forwards its k-th packet to intermediary (v+k+1) mod n,
// which then forwards it to the true destination. Phase 1 takes
// ceil(max send load / (n-1)) rounds. Phase 2 moves at most one packet per
// (intermediary, destination) link per round, so it lasts as long as the
// most packets one intermediary holds for one destination. A permutation or
// an all-to-all finishes in a few rounds, but that count is not bounded by
// a constant for every load within Lenzen's O(n) bound, and it grows with n
// on the collects of a ColorReduce level (core/network_color.hpp): on
// random 8-regular graphs the level spends 26-29 rounds beyond its seed
// agreement at n = 64-256, and 32-37 at n = 512 and 1024. Heavier loads take
// proportionally longer; the return value reports both phases.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.hpp"

namespace detcol {
namespace cc {

struct Packet {
  std::uint32_t src;
  std::uint32_t dst;
  std::uint64_t payload;
};

struct RouteResult {
  /// Packets delivered, grouped by destination (order within a destination
  /// is deterministic but unspecified).
  std::vector<std::vector<Packet>> delivered;
  std::uint64_t rounds = 0;        // network rounds consumed
  std::uint64_t phase1_rounds = 0; // spread to intermediaries
  std::uint64_t phase2_rounds = 0; // forward to destinations
};

/// Route an arbitrary packet multiset through `net`. Every packet's src/dst
/// must be < net.n(). The network's per-link bandwidth is respected exactly
/// (violations would throw; the scheme schedules around them instead).
RouteResult route_packets(Network& net, const std::vector<Packet>& packets);

/// Convenience check used by tests: the maximum send and receive load of a
/// packet set (Lenzen's precondition is max <= c*n).
std::pair<std::uint64_t, std::uint64_t> load_of(
    std::uint32_t n, const std::vector<Packet>& packets);

}  // namespace cc
}  // namespace detcol
