#include "sim/network.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace detcol {
namespace cc {

Network::Network(std::uint32_t n, std::uint32_t bandwidth_words)
    : n_(n),
      bandwidth_(bandwidth_words),
      pending_(n),
      inboxes_(n),
      link_use_(static_cast<std::size_t>(n) * n, 0) {
  DC_CHECK(n >= 1, "network needs nodes");
  DC_CHECK(bandwidth_words >= 1, "bandwidth must be at least one word");
}

void Network::send(std::uint32_t src, std::uint32_t dst,
                   std::uint64_t payload) {
  DC_CHECK(src < n_ && dst < n_, "send endpoint out of range");
  DC_CHECK(src != dst, "self-sends are local computation, not messages");
  auto& use = link_use_[static_cast<std::size_t>(src) * n_ + dst];
  DC_CHECK(use < bandwidth_, "bandwidth exceeded on link ", src, "->", dst,
           " in round ", round_ + 1);
  ++use;
  pending_[dst].push_back({src, payload});
  ++total_words_;
}

void Network::deliver() {
  for (std::uint32_t v = 0; v < n_; ++v) {
    inboxes_[v] = std::move(pending_[v]);
    pending_[v].clear();
  }
  std::fill(link_use_.begin(), link_use_.end(), 0);
  ++round_;
}

std::span<const Message> Network::inbox(std::uint32_t v) const {
  DC_CHECK(v < n_, "inbox out of range");
  return inboxes_[v];
}

}  // namespace cc
}  // namespace detcol
