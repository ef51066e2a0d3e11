// Message-level CONGESTED CLIQUE network.
//
// Unlike CliqueModel (which charges contract costs for black-box
// primitives), this is a faithful per-round message simulator: every ordered
// pair of nodes may carry at most `bandwidth` words per round, violations
// throw. The distributed seed agreement (derand/distributed_mce.hpp), the
// two-phase router (sim/routing.hpp) and the message-level ColorReduce round
// (core/network_color.hpp) run on it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace detcol {
namespace cc {

struct Message {
  std::uint32_t src;
  std::uint64_t payload;
};

class Network {
 public:
  explicit Network(std::uint32_t n, std::uint32_t bandwidth_words = 1);

  std::uint32_t n() const { return n_; }
  std::uint64_t round() const { return round_; }
  std::uint64_t total_words_sent() const { return total_words_; }

  /// Queue one word from src to dst for delivery at the end of the round.
  /// Throws CheckError if the (src,dst) link bandwidth is exhausted.
  void send(std::uint32_t src, std::uint32_t dst, std::uint64_t payload);

  /// Close the round: deliver all queued messages into inboxes.
  void deliver();

  /// Messages delivered to `v` in the last completed round.
  std::span<const Message> inbox(std::uint32_t v) const;

 private:
  std::uint32_t n_;
  std::uint32_t bandwidth_;
  std::uint64_t round_ = 0;
  std::uint64_t total_words_ = 0;
  std::vector<std::vector<Message>> pending_;   // per destination
  std::vector<std::vector<Message>> inboxes_;   // per destination
  std::vector<std::uint32_t> link_use_;         // n*n usage this round
};

}  // namespace cc
}  // namespace detcol
