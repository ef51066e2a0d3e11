#include "graph/palette.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace detcol {

PaletteSet::PaletteSet(std::vector<std::vector<Color>> palettes)
    : num_nodes_(static_cast<NodeId>(palettes.size())) {
  for (auto& p : palettes) {
    std::sort(p.begin(), p.end());
    DC_CHECK(std::adjacent_find(p.begin(), p.end()) == p.end(),
             "palette contains duplicate colors");
  }
  shared_ = std::make_shared<const std::vector<std::vector<Color>>>(
      std::move(palettes));
  rows_ = shared_->data();
}

PaletteSet::PaletteSet(const PaletteSet& other)
    : shared_(other.shared_),
      own_(other.own_),
      rows_(shared_ ? shared_->data() : own_.data()),
      num_nodes_(other.num_nodes_),
      uniform_(other.uniform_) {}

PaletteSet::PaletteSet(PaletteSet&& other) noexcept { swap(other); }

PaletteSet& PaletteSet::operator=(PaletteSet other) noexcept {
  swap(other);
  return *this;
}

// Swapping own_ keeps each buffer where it is, so rows_ stays valid for
// whichever set now holds it.
void PaletteSet::swap(PaletteSet& other) noexcept {
  std::swap(shared_, other.shared_);
  std::swap(own_, other.own_);
  std::swap(rows_, other.rows_);
  std::swap(num_nodes_, other.num_nodes_);
  std::swap(uniform_, other.uniform_);
}

PaletteSet PaletteSet::uniform(NodeId num_nodes, Color num_colors) {
  std::vector<std::vector<Color>> row(1, std::vector<Color>(num_colors));
  std::iota(row[0].begin(), row[0].end(), Color{0});
  PaletteSet out(std::move(row));
  out.num_nodes_ = num_nodes;
  out.uniform_ = true;
  return out;
}

void PaletteSet::materialize() {
  if (!shared_) return;
  if (uniform_) {
    own_.assign(num_nodes_, rows_[0]);
  } else {
    own_ = *shared_;
  }
  shared_.reset();
  rows_ = own_.data();
  uniform_ = false;
}

PaletteSet PaletteSet::delta_plus_one(const Graph& g) {
  return uniform(g.num_nodes(), static_cast<Color>(g.max_degree()) + 1);
}

namespace {
std::vector<Color> distinct_colors(Color color_space, std::size_t k,
                                   Xoshiro256& rng) {
  DC_CHECK(k <= color_space, "palette larger than color space");
  std::vector<Color> out;
  out.reserve(k);
  if (k * 3 >= color_space) {
    // Dense case: sample by shuffling a prefix of the space.
    std::vector<Color> all(color_space);
    for (Color c = 0; c < color_space; ++c) all[c] = c;
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = i + rng.next_below(color_space - i);
      std::swap(all[i], all[j]);
      out.push_back(all[i]);
    }
  } else {
    // Sparse case: rejection sampling.
    while (out.size() < k) {
      const Color c = rng.next_below(color_space);
      if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
    }
  }
  return out;
}
}  // namespace

PaletteSet PaletteSet::random_lists(const Graph& g, Color color_space,
                                    std::uint64_t seed) {
  const std::size_t k = static_cast<std::size_t>(g.max_degree()) + 1;
  std::vector<std::vector<Color>> pal(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Xoshiro256 rng(sub_seed(seed, v));
    pal[v] = distinct_colors(color_space, k, rng);
  }
  return PaletteSet(std::move(pal));
}

PaletteSet PaletteSet::deg_plus_one_lists(const Graph& g, Color color_space,
                                          std::uint64_t seed) {
  std::vector<std::vector<Color>> pal(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Xoshiro256 rng(sub_seed(seed, v));
    pal[v] = distinct_colors(color_space,
                             static_cast<std::size_t>(g.degree(v)) + 1, rng);
  }
  return PaletteSet(std::move(pal));
}

std::size_t PaletteSet::total_size() const {
  if (uniform_) return std::size_t{num_nodes_} * rows_[0].size();
  std::size_t s = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) s += rows_[v].size();
  return s;
}

void PaletteSet::restrict(NodeId v, FunctionRef<bool(Color)> keep) {
  materialize();
  auto& p = own_[v];
  p.erase(std::remove_if(p.begin(), p.end(),
                         [&](Color c) { return !keep(c); }),
          p.end());
}

bool PaletteSet::remove_color(NodeId v, Color c) {
  if (!contains(v, c)) return false;  // a miss must not cost the copy
  materialize();
  auto& p = own_[v];
  p.erase(std::lower_bound(p.begin(), p.end(), c));
  return true;
}

void PaletteSet::restrict_to_bin(std::span<const NodeId> positions,
                                 std::span<const NodeId> orig,
                                 const PaletteIndex& index,
                                 std::span<const std::uint32_t> color_bin,
                                 std::uint32_t bin, ExecContext exec) {
  if (positions.empty()) return;
  materialize();
  parallel_for_shards(exec, positions.size(), [&](std::size_t,
                                                  std::size_t begin,
                                                  std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      const std::size_t i = positions[j];
      const bool full = index.full(i);
      const auto slots = index.slots(i);
      auto& p = own_[orig[i]];
      DC_ASSERT(p.size() == (full ? index.num_colors() : slots.size()));
      // p[t] is universe color t when full, else universe color slots[t].
      std::size_t kept = 0;
      for (std::size_t t = 0; t < p.size(); ++t) {
        if (color_bin[full ? t : slots[t]] == bin) p[kept++] = p[t];
      }
      p.resize(kept);
    }
  });
}

std::size_t PaletteSet::remove_colors(NodeId v, std::vector<Color>& colors) {
  DC_ASSERT(!shared_);
  auto& p = own_[v];
  std::size_t kept = 0, removed = 0, j = 0;
  for (std::size_t t = 0; t < p.size(); ++t) {
    const Color c = p[t];
    while (j < colors.size() && colors[j] < c) ++j;
    if (j < colors.size() && colors[j] == c) {
      colors[removed++] = c;  // removed <= j: overwrites a consumed entry
      ++j;
    } else {
      p[kept++] = c;
    }
  }
  p.resize(kept);
  colors.resize(removed);
  return removed;
}

void PaletteSet::truncate(NodeId v, std::size_t k) {
  if (palette_size(v) <= k) return;  // drops nothing: stay shared
  materialize();
  own_[v].resize(k);
}

bool PaletteSet::contains(NodeId v, Color c) const {
  if (uniform_) return c < rows_[0].size();
  const auto& p = rows_[v];
  return std::binary_search(p.begin(), p.end(), c);
}

namespace {

/// Open-addressing map Color -> uint32 (linear probing, power-of-two
/// capacity, at most half full). Occupancy is a flag of its own, so every
/// Color value is a valid key. probe() reads only `key` and `used`, and
/// set() writes only `value`, so set() calls on distinct keys may run
/// concurrently.
class ColorMap {
 public:
  ColorMap() { rehash(16); }

  /// Inserts `c` unless present; returns true iff it was absent.
  bool insert(Color c) {
    std::size_t i = probe(c);
    if (slots_[i].used) return false;
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(2 * slots_.size());
      i = probe(c);
    }
    slots_[i].key = c;
    slots_[i].used = true;
    ++size_;
    return true;
  }

  /// Value of / store a value for a present key.
  std::uint32_t at(Color c) const {
    const Slot& s = slots_[probe(c)];
    DC_ASSERT(s.used);
    return s.value;
  }
  void set(Color c, std::uint32_t value) {
    Slot& s = slots_[probe(c)];
    DC_ASSERT(s.used);
    s.value = value;
  }

 private:
  struct Slot {
    Color key = 0;
    std::uint32_t value = 0;
    bool used = false;
  };

  /// The slot holding `c`, else the free slot that ends its probe run.
  std::size_t probe(Color c) const {
    std::size_t i = (c * 0x9E3779B97F4A7C15ULL) >> shift_;  // Fibonacci hash
    while (slots_[i].used && slots_[i].key != c) i = (i + 1) & mask_;
    return i;
  }

  void rehash(std::size_t capacity) {
    const std::vector<Slot> old = std::exchange(slots_,
                                                std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& s : old) {
      if (s.used) slots_[probe(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
};

}  // namespace

PaletteIndex::PaletteIndex(std::span<const NodeId> nodes,
                           const PaletteSet& palettes, ExecContext exec) {
  const std::size_t n = nodes.size();

  // Pass 1: every shard lists the distinct colors of its own palettes.
  std::vector<std::vector<Color>> shard_colors(shard_count(n));
  parallel_for_shards(exec, n, [&](std::size_t s, std::size_t begin,
                                   std::size_t end) {
    ColorMap seen;
    for (std::size_t i = begin; i < end; ++i) {
      for (const Color c : palettes.palette(nodes[i])) {
        if (seen.insert(c)) shard_colors[s].push_back(c);
      }
    }
  });

  // The union of the shard lists, sorted; each color's value in slot_of
  // becomes its index in the universe.
  ColorMap slot_of;
  for (const auto& list : shard_colors) {
    for (const Color c : list) {
      if (slot_of.insert(c)) colors_.push_back(c);
    }
  }
  shard_colors = {};
  std::sort(colors_.begin(), colors_.end());
  DC_CHECK(colors_.size() <= std::numeric_limits<std::uint32_t>::max(),
           "palette universe exceeds 2^32 colors");
  parallel_for_shards(exec, colors_.size(), [&](std::size_t, std::size_t begin,
                                                std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      slot_of.set(colors_[k], static_cast<std::uint32_t>(k));
    }
  });

  // Pass 2: full flags and offsets (O(n)), then every partial palette's
  // slots by lookup.
  full_.resize(n);
  off_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t size = palettes.palette_size(nodes[i]);
    full_[i] = size == colors_.size();
    off_[i + 1] = off_[i] + (full_[i] ? 0 : size);
  }
  slots_.resize(off_[n]);
  parallel_for_shards(exec, n, [&](std::size_t, std::size_t begin,
                                   std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (full_[i]) continue;
      std::uint32_t* out = slots_.data() + off_[i];
      for (const Color c : palettes.palette(nodes[i])) *out++ = slot_of.at(c);
    }
  });
}

}  // namespace detcol
