// Palette storage for list-coloring instances.
//
// A PaletteSet holds, for every node of the *original* graph, its current
// color palette as a sorted vector of color ids. The ColorReduce driver
// mutates palettes in exactly the two ways the paper allows:
//   * restrict-to-bin (Algorithm 2: keep only colors h2 maps to the bin), and
//   * remove-used (palette updates before coloring the last bin and G0).
// The rows are copy-on-write, whole set at a time. A new set and every copy
// of it read one immutable row store behind a shared pointer, so copying
// one costs a reference-count increment:
//   * per-node  — the vector constructor and the list factories: one
//                 sorted row per node.
//   * uniform   — uniform()/delta_plus_one() sets, where every node reads
//                 the one row {0..k-1}. O(k) memory instead of Theta(nΔ),
//                 which is what lets the read-only pipelines (greedy,
//                 stats, verify) run on mmap-backed graphs far past RAM.
// The first write gives the writer rows of its own: a uniform set fills n
// copies of its row, a per-node set clones its rows. The shared rows are
// never written, so every other holder (the caller of a driver, a server's
// cache) keeps reading them unchanged, and a span borrowed from the set
// before that write stays valid while another holder keeps the store.
// Whether a set owns its rows is a property of the set object, never of
// the store's reference count. A set that owns its rows is copied deeply.
// The mutating pipelines genuinely need per-node palettes, so finer
// granularity would only complicate the hot accessors.
// PaletteIndex (below) is the seed engines' read-only view of a node list's
// palettes over their distinct colors; when a partition has several color
// bins, the drivers restrict palettes to a color bin by lookup in it
// (restrict_to_bin).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "util/function_ref.hpp"

namespace detcol {

class PaletteIndex;

class PaletteSet {
 public:
  PaletteSet() = default;
  /// Sorts every row; throws CheckError on a duplicate color. The rows
  /// become the set's shared store (file comment).
  explicit PaletteSet(std::vector<std::vector<Color>> palettes);

  /// O(1) while `other` shares its rows (shared()); otherwise a deep copy.
  PaletteSet(const PaletteSet& other);
  PaletteSet(PaletteSet&& other) noexcept;
  PaletteSet& operator=(PaletteSet other) noexcept;

  /// Every node gets the same palette {0, ..., num_colors-1}: the classic
  /// (Δ+1)-coloring setup when num_colors = Δ+1. Stored uniform (see file
  /// comment): O(num_colors) memory until the first write.
  static PaletteSet uniform(NodeId num_nodes, Color num_colors);

  /// (Δ+1)-coloring palettes for a given graph.
  static PaletteSet delta_plus_one(const Graph& g);

  /// (Δ+1)-list coloring: node v gets Δ+1 distinct colors drawn
  /// deterministically from [0, color_space) — identical (graph, space,
  /// seed) inputs always produce identical lists. Throws CheckError when
  /// color_space < Δ+1 (the list cannot be filled).
  static PaletteSet random_lists(const Graph& g, Color color_space,
                                 std::uint64_t seed);

  /// (deg+1)-list coloring: node v gets deg(v)+1 distinct colors from
  /// [0, color_space). Same determinism/throw contract as random_lists.
  static PaletteSet deg_plus_one_lists(const Graph& g, Color color_space,
                                       std::uint64_t seed);

  NodeId num_nodes() const { return num_nodes_; }
  std::span<const Color> palette(NodeId v) const {
    return rows_[uniform_ ? 0 : v];
  }
  std::size_t palette_size(NodeId v) const {
    return rows_[uniform_ ? 0 : v].size();
  }

  /// Total number of stored colors (the Theta(nΔ) term of Theorem 1.2).
  std::size_t total_size() const;

  /// Keep only the colors for which `keep` returns true. O(palette size);
  /// preserves sorted order, so downstream binary searches stay valid.
  void restrict(NodeId v, FunctionRef<bool(Color)> keep);

  /// Remove a single color. Returns true iff the color was present — i.e.
  /// the palette actually changed; a miss leaves a shared set shared. The
  /// drivers update palettes through remove_neighbor_colors
  /// (graph/coloring.hpp); this per-color form is the tests' serial
  /// reference for it.
  bool remove_color(NodeId v, Color c);

  /// Drop colors from the back until the palette has at most `k` entries
  /// (Theorem 1.3: shrink to deg+1 before collecting). A call that drops
  /// nothing leaves a shared set shared.
  void truncate(NodeId v, std::size_t k);

  bool contains(NodeId v, Color c) const;

  /// True until the set's first write: it reads the shared row store that
  /// its copies may read too (file comment).
  bool shared() const { return shared_ != nullptr; }

  /// Take rows of this set's own: fill a uniform set's rows, or clone a
  /// per-node set's. Called by every serial mutator that writes; no-op once
  /// the set owns its rows. The sharded mutators below must find the set
  /// owning its rows, because taking them inside a shard would race.
  void materialize();

  /// Restrict node orig[i], for every i in `positions`, to one bin of a
  /// color partition: keep the colors whose slot k in `index` has
  /// color_bin[k] == bin. `index` must index the current palettes of `orig`
  /// (a seed engine's, with color_bin its h2 bins under the chosen seed).
  /// One table lookup per color, no hashing; shards over `positions`. A
  /// shared set is materialized first, serially, unless `positions` is
  /// empty. Preserves sorted order.
  void restrict_to_bin(std::span<const NodeId> positions,
                       std::span<const NodeId> orig, const PaletteIndex& index,
                       std::span<const std::uint32_t> color_bin,
                       std::uint32_t bin, ExecContext exec = {});

  /// Remove from v's palette, in one merge pass, every color of `colors`
  /// (ascending, duplicate-free). `colors` keeps only the colors that were
  /// present; their number is returned. The set must own its rows; calls
  /// for distinct nodes may run concurrently.
  std::size_t remove_colors(NodeId v, std::vector<Color>& colors);

 private:
  void swap(PaletteSet& other) noexcept;

  // The immutable rows this set and its copies read (one row when
  // uniform_); null once the set owns its rows in own_.
  std::shared_ptr<const std::vector<std::vector<Color>>> shared_;
  std::vector<std::vector<Color>> own_;  // empty while shared_ is set
  // shared_->data() or own_.data(): the accessors reach a row through this
  // one cached pointer, not through the shared pointer's store.
  const std::vector<Color>* rows_ = nullptr;
  NodeId num_nodes_ = 0;
  bool uniform_ = false;  // every node reads rows_[0] = {0..k-1}
};

/// The palettes of a node list, indexed over their color universe: the
/// sorted distinct colors of every listed palette, and per listed node
/// either "full" (its palette is the whole universe) or its colors as
/// universe slots. Both seed engines build one when a partition has several
/// color bins (b > 2): h2 is evaluated once per universe color, and p'(v)
/// comes from a per-bin count for full palettes and from the slots
/// otherwise. At b = 2 the one color bin keeps every color, so the engines
/// read p'(v) from the palette size and build none.
///
/// Built in O(Σ|palette| + D log D) for D distinct colors: a hash set
/// collects the distinct colors, only those D are sorted, and each partial
/// palette's slots come from table lookups. Both passes shard over `exec` on
/// the static shard boundaries of exec/exec.hpp. The universe is a sorted
/// set and everything else is a function of it and the palettes, so the
/// index is identical for every thread count.
class PaletteIndex {
 public:
  /// The index of no nodes: no colors, no slots.
  PaletteIndex() = default;

  /// Index the palettes of `nodes` (local node i is `palettes` node
  /// nodes[i]). Any Color value may appear in a palette.
  PaletteIndex(std::span<const NodeId> nodes, const PaletteSet& palettes,
               ExecContext exec = {});

  /// Sorted distinct colors of every indexed palette.
  const std::vector<Color>& colors() const { return colors_; }
  std::size_t num_colors() const { return colors_.size(); }

  /// True iff local node i's palette is the whole universe. Palettes are
  /// sorted and duplicate-free, so that is the case iff the sizes match.
  bool full(std::size_t i) const { return full_[i] != 0; }

  /// Local node i's colors as ascending indices into colors(); empty when
  /// full(i).
  std::span<const std::uint32_t> slots(std::size_t i) const {
    return {slots_.data() + off_[i], off_[i + 1] - off_[i]};
  }

 private:
  std::vector<Color> colors_;
  std::vector<char> full_;           // per local node
  std::vector<std::size_t> off_;     // slots of node i: [off_[i], off_[i+1])
  std::vector<std::uint32_t> slots_;
};

}  // namespace detcol
