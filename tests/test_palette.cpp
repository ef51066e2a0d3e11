#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "core/color_reduce.hpp"
#include "core/stats_export.hpp"
#include "derand/seedbits.hpp"
#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "graph/palette.hpp"
#include "hashing/kwise.hpp"
#include "lowspace/low_space.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

TEST(Palette, UniformPalettes) {
  const PaletteSet p = PaletteSet::uniform(3, 5);
  EXPECT_EQ(p.num_nodes(), 3u);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(p.palette_size(v), 5u);
    for (Color c = 0; c < 5; ++c) EXPECT_TRUE(p.contains(v, c));
    EXPECT_FALSE(p.contains(v, 5));
  }
  EXPECT_EQ(p.total_size(), 15u);
}

TEST(Palette, DeltaPlusOne) {
  const Graph g = gen_ring(6);
  const PaletteSet p = PaletteSet::delta_plus_one(g);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(p.palette_size(v), 3u);
}

TEST(Palette, RandomListsDistinctAndSized) {
  const Graph g = gen_gnp(100, 0.1, 7);
  const Color space = 10000;
  const PaletteSet p = PaletteSet::random_lists(g, space, 5);
  const std::size_t want = static_cast<std::size_t>(g.max_degree()) + 1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto pal = p.palette(v);
    EXPECT_EQ(pal.size(), want);
    std::set<Color> uniq(pal.begin(), pal.end());
    EXPECT_EQ(uniq.size(), pal.size());
    for (const Color c : pal) EXPECT_LT(c, space);
  }
  // Deterministic.
  const PaletteSet q = PaletteSet::random_lists(g, space, 5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(std::equal(p.palette(v).begin(), p.palette(v).end(),
                           q.palette(v).begin()));
  }
}

TEST(Palette, DegPlusOneLists) {
  const Graph g = gen_power_law(300, 2.5, 6.0, 9);
  const PaletteSet p = PaletteSet::deg_plus_one_lists(g, 100000, 3);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(p.palette_size(v), static_cast<std::size_t>(g.degree(v)) + 1);
  }
}

TEST(Palette, RestrictKeepsPredicate) {
  PaletteSet p = PaletteSet::uniform(1, 10);
  p.restrict(0, [](Color c) { return c % 2 == 0; });
  EXPECT_EQ(p.palette_size(0), 5u);
  EXPECT_TRUE(p.contains(0, 4));
  EXPECT_FALSE(p.contains(0, 3));
}

TEST(Palette, RemoveColorIdempotent) {
  PaletteSet p = PaletteSet::uniform(1, 4);
  p.remove_color(0, 2);
  EXPECT_EQ(p.palette_size(0), 3u);
  p.remove_color(0, 2);  // no-op
  EXPECT_EQ(p.palette_size(0), 3u);
  p.remove_color(0, 99);  // absent
  EXPECT_EQ(p.palette_size(0), 3u);
}

TEST(Palette, Truncate) {
  PaletteSet p = PaletteSet::uniform(1, 10);
  p.truncate(0, 4);
  EXPECT_EQ(p.palette_size(0), 4u);
  p.truncate(0, 8);  // no growth
  EXPECT_EQ(p.palette_size(0), 4u);
}

TEST(Palette, ConstructorRejectsDuplicates) {
  std::vector<std::vector<Color>> bad = {{1, 1, 2}};
  EXPECT_THROW(PaletteSet{std::move(bad)}, CheckError);
}

TEST(Palette, ConstructorSortsInput) {
  std::vector<std::vector<Color>> in = {{5, 1, 3}};
  const PaletteSet p{std::move(in)};
  const auto pal = p.palette(0);
  EXPECT_TRUE(std::is_sorted(pal.begin(), pal.end()));
}

// PaletteIndex against a reference built the slow way: concatenate every
// palette, sort + unique, then lower_bound each palette color into the
// universe. Checked at 1/2/4/7 threads, so every thread count also yields
// the same index as every other.
struct ReferenceIndex {
  std::vector<Color> colors;
  std::vector<bool> full;
  std::vector<std::vector<std::uint32_t>> slots;
};

ReferenceIndex reference_index(std::span<const NodeId> nodes,
                               const PaletteSet& palettes) {
  ReferenceIndex ref;
  for (const NodeId v : nodes) {
    const auto p = palettes.palette(v);
    ref.colors.insert(ref.colors.end(), p.begin(), p.end());
  }
  std::sort(ref.colors.begin(), ref.colors.end());
  ref.colors.erase(std::unique(ref.colors.begin(), ref.colors.end()),
                   ref.colors.end());
  for (const NodeId v : nodes) {
    const auto p = palettes.palette(v);
    const bool full = p.size() == ref.colors.size();
    ref.full.push_back(full);
    std::vector<std::uint32_t> slots;
    if (!full) {
      for (const Color c : p) {
        const auto it =
            std::lower_bound(ref.colors.begin(), ref.colors.end(), c);
        slots.push_back(static_cast<std::uint32_t>(it - ref.colors.begin()));
      }
    }
    ref.slots.push_back(std::move(slots));
  }
  return ref;
}

void expect_index_matches_reference(std::span<const NodeId> nodes,
                                    const PaletteSet& palettes) {
  const ReferenceIndex want = reference_index(nodes, palettes);
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(threads);
    const ExecHolder holder = make_exec_holder(threads);
    const PaletteIndex got(nodes, palettes, holder.exec);
    ASSERT_EQ(got.colors(), want.colors);
    EXPECT_EQ(got.num_colors(), want.colors.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      ASSERT_EQ(got.full(i), want.full[i]) << "node " << i;
      const auto slots = got.slots(i);
      ASSERT_EQ(std::vector<std::uint32_t>(slots.begin(), slots.end()),
                want.slots[i])
          << "node " << i;
    }
  }
}

std::vector<NodeId> iota_nodes(NodeId n) {
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

TEST(PaletteIndex, SharedUniformDeltaPlusOneIsAllFull) {
  const Graph g = gen_gnp(9000, 0.002, 3);  // several shards of 2048 nodes
  const PaletteSet p = PaletteSet::delta_plus_one(g);
  const std::vector<NodeId> nodes = iota_nodes(g.num_nodes());
  expect_index_matches_reference(nodes, p);
  const PaletteIndex index(nodes, p);
  EXPECT_EQ(index.num_colors(), std::size_t{g.max_degree()} + 1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_TRUE(index.full(i));
    EXPECT_TRUE(index.slots(i).empty());
  }
}

TEST(PaletteIndex, DegPlusOneLists) {
  const Graph g = gen_power_law(7000, 2.5, 6.0, 9);
  const std::vector<NodeId> nodes = iota_nodes(g.num_nodes());
  expect_index_matches_reference(
      nodes, PaletteSet::deg_plus_one_lists(g, 100000, 3));
  // From exactly Δ+1 colors, the max-degree nodes hold the whole universe
  // and every other node a part of it.
  const PaletteSet tight =
      PaletteSet::deg_plus_one_lists(g, Color{g.max_degree()} + 1, 4);
  expect_index_matches_reference(nodes, tight);
  const PaletteIndex index(nodes, tight);
  std::size_t full = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) full += index.full(i);
  EXPECT_GT(full, 0u);
  EXPECT_LT(full, nodes.size());
}

TEST(PaletteIndex, RandomListsOnSubinstance) {
  // A subinstance: local node i is original node orig[i], not i, and the
  // universe (tens of thousands of colors) spans many shards too.
  const Graph g = gen_gnp(12000, 0.001, 5);
  const PaletteSet p = PaletteSet::random_lists(g, Color{1} << 20, 7);
  std::vector<NodeId> orig;
  for (NodeId v = g.num_nodes(); v-- > 0;) {
    if (v % 3 != 0) orig.push_back(v);
  }
  expect_index_matches_reference(orig, p);
}

TEST(PaletteIndex, MixedFullAndPartialPalettes) {
  PaletteSet p = PaletteSet::uniform(6000, 40);
  for (NodeId v = 0; v < 6000; v += 5) p.remove_color(v, v % 40);
  expect_index_matches_reference(iota_nodes(6000), p);
}

TEST(PaletteIndex, EmptyNodeList) {
  const PaletteSet p = PaletteSet::uniform(4, 3);
  expect_index_matches_reference({}, p);
  const PaletteIndex index({}, p);
  EXPECT_EQ(index.num_colors(), 0u);
  EXPECT_TRUE(index.colors().empty());
}

TEST(PaletteIndex, AcceptsEveryColorValue) {
  // 0 and the largest Color values next to small ones, an empty palette,
  // and colors equal in their low bits (they collide in any hash that
  // ignores the high bits).
  constexpr Color kMax = std::numeric_limits<Color>::max();
  std::vector<std::vector<Color>> lists = {
      {0, 7, kMax - 1}, {kMax - 1}, {0, 1, 2}, {kMax, 3}, {}, {0}};
  std::vector<Color> high;
  for (Color k = 1; k <= 64; ++k) high.push_back(k << 40);
  lists.push_back(high);
  lists.push_back({1, 2, 3, kMax - 1, kMax});
  const PaletteSet p(std::move(lists));
  const std::vector<NodeId> nodes = iota_nodes(p.num_nodes());
  expect_index_matches_reference(nodes, p);
  const PaletteIndex index(nodes, p);
  EXPECT_EQ(index.colors().front(), 0u);
  EXPECT_EQ(index.colors().back(), kMax);
}

// --- The drivers' sharded palette passes ---------------------------------
//
// restrict_to_bin and remove_neighbor_colors replace per-node serial loops
// (a KWiseHash call per (node, color) pair; one lower_bound + erase per
// colored neighbor). Each must equal that serial loop on every palette kind
// and at every thread count; the instances span several 2048-node shards.

constexpr unsigned kThreadMatrix[] = {1, 2, 4, 7};

void expect_same_palettes(const PaletteSet& got, const PaletteSet& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    ASSERT_TRUE(std::ranges::equal(got.palette(v), want.palette(v)))
        << "node " << v;
  }
}

/// Uniform, (deg+1)-list and mixed full/partial palettes of `g`. The mixed
/// set has been written, so it owns its rows; the other two share theirs.
std::vector<PaletteSet> palette_kinds(const Graph& g) {
  PaletteSet mixed = PaletteSet::delta_plus_one(g);
  for (NodeId v = 0; v < g.num_nodes(); v += 5) {
    mixed.remove_color(v, v % (Color{g.max_degree()} + 1));
  }
  return {PaletteSet::delta_plus_one(g),
          PaletteSet::deg_plus_one_lists(g, 5000, 3), std::move(mixed)};
}

TEST(PaletteSet, RestrictToBinMatchesHashRestriction) {
  const Graph g = gen_gnp(9000, 0.002, 11);
  // A subinstance in descending order: position i is node orig[i].
  std::vector<NodeId> orig;
  for (NodeId v = g.num_nodes(); v-- > 0;) {
    if (v % 3 != 0) orig.push_back(v);
  }
  constexpr std::uint64_t kColorBins = 3;
  const KWiseHash h2(SeedBits::expand(4 * 64, 0xB125, 1).word_range(0, 4),
                     kColorBins);
  // Positions per bin 1..kColorBins; every fourth position stays unbinned.
  std::vector<std::vector<NodeId>> positions(kColorBins);
  for (NodeId i = 0; i < orig.size(); ++i) {
    if (i % 4 != 3) positions[(i / 4 + i) % kColorBins].push_back(i);
  }
  for (const PaletteSet& initial : palette_kinds(g)) {
    PaletteSet want = initial;
    for (std::uint64_t bin = 1; bin <= kColorBins; ++bin) {
      for (const NodeId i : positions[bin - 1]) {
        want.restrict(orig[i], [&](Color c) { return h2(c) + 1 == bin; });
      }
    }
    const PaletteIndex index(orig, initial);
    std::vector<std::uint32_t> color_bin;
    for (const Color c : index.colors()) {
      color_bin.push_back(static_cast<std::uint32_t>(h2(c) + 1));
    }
    const auto run = [&](ExecContext exec) {
      PaletteSet got = initial;
      for (std::uint32_t bin = 1; bin <= kColorBins; ++bin) {
        got.restrict_to_bin(positions[bin - 1], orig, index, color_bin, bin,
                            exec);
      }
      return got;
    };
    expect_same_palettes(run({}), want);
    for (const unsigned t : kThreadMatrix) {
      ThreadPool pool(t);
      SCOPED_TRACE(::testing::Message() << t << " threads");
      expect_same_palettes(run(ExecContext(pool)), want);
    }
  }
  // Nothing to restrict leaves a shared-uniform set shared.
  PaletteSet uniform = PaletteSet::delta_plus_one(g);
  const PaletteIndex index(orig, uniform);
  uniform.restrict_to_bin({}, orig, index,
                          std::vector<std::uint32_t>(index.num_colors(), 1), 1);
  EXPECT_TRUE(uniform.shared());
}

/// The serial update both drivers ran before: one remove_color per colored
/// neighbor. Returns the number of removals that changed a palette.
std::uint64_t serial_update(const Graph& g, const Coloring& coloring,
                            std::span<const NodeId> nodes, PaletteSet& pal,
                            std::vector<std::vector<Color>>& removed) {
  std::uint64_t touched = 0;
  for (const NodeId v : nodes) {
    for (const NodeId u : g.neighbors(v)) {
      const Color cu = coloring.color[u];
      if (cu != Coloring::kUncolored && pal.remove_color(v, cu)) {
        removed[v].push_back(cu);
        ++touched;
      }
    }
    std::sort(removed[v].begin(), removed[v].end());
  }
  return touched;
}

TEST(RemoveNeighborColors, MatchesSerialRemoval) {
  const Graph g = gen_gnp(9000, 0.002, 12);
  // Every third node is colored with a color its neighbors may hold,
  // including 0 and values past every palette; the rest get updated.
  Coloring coloring(g.num_nodes());
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v % 3 == 0) {
      coloring.color[v] = v % 7 == 0 ? Color{0} : (v * 2654435761u) % 6000;
    } else {
      nodes.push_back(v);
    }
  }
  for (const PaletteSet& initial : palette_kinds(g)) {
    PaletteSet want = initial;
    std::vector<std::vector<Color>> want_removed(g.num_nodes());
    const std::uint64_t want_touched =
        serial_update(g, coloring, nodes, want, want_removed);
    ASSERT_GT(want_touched, 0u);
    const auto check = [&](ExecContext exec) {
      PaletteSet got = initial;
      std::vector<std::vector<Color>> removed(g.num_nodes());
      EXPECT_EQ(remove_neighbor_colors(g, coloring, nodes, got, exec,
                                       [&](NodeId v, Color c) {
                                         removed[v].push_back(c);
                                       }),
                want_touched);
      expect_same_palettes(got, want);
      EXPECT_EQ(removed, want_removed);
    };
    check({});
    for (const unsigned t : kThreadMatrix) {
      ThreadPool pool(t);
      SCOPED_TRACE(::testing::Message() << t << " threads");
      check(ExecContext(pool));
    }
  }
}

TEST(RemoveNeighborColors, SharedSetStaysSharedWithoutRemovals) {
  const Graph g = gen_gnp(9000, 0.002, 13);
  ASSERT_GT(g.degree(0), 0u);
  std::vector<NodeId> all(g.num_nodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  ThreadPool pool(4);
  const auto ignore = [](NodeId, Color) {};
  for (PaletteSet pal : {PaletteSet::delta_plus_one(g),
                         PaletteSet::deg_plus_one_lists(g, 5000, 3)}) {
    // The smallest color above every palette ({0..k-1} has k).
    Color above = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      above = std::max(above, pal.palette(v).back() + 1);
    }
    // Nobody colored, then colors above every palette only: no palette
    // changes.
    Coloring coloring(g.num_nodes());
    EXPECT_EQ(remove_neighbor_colors(g, coloring, all, pal, ExecContext(pool),
                                     ignore),
              0u);
    EXPECT_TRUE(pal.shared());
    for (NodeId v = 0; v < g.num_nodes(); v += 2) {
      coloring.color[v] = above + v;
    }
    EXPECT_EQ(remove_neighbor_colors(g, coloring, all, pal, ExecContext(pool),
                                     ignore),
              0u);
    EXPECT_TRUE(pal.shared());
    // One color inside a neighbor's palette: the set materializes, once,
    // serially.
    const Color c = pal.palette(g.neighbors(0)[0]).front();
    std::uint64_t holders = 0;
    for (const NodeId u : g.neighbors(0)) holders += pal.contains(u, c);
    coloring.color[0] = c;
    const std::uint64_t touched = remove_neighbor_colors(
        g, coloring, all, pal, ExecContext(pool), ignore);
    EXPECT_EQ(touched, holders);
    EXPECT_FALSE(pal.shared());
    for (const NodeId u : g.neighbors(0)) EXPECT_FALSE(pal.contains(u, c));
  }
}

// --- Copy-on-write --------------------------------------------------------

/// Every palette's colors, copied out, and the address its row starts at.
struct PaletteSnapshot {
  explicit PaletteSnapshot(const PaletteSet& pal) {
    for (NodeId v = 0; v < pal.num_nodes(); ++v) {
      const auto p = pal.palette(v);
      colors.emplace_back(p.begin(), p.end());
      rows.push_back(p.data());
    }
  }
  bool operator==(const PaletteSnapshot&) const = default;
  std::vector<std::vector<Color>> colors;
  std::vector<const Color*> rows;
};

TEST(PaletteSet, CopiesShareRowsUntilTheirFirstWrite) {
  const Graph g = gen_gnp(9000, 0.002, 14);
  ASSERT_GT(g.degree(0), 0u);
  const std::vector<NodeId> all = iota_nodes(g.num_nodes());
  std::vector<PaletteSet> kinds = palette_kinds(g);
  const PaletteSet mixed = std::move(kinds.back());
  kinds.pop_back();
  kinds.push_back(PaletteSet::random_lists(g, 5000, 4));
  ThreadPool pool(4);
  const auto ignore = [](NodeId, Color) {};
  // Colors above every palette: coloring with them removes nothing.
  constexpr Color kAbove = Color{1} << 40;
  Coloring no_hits(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); v += 2) no_hits.color[v] = kAbove + v;
  const NodeId w = g.neighbors(0)[0];  // a neighbor of node 0

  {
    // A set that owns its rows copies them.
    ASSERT_FALSE(mixed.shared());
    const PaletteSnapshot before(mixed);
    const PaletteSet copy = mixed;
    EXPECT_FALSE(copy.shared());
    const PaletteSnapshot got(copy);
    EXPECT_EQ(got.colors, before.colors);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_NE(got.rows[v], before.rows[v]) << "node " << v;
    }
  }

  for (const PaletteSet& original : kinds) {
    ASSERT_TRUE(original.shared());
    const PaletteSnapshot before(original);
    const PaletteIndex index(all, original);
    std::vector<std::uint32_t> color_bin(index.num_colors());
    for (std::size_t k = 0; k < color_bin.size(); ++k) color_bin[k] = k % 2;
    std::vector<NodeId> every_third;
    for (NodeId v = 0; v < g.num_nodes(); v += 3) every_third.push_back(v);
    Coloring hits(g.num_nodes());
    hits.color[0] = original.palette(w).front();
    std::vector<NodeId> uncolored(all.begin() + 1, all.end());

    const std::pair<const char*, std::function<void(PaletteSet&)>> writes[] =
        {{"restrict",
          [&](PaletteSet& p) {
            p.restrict(w, [](Color c) { return c % 2 == 0; });
          }},
         {"remove_color hit",
          [&](PaletteSet& p) {
            EXPECT_TRUE(p.remove_color(w, p.palette(w).front()));
          }},
         {"shrinking truncate",
          [&](PaletteSet& p) { p.truncate(w, p.palette_size(w) - 1); }},
         {"restrict_to_bin",
          [&](PaletteSet& p) {
            p.restrict_to_bin(every_third, all, index, color_bin, 1,
                              ExecContext(pool));
          }},
         {"remove_neighbor_colors with hits", [&](PaletteSet& p) {
            EXPECT_GT(remove_neighbor_colors(g, hits, uncolored, p,
                                             ExecContext(pool), ignore),
                      0u);
          }}};
    for (const auto& [name, write] : writes) {
      SCOPED_TRACE(name);
      PaletteSet copy = original;
      EXPECT_TRUE(copy.shared());
      EXPECT_EQ(PaletteSnapshot(copy).rows, before.rows);

      // Writes that change nothing keep the copy sharing.
      EXPECT_FALSE(copy.remove_color(w, kAbove));
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        copy.truncate(v, copy.palette_size(v));
      }
      EXPECT_EQ(remove_neighbor_colors(g, no_hits, all, copy,
                                       ExecContext(pool), ignore),
                0u);
      EXPECT_TRUE(copy.shared());
      EXPECT_EQ(PaletteSnapshot(copy).rows, before.rows);

      // The first real write gives the copy its own rows: the original
      // keeps its colors at their addresses, and a span borrowed from the
      // copy before the write still reads them.
      const std::span<const Color> borrowed = copy.palette(w);
      write(copy);
      EXPECT_FALSE(copy.shared());
      const PaletteSnapshot after(original);
      EXPECT_EQ(after.colors, before.colors);
      EXPECT_EQ(after.rows, before.rows);
      EXPECT_TRUE(std::ranges::equal(borrowed, before.colors[w]));
      EXPECT_TRUE(original.shared());
    }
  }
}

// --- The drivers read the caller's palettes, never write them ------------
//
// Each driver works on a copy of the caller's PaletteSet, which shares the
// caller's rows until its first write (graph/palette.hpp). These inputs
// partition into b > 2 bins, so the drivers restrict palettes and run
// sibling bins concurrently: a write into the shared rows would change the
// caller's set, or race with the other run reading it.

/// What a driver run must repeat: its coloring and its ledgers.
struct DriverOutput {
  bool operator==(const DriverOutput&) const = default;
  std::vector<Color> coloring;
  std::string ledgers;
};

/// Runs the driver without a pool, on 1- and 4-thread pools, and twice at
/// once on two 2-thread pools, all on the one const set `pal`.
void expect_caller_palettes_untouched(
    const PaletteSet& pal,
    const std::function<DriverOutput(ExecContext)>& run) {
  const PaletteSnapshot before(pal);
  const DriverOutput base = run({});
  EXPECT_TRUE(PaletteSnapshot(pal) == before);
  for (const unsigned t : {1u, 4u}) {
    ThreadPool pool(t);
    EXPECT_TRUE(run(ExecContext(pool)) == base) << t << " threads";
    EXPECT_TRUE(PaletteSnapshot(pal) == before) << t << " threads";
  }
  DriverOutput at_once[2];
  {
    const auto run_on_own_pool = [&](DriverOutput& out) {
      ThreadPool pool(2);
      out = run(ExecContext(pool));
    };
    std::jthread first(run_on_own_pool, std::ref(at_once[0]));
    std::jthread second(run_on_own_pool, std::ref(at_once[1]));
  }
  EXPECT_TRUE(at_once[0] == base);
  EXPECT_TRUE(at_once[1] == base);
  EXPECT_TRUE(PaletteSnapshot(pal) == before);
}

TEST(CallerPalettes, LowSpaceLeavesThemAlone) {
  // ParallelInvariance.LowSpaceMultiBinRestriction's input: b = 3 at
  // delta = 0.2, and every node partitions.
  const Graph g = gen_random_regular(900, 64, 9);
  const PaletteSet pal = PaletteSet::deg_plus_one_lists(g, 1u << 20, 7);
  expect_caller_palettes_untouched(pal, [&](ExecContext exec) {
    LowSpaceParams params;
    params.delta = 0.2;
    params.low_deg_coeff = 2.0;
    params.exec = exec;
    const auto r = low_space_color(g, pal, params);
    EXPECT_GT(r.num_partitions, 0u);
    EXPECT_TRUE(verify_coloring(g, pal, r.coloring).ok);
    return DriverOutput{r.coloring.color, ledger_to_json(r.ledger) +
                                              mpc_costs_to_json(r.mpc)};
  });
}

TEST(CallerPalettes, ColorReduceLeavesThemAlone) {
  // Four bins: the root restricts the palettes of three concurrently
  // recursing color bins, then updates the last bin's. Δ+1 lists, because
  // (deg+1)-lists leave no slack for a restricted palette: every node of
  // them lands in the last bin or G0, and the run writes no palette.
  const Graph g = gen_gnp(4000, 8.0 / 4000, 61);
  const PaletteSet pal = PaletteSet::random_lists(g, 1u << 20, 7);
  expect_caller_palettes_untouched(pal, [&](ExecContext exec) {
    ColorReduceConfig cfg;
    cfg.part.min_bins = 4;
    cfg.exec = exec;
    const auto r = color_reduce(g, pal, cfg);
    EXPECT_EQ(r.root.num_bins, 4u);
    for (std::size_t i = 0; i + 1 < r.root.children.size(); ++i) {
      EXPECT_GT(r.root.children[i].n, 0u) << "color bin " << i + 1;
    }
    EXPECT_TRUE(verify_coloring(g, pal, r.coloring).ok);
    return DriverOutput{r.coloring.color, ledger_to_json(r.ledger) +
                                              mpc_costs_to_json(r.mpc)};
  });
}

}  // namespace
}  // namespace detcol
