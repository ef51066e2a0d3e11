// Immutable CSR graph, the substrate every algorithm in detcolor runs on.
//
// Storage comes in two flavors behind one accessor surface:
//
//  * owned  — offsets/adjacency live in this object's vectors (from_edges,
//             from_csr). Fully validated at construction.
//  * mapped — the arrays are views straight into a memory-mapped .dcg file
//             (from_mapped_csr, built by map_dcg_file in graph/formats.hpp).
//             The header and the whole offsets array are validated eagerly
//             at map time; adjacency blocks are validated lazily, the first
//             time any vertex of the block is touched, so opening a graph
//             larger than RAM costs O(n) — not O(m) — page-ins. A Graph
//             copy shares the mapping (shared_ptr), and the file stays
//             mapped until the last copy dies — that ordering is what makes
//             cache eviction under live handles safe in the serving layer.
//
// The CSR is immutable either way, so copies of an owned Graph share its
// arrays just as copies of a mapped one share the mapping: a copy is O(1).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/exec.hpp"

namespace detcol {

using NodeId = std::uint32_t;
using Color = std::uint64_t;
using Edge = std::pair<NodeId, NodeId>;

class MappedFile;  // util/mmap_file.hpp

/// Shared backing store of a mapped Graph: the mmap itself plus the lazy
/// adjacency-validation state. Heap-only, shared by every Graph copy.
///
/// Lazy validation contract: validate_block(v) checks the structural CSR
/// invariants (neighbors strictly increasing, in range, no self-loop) for
/// the fixed-size vertex block containing v, exactly the checks
/// Graph::from_csr applies eagerly — except symmetry, an O(n + m) pass that
/// reads across every block (one random read per arc), deliberately NOT
/// re-verified on the mapped path (the .dcg writers only emit symmetric
/// CSR; `detcol convert` through the eager parser re-checks it). The
/// per-block "done" bits are atomics:
/// two threads may validate one block concurrently (idempotent reads of
/// immutable pages), and the release/acquire pair orders the check before
/// any use that skips it. A corrupt block throws CheckError naming the file
/// — a clean exit-1 data error, not a crash — no matter how late in a run
/// the first touch happens.
class MappedCsr {
 public:
  /// `offsets` / `adj` must point into `file`'s mapping; the offsets array
  /// (n+1 entries) must already be validated by the caller.
  MappedCsr(std::shared_ptr<const MappedFile> file,
            const std::uint64_t* offsets, const NodeId* adj, NodeId n);

  MappedCsr(const MappedCsr&) = delete;
  MappedCsr& operator=(const MappedCsr&) = delete;

  void validate_block(NodeId v) const;

  /// The raw bytes of the whole mapped .dcg file — byte-identical to
  /// dcg_bytes() of the same graph (the encoding is canonical), which gives
  /// the serving layer a zero-serialization content checksum.
  std::string_view file_bytes() const;
  const std::string& path() const;

  /// Vertices per lazy-validation block (one atomic bit each).
  static constexpr NodeId kBlockVertices = 4096;

 private:
  std::shared_ptr<const MappedFile> file_;
  const std::uint64_t* offsets_;
  const NodeId* adj_;
  NodeId n_;
  /// Bit b of checked_[b / 32] is set once block b has passed validation.
  mutable std::vector<std::atomic<std::uint32_t>> checked_;
};

/// Simple undirected graph in compressed-sparse-row form. No self-loops, no
/// parallel edges (the builders deduplicate and reject loops).
class Graph {
 public:
  Graph() = default;
  // Copies share the storage (see file comment); moves leave the source an
  // empty graph.
  Graph(const Graph& other) = default;
  Graph& operator=(const Graph& other) = default;
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

  /// Build from an undirected edge list; edges are deduplicated, order-
  /// normalized and sorted. Self-loops are rejected (DC_CHECK).
  /// O(m log m) in the edge count; deterministic for a given input list.
  static Graph from_edges(NodeId num_nodes, std::span<const Edge> edges);
  static Graph from_edges(NodeId num_nodes, const std::vector<Edge>& edges) {
    return from_edges(num_nodes, std::span<const Edge>(edges));
  }

  /// Adopt prebuilt CSR arrays directly (the `.dcg` binary-format fast path:
  /// no edge-list rebuild or re-sort). `offsets` has n+1 monotone entries
  /// with offsets[0] == 0 and offsets[n] == adj.size(); every adjacency list
  /// must be strictly increasing (sorted, no duplicates, no self-loop) and
  /// symmetric (u in adj(v) iff v in adj(u)). All of this is DC_CHECKed —
  /// O(n + m) validation — so a malformed file cannot produce a graph that
  /// violates the class invariants.
  static Graph from_csr(std::vector<std::size_t> offsets,
                        std::vector<NodeId> adj);

  /// Adopt a mapped .dcg CSR (see MappedCsr for the validation split).
  /// `max_degree` comes from the caller's eager offsets pass.
  static Graph from_mapped_csr(std::shared_ptr<const MappedCsr> mapped,
                               NodeId n, std::size_t num_arcs,
                               NodeId max_degree);

  NodeId num_nodes() const { return n_; }
  /// Number of undirected edges.
  std::size_t num_edges() const { return num_arcs_ / 2; }

  /// Sorted (strictly increasing) adjacency of v. O(1) for owned storage;
  /// a mapped graph's first touch of a vertex block pays that block's lazy
  /// validation. The span stays valid for the lifetime of the graph (and,
  /// for mapped graphs, of every copy sharing the mapping).
  std::span<const NodeId> neighbors(NodeId v) const {
    if (mapped_) mapped_->validate_block(v);
    return {adj_p_ + offsets_p_[v], adj_p_ + offsets_p_[v + 1]};
  }

  NodeId degree(NodeId v) const {
    return static_cast<NodeId>(offsets_p_[v + 1] - offsets_p_[v]);
  }

  /// Cached at construction (the graph is immutable): hot paths consult the
  /// degree bound per call and must not pay an O(n) scan each time.
  NodeId max_degree() const { return max_degree_; }

  /// O(log deg(u)) binary search over u's sorted adjacency.
  bool has_edge(NodeId u, NodeId v) const;

  /// Words of memory needed to describe the graph (the paper's notion of
  /// instance "size": nodes + directed adjacency entries).
  std::size_t size_words() const { return num_nodes() + num_arcs_; }

  /// Enumerate undirected edges as (u, v) with u < v, sorted
  /// lexicographically. O(n + m); allocates the returned vector.
  std::vector<Edge> edge_list() const;

  /// True when the graph is a view over a mapped .dcg file.
  bool is_mapped() const { return mapped_ != nullptr; }
  /// The mapped file's raw bytes; empty for owned graphs.
  std::string_view mapped_bytes() const {
    return mapped_ ? mapped_->file_bytes() : std::string_view{};
  }

 private:
  friend Graph induced_subgraph(const Graph& g, std::span<const NodeId> nodes,
                                ExecContext exec);

  /// Owned storage, shared by every copy (the arrays never change).
  struct OwnedCsr {
    std::vector<std::size_t> offsets;  // size n+1
    std::vector<NodeId> adj;           // both directions
  };

  /// Take ownership of CSR arrays the caller has built or validated.
  static Graph adopt(std::vector<std::size_t> offsets,
                     std::vector<NodeId> adj, NodeId max_degree);

  // Exactly one of the two is set on a non-empty graph.
  std::shared_ptr<const OwnedCsr> owned_;
  std::shared_ptr<const MappedCsr> mapped_;
  // Accessor pointers into whichever storage is active. static_asserts in
  // graph.cpp pin the std::size_t / on-disk u64 layout equivalence the
  // mapped rebind relies on.
  const std::size_t* offsets_p_ = nullptr;
  const NodeId* adj_p_ = nullptr;
  NodeId n_ = 0;
  std::size_t num_arcs_ = 0;
  NodeId max_degree_ = 0;  // max over degree(v); 0 when empty
};

/// Induced subgraph on `nodes` (original node ids, need not be sorted).
/// Local node i corresponds to nodes[i]; returns the local graph. The
/// original ids are exactly `nodes` (caller keeps the mapping). Duplicate or
/// out-of-range entries in `nodes` are rejected (DC_CHECK).
///
/// Builds the child CSR directly, with no edge list: a parent-sized
/// local-id map, a kept-degree count per listed node, a prefix sum and a
/// fill. Count and fill shard over `exec` (the result is identical for every
/// thread count). When `nodes` is ascending — both drivers list children
/// that way — the relabel is monotone and the parent's sorted adjacency
/// stays sorted, so the cost is O(n + Σ deg(nodes)); any other order adds a
/// per-node sort of the kept neighbors.
Graph induced_subgraph(const Graph& g, std::span<const NodeId> nodes,
                       ExecContext exec = {});

}  // namespace detcol
