#include "graph/graph.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"
#include "util/mmap_file.hpp"

namespace detcol {

// The mapped rebind reinterprets the on-disk little-endian u64 offsets array
// as std::size_t, and parse_dcg memcpys both .dcg arrays into std::size_t
// and NodeId vectors. Both assumptions are compile-time facts of every
// supported target (x86-64 / aarch64 Linux); a port to a platform where
// either fails must decode the arrays byte by byte instead.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              ".dcg offsets require 64-bit std::size_t");
static_assert(std::endian::native == std::endian::little,
              ".dcg arrays require a little-endian host");

// ---------------------------------------------------------------------------
// MappedCsr: lazy per-block structural validation.
// ---------------------------------------------------------------------------

MappedCsr::MappedCsr(std::shared_ptr<const MappedFile> file,
                     const std::uint64_t* offsets, const NodeId* adj, NodeId n)
    : file_(std::move(file)), offsets_(offsets), adj_(adj), n_(n) {
  const std::size_t blocks =
      (static_cast<std::size_t>(n) + kBlockVertices - 1) / kBlockVertices;
  checked_ = std::vector<std::atomic<std::uint32_t>>((blocks + 31) / 32);
}

void MappedCsr::validate_block(NodeId v) const {
  const std::size_t block = v / kBlockVertices;
  std::atomic<std::uint32_t>& word = checked_[block / 32];
  const std::uint32_t bit = std::uint32_t{1} << (block % 32);
  if ((word.load(std::memory_order_acquire) & bit) != 0) return;
  const NodeId begin = static_cast<NodeId>(block * kBlockVertices);
  const NodeId end = static_cast<NodeId>(
      std::min<std::size_t>(n_, (block + 1) * kBlockVertices));
  for (NodeId u = begin; u < end; ++u) {
    const std::uint64_t lo = offsets_[u];
    const std::uint64_t hi = offsets_[u + 1];
    for (std::uint64_t i = lo; i < hi; ++i) {
      const NodeId w = adj_[i];
      DC_CHECK(w < n_, file_->path(), ": mapped CSR neighbor ", w, " of node ",
               u, " out of range (n=", n_, ")");
      DC_CHECK(w != u, file_->path(), ": mapped CSR self-loop on node ", u);
      DC_CHECK(i == lo || adj_[i - 1] < w, file_->path(),
               ": mapped CSR adjacency of node ", u,
               " not strictly increasing at entry ", i - lo);
    }
  }
  // Concurrent validators re-check the same immutable bytes; whichever
  // publishes first, the block is proven before any reader skips the check.
  word.fetch_or(bit, std::memory_order_release);
}

std::string_view MappedCsr::file_bytes() const { return file_->bytes(); }

const std::string& MappedCsr::path() const { return file_->path(); }

// ---------------------------------------------------------------------------
// Graph: moves and builders.
// ---------------------------------------------------------------------------

Graph::Graph(Graph&& other) noexcept
    : owned_(std::move(other.owned_)),
      mapped_(std::move(other.mapped_)),
      offsets_p_(std::exchange(other.offsets_p_, nullptr)),
      adj_p_(std::exchange(other.adj_p_, nullptr)),
      n_(std::exchange(other.n_, 0)),
      num_arcs_(std::exchange(other.num_arcs_, 0)),
      max_degree_(std::exchange(other.max_degree_, 0)) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    owned_ = std::move(other.owned_);
    mapped_ = std::move(other.mapped_);
    offsets_p_ = std::exchange(other.offsets_p_, nullptr);
    adj_p_ = std::exchange(other.adj_p_, nullptr);
    n_ = std::exchange(other.n_, 0);
    num_arcs_ = std::exchange(other.num_arcs_, 0);
    max_degree_ = std::exchange(other.max_degree_, 0);
  }
  return *this;
}

Graph Graph::adopt(std::vector<std::size_t> offsets, std::vector<NodeId> adj,
                   NodeId max_degree) {
  auto csr = std::make_shared<OwnedCsr>();
  csr->offsets = std::move(offsets);
  csr->adj = std::move(adj);
  Graph g;
  g.offsets_p_ = csr->offsets.data();
  g.adj_p_ = csr->adj.data();
  g.n_ = static_cast<NodeId>(csr->offsets.size() - 1);
  g.num_arcs_ = csr->adj.size();
  g.max_degree_ = max_degree;
  g.owned_ = std::move(csr);
  return g;
}

namespace {

NodeId max_gap(const std::vector<std::size_t>& offsets) {
  std::size_t m = 0;
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    m = std::max(m, offsets[v + 1] - offsets[v]);
  }
  return static_cast<NodeId>(m);
}

/// True when every arc of the CSR has its reverse. Needs in-range,
/// loop-free, strictly increasing lists (from_csr checks them first).
bool symmetric_by_cursors(const std::size_t* offsets, const NodeId* adj,
                          NodeId n) {
  std::vector<std::size_t> cursor(offsets, offsets + n);  // next unmatched
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const NodeId w = adj[i];
      if (cursor[w] == offsets[w + 1] || adj[cursor[w]] != v) return false;
      ++cursor[w];
    }
  }
  return true;
}

}  // namespace

Graph Graph::from_edges(NodeId num_nodes, std::span<const Edge> edges) {
  std::vector<Edge> norm;
  norm.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    DC_CHECK(u != v, "self-loop on node ", u);
    DC_CHECK(u < num_nodes && v < num_nodes, "edge endpoint out of range: (",
             u, ",", v, ") with n=", num_nodes);
    norm.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(norm.begin(), norm.end());
  norm.erase(std::unique(norm.begin(), norm.end()), norm.end());

  std::vector<std::size_t> offsets(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const auto& [u, v] : norm) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
  std::vector<NodeId> adj(norm.size() * 2);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : norm) {
    adj[cursor[u]++] = v;
    adj[cursor[v]++] = u;
  }
  // Adjacency lists come out sorted because the edge list was sorted on the
  // first endpoint and, within a node, insertion order follows the second.
  const NodeId max_degree = max_gap(offsets);
  Graph g = adopt(std::move(offsets), std::move(adj), max_degree);
  for (NodeId v = 0; v < num_nodes; ++v) {
    auto nb = g.neighbors(v);
    DC_ASSERT(std::is_sorted(nb.begin(), nb.end()));
  }
  return g;
}

Graph Graph::from_csr(std::vector<std::size_t> offsets,
                      std::vector<NodeId> adj) {
  DC_CHECK(!offsets.empty(), "CSR offsets array is empty (need n+1 entries)");
  const auto n = static_cast<NodeId>(offsets.size() - 1);
  DC_CHECK(offsets.front() == 0, "CSR offsets must start at 0, got ",
           offsets.front());
  DC_CHECK(offsets.back() == adj.size(), "CSR offsets end at ", offsets.back(),
           " but the adjacency array has ", adj.size(), " entries");
  for (NodeId v = 0; v < n; ++v) {
    DC_CHECK(offsets[v] <= offsets[v + 1], "CSR offsets not monotone at node ",
             v);
  }
  const NodeId max_degree = max_gap(offsets);
  Graph g = adopt(std::move(offsets), std::move(adj), max_degree);
  for (NodeId v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      DC_CHECK(nb[i] < n, "CSR neighbor ", nb[i], " of node ", v,
               " out of range (n=", n, ")");
      DC_CHECK(nb[i] != v, "CSR self-loop on node ", v);
      DC_CHECK(i == 0 || nb[i - 1] < nb[i], "CSR adjacency of node ", v,
               " not strictly increasing at entry ", i);
    }
  }
  // Symmetry: every directed arc must have its reverse (the undirected
  // contract every algorithm in the tree assumes). One pass with a cursor
  // per node: walking v in ascending order, each arc (v, w) must be w's
  // next unmatched entry. The lists are strictly increasing, so this holds
  // exactly when the CSR is symmetric, and then every cursor ends at the
  // end of its list (as many entries matched as there are arcs). O(n + m).
  if (!symmetric_by_cursors(g.offsets_p_, g.adj_p_, n)) {
    // Name the first asymmetric arc in (v, w) order, which the cursors need
    // not have met first: rescan with one binary search per arc.
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId w : g.neighbors(v)) {
        DC_CHECK(g.has_edge(w, v), "CSR adjacency is asymmetric: node ", v,
                 " lists ", w, " but not vice versa");
      }
    }
    DC_CHECK(false, "internal: CSR symmetry scans disagree");
  }
  return g;
}

Graph Graph::from_mapped_csr(std::shared_ptr<const MappedCsr> mapped,
                             NodeId n, std::size_t num_arcs,
                             NodeId max_degree) {
  DC_CHECK(mapped != nullptr, "from_mapped_csr needs a mapping");
  Graph g;
  g.mapped_ = std::move(mapped);
  const std::string_view bytes = g.mapped_->file_bytes();
  // Layout facts established by the caller's header validation (see
  // map_dcg_file): offsets at byte 32, adjacency right after. Both are
  // naturally aligned because the mapping is page-aligned.
  g.offsets_p_ = reinterpret_cast<const std::size_t*>(bytes.data() + 32);
  g.adj_p_ = reinterpret_cast<const NodeId*>(
      bytes.data() + 32 + (static_cast<std::size_t>(n) + 1) * 8);
  g.n_ = n;
  g.num_arcs_ = num_arcs;
  g.max_degree_ = max_degree;
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

Graph induced_subgraph(const Graph& g, std::span<const NodeId> nodes,
                       ExecContext exec) {
  // O(n + Σ deg(nodes)) when `nodes` is ascending, plus a sort of each
  // node's kept neighbors otherwise (graph.hpp). First the original -> local
  // id map over the whole parent.
  static constexpr NodeId kAbsent = ~NodeId{0};
  const NodeId n = g.num_nodes();
  const std::size_t k = nodes.size();
  std::vector<NodeId> local(n, kAbsent);
  for (std::size_t i = 0; i < k; ++i) {
    DC_CHECK(nodes[i] < n, "induced node ", nodes[i], " out of range (n=", n,
             ")");
    DC_CHECK(local[nodes[i]] == kAbsent, "duplicate node in induced set");
    local[nodes[i]] = static_cast<NodeId>(i);
  }
  const bool ascending = std::is_sorted(nodes.begin(), nodes.end());

  // Kept degrees (offsets[i + 1] holds node i's until the prefix sum).
  std::vector<std::size_t> offsets(k + 1, 0);
  const NodeId max_degree = parallel_reduce_shards(
      exec, k, NodeId{0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        NodeId max_d = 0;
        for (std::size_t i = begin; i < end; ++i) {
          NodeId d = 0;
          for (const NodeId w : g.neighbors(nodes[i])) {
            d += local[w] != kAbsent;
          }
          offsets[i + 1] = d;
          max_d = std::max(max_d, d);
        }
        return max_d;
      },
      [](NodeId a, NodeId b) { return std::max(a, b); });
  for (std::size_t i = 0; i < k; ++i) offsets[i + 1] += offsets[i];

  std::vector<NodeId> adj(offsets[k]);
  parallel_for_shards(exec, k, [&](std::size_t, std::size_t begin,
                                   std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      NodeId* const first = adj.data() + offsets[i];
      NodeId* out = first;
      for (const NodeId w : g.neighbors(nodes[i])) {
        if (local[w] != kAbsent) *out++ = local[w];
      }
      // A monotone relabel keeps the parent's sorted order.
      if (!ascending) std::sort(first, out);
    }
  });
  return Graph::adopt(std::move(offsets), std::move(adj), max_degree);
}

}  // namespace detcol
