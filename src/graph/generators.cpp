#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace detcol {

Graph gen_gnp(NodeId n, double p, std::uint64_t seed) {
  DC_CHECK(p >= 0.0 && p <= 1.0, "p out of [0,1]");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  if (p > 0.0) {
    // Geometric skipping over the upper-triangular pair sequence: O(m).
    const double log1mp = std::log1p(-p);
    const std::uint64_t total =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    std::uint64_t idx = 0;
    bool first = true;
    while (true) {
      if (p >= 1.0) {
        if (idx >= total) break;
      } else {
        const double u = rng.next_double();
        const auto skip = static_cast<std::uint64_t>(
            std::floor(std::log1p(-u) / log1mp));
        idx += first ? skip : skip + 1;
        first = false;
        if (idx >= total) break;
      }
      // Decode linear index into (u, v), u < v.
      // Find u such that idx falls into row u of the triangle.
      const double nn = static_cast<double>(n);
      double approx = nn - 0.5 -
                      std::sqrt((nn - 0.5) * (nn - 0.5) -
                                2.0 * static_cast<double>(idx));
      auto u = static_cast<std::uint64_t>(std::max(0.0, approx));
      auto row_start = [&](std::uint64_t r) {
        return r * (2 * n - r - 1) / 2;
      };
      while (u > 0 && row_start(u) > idx) --u;
      while (row_start(u + 1) <= idx) ++u;
      const std::uint64_t v = u + 1 + (idx - row_start(u));
      edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
      if (p >= 1.0) ++idx;
    }
  }
  return Graph::from_edges(n, edges);
}

Graph gen_gnm(NodeId n, std::size_t m, std::uint64_t seed) {
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  DC_CHECK(m <= total, "too many edges requested");
  Xoshiro256 rng(seed);
  std::set<std::pair<NodeId, NodeId>> chosen;
  while (chosen.size() < m) {
    NodeId u = static_cast<NodeId>(rng.next_below(n));
    NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    chosen.emplace(std::min(u, v), std::max(u, v));
  }
  std::vector<Edge> edges(chosen.begin(), chosen.end());
  return Graph::from_edges(n, edges);
}

Graph gen_random_regular(NodeId n, NodeId d, std::uint64_t seed) {
  DC_CHECK(d < n, "degree must be < n");
  Xoshiro256 rng(seed);
  // Configuration model: d stubs per node, random perfect matching on stubs,
  // drop loops; Graph::from_edges drops the duplicates (degrees may dip
  // slightly below d, never above).
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId i = 0; i < d; ++i) stubs.push_back(v);
  }
  std::shuffle(stubs.begin(), stubs.end(), rng);
  std::vector<Edge> edges;
  edges.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    if (stubs[i] != stubs[i + 1]) edges.emplace_back(stubs[i], stubs[i + 1]);
  }
  return Graph::from_edges(n, edges);
}

Graph gen_power_law(NodeId n, double beta, double avg_deg,
                    std::uint64_t seed) {
  DC_CHECK(beta > 2.0, "Chung-Lu needs beta > 2");
  Xoshiro256 rng(seed);
  std::vector<double> w(n);
  const double exponent = -1.0 / (beta - 1.0);
  double sum = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    w[v] = std::pow(static_cast<double>(v + 1), exponent);
    sum += w[v];
  }
  const double scale = avg_deg * static_cast<double>(n) / sum;
  for (auto& x : w) x *= scale;
  const double total_w = avg_deg * static_cast<double>(n);
  std::vector<Edge> edges;
  // Chung-Lu sampling restricted to a weight-sorted sweep with geometric
  // skipping per row (weights are already non-increasing in v).
  for (NodeId u = 0; u < n; ++u) {
    NodeId v = u + 1;
    while (v < n) {
      const double p = std::min(1.0, w[u] * w[v] / total_w);
      if (p <= 0.0) break;
      if (p >= 1.0) {
        edges.emplace_back(u, v);
        ++v;
        continue;
      }
      const double r = rng.next_double();
      const auto skip = static_cast<std::uint64_t>(
          std::floor(std::log1p(-r) / std::log1p(-p)));
      if (skip > static_cast<std::uint64_t>(n - v)) break;
      v = static_cast<NodeId>(v + skip);
      if (v >= n) break;
      // Accept with corrected probability (weights decrease along the row,
      // so the skip based on p at position v is an upper bound).
      const double pv = std::min(1.0, w[u] * w[v] / total_w);
      if (rng.next_double() < pv / p) edges.emplace_back(u, v);
      ++v;
    }
  }
  return Graph::from_edges(n, edges);
}

Graph gen_grid(NodeId rows, NodeId cols) {
  std::vector<Edge> edges;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

Graph gen_ring(NodeId n) {
  DC_CHECK(n >= 3, "ring needs n >= 3");
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    edges.emplace_back(v, static_cast<NodeId>((v + 1) % n));
  }
  return Graph::from_edges(n, edges);
}

Graph gen_complete(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::from_edges(n, edges);
}

Graph gen_bipartite(NodeId a, NodeId b, double p, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) {
      if (rng.next_bool(p)) edges.emplace_back(u, static_cast<NodeId>(a + v));
    }
  }
  return Graph::from_edges(a + b, edges);
}

Graph gen_geometric(NodeId n, double radius, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::pair<double, double>> pts(n);
  for (auto& [x, y] : pts) {
    x = rng.next_double();
    y = rng.next_double();
  }
  // Grid bucketing for O(n) expected neighborhood scans.
  const double cell = std::max(radius, 1e-9);
  const auto grid_dim = static_cast<std::size_t>(1.0 / cell) + 1;
  std::vector<std::vector<NodeId>> buckets(grid_dim * grid_dim);
  auto bucket_of = [&](double x, double y) {
    auto bx = std::min(grid_dim - 1, static_cast<std::size_t>(x / cell));
    auto by = std::min(grid_dim - 1, static_cast<std::size_t>(y / cell));
    return bx * grid_dim + by;
  };
  for (NodeId v = 0; v < n; ++v) {
    buckets[bucket_of(pts[v].first, pts[v].second)].push_back(v);
  }
  std::vector<Edge> edges;
  const double r2 = radius * radius;
  for (NodeId u = 0; u < n; ++u) {
    const auto bx = std::min(grid_dim - 1,
                             static_cast<std::size_t>(pts[u].first / cell));
    const auto by = std::min(grid_dim - 1,
                             static_cast<std::size_t>(pts[u].second / cell));
    for (std::size_t dx = (bx == 0 ? 0 : bx - 1);
         dx <= std::min(grid_dim - 1, bx + 1); ++dx) {
      for (std::size_t dy = (by == 0 ? 0 : by - 1);
           dy <= std::min(grid_dim - 1, by + 1); ++dy) {
        for (const NodeId v : buckets[dx * grid_dim + dy]) {
          if (v <= u) continue;
          const double ddx = pts[u].first - pts[v].first;
          const double ddy = pts[u].second - pts[v].second;
          if (ddx * ddx + ddy * ddy <= r2) edges.emplace_back(u, v);
        }
      }
    }
  }
  return Graph::from_edges(n, edges);
}

Graph gen_planted_kcolorable(NodeId n, NodeId k, double p,
                             std::uint64_t seed) {
  DC_CHECK(k >= 2, "need at least two groups");
  Xoshiro256 rng(seed);
  std::vector<NodeId> group(n);
  for (NodeId v = 0; v < n; ++v) group[v] = static_cast<NodeId>(v % k);
  std::shuffle(group.begin(), group.end(), rng);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (group[u] != group[v] && rng.next_bool(p)) edges.emplace_back(u, v);
    }
  }
  return Graph::from_edges(n, edges);
}

Graph gen_random_tree(NodeId n, std::uint64_t seed) {
  DC_CHECK(n >= 1, "tree needs nodes");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<NodeId>(rng.next_below(v)), v);
  }
  return Graph::from_edges(n, edges);
}

}  // namespace detcol
