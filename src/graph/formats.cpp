#include "graph/formats.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/mmap_file.hpp"

namespace detcol {

using io_detail::ShardError;
using io_detail::fold_shards;
using io_detail::parse_u64;
using io_detail::throw_first_error;
using io_detail::tokenize;

namespace {

std::string_view line_view(std::string_view buf, LineSpan span) {
  return buf.substr(span.begin, span.end - span.begin);
}

// ---------------------------------------------------------------------------
// Little-endian scalar encoding, the .dcg building block.
// ---------------------------------------------------------------------------

void append_le(std::string* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t read_le(std::string_view bytes, std::size_t offset, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(bytes[offset + i])}
         << (8 * i);
  }
  return v;
}

// .dcg layout offsets (see docs/FORMATS.md): magic[8], n u64, m u64,
// flags u64, offsets u64[n+1], adj u32[2m], checksum u64.
constexpr std::size_t kDcgHeaderBytes = 8 + 3 * 8;
constexpr std::size_t kDcgChecksumBytes = 8;

}  // namespace

// ---------------------------------------------------------------------------
// Format names, extensions, sniffing.
// ---------------------------------------------------------------------------

const char* format_name(GraphFormat fmt) {
  switch (fmt) {
    case GraphFormat::kAuto: return "auto";
    case GraphFormat::kEdgeList: return "edges";
    case GraphFormat::kDimacs: return "dimacs";
    case GraphFormat::kMetis: return "metis";
    case GraphFormat::kDcg: return "dcg";
  }
  return "unknown";
}

bool parse_format_name(std::string_view name, GraphFormat* out) {
  if (name == "auto") *out = GraphFormat::kAuto;
  else if (name == "edges" || name == "edgelist") *out = GraphFormat::kEdgeList;
  else if (name == "dimacs" || name == "col") *out = GraphFormat::kDimacs;
  else if (name == "metis") *out = GraphFormat::kMetis;
  else if (name == "dcg") *out = GraphFormat::kDcg;
  else return false;
  return true;
}

GraphFormat format_from_extension(const std::string& path) {
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos) return GraphFormat::kAuto;
  std::string ext = path.substr(dot + 1);
  std::transform(ext.begin(), ext.end(), ext.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (ext == "dcg") return GraphFormat::kDcg;
  if (ext == "col" || ext == "dimacs") return GraphFormat::kDimacs;
  if (ext == "graph" || ext == "metis") return GraphFormat::kMetis;
  if (ext == "edges" || ext == "txt" || ext == "el") {
    return GraphFormat::kEdgeList;
  }
  return GraphFormat::kAuto;
}

GraphFormat sniff_format(std::string_view buf, const std::string& path) {
  // (1) Binary magic beats everything.
  if (buf.size() >= sizeof(kDcgMagic) &&
      std::memcmp(buf.data(), kDcgMagic, sizeof(kDcgMagic)) == 0) {
    return GraphFormat::kDcg;
  }
  // (2) A DIMACS marker on the first non-blank line. Scan incrementally —
  // never index the whole buffer just to look at its head (the chosen
  // parser builds the real line index, in parallel, right after).
  for (std::size_t at = 0; at < buf.size();) {
    const std::size_t nl = buf.find('\n', at);
    const std::size_t end = nl == std::string_view::npos ? buf.size() : nl;
    const auto tokens = tokenize(buf.substr(at, end - at));
    if (!tokens.empty()) {
      if (tokens[0] == "c" || tokens[0] == "p") return GraphFormat::kDimacs;
      break;
    }
    if (nl == std::string_view::npos) break;
    at = nl + 1;
  }
  // (3) The extension, when it names a known format.
  const GraphFormat by_ext = format_from_extension(path);
  if (by_ext != GraphFormat::kAuto) return by_ext;
  // (4) Data-line count: a numeric "a b [fmt]" first line followed by
  // exactly `a` non-'%'-comment lines is METIS — unless a literal 0 token
  // appears in the data (METIS is 1-indexed, the edge list 0-indexed).
  // Only this last resort pays a full line scan.
  const std::vector<LineSpan> lines = index_lines(buf);
  std::uint64_t header_n = 0;
  bool have_header = false;
  std::size_t data_lines = 0;
  bool saw_zero_token = false;
  for (const LineSpan span : lines) {
    const std::string_view line = line_view(buf, span);
    if (!line.empty() && line[0] == '%') continue;
    const auto tokens = tokenize(line);
    if (!have_header) {
      if (tokens.empty()) continue;
      std::uint64_t b = 0;
      if ((tokens.size() < 2 || tokens.size() > 4) ||
          !parse_u64(tokens[0], &header_n) || !parse_u64(tokens[1], &b)) {
        return GraphFormat::kEdgeList;  // not METIS-shaped; let edges report
      }
      have_header = true;
      continue;
    }
    ++data_lines;
    for (const auto tok : tokens) {
      if (tok == "0") saw_zero_token = true;
    }
  }
  if (have_header && data_lines == header_n && !saw_zero_token) {
    return GraphFormat::kMetis;
  }
  return GraphFormat::kEdgeList;
}

// ---------------------------------------------------------------------------
// DIMACS ("p edge") dialect.
// ---------------------------------------------------------------------------

Graph parse_dimacs(std::string_view buf, ExecContext exec,
                   const std::string& what) {
  const std::vector<LineSpan> lines = index_lines(buf, exec);

  // Problem line: first non-blank, non-'c' line must be "p edge N M".
  NodeId n = 0;
  std::uint64_t m = 0;
  std::size_t p_index = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto tokens = tokenize(line_view(buf, lines[i]));
    if (tokens.empty() || tokens[0] == "c") continue;
    std::uint64_t n64 = 0;
    DC_CHECK(tokens.size() == 4 && tokens[0] == "p" &&
                 (tokens[1] == "edge" || tokens[1] == "edges" ||
                  tokens[1] == "col") &&
                 parse_u64(tokens[2], &n64) && parse_u64(tokens[3], &m),
             what, ":", i + 1, ": expected DIMACS problem line 'p edge N M', ",
             "got '", std::string(line_view(buf, lines[i])), "'");
    DC_CHECK(n64 <= std::numeric_limits<NodeId>::max(), what, ":", i + 1,
             ": node count ", n64, " exceeds the node-id limit");
    n = static_cast<NodeId>(n64);
    p_index = i;
    break;
  }
  DC_CHECK(p_index < lines.size(), what,
           ": missing DIMACS problem line 'p edge N M'");

  const std::size_t first = p_index + 1;
  const std::size_t count = lines.size() - first;
  const std::size_t shards = shard_count(count);
  std::vector<std::vector<Edge>> shard_edges(shards);
  std::vector<ShardError> shard_err(shards);
  parallel_for_shards(exec, count, [&](std::size_t s, std::size_t begin,
                                       std::size_t end) {
    auto& edges = shard_edges[s];
    auto& err = shard_err[s];
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t line_no = first + i + 1;  // 1-based
      const std::string_view line = line_view(buf, lines[first + i]);
      const auto tokens = tokenize(line);
      if (tokens.empty() || tokens[0] == "c") continue;
      if (tokens[0] != "e" || tokens.size() != 3) {
        err.set(line_no,
                "expected DIMACS edge line 'e U V', got '" + std::string(line) +
                    "'");
        return;
      }
      std::uint64_t u = 0, v = 0;
      if (!parse_u64(tokens[1], &u) || !parse_u64(tokens[2], &v)) {
        err.set(line_no, "malformed edge endpoints '" + std::string(line) + "'");
        return;
      }
      if (u < 1 || v < 1 || u > n || v > n) {
        err.set(line_no, "edge endpoint out of range [1, " + std::to_string(n) +
                             "]: '" + std::string(line) + "'");
        return;
      }
      if (u == v) {
        err.set(line_no, "self-loop on vertex " + std::to_string(u));
        return;
      }
      edges.emplace_back(static_cast<NodeId>(u - 1),
                         static_cast<NodeId>(v - 1));
    }
  });
  throw_first_error(what, shard_err);

  const std::vector<Edge> edges = fold_shards(std::move(shard_edges));
  DC_CHECK(edges.size() == m, what, ": problem line claims ", m,
           " edges, found ", edges.size(), " 'e' lines");
  return Graph::from_edges(n, edges);
}

void write_dimacs(std::ostream& os, const Graph& g) {
  os << "p edge " << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edge_list()) {
    os << "e " << (u + 1) << ' ' << (v + 1) << '\n';
  }
}

// ---------------------------------------------------------------------------
// METIS adjacency format.
// ---------------------------------------------------------------------------

Graph parse_metis(std::string_view buf, ExecContext exec,
                  const std::string& what) {
  const std::vector<LineSpan> all_lines = index_lines(buf, exec);

  // '%' lines are comments and do not count toward the n adjacency lines;
  // blank lines DO count (an isolated node has an empty line). Keep the
  // original line numbers for diagnostics.
  std::vector<std::pair<LineSpan, std::size_t>> data;  // (span, 1-based line)
  data.reserve(all_lines.size());
  for (std::size_t i = 0; i < all_lines.size(); ++i) {
    const std::string_view line = line_view(buf, all_lines[i]);
    if (!line.empty() && line[0] == '%') continue;
    data.emplace_back(all_lines[i], i + 1);
  }
  // Header: "N M" or "N M fmt" with fmt 0 (unweighted). Leading blank lines
  // are tolerated before the header only.
  std::size_t header = 0;
  while (header < data.size() &&
         tokenize(line_view(buf, data[header].first)).empty()) {
    ++header;
  }
  DC_CHECK(header < data.size(), what, ": missing METIS header line 'N M'");
  const auto head_tokens = tokenize(line_view(buf, data[header].first));
  std::uint64_t n64 = 0, m = 0;
  DC_CHECK(head_tokens.size() >= 2 && head_tokens.size() <= 3 &&
               parse_u64(head_tokens[0], &n64) && parse_u64(head_tokens[1], &m),
           what, ":", data[header].second,
           ": expected METIS header 'N M [fmt]', got '",
           std::string(line_view(buf, data[header].first)), "'");
  if (head_tokens.size() == 3) {
    const std::string_view fmt = head_tokens[2];
    DC_CHECK(fmt == "0" || fmt == "00" || fmt == "000", what, ":",
             data[header].second, ": weighted METIS graphs (fmt=",
             std::string(fmt), ") are not supported");
  }
  DC_CHECK(n64 <= std::numeric_limits<NodeId>::max(), what, ":",
           data[header].second, ": node count ", n64,
           " exceeds the node-id limit");
  const auto n = static_cast<NodeId>(n64);
  const std::size_t adj_lines = data.size() - header - 1;
  DC_CHECK(adj_lines == n, what, ": header claims ", n,
           " adjacency lines, found ", adj_lines);

  // Sharded adjacency parse: node u's directed arcs come from data line
  // header+1+u; per-shard arc buffers fold in shard order.
  const std::size_t shards = shard_count(n);
  std::vector<std::vector<Edge>> shard_arcs(shards);
  std::vector<ShardError> shard_err(shards);
  parallel_for_shards(exec, n, [&](std::size_t s, std::size_t begin,
                                   std::size_t end) {
    auto& arcs = shard_arcs[s];
    auto& err = shard_err[s];
    for (std::size_t u = begin; u < end; ++u) {
      const auto& [span, line_no] = data[header + 1 + u];
      for (const auto tok : tokenize(line_view(buf, span))) {
        std::uint64_t w = 0;
        if (!parse_u64(tok, &w)) {
          err.set(line_no, "malformed neighbor '" + std::string(tok) +
                               "' of node " + std::to_string(u + 1));
          return;
        }
        if (w < 1 || w > n) {
          err.set(line_no, "neighbor " + std::to_string(w) + " of node " +
                               std::to_string(u + 1) +
                               " out of range [1, " + std::to_string(n) + "]");
          return;
        }
        if (w == u + 1) {
          err.set(line_no,
                  "self-loop on node " + std::to_string(u + 1) +
                      " (METIS graphs must be loop-free)");
          return;
        }
        arcs.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(w - 1));
      }
    }
  });
  throw_first_error(what, shard_err);

  // Duplicate entries within a line collapse; each undirected edge must be
  // listed by BOTH endpoints (the METIS symmetry contract). The arcs are
  // not needed in file order again, so sort them in place.
  std::vector<Edge> sorted = fold_shards(std::move(shard_arcs));
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const auto& [u, v] : sorted) {
    DC_CHECK(std::binary_search(sorted.begin(), sorted.end(), Edge{v, u}),
             what, ": asymmetric adjacency — node ", u + 1, " lists ", v + 1,
             " but node ", v + 1, " does not list ", u + 1);
  }
  std::size_t distinct = 0;
  for (const auto& [u, v] : sorted) {
    if (u < v) ++distinct;
  }
  DC_CHECK(distinct == m, what, ": header claims ", m,
           " edges, adjacency lists contain ", distinct);
  return Graph::from_edges(n, sorted);
}

void write_metis(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (i > 0) os << ' ';
      os << (nb[i] + 1);
    }
    os << '\n';
  }
}

// ---------------------------------------------------------------------------
// The .dcg binary CSR container.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 1099511628211ull;
  }
  return state;
}

std::string dcg_bytes(const Graph& g) {
  const NodeId n = g.num_nodes();
  const std::uint64_t m = g.num_edges();
  std::string out;
  out.reserve(kDcgHeaderBytes + (std::size_t{n} + 1) * 8 + 2 * m * 4 +
              kDcgChecksumBytes);
  out.append(reinterpret_cast<const char*>(kDcgMagic), sizeof(kDcgMagic));
  append_le(&out, n, 8);
  append_le(&out, m, 8);
  append_le(&out, /*flags=*/0, 8);
  std::uint64_t offset = 0;
  append_le(&out, offset, 8);
  for (NodeId v = 0; v < n; ++v) {
    offset += g.degree(v);
    append_le(&out, offset, 8);
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId w : g.neighbors(v)) append_le(&out, w, 4);
  }
  append_le(&out, fnv1a64(out), 8);
  return out;
}

Graph parse_dcg(std::string_view bytes, const std::string& what) {
  DC_CHECK(bytes.size() >= kDcgHeaderBytes + 8 + kDcgChecksumBytes, what,
           ": truncated .dcg file (", bytes.size(), " bytes)");
  DC_CHECK(std::memcmp(bytes.data(), kDcgMagic, sizeof(kDcgMagic)) == 0, what,
           ": not a .dcg file (bad magic — wrong format or version)");
  const std::uint64_t n64 = read_le(bytes, 8, 8);
  const std::uint64_t m = read_le(bytes, 16, 8);
  const std::uint64_t flags = read_le(bytes, 24, 8);
  DC_CHECK(flags == 0, what, ": unsupported .dcg flags ", flags);
  DC_CHECK(n64 <= std::numeric_limits<NodeId>::max(), what, ": node count ",
           n64, " exceeds the node-id limit");
  // Bound the claimed sizes by the actual file before computing the expected
  // byte count (a corrupt header must not overflow the arithmetic).
  DC_CHECK(n64 <= bytes.size() / 8 && m <= bytes.size() / 8, what,
           ": truncated .dcg file (header claims n=", n64, ", m=", m,
           " in ", bytes.size(), " bytes)");
  const std::size_t expected = kDcgHeaderBytes +
                               (static_cast<std::size_t>(n64) + 1) * 8 +
                               static_cast<std::size_t>(2 * m) * 4 +
                               kDcgChecksumBytes;
  DC_CHECK(bytes.size() >= expected, what, ": truncated .dcg file (expected ",
           expected, " bytes, have ", bytes.size(), ")");
  DC_CHECK(bytes.size() <= expected, what, ": trailing bytes after .dcg "
           "payload (expected ", expected, " bytes, have ", bytes.size(), ")");
  const std::uint64_t stored = read_le(bytes, bytes.size() - 8, 8);
  const std::uint64_t actual = fnv1a64(bytes.substr(0, bytes.size() - 8));
  DC_CHECK(stored == actual, what, ": checksum mismatch (corrupt file)");

  // The arrays are little-endian u64 and u32, the host's own layout of
  // std::size_t and NodeId (graph.cpp static_asserts it): one memcpy each.
  const auto n = static_cast<NodeId>(n64);
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1);
  const std::size_t offsets_bytes = offsets.size() * sizeof(std::size_t);
  std::memcpy(offsets.data(), bytes.data() + kDcgHeaderBytes, offsets_bytes);
  std::vector<NodeId> adj(static_cast<std::size_t>(2 * m));
  if (!adj.empty()) {  // an empty vector's data() may be null
    std::memcpy(adj.data(), bytes.data() + kDcgHeaderBytes + offsets_bytes,
                adj.size() * sizeof(NodeId));
  }
  try {
    return Graph::from_csr(std::move(offsets), std::move(adj));
  } catch (const CheckError& e) {
    DC_CHECK(false, what, ": invalid .dcg CSR payload — ", e.what());
  }
  return {};  // unreachable
}

void write_dcg_file(const std::string& path, const Graph& g) {
  DC_FAILPOINT("dcg.write.body");
  atomic_write_file(path, dcg_bytes(g));
}

Graph map_dcg_file(const std::string& path, ExecContext exec) {
  const std::shared_ptr<MappedFile> file = MappedFile::open(path);
  const std::string_view bytes = file->bytes();
  DC_CHECK(bytes.size() >= kDcgHeaderBytes + 8 + kDcgChecksumBytes, path,
           ": truncated .dcg file (", bytes.size(), " bytes)");
  DC_CHECK(std::memcmp(bytes.data(), kDcgMagic, sizeof(kDcgMagic)) == 0, path,
           ": not a .dcg file (bad magic — wrong format or version)");
  const std::uint64_t n64 = read_le(bytes, 8, 8);
  const std::uint64_t m = read_le(bytes, 16, 8);
  const std::uint64_t flags = read_le(bytes, 24, 8);
  DC_CHECK(flags == 0, path, ": unsupported .dcg flags ", flags);
  DC_CHECK(n64 <= std::numeric_limits<NodeId>::max(), path, ": node count ",
           n64, " exceeds the node-id limit");
  DC_CHECK(n64 <= bytes.size() / 8 && m <= bytes.size() / 8, path,
           ": truncated .dcg file (header claims n=", n64, ", m=", m, " in ",
           bytes.size(), " bytes)");
  const std::size_t expected = kDcgHeaderBytes +
                               (static_cast<std::size_t>(n64) + 1) * 8 +
                               static_cast<std::size_t>(2 * m) * 4 +
                               kDcgChecksumBytes;
  DC_CHECK(bytes.size() == expected, path, ": .dcg payload size mismatch ",
           "(expected ", expected, " bytes for n=", n64, ", m=", m, ", have ",
           bytes.size(), ")");

  const auto n = static_cast<NodeId>(n64);
  const std::size_t num_arcs = static_cast<std::size_t>(2 * m);
  // Zero-copy views into the mapping (alignment: the mapping is
  // page-aligned, offsets start at byte 32, adjacency at 32 + 8(n+1); the
  // static_asserts in graph.cpp pin the layout equivalence).
  const auto* offsets =
      reinterpret_cast<const std::uint64_t*>(bytes.data() + kDcgHeaderBytes);
  const auto* adj = reinterpret_cast<const NodeId*>(
      bytes.data() + kDcgHeaderBytes + (static_cast<std::size_t>(n) + 1) * 8);

  // Eager offsets pass: monotone + exact arc total, and the degree bound
  // every palette/pipeline consults up front. Sharded + shard-order folded,
  // so the scan parallelizes without changing which violation is reported.
  DC_CHECK(offsets[0] == 0, path, ": CSR offsets must start at 0, got ",
           offsets[0]);
  DC_CHECK(offsets[n] == num_arcs, path, ": CSR offsets end at ", offsets[n],
           " but the header claims ", num_arcs, " adjacency entries");
  struct OffsetsScan {
    NodeId max_degree = 0;
    NodeId first_bad = 0;
    bool bad = false;
  };
  const OffsetsScan scan = parallel_reduce_shards<OffsetsScan>(
      exec, n, {},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        OffsetsScan part;
        for (std::size_t v = begin; v < end; ++v) {
          if (offsets[v] > offsets[v + 1]) {
            if (!part.bad) {
              part.bad = true;
              part.first_bad = static_cast<NodeId>(v);
            }
            continue;
          }
          part.max_degree = std::max(
              part.max_degree, static_cast<NodeId>(offsets[v + 1] - offsets[v]));
        }
        return part;
      },
      [](OffsetsScan acc, OffsetsScan part) {
        if (!acc.bad && part.bad) {
          acc.bad = true;
          acc.first_bad = part.first_bad;
        }
        acc.max_degree = std::max(acc.max_degree, part.max_degree);
        return acc;
      });
  DC_CHECK(!scan.bad, path, ": CSR offsets not monotone at node ",
           scan.first_bad);

  // Adjacency access tends to be vertex-range scans (the pipelines walk
  // nodes in order); let readahead work for us.
  file->advise_sequential();
  auto mapped = std::make_shared<const MappedCsr>(file, offsets, adj, n);
  return Graph::from_mapped_csr(std::move(mapped), n, num_arcs,
                                scan.max_degree);
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

Graph parse_graph(std::string_view buf, GraphFormat fmt, ExecContext exec,
                  const std::string& what) {
  if (fmt == GraphFormat::kAuto) fmt = sniff_format(buf, what);
  switch (fmt) {
    case GraphFormat::kEdgeList: return parse_edge_list(buf, exec, what);
    case GraphFormat::kDimacs: return parse_dimacs(buf, exec, what);
    case GraphFormat::kMetis: return parse_metis(buf, exec, what);
    case GraphFormat::kDcg: return parse_dcg(buf, what);
    case GraphFormat::kAuto: break;
  }
  DC_CHECK(false, what, ": unresolved graph format");
  return {};  // unreachable
}

Graph read_graph_file(const std::string& path, GraphFormat fmt,
                      ExecContext exec) {
  // kAuto flows through: parse_graph sniffs with `what` = the path, so the
  // extension participates in resolution exactly once.
  return parse_graph(slurp_file(path), fmt, exec, path);
}

void write_graph_file(const std::string& path, const Graph& g,
                      GraphFormat fmt) {
  if (fmt == GraphFormat::kAuto) fmt = format_from_extension(path);
  DC_CHECK(fmt != GraphFormat::kAuto, "cannot infer a graph format from the "
           "extension of ", path, "; pass an explicit format");
  if (fmt == GraphFormat::kDcg) {
    write_dcg_file(path, g);
    return;
  }
  DC_FAILPOINT("graph.write.body");
  atomic_write_stream(path, [&](std::ostream& os) {
    switch (fmt) {
      case GraphFormat::kEdgeList: write_edge_list(os, g); break;
      case GraphFormat::kDimacs: write_dimacs(os, g); break;
      case GraphFormat::kMetis: write_metis(os, g); break;
      default: DC_CHECK(false, "unreachable write format");
    }
  });
}

}  // namespace detcol
