#include "graph/io.hpp"

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace detcol {

namespace io_detail {

void throw_if_failed(const std::string& what, const ShardError& err) {
  if (err.failed) {
    DC_CHECK(false, what, ":", err.line, ": ", err.message);
  }
}

void throw_first_error(const std::string& what,
                       const std::vector<ShardError>& errs) {
  ShardError first;
  for (const auto& e : errs) first.fold(e);
  throw_if_failed(what, first);
}

std::vector<Edge> fold_shards(std::vector<std::vector<Edge>> shard_edges) {
  std::size_t total = 0;
  for (const auto& se : shard_edges) total += se.size();
  std::vector<Edge> edges;
  edges.reserve(total);
  for (auto& se : shard_edges) {
    edges.insert(edges.end(), se.begin(), se.end());
  }
  return edges;
}

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  const auto is_ws = [](char c) {
    return c == ' ' || c == '\t' || c == '\r';
  };
  while (i < line.size()) {
    while (i < line.size() && is_ws(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_ws(line[i])) ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

bool parse_u64(std::string_view token, std::uint64_t* out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out, 10);
  return ec == std::errc{} && ptr == end;
}

}  // namespace io_detail

std::vector<LineSpan> index_lines(std::string_view buf, ExecContext exec) {
  // Pass 1a: per-shard newline positions over fixed byte ranges.
  const std::size_t newlines = parallel_reduce_shards<std::size_t>(
      exec, buf.size(), 0,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::size_t count = 0;
        for (std::size_t i = begin; i < end; ++i) {
          if (buf[i] == '\n') ++count;
        }
        return count;
      },
      [](std::size_t a, std::size_t b) { return a + b; }, kLineScanGrain);

  std::vector<std::size_t> positions;
  positions.reserve(newlines);
  auto folded = parallel_reduce_shards<std::vector<std::size_t>>(
      exec, buf.size(), std::move(positions),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<std::size_t> local;
        for (std::size_t i = begin; i < end; ++i) {
          if (buf[i] == '\n') local.push_back(i);
        }
        return local;
      },
      [](std::vector<std::size_t> acc, std::vector<std::size_t> part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      },
      kLineScanGrain);

  std::vector<LineSpan> lines;
  lines.reserve(folded.size() + 1);
  std::size_t start = 0;
  for (const std::size_t nl : folded) {
    lines.push_back({start, nl});
    start = nl + 1;
  }
  if (start < buf.size()) lines.push_back({start, buf.size()});
  return lines;
}

std::string slurp_file(const std::string& path) {
  DC_FAILPOINT("io.read");
  std::ifstream is(path, std::ios::binary);
  DC_CHECK(is.good(), "cannot open ", path, " for reading: ",
           std::strerror(errno));
  // One read into a buffer sized from the file's length, then on to EOF:
  // a file that grew meanwhile, or one with no length (a pipe), still
  // arrives whole.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string out(ec ? 0 : static_cast<std::size_t>(size), '\0');
  is.read(out.data(), static_cast<std::streamsize>(out.size()));
  out.resize(static_cast<std::size_t>(is.gcount()));
  if (is && is.peek() != std::ifstream::traits_type::eof()) {
    std::ostringstream rest;
    rest << is.rdbuf();
    out += std::move(rest).str();
  }
  DC_CHECK(!is.bad(), "read from ", path, " failed: ", std::strerror(errno));
  return out;
}

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edge_list()) {
    os << u << ' ' << v << '\n';
  }
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  DC_FAILPOINT("edges.write.body");
  atomic_write_stream(path, [&](std::ostream& os) { write_edge_list(os, g); });
}

namespace {

/// Comment-stripped content of a line ('#' to end of line).
std::string_view strip_comment(std::string_view buf, LineSpan span) {
  std::string_view line = buf.substr(span.begin, span.end - span.begin);
  const auto hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  return line;
}

}  // namespace

Graph parse_edge_list(std::string_view buf, ExecContext exec,
                      const std::string& what) {
  using io_detail::ShardError;
  using io_detail::parse_u64;
  using io_detail::tokenize;

  const std::vector<LineSpan> lines = index_lines(buf, exec);

  // Header: the first line with any tokens must be "n m".
  NodeId n = 0;
  std::uint64_t m = 0;
  std::size_t header_index = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto tokens = tokenize(strip_comment(buf, lines[i]));
    if (tokens.empty()) continue;
    std::uint64_t n64 = 0;
    DC_CHECK(tokens.size() == 2 && parse_u64(tokens[0], &n64) &&
                 parse_u64(tokens[1], &m),
             what, ":", i + 1,
             ": expected \"n m\" header, got '",
             std::string(strip_comment(buf, lines[i])), "'");
    DC_CHECK(n64 <= std::numeric_limits<NodeId>::max(), what, ":", i + 1,
             ": node count ", n64, " exceeds the node-id limit");
    n = static_cast<NodeId>(n64);
    header_index = i;
    break;
  }
  DC_CHECK(header_index < lines.size(), what, ": missing 'n m' header");

  // Pass 2: shard over the edge lines; per-shard buffers folded in order.
  const std::size_t first_edge_line = header_index + 1;
  const std::size_t edge_lines = lines.size() - first_edge_line;
  const std::size_t shards = shard_count(edge_lines);
  std::vector<std::vector<Edge>> shard_edges(shards);
  std::vector<ShardError> shard_err(shards);
  parallel_for_shards(exec, edge_lines, [&](std::size_t s, std::size_t begin,
                                            std::size_t end) {
    auto& edges = shard_edges[s];
    auto& err = shard_err[s];
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t line_no = first_edge_line + i + 1;  // 1-based
      const auto tokens = tokenize(strip_comment(buf, lines[first_edge_line + i]));
      if (tokens.empty()) continue;
      std::uint64_t u = 0, v = 0;
      if (tokens.size() != 2 || !parse_u64(tokens[0], &u) ||
          !parse_u64(tokens[1], &v)) {
        err.set(line_no, "expected \"u v\" edge, got '" +
                             std::string(strip_comment(
                                 buf, lines[first_edge_line + i])) +
                             "'");
        return;
      }
      if (u >= n || v >= n) {
        err.set(line_no, "edge endpoint out of range (n=" + std::to_string(n) +
                             "): " + std::to_string(u) + " " +
                             std::to_string(v));
        return;
      }
      edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
  });
  io_detail::throw_first_error(what, shard_err);

  const std::vector<Edge> edges = io_detail::fold_shards(std::move(shard_edges));
  DC_CHECK(edges.size() == m, what, ": header claims ", m, " edges, found ",
           edges.size());
  return Graph::from_edges(n, edges);
}

Graph read_edge_list(std::istream& is) {
  std::ostringstream os;
  os << is.rdbuf();
  return parse_edge_list(std::move(os).str());
}

Graph read_edge_list_file(const std::string& path, ExecContext exec) {
  return parse_edge_list(slurp_file(path), exec, path);
}

}  // namespace detcol
