// Multi-format ingestion tests: .dcg binary round trips + corruption
// handling, DIMACS/METIS dialects and their malformed-input paths, format
// sniffing, and the determinism of the sharded text parse (bit-identical
// graphs — and diagnostics — at 1/2/4/7 threads).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "graph/formats.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

namespace fs = std::filesystem;

/// Every generator in src/graph/generators.hpp at a small size.
std::vector<std::pair<std::string, Graph>> generator_menagerie() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("gnp", gen_gnp(160, 0.05, 7));
  out.emplace_back("gnm", gen_gnm(150, 400, 3));
  out.emplace_back("regular", gen_random_regular(120, 8, 5));
  out.emplace_back("powerlaw", gen_power_law(140, 2.5, 6.0, 9));
  out.emplace_back("grid", gen_grid(9, 13));
  out.emplace_back("ring", gen_ring(41));
  out.emplace_back("complete", gen_complete(17));
  out.emplace_back("bipartite", gen_bipartite(40, 50, 0.08, 11));
  out.emplace_back("geometric", gen_geometric(130, 0.12, 13));
  out.emplace_back("planted", gen_planted_kcolorable(130, 5, 0.07, 15));
  out.emplace_back("tree", gen_random_tree(90, 17));
  return out;
}

std::string edge_list_text(const Graph& g) {
  std::ostringstream os;
  write_edge_list(os, g);
  return os.str();
}

void expect_same_graph(const Graph& a, const Graph& b,
                       const std::string& what) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  EXPECT_EQ(a.edge_list(), b.edge_list()) << what;
}

// ---------------------------------------------------------------------------
// .dcg round trips + corruption handling.
// ---------------------------------------------------------------------------

TEST(Formats, DcgRoundTripsEveryGenerator) {
  for (const auto& [name, g] : generator_menagerie()) {
    const std::string bytes = dcg_bytes(g);
    const Graph h = parse_dcg(bytes, name);
    expect_same_graph(g, h, name);
    // Bit-identical re-serialization AND golden text equality through the
    // full text -> .dcg -> text loop (the ISSUE acceptance criterion).
    EXPECT_EQ(dcg_bytes(h), bytes) << name;
    EXPECT_EQ(edge_list_text(h), edge_list_text(g)) << name;
  }
}

TEST(Formats, DcgEmptyAndIsolatedNodes) {
  const Graph empty = Graph::from_edges(0, std::vector<Edge>{});
  expect_same_graph(empty, parse_dcg(dcg_bytes(empty)), "empty");
  // Isolated nodes (zero-degree tail) survive: edge lists cannot express
  // them without the header, CSR stores them structurally.
  const Graph iso = Graph::from_edges(5, std::vector<Edge>{{0, 1}});
  const Graph h = parse_dcg(dcg_bytes(iso));
  EXPECT_EQ(h.num_nodes(), 5u);
  EXPECT_EQ(h.num_edges(), 1u);
}

TEST(Formats, DcgTruncationRejectedAtEveryPrefixBoundary) {
  const std::string bytes = dcg_bytes(gen_gnp(60, 0.1, 3));
  // A handful of representative cut points: inside the magic, inside the
  // header, inside the offsets, inside the adjacency, inside the checksum.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{4}, std::size_t{20}, std::size_t{40},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    EXPECT_THROW(parse_dcg(bytes.substr(0, cut)), CheckError) << cut;
  }
}

TEST(Formats, DcgChecksumMismatchRejected) {
  std::string bytes = dcg_bytes(gen_gnp(60, 0.1, 3));
  // Flip one bit in the adjacency region: the size checks still pass, the
  // checksum must catch it.
  bytes[bytes.size() - 12] ^= 0x01;
  try {
    parse_dcg(bytes, "corrupt");
    FAIL() << "corrupt .dcg accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(Formats, DcgBadMagicAndTrailingBytesRejected) {
  std::string bytes = dcg_bytes(gen_ring(12));
  std::string wrong_magic = bytes;
  wrong_magic[3] = '2';  // future version byte
  EXPECT_THROW(parse_dcg(wrong_magic), CheckError);
  EXPECT_THROW(parse_dcg("not a dcg file at all"), CheckError);
  EXPECT_THROW(parse_dcg(bytes + "x"), CheckError);
}

/// Recompute the FNV-1a trailer of a patched .dcg payload (a reference copy
/// of the checksum, independent of src/), so only the structural checks can
/// reject it.
void rechecksum(std::string* bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < bytes->size() - 8; ++i) {
    h ^= static_cast<unsigned char>((*bytes)[i]);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    (*bytes)[bytes->size() - 8 + i] = static_cast<char>((h >> (8 * i)) & 0xff);
  }
}

TEST(Formats, DcgStructuralCorruptionCaughtByCsrValidation) {
  // Rebuild a payload whose checksum is valid but whose CSR is malformed:
  // serialize a graph, patch an adjacency entry to a self-loop, re-checksum.
  // parse_dcg must reject it via Graph::from_csr.
  const Graph g = gen_ring(8);
  std::string bytes = dcg_bytes(g);
  const std::size_t adj_begin = 8 + 24 + (8 + 1) * 8;
  // Node 0's first neighbor becomes 0 (self-loop), little-endian u32.
  bytes[adj_begin] = 0;
  bytes[adj_begin + 1] = 0;
  bytes[adj_begin + 2] = 0;
  bytes[adj_begin + 3] = 0;
  rechecksum(&bytes);
  EXPECT_THROW(parse_dcg(bytes), CheckError);
}

/// Checksum-valid .dcg bytes whose CSR is `lists` (one adjacency list per
/// node, in order). `lists` must hold an even number of entries, since the
/// header counts undirected edges.
std::string dcg_payload(const std::vector<std::vector<NodeId>>& lists) {
  std::string bytes(reinterpret_cast<const char*>(kDcgMagic),
                    sizeof(kDcgMagic));
  const auto put = [&bytes](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  std::uint64_t arcs = 0;
  for (const auto& list : lists) arcs += list.size();
  put(lists.size(), 8);  // n
  put(arcs / 2, 8);      // m
  put(0, 8);             // flags
  std::uint64_t offset = 0;
  put(offset, 8);
  for (const auto& list : lists) put(offset += list.size(), 8);
  for (const auto& list : lists) {
    for (const NodeId w : list) put(w, 4);
  }
  bytes.append(8, '\0');
  rechecksum(&bytes);
  return bytes;
}

TEST(Formats, DcgAsymmetryNamesTheFirstAsymmetricArc) {
  // Checksum-valid, structurally sound CSRs whose only defect is asymmetry.
  // An even arc count means at least two asymmetric arcs; the error names
  // the first in (node, neighbor) order, whichever one the check meets
  // first.
  const struct {
    const char* what;
    std::vector<std::vector<NodeId>> lists;
    const char* pair;
  } cases[] = {
      {"missing reverse arc: ring(8) whose node 2 lists 0 instead of 1",
       {{1, 7}, {0, 2}, {0, 3}, {2, 4}, {3, 5}, {4, 6}, {5, 7}, {0, 6}},
       "node 1 lists 2 but not vice versa"},
      {"met late: 0 does not list 3, so the check trips on node 2's arc to "
       "3 (3's next unmatched entry is 0) before it reaches the culprit",
       {{1}, {0}, {3}, {0, 2, 4}, {1, 3}},
       "node 3 lists 0 but not vice versa"},
      {"surplus last entries: the final node lists 2 and 3, which do not "
       "list it",
       {{1}, {0, 4}, {3}, {2}, {1, 2, 3}},
       "node 4 lists 2 but not vice versa"},
      {"used-up list: node 1 lists the final node after its one entry (0) "
       "is matched, at the very end of the adjacency array",
       {{4}, {2, 4}, {1}, {0}, {0}},
       "node 1 lists 4 but not vice versa"},
  };
  for (const auto& c : cases) {
    try {
      parse_dcg(dcg_payload(c.lists), "asym");
      ADD_FAILURE() << c.what << ": asymmetric CSR accepted";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("CSR adjacency is asymmetric: ") +
                          c.pair),
                std::string::npos)
          << c.what << ": " << what;
    }
  }
}

TEST(Formats, CheckErrorNamesItsSourceFromTheRepositoryRoot) {
  // DC_CHECK messages reach users (and the server relays them), so the
  // source location must not depend on where the tree was checked out.
  try {
    parse_dcg("DCG1", "short");
    FAIL() << "truncated .dcg accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/graph/formats.cpp:"), std::string::npos)
        << what;
  }
}

// ---------------------------------------------------------------------------
// DIMACS dialect.
// ---------------------------------------------------------------------------

TEST(Formats, DimacsParsesCommentsDuplicatesAndReversedEdges) {
  const std::string buf =
      "c a coloring instance\n"
      "c with comments\n"
      "p edge 4 4\n"
      "e 1 2\n"
      "e 2 1\n"  // reversed duplicate collapses
      "e 2 3\n"
      "e 3 4\n"
      "c trailing comment\n";
  const Graph g = parse_dimacs(buf);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);  // duplicate collapsed
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(Formats, DimacsWriterRoundTrips) {
  for (const auto& [name, g] : generator_menagerie()) {
    std::ostringstream os;
    write_dimacs(os, g);
    expect_same_graph(g, parse_dimacs(os.str(), {}, name), name);
  }
}

TEST(Formats, DimacsEdgeCountMismatchRejected) {
  const std::string buf = "p edge 3 5\ne 1 2\ne 2 3\n";
  try {
    parse_dimacs(buf, {}, "mismatch");
    FAIL() << "edge-count mismatch accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("claims 5 edges"), std::string::npos)
        << e.what();
  }
}

TEST(Formats, DimacsMalformedInputsRejected) {
  // Missing problem line.
  EXPECT_THROW(parse_dimacs("c only comments\n"), CheckError);
  // Edge before the problem line.
  EXPECT_THROW(parse_dimacs("e 1 2\np edge 2 1\n"), CheckError);
  // Vertices are 1-indexed: 0 is out of range.
  EXPECT_THROW(parse_dimacs("p edge 2 1\ne 0 1\n"), CheckError);
  // Out of range above n.
  EXPECT_THROW(parse_dimacs("p edge 2 1\ne 1 3\n"), CheckError);
  // Self-loop.
  EXPECT_THROW(parse_dimacs("p edge 2 1\ne 1 1\n"), CheckError);
  // Unknown line type.
  EXPECT_THROW(parse_dimacs("p edge 2 1\nn 1 4\ne 1 2\n"), CheckError);
  // Weighted / malformed edge line.
  EXPECT_THROW(parse_dimacs("p edge 2 1\ne 1 2 7\n"), CheckError);
}

// ---------------------------------------------------------------------------
// METIS dialect.
// ---------------------------------------------------------------------------

TEST(Formats, MetisParsesCommentsIsolatedNodesAndDuplicates) {
  const std::string buf =
      "% a metis file\n"
      "4 2\n"
      "2 2\n"   // node 1: duplicate entry collapses
      "1 3\n"   // node 2
      "2\n"     // node 3
      "\n";     // node 4: isolated (blank line counts as a data line)
  const Graph g = parse_metis(buf);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Formats, MetisWriterRoundTrips) {
  for (const auto& [name, g] : generator_menagerie()) {
    std::ostringstream os;
    write_metis(os, g);
    expect_same_graph(g, parse_metis(os.str(), {}, name), name);
  }
}

TEST(Formats, MetisSelfLoopRejected) {
  const std::string buf = "2 1\n1 2\n1\n";  // node 1 lists itself
  try {
    parse_metis(buf, {}, "loop");
    FAIL() << "self-loop accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("self-loop"), std::string::npos)
        << e.what();
  }
}

TEST(Formats, MetisMalformedInputsRejected) {
  // Asymmetric adjacency: node 1 lists 2, node 2 does not list 1.
  EXPECT_THROW(parse_metis("2 1\n2\n\n"), CheckError);
  // Header edge count disagrees with the adjacency lists.
  EXPECT_THROW(parse_metis("2 5\n2\n1\n"), CheckError);
  // Wrong number of adjacency lines.
  EXPECT_THROW(parse_metis("3 1\n2\n1\n"), CheckError);
  // Weighted formats are unsupported.
  EXPECT_THROW(parse_metis("2 1 011\n2 1\n1 1\n"), CheckError);
  // Neighbor out of the 1-indexed range.
  EXPECT_THROW(parse_metis("2 1\n3\n1\n"), CheckError);
  EXPECT_THROW(parse_metis("2 1\n0\n1\n"), CheckError);
  // Missing header entirely.
  EXPECT_THROW(parse_metis("% nothing else\n"), CheckError);
}

// ---------------------------------------------------------------------------
// Edge-list strictness (the rewritten parser).
// ---------------------------------------------------------------------------

TEST(Formats, EdgeListStrictDiagnostics) {
  // Malformed edge line: named with its 1-based line number.
  try {
    parse_edge_list("3 2\n0 1\n1 banana\n", {}, "strict");
    FAIL() << "malformed edge line accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("strict:3"), std::string::npos)
        << e.what();
  }
  // Endpoint out of range is caught at parse, with the line number.
  EXPECT_THROW(parse_edge_list("3 1\n0 7\n"), CheckError);
  // Three tokens on an edge line are no longer silently ignored.
  EXPECT_THROW(parse_edge_list("3 1\n0 1 2\n"), CheckError);
}

// ---------------------------------------------------------------------------
// Sniffing + the auto-dispatch reader.
// ---------------------------------------------------------------------------

TEST(Formats, SniffByMagicMarkersExtensionAndShape) {
  const Graph g = gen_gnp(30, 0.1, 1);
  EXPECT_EQ(sniff_format(dcg_bytes(g)), GraphFormat::kDcg);
  EXPECT_EQ(sniff_format("c x\np edge 3 1\ne 1 2\n"), GraphFormat::kDimacs);
  EXPECT_EQ(sniff_format("anything", "foo.metis"), GraphFormat::kMetis);
  EXPECT_EQ(sniff_format("anything", "foo.col"), GraphFormat::kDimacs);
  EXPECT_EQ(sniff_format("anything", "foo.txt"), GraphFormat::kEdgeList);
  // Shape heuristic (no extension): N data lines after an "N M" header is
  // METIS; a 0 token means 0-indexed, i.e. an edge list.
  EXPECT_EQ(sniff_format("3 2\n2\n1 3\n2\n"), GraphFormat::kMetis);
  EXPECT_EQ(sniff_format("3 2\n0 1\n1 2\n"), GraphFormat::kEdgeList);
  EXPECT_EQ(sniff_format(""), GraphFormat::kEdgeList);
}

TEST(Formats, ReadGraphFileAutoDetectsAllFormats) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "detcol_formats_auto";
  fs::create_directories(dir);
  const Graph g = gen_geometric(80, 0.15, 5);
  const std::vector<std::pair<std::string, GraphFormat>> files = {
      {"g.edges", GraphFormat::kEdgeList},
      {"g.col", GraphFormat::kDimacs},
      {"g.graph", GraphFormat::kMetis},
      {"g.dcg", GraphFormat::kDcg},
  };
  for (const auto& [name, fmt] : files) {
    const std::string path = (dir / name).string();
    write_graph_file(path, g, fmt);
    expect_same_graph(g, read_graph_file(path), name);            // sniffed
    expect_same_graph(g, read_graph_file(path, fmt), name);       // explicit
  }
  EXPECT_THROW(read_graph_file((dir / "missing.dcg").string()), CheckError);
  // Explicit format wins over a lying extension.
  const std::string lying = (dir / "lying.col").string();
  write_graph_file(lying, g, GraphFormat::kEdgeList);
  expect_same_graph(g, read_graph_file(lying, GraphFormat::kEdgeList),
                    "lying");
}

// ---------------------------------------------------------------------------
// Determinism of the sharded parse: bit-identical at 1/2/4/7 threads.
// ---------------------------------------------------------------------------

TEST(Formats, ParallelParseInvariance) {
  // Big enough that every thread count actually splits into many shards of
  // both passes (line scan + tokenize).
  const Graph g = gen_gnp(2500, 0.01, 42);
  std::ostringstream edges_os, dimacs_os, metis_os;
  write_edge_list(edges_os, g);
  write_dimacs(dimacs_os, g);
  write_metis(metis_os, g);
  const std::string golden = dcg_bytes(g);

  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    const ExecHolder holder = make_exec_holder(threads);
    EXPECT_EQ(dcg_bytes(parse_edge_list(edges_os.str(), holder.exec)), golden)
        << "edges @" << threads;
    EXPECT_EQ(dcg_bytes(parse_dimacs(dimacs_os.str(), holder.exec)), golden)
        << "dimacs @" << threads;
    EXPECT_EQ(dcg_bytes(parse_metis(metis_os.str(), holder.exec)), golden)
        << "metis @" << threads;
  }
}

TEST(Formats, ParallelParseReportsFirstErrorDeterministically) {
  // Two bad lines in different shards: every thread count must report the
  // earliest one (line 3), not whichever shard happened to finish first.
  std::ostringstream os;
  os << "5000 4000\n0 1\nBAD-EARLY\n";
  for (int i = 0; i < 4000; ++i) os << (i % 5000) << ' ' << ((i + 1) % 5000)
                                    << '\n';
  os << "BAD-LATE\n";
  const std::string buf = os.str();
  std::string first_message;
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    const ExecHolder holder = make_exec_holder(threads);
    try {
      parse_edge_list(buf, holder.exec, "err");
      FAIL() << "malformed buffer accepted @" << threads;
    } catch (const CheckError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("err:3"), std::string::npos) << message;
      EXPECT_NE(message.find("BAD-EARLY"), std::string::npos) << message;
      if (first_message.empty()) first_message = message;
      EXPECT_EQ(message, first_message) << "@" << threads;
    }
  }
}

TEST(Formats, IndexLinesHandlesEdgeCases) {
  EXPECT_TRUE(index_lines("").empty());
  const auto no_trailing = index_lines("a\nb");
  ASSERT_EQ(no_trailing.size(), 2u);
  EXPECT_EQ(no_trailing[1].begin, 2u);
  EXPECT_EQ(no_trailing[1].end, 3u);
  const auto trailing = index_lines("a\nb\n");
  EXPECT_EQ(trailing.size(), 2u);
  // Invariant under threading for a buffer spanning many scan shards.
  std::string big;
  for (int i = 0; i < 300000; ++i) big += "line\n";
  const auto seq = index_lines(big);
  const ExecHolder holder = make_exec_holder(4);
  const auto par = index_lines(big, holder.exec);
  ASSERT_EQ(seq.size(), par.size());
  EXPECT_EQ(seq.front().begin, par.front().begin);
  EXPECT_EQ(seq.back().end, par.back().end);
}

}  // namespace
}  // namespace detcol
