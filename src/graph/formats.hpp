// Multi-format graph ingestion: DIMACS, METIS, the native edge list, and
// the `.dcg` versioned binary CSR container, behind one sniffing reader.
//
// Full format specs (byte layouts, accepted dialects, error handling) live
// in docs/FORMATS.md; the short version:
//
//   edge list  "n m" header, one "u v" per line (0-indexed), '#' comments.
//   DIMACS     "c" comments, "p edge N M" problem line, "e U V" edges
//              (1-indexed). The e-line count must equal M; duplicate and
//              reversed e-lines collapse to one undirected edge.
//   METIS      "%" comments, "N M [fmt]" header (only unweighted fmt 0),
//              then N adjacency lines (1-indexed, line i = neighbors of
//              node i). Each edge must appear in both endpoints' lines;
//              duplicates within a line collapse; self-loops are errors.
//   .dcg       binary CSR: 8-byte magic (version embedded), little-endian
//              header (n, m, flags), degree-offset array (u64 × n+1),
//              neighbor array (u32 × 2m), FNV-1a-64 checksum. Loads
//              directly into Graph's adjacency storage via Graph::from_csr
//              — no edge-list rebuild, no re-sort.
//
// Every text parser runs on the two-pass sharded machinery of graph/io.hpp,
// so parse results (and the diagnostic chosen when several lines are bad)
// are bit-identical for every thread count of the ExecContext.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"

namespace detcol {

enum class GraphFormat {
  kAuto,      // resolve by magic bytes / content markers / extension
  kEdgeList,  // native "n m" + "u v" dialect        (.edges, .txt)
  kDimacs,    // DIMACS coloring "p edge" dialect     (.col, .dimacs)
  kMetis,     // METIS adjacency format               (.graph, .metis)
  kDcg,       // detcolor binary CSR container        (.dcg)
};

/// Canonical lowercase name ("auto", "edges", "dimacs", "metis", "dcg").
const char* format_name(GraphFormat fmt);

/// Inverse of format_name. Returns false on an unknown name.
bool parse_format_name(std::string_view name, GraphFormat* out);

/// Format implied by the path's extension, or kAuto when the extension is
/// not one of the known ones (see the enum above).
GraphFormat format_from_extension(const std::string& path);

/// Resolve kAuto against actual file content (+ optionally the path's
/// extension). Sniffing order — first match wins, documented in
/// docs/FORMATS.md: (1) .dcg magic bytes; (2) a DIMACS 'c'/'p' marker on the
/// first non-blank line; (3) the path extension; (4) data-line count: a
/// numeric first line "a b" followed by exactly `a` data lines is METIS,
/// anything else is an edge list.
GraphFormat sniff_format(std::string_view buf, const std::string& path = "");

/// Parse `buf` as `fmt` (kAuto sniffs first). `what` names the source in
/// errors. Deterministic under `exec` (see file comment); throws CheckError
/// on any malformed input.
Graph parse_graph(std::string_view buf, GraphFormat fmt = GraphFormat::kAuto,
                  ExecContext exec = {}, const std::string& what = "<graph>");

/// Slurp + parse_graph. The one entry point CLI/sim callers need.
Graph read_graph_file(const std::string& path,
                      GraphFormat fmt = GraphFormat::kAuto,
                      ExecContext exec = {});

/// DIMACS parser/writer ("p edge" dialect, 1-indexed).
Graph parse_dimacs(std::string_view buf, ExecContext exec = {},
                   const std::string& what = "<dimacs>");
void write_dimacs(std::ostream& os, const Graph& g);

/// METIS adjacency parser/writer (unweighted, 1-indexed, symmetric).
Graph parse_metis(std::string_view buf, ExecContext exec = {},
                  const std::string& what = "<metis>");
void write_metis(std::ostream& os, const Graph& g);

// ---------------------------------------------------------------------------
// The .dcg binary CSR container.
// ---------------------------------------------------------------------------

/// 8-byte magic: "DCG1" + CRLF + ^Z + LF (the PNG trick — text-mode
/// transmission damage corrupts the tail bytes and is caught up front).
/// The format version is the '1'; an incompatible layout bumps it.
inline constexpr unsigned char kDcgMagic[8] = {'D',  'C',  'G',  '1',
                                               0x0d, 0x0a, 0x1a, 0x0a};

/// FNV-1a-64 offset basis: the hash state before any byte.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// FNV-1a-64 of `bytes`, continuing from `state`. The .dcg trailer's
/// checksum, and the serving layer's content and power-table keys. A stream
/// hashes piecewise: fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t state = kFnv1a64Basis);

/// Serialized .dcg bytes of `g` (explicit little-endian, so the encoding is
/// platform-independent and byte-comparable in tests).
std::string dcg_bytes(const Graph& g);

/// Parse .dcg bytes. Validates magic, reserved flags, exact payload size,
/// the FNV-1a checksum, and — via Graph::from_csr — every structural CSR
/// invariant. Throws CheckError naming `what` on any violation.
Graph parse_dcg(std::string_view bytes, const std::string& what = "<dcg>");

/// Out-of-core read path: mmap a .dcg file and return a Graph whose CSR
/// arrays are views into the mapping (Graph::from_mapped_csr). Validated
/// eagerly: magic, header, exact file size, and the entire offsets array
/// (monotone, bounds; one sharded pass under `exec` that also computes the
/// degree bound). Validated lazily, per vertex block on first touch:
/// adjacency structure (sorted, in-range, loop-free) — see MappedCsr.
/// Deliberately NOT verified on this path, documented in docs/FORMATS.md:
/// the trailing FNV-1a checksum (sequential by construction — checking it
/// would fault in every page of a graph chosen to be larger than RAM; use
/// parse_dcg / `detcol convert` when end-to-end integrity matters more
/// than residency) and adjacency symmetry. Throws CheckError on any
/// violation; the returned Graph (and every copy) keeps the file mapped.
Graph map_dcg_file(const std::string& path, ExecContext exec = {});

void write_dcg_file(const std::string& path, const Graph& g);

/// Write `g` to `path` as `fmt` (kAuto resolves from the extension; an
/// unknown extension is a CheckError). .dcg opens the file in binary mode.
void write_graph_file(const std::string& path, const Graph& g,
                      GraphFormat fmt = GraphFormat::kAuto);

}  // namespace detcol
