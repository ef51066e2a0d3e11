// The sharded scalable generators (graph/scalable_gen.hpp) and the mmap
// read path they pair with: the determinism contract (byte-identical .dcg
// at every thread count AND every spill budget), golden fingerprints that
// pin the hashed samplers and the container format, statistical sanity of
// each family, and the lazy-validation semantics of map_dcg_file on
// corrupted files.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "exec/exec.hpp"
#include "graph/formats.hpp"
#include "graph/io.hpp"
#include "graph/scalable_gen.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

namespace fs = std::filesystem;

/// One temporary directory per test: ctest runs the cases of this suite as
/// concurrent processes, and several of them write files of the same name.
fs::path test_dir() {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "detcol_scalable_gen" /
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  fs::create_directories(dir);
  return dir;
}

/// Generate `spec` into a scratch file and return the file's bytes.
std::string gen_bytes(const ScalableGenSpec& spec, unsigned threads,
                      std::size_t budget_bytes = std::size_t{1} << 30) {
  ExecHolder holder = make_exec_holder(threads);
  const std::string path =
      (test_dir() / (std::string(scalable_family_name(spec.family)) + "-t" +
                     std::to_string(threads) + "-b" +
                     std::to_string(budget_bytes) + ".dcg"))
          .string();
  ScalableGenOptions options;
  options.budget_bytes = budget_bytes;
  generate_scalable_dcg(spec, path, holder.exec, options);
  std::string bytes = slurp_file(path);
  fs::remove(path);
  return bytes;
}

ScalableGenSpec ba_spec(NodeId n, NodeId d, std::uint64_t seed) {
  ScalableGenSpec s;
  s.family = ScalableFamily::kBarabasiAlbert;
  s.n = n;
  s.d = d;
  s.seed = seed;
  return s;
}

ScalableGenSpec rgg_spec(NodeId n, double radius, std::uint64_t seed) {
  ScalableGenSpec s;
  s.family = ScalableFamily::kGeometric;
  s.n = n;
  s.radius = radius;
  s.seed = seed;
  return s;
}

ScalableGenSpec sgnm_spec(NodeId n, std::uint64_t m, std::uint64_t seed) {
  ScalableGenSpec s;
  s.family = ScalableFamily::kGnm;
  s.n = n;
  s.m = m;
  s.seed = seed;
  return s;
}

ScalableGenSpec sgnp_spec(NodeId n, double p, std::uint64_t seed) {
  ScalableGenSpec s;
  s.family = ScalableFamily::kGnp;
  s.n = n;
  s.p = p;
  s.seed = seed;
  return s;
}

// ---------------------------------------------------------------------------
// The determinism contract: thread count and spill budget never change a
// single byte of the output container.
// ---------------------------------------------------------------------------

/// One input per family whose vertex range spans many finalize chunks and
/// ends in a partial one: at n = 100,003 a chunk holds 2^11 vertices, so
/// there are 48 full chunks and a 49th of 1,699 vertices. Chunk boundaries
/// must never reach the bytes.
const ScalableGenSpec kManyChunkSpecs[] = {
    ba_spec(100003, 2, 11),
    rgg_spec(100003, 0.004, 12),
    sgnm_spec(100003, 200000, 13),
    sgnp_spec(100003, 4.0 / 100002, 14),
};

TEST(ScalableGen, ByteIdenticalAcrossThreadCounts) {
  const ScalableGenSpec specs[] = {
      ba_spec(20000, 5, 3),
      rgg_spec(8000, 0.02, 4),
      sgnm_spec(10000, 40000, 5),
      sgnp_spec(4000, 0.003, 6),
      kManyChunkSpecs[0],
      kManyChunkSpecs[1],
      kManyChunkSpecs[2],
      kManyChunkSpecs[3],
  };
  for (const ScalableGenSpec& spec : specs) {
    const std::string baseline = gen_bytes(spec, 1);
    for (const unsigned threads : {2u, 4u, 7u}) {
      EXPECT_TRUE(gen_bytes(spec, threads) == baseline)
          << scalable_family_name(spec.family) << " at " << threads
          << " threads differs from the sequential output";
    }
  }
}

TEST(ScalableGen, ByteIdenticalUnderForcedSpill) {
  // A 4 KiB budget is far below these instances' arc volume, so every chunk
  // round-trips through the spill files; the bytes must not move.
  const ScalableGenSpec specs[] = {
      ba_spec(20000, 5, 3),
      rgg_spec(8000, 0.02, 4),
      kManyChunkSpecs[0],
      kManyChunkSpecs[1],
      kManyChunkSpecs[2],
      kManyChunkSpecs[3],
  };
  for (const ScalableGenSpec& spec : specs) {
    const std::string in_ram = gen_bytes(spec, 4);
    EXPECT_TRUE(gen_bytes(spec, 4, /*budget_bytes=*/4096) == in_ram)
        << scalable_family_name(spec.family)
        << ": spill path changed the output";
    EXPECT_TRUE(gen_bytes(spec, 1, /*budget_bytes=*/4096) == in_ram)
        << scalable_family_name(spec.family)
        << ": sequential spill path changed the output";
  }
}

// ---------------------------------------------------------------------------
// Golden fingerprints: FNV-1a over the whole emitted file. These pin the
// hashed samplers AND the .dcg container bit-for-bit — an intentional change
// to either is a format/generator break and must update these constants
// (and regenerate every committed artifact built from the families).
// ---------------------------------------------------------------------------

TEST(ScalableGen, GoldenFingerprints) {
  EXPECT_EQ(fnv1a64(gen_bytes(ba_spec(2000, 4, 1), 2)),
            0xc124a893e4b9f5ecull);
  EXPECT_EQ(fnv1a64(gen_bytes(rgg_spec(1500, 0.04, 2), 2)),
            0x4a919a59c332a970ull);
  EXPECT_EQ(fnv1a64(gen_bytes(sgnm_spec(1200, 6000, 3), 2)),
            0xa8aea1efcda1a8a3ull);
  EXPECT_EQ(fnv1a64(gen_bytes(sgnp_spec(900, 0.01, 4), 2)),
            0x43b18e645b790a53ull);
}

// ---------------------------------------------------------------------------
// The emitted container is the canonical encoding: reading it back (heap or
// mmap) and re-serializing reproduces the file bytes exactly.
// ---------------------------------------------------------------------------

TEST(ScalableGen, EmitsCanonicalDcgBytes) {
  const std::string path = (test_dir() / "canonical.dcg").string();
  ExecHolder holder = make_exec_holder(2);
  const ScalableGenResult res =
      generate_scalable_dcg(ba_spec(5000, 4, 7), path, holder.exec);
  const std::string file_bytes = slurp_file(path);

  const Graph owned = read_graph_file(path);
  EXPECT_EQ(owned.num_nodes(), res.n);
  EXPECT_EQ(owned.num_edges(), res.num_edges);
  EXPECT_EQ(owned.max_degree(), res.max_degree);
  EXPECT_TRUE(dcg_bytes(owned) == file_bytes);

  const Graph mapped = map_dcg_file(path);
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_TRUE(mapped.mapped_bytes() == file_bytes);
  for (NodeId v = 0; v < owned.num_nodes(); ++v) {
    ASSERT_EQ(owned.degree(v), mapped.degree(v)) << "node " << v;
  }
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Statistical shape per family (loose bounds — these are sanity checks on
// the samplers, not distribution tests; the fingerprints above pin the
// exact output).
// ---------------------------------------------------------------------------

TEST(ScalableGen, BaDegreeDistributionIsHeavyTailed) {
  const std::string path = (test_dir() / "ba-shape.dcg").string();
  const ScalableGenResult res = generate_scalable_dcg(ba_spec(20000, 4, 1),
                                                      path);
  const Graph g = read_graph_file(path);
  fs::remove(path);
  // Each of the n steps adds at most d distinct edges (self-loops dropped,
  // duplicates collapse), and nearly all survive.
  EXPECT_LE(res.num_edges, std::uint64_t{20000} * 4);
  EXPECT_GE(res.num_edges, std::uint64_t{20000} * 4 * 9 / 10);
  // Preferential attachment grows hubs far beyond the arc parameter.
  EXPECT_GE(g.max_degree(), 10u * 4u);
  // ... but most nodes stay near the minimum: the median degree is O(d).
  std::size_t small = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) small += g.degree(v) <= 12;
  EXPECT_GE(small, g.num_nodes() * 3u / 4u);
}

TEST(ScalableGen, RggEdgeCountNearExpectation) {
  const NodeId n = 8000;
  const double r = 0.02;
  const ScalableGenResult res =
      generate_scalable_dcg(rgg_spec(n, r, 4),
                            (test_dir() / "rgg-shape.dcg").string());
  fs::remove(test_dir() / "rgg-shape.dcg");
  // E[m] ~= n^2/2 * pi r^2 (boundary effects push it slightly below).
  const double expected = 0.5 * double(n) * double(n) * 3.14159265 * r * r;
  EXPECT_GE(res.num_edges, std::uint64_t(expected * 0.7));
  EXPECT_LE(res.num_edges, std::uint64_t(expected * 1.3));
}

TEST(ScalableGen, SgnmEdgeCountNearRequested) {
  const ScalableGenResult res =
      generate_scalable_dcg(sgnm_spec(10000, 40000, 5),
                            (test_dir() / "sgnm-shape.dcg").string());
  fs::remove(test_dir() / "sgnm-shape.dcg");
  // m hashed draws minus self-loops (1/n) and collisions (birthday term).
  EXPECT_LE(res.num_edges, 40000u);
  EXPECT_GE(res.num_edges, 39000u);
}

TEST(ScalableGen, SgnpEdgeCountNearExpectation) {
  const NodeId n = 4000;
  const double p = 0.003;
  const ScalableGenResult res =
      generate_scalable_dcg(sgnp_spec(n, p, 6),
                            (test_dir() / "sgnp-shape.dcg").string());
  fs::remove(test_dir() / "sgnp-shape.dcg");
  const double expected = p * double(n) * double(n - 1) / 2;
  EXPECT_GE(res.num_edges, std::uint64_t(expected * 0.9));
  EXPECT_LE(res.num_edges, std::uint64_t(expected * 1.1));
}

TEST(ScalableGen, RejectsOutOfDomainParameters) {
  const std::string path = (test_dir() / "reject.dcg").string();
  EXPECT_THROW(generate_scalable_dcg(ba_spec(0, 4, 1), path), CheckError);
  EXPECT_THROW(generate_scalable_dcg(ba_spec(100, 0, 1), path), CheckError);
  EXPECT_THROW(generate_scalable_dcg(rgg_spec(100, 0.0, 1), path),
               CheckError);
  EXPECT_THROW(generate_scalable_dcg(rgg_spec(100, 1.5, 1), path),
               CheckError);
  EXPECT_THROW(generate_scalable_dcg(sgnp_spec(100, -0.1, 1), path),
               CheckError);
  EXPECT_THROW(generate_scalable_dcg(sgnp_spec(100, 1.1, 1), path),
               CheckError);
  EXPECT_FALSE(fs::exists(path)) << "a failed generation must not leave the "
                                    "output file behind (atomic write)";
}

// ---------------------------------------------------------------------------
// The mmap read path on damaged files: structural header problems fail at
// map time; adjacency damage fails lazily, at the first touch of the
// damaged vertex block, as a clean CheckError naming the file.
// ---------------------------------------------------------------------------

/// Generate a ba graph to `path` and return its byte size.
std::string make_victim(const std::string& path) {
  generate_scalable_dcg(ba_spec(20000, 4, 9), path);
  return slurp_file(path);
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

TEST(ScalableGen, MapRejectsTruncationEagerly) {
  const std::string path = (test_dir() / "trunc.dcg").string();
  const std::string bytes = make_victim(path);
  write_raw(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(map_dcg_file(path), CheckError);
  fs::remove(path);
}

TEST(ScalableGen, MapRejectsNonMonotoneOffsetsEagerly) {
  const std::string path = (test_dir() / "offsets.dcg").string();
  std::string bytes = make_victim(path);
  // Offsets live at [32, 32 + 8(n+1)); blow up an entry in the middle.
  const std::size_t victim = 32 + 8 * 1000;
  bytes[victim + 7] = char(0xff);
  write_raw(path, bytes);
  EXPECT_THROW(map_dcg_file(path), CheckError);
  fs::remove(path);
}

TEST(ScalableGen, AdjacencyDamageSurfacesLazilyAtFirstTouch) {
  const std::string path = (test_dir() / "adj.dcg").string();
  std::string bytes = make_victim(path);
  const Graph intact = map_dcg_file(path);
  const NodeId n = intact.num_nodes();
  ASSERT_GT(n, 2u * 4096u) << "need several lazy-validation blocks";
  // Damage the adjacency of a node in the LAST block: point its first
  // neighbor entry out of range.
  const NodeId victim_node = n - 1000;
  const std::size_t adj_base = 32 + 8 * (std::size_t{n} + 1);
  // Find the victim's arc offset by walking degrees (mapped accessors on the
  // intact graph are fine — the file on disk is still clean).
  std::size_t arc = 0;
  for (NodeId v = 0; v < victim_node; ++v) arc += intact.degree(v);
  ASSERT_GE(intact.degree(victim_node), 1u);
  const std::size_t off = adj_base + 4 * arc;
  bytes[off] = char(0xff);
  bytes[off + 1] = char(0xff);
  bytes[off + 2] = char(0xff);
  bytes[off + 3] = char(0x7f);  // neighbor 0x7fffffff: far out of range
  write_raw(path, bytes);

  const Graph damaged = map_dcg_file(path);  // offsets pass still clean
  // Touching an early block is fine...
  EXPECT_NO_THROW((void)damaged.neighbors(0));
  // ...the damaged block fails with a CheckError that names the file.
  try {
    (void)damaged.neighbors(victim_node);
    FAIL() << "expected CheckError on the damaged block";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("adj.dcg"), std::string::npos)
        << "error should name the file: " << e.what();
  }
  fs::remove(path);
}

}  // namespace
}  // namespace detcol
