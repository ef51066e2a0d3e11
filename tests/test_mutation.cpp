// Deterministic mutation sweep over the .dcg input surface. Every corpus
// file is damaged by seeded bit flips, truncations, header-field lies and
// range splices, and every mutant must load as a Graph or fail with a
// CheckError: never crash, throw anything else or trip a sanitizer. Each
// mutant goes through parse_dcg as it is and with its checksum rewritten
// (so the damage reaches the structural checks), and through map_dcg_file
// with a walk of every neighbors() list (the lazy per-block checks). A case
// is a pure function of its file and index, and every failure names both.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "graph/formats.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

// A sanitizer report ends the process before any assertion can print; the
// runtime's death callback (null without a sanitizer) names the running case.
extern "C" void __sanitizer_set_death_callback(void (*callback)())
    __attribute__((weak));

namespace detcol {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kCasesPerFile = 1200;
constexpr const char* kCorpus[] = {"karate.dcg", "myciel7.dcg", "queens8.dcg",
                                   "threshold32.dcg"};
constexpr const char* kKinds[] = {"bit flips", "truncation", "header lie",
                                  "range splice"};

const char* g_file = "";
std::uint64_t g_case = 0;

void name_running_case() {
  std::fprintf(stderr, "mutation sweep died in %s case %llu\n", g_file,
               static_cast<unsigned long long>(g_case));
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t get_le64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 8; i-- > 0;) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

void put_le64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>(v >> (8 * i));
  }
}

/// Rewrites the FNV-1a trailer to match the (damaged) body.
std::string rechecksum(std::string bytes) {
  if (bytes.size() >= 8) {
    const std::size_t body = bytes.size() - 8;
    put_le64(bytes, body, fnv1a64(std::string_view(bytes).substr(0, body)));
  }
  return bytes;
}

/// Mutant `index` of `base`; its kind is kKinds[index % 4]. Splices copy
/// from `donor` (another corpus file) or from `base` itself.
std::string mutate(const std::string& base, const std::string& donor,
                   std::uint64_t index) {
  Xoshiro256 rng(sub_seed(0xDC6A07A7E5EEDULL, index));
  std::string out = base;
  switch (index % 4) {
    case 0: {  // 1-4 bit flips anywhere
      for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
        const std::uint64_t bit = rng.next_below(out.size() * 8);
        out[bit / 8] = static_cast<char>(out[bit / 8] ^ (1 << (bit % 8)));
      }
      break;
    }
    case 1:  // keep a strict prefix
      out.resize(rng.next_below(out.size()));
      break;
    case 2: {  // a plausible lie in n, m, flags or an offset
      const std::uint64_t n = get_le64(base, 8);
      const std::size_t fields[] = {8, 16, 24, 32, 32 + 8 * n,
                                    32 + 8 * rng.next_below(n + 1)};
      const std::size_t at = fields[rng.next_below(std::size(fields))];
      const std::uint64_t v = get_le64(base, at);
      const std::uint64_t lies[] = {v + 1,          v - 1,
                                    0,              1,
                                    v * 2,          v / 2,
                                    std::uint64_t{1} << 32,
                                    (std::uint64_t{1} << 32) - 1,
                                    std::uint64_t{1} << 63,
                                    ~std::uint64_t{0}, rng.next()};
      put_le64(out, at, lies[rng.next_below(std::size(lies))]);
      break;
    }
    default: {  // overwrite, insert or erase a byte range
      const std::string& from = rng.next_below(2) == 0 ? donor : base;
      const std::size_t src = rng.next_below(from.size());
      const std::size_t dst = rng.next_below(out.size());
      const std::size_t len = 1 + rng.next_below(64);
      const std::string piece = from.substr(src, len);
      switch (rng.next_below(3)) {
        case 0: out.replace(dst, piece.size(), piece); break;
        case 1: out.insert(dst, piece); break;
        default: out.erase(dst, len); break;
      }
      break;
    }
  }
  return out;
}

/// Runs `load` on one case: a CheckError passes, any other exception fails
/// naming the case.
template <class Load>
void expect_graph_or_check_error(const char* how, std::uint64_t index,
                                 Load&& load) {
  const std::string where = std::string(g_file) + " case " +
                            std::to_string(index) + " (" +
                            kKinds[index % 4] + ", " + how + ")";
  try {
    load(where);
  } catch (const CheckError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": not a CheckError: " << e.what();
  } catch (...) {
    ADD_FAILURE() << where << ": threw a non-exception";
  }
}

class DcgMutation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DcgMutation, EveryMutantLoadsOrFailsWithCheckError) {
  const std::size_t which = GetParam();
  g_file = kCorpus[which];
  const fs::path dir = DETCOL_CORPUS_DIR;
  const std::string base = read_bytes(dir / kCorpus[which]);
  const std::string donor =
      read_bytes(dir / kCorpus[(which + 1) % std::size(kCorpus)]);
  ASSERT_EQ(base, dcg_bytes(parse_dcg(base)));  // a valid starting point
  const fs::path mapped = fs::path(::testing::TempDir()) /
                          ("detcol_mutation_" + std::to_string(::getpid()) +
                           "_" + kCorpus[which]);
  if (__sanitizer_set_death_callback != nullptr) {
    __sanitizer_set_death_callback(name_running_case);
  }

  // parse_dcg accepts only canonical bytes, so an accepted mutant must be
  // exactly the encoding of the graph it yields.
  const auto parse = [](const std::string& bytes, const std::string& where) {
    EXPECT_EQ(dcg_bytes(parse_dcg(bytes, where)), bytes) << where;
  };
  for (std::uint64_t index = 0; index < kCasesPerFile; ++index) {
    g_case = index;
    const std::string as_is = mutate(base, donor, index);
    const std::string sealed = rechecksum(as_is);
    expect_graph_or_check_error("parse", index, [&](const std::string& w) {
      parse(as_is, w);
    });
    expect_graph_or_check_error("parse resealed", index,
                                [&](const std::string& w) {
                                  parse(sealed, w);
                                });
    write_bytes(mapped, sealed);
    expect_graph_or_check_error("map", index, [&](const std::string& w) {
      const Graph g = map_dcg_file(mapped.string());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        for (const NodeId u : g.neighbors(v)) {
          ASSERT_LT(u, g.num_nodes()) << w << ": node " << v;
        }
      }
    });
  }
  fs::remove(mapped);
}

INSTANTIATE_TEST_SUITE_P(Corpus, DcgMutation,
                         ::testing::Range<std::size_t>(0, std::size(kCorpus)),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           std::string name = kCorpus[p.param];
                           return name.substr(0, name.find('.'));
                         });

}  // namespace
}  // namespace detcol
