// Failure injection: every documented precondition violation must surface as
// a CheckError (never UB, never a silent wrong answer).
#include <gtest/gtest.h>

#include "core/color_reduce.hpp"
#include "graph/generators.hpp"
#include "lowspace/low_space.hpp"
#include "sim/clique_sim.hpp"
#include "sim/mpc_sim.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

TEST(Failure, PaletteEqualToDegreeRejected) {
  // p(v) == d(v) (not strictly larger) must be rejected up front.
  const Graph g = gen_complete(5);
  const PaletteSet pal = PaletteSet::uniform(5, 4);
  EXPECT_THROW(color_reduce(g, pal), CheckError);
  EXPECT_THROW(low_space_color(g, pal), CheckError);
}

TEST(Failure, OneDeficientNodeIsEnough) {
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  std::vector<std::vector<Color>> lists = {{1, 2}, {3}, {4, 5}};  // node 1: p=1=deg-1? deg(1)=2
  const PaletteSet pal{std::move(lists)};
  EXPECT_THROW(color_reduce(g, pal), CheckError);
}

TEST(Failure, CollectBeyondCapacityThrows) {
  const CliqueModel model(100, 2.0, 2.0);
  MpcCosts acc;
  EXPECT_THROW(model.collect(201, "x", acc), CheckError);
}

TEST(Failure, RouteBeyondLenzenBoundThrows) {
  const CliqueModel model(100, 1.0);
  MpcCosts acc;
  EXPECT_THROW(model.lenzen_route(1000, 101, "x", acc), CheckError);
}

TEST(Failure, MpcSpaceViolationsThrow) {
  const MpcModel model(64, 1024);
  MpcCosts acc;
  EXPECT_THROW(model.gather(65, "x", acc), CheckError);
  EXPECT_THROW(model.sort(2048, "x", acc), CheckError);
  EXPECT_THROW(model.note_resident(10, 2048, acc), CheckError);
}

TEST(Failure, TinyCollectSlackSurfacesModelViolation) {
  // With an absurdly small machine, Algorithm 1's collect step must fail
  // loudly instead of silently overflowing "machine memory".
  const Graph g = gen_complete(64);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  ColorReduceConfig cfg;
  cfg.collect_slack = 1.0;   // capacity = n words, K_64 needs ~4x more
  cfg.route_slack = 64.0;    // keep routing out of the way
  cfg.part.min_ell = 1e9;    // force immediate collect
  EXPECT_THROW(color_reduce(g, pal, cfg), CheckError);
}

TEST(Failure, MalformedConfigRejected) {
  // Graph dense enough that a partition (and thus seed selection) happens.
  const Graph g = gen_gnp(300, 0.1, 1);
  const PaletteSet pal = PaletteSet::delta_plus_one(g);
  ColorReduceConfig cfg;
  cfg.part.collect_factor = 0.5;
  cfg.part.seed.chunk_bits = 0;  // invalid
  EXPECT_THROW(color_reduce(g, pal, cfg), CheckError);
}

TEST(Failure, ModelsRejectDegenerateConstruction) {
  EXPECT_THROW(CliqueModel(0), CheckError);
  EXPECT_THROW(CliqueModel(4, 0.5), CheckError);
  EXPECT_THROW(MpcModel(0, 10), CheckError);
  EXPECT_THROW(MpcModel(100, 10), CheckError);
}

TEST(Failure, GraphPreconditionsEnforcedThroughPipeline) {
  // Self-loop rejection happens at construction, before any algorithm.
  const std::vector<Edge> loop = {{1, 1}};
  EXPECT_THROW(Graph::from_edges(3, loop), CheckError);
}

}  // namespace
}  // namespace detcol
