// Cross-validates all shortest-path backends against each other: plain
// Dijkstra is the reference; contraction hierarchies, the APSP matrix and
// all oracle wrappers must agree exactly (up to float rounding for the
// matrix).
#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/geo/apsp.h"
#include "src/geo/city_generator.h"
#include "src/geo/contraction_hierarchy.h"
#include "src/geo/dijkstra.h"
#include "src/geo/travel_time_oracle.h"

namespace watter {
namespace {

Graph LineGraph() {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode({static_cast<double>(i), 0});
  for (int i = 0; i + 1 < 5; ++i) g.AddBidirectionalEdge(i, i + 1, 2.0);
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

TEST(DijkstraTest, LineGraphDistances) {
  Graph g = LineGraph();
  Dijkstra search(&g);
  search.Run(0);
  for (int v = 0; v < 5; ++v) EXPECT_DOUBLE_EQ(search.DistanceTo(v), 2.0 * v);
}

TEST(DijkstraTest, PathReconstruction) {
  Graph g = LineGraph();
  Dijkstra search(&g);
  search.Run(0, 4);
  std::vector<NodeId> expected = {0, 1, 2, 3, 4};
  EXPECT_EQ(search.PathTo(4), expected);
}

TEST(DijkstraTest, UnreachableIsInfinite) {
  Graph g;
  g.AddNode({0, 0});
  g.AddNode({1, 0});
  ASSERT_TRUE(g.Finalize().ok());
  Dijkstra search(&g);
  search.Run(0);
  EXPECT_EQ(search.DistanceTo(1), kInfCost);
  EXPECT_TRUE(search.PathTo(1).empty());
}

TEST(DijkstraTest, ReverseSearchUsesIncomingArcs) {
  Graph g;
  NodeId a = g.AddNode({0, 0});
  NodeId b = g.AddNode({1, 0});
  g.AddEdge(a, b, 3.0);
  ASSERT_TRUE(g.Finalize().ok());
  Dijkstra search(&g);
  search.Run(b, kInvalidNode, /*reverse=*/true);
  EXPECT_DOUBLE_EQ(search.DistanceTo(a), 3.0);  // a reaches b at cost 3.
  search.Run(a, kInvalidNode, /*reverse=*/true);
  EXPECT_EQ(search.DistanceTo(b), kInfCost);  // Nothing reaches a from b.
}

TEST(DijkstraTest, RepeatedRunsAreIndependent) {
  Graph g = LineGraph();
  Dijkstra search(&g);
  search.Run(0);
  EXPECT_DOUBLE_EQ(search.DistanceTo(4), 8.0);
  search.Run(4);
  EXPECT_DOUBLE_EQ(search.DistanceTo(0), 8.0);
  EXPECT_DOUBLE_EQ(search.DistanceTo(4), 0.0);
}

TEST(DijkstraTest, EarlyTerminationStillCorrectForTarget) {
  auto city = GenerateCity({.width = 10, .height = 10, .seed = 3});
  ASSERT_TRUE(city.ok());
  Dijkstra full(&city->graph), early(&city->graph);
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    NodeId s = city->RandomNode(&rng);
    NodeId t = city->RandomNode(&rng);
    full.Run(s);
    early.Run(s, t);
    EXPECT_DOUBLE_EQ(early.DistanceTo(t), full.DistanceTo(t));
    EXPECT_LE(early.settled_count(), full.settled_count());
  }
}

class BackendAgreementTest : public testing::TestWithParam<uint64_t> {};

TEST_P(BackendAgreementTest, AllBackendsAgreeOnCity) {
  auto city =
      GenerateCity({.width = 12, .height = 12, .jitter = 0.3,
                    .seed = GetParam()});
  ASSERT_TRUE(city.ok());
  const Graph& g = city->graph;

  Dijkstra reference(&g);
  auto ch = ContractionHierarchy::Build(g);
  ASSERT_TRUE(ch.ok());
  auto matrix = CostMatrix::Build(g);
  ASSERT_TRUE(matrix.ok());

  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 120; ++trial) {
    NodeId s = city->RandomNode(&rng);
    NodeId t = city->RandomNode(&rng);
    reference.Run(s, t);
    double expected = reference.DistanceTo(t);
    EXPECT_NEAR(ch->Query(s, t), expected, 1e-9) << s << "->" << t;
    EXPECT_NEAR(matrix->Cost(s, t), expected, 1e-3) << s << "->" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendAgreementTest,
                         testing::Values(1, 2, 3, 4, 5));

TEST(ContractionHierarchyTest, AgreesOnRandomSparseDigraph) {
  // Non-planar random digraph with a connectivity ring: exercises CH beyond
  // grid topologies, including asymmetric distances.
  const int n = 150;
  Graph g;
  Rng rng(99);
  for (int i = 0; i < n; ++i) {
    g.AddNode({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  for (int i = 0; i < n; ++i) {
    g.AddEdge(i, (i + 1) % n, rng.Uniform(1.0, 5.0));
    for (int k = 0; k < 3; ++k) {
      NodeId to = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      if (to != i) g.AddEdge(i, to, rng.Uniform(1.0, 20.0));
    }
  }
  ASSERT_TRUE(g.Finalize().ok());
  auto ch = ContractionHierarchy::Build(g);
  ASSERT_TRUE(ch.ok());
  Dijkstra reference(&g);
  for (int trial = 0; trial < 200; ++trial) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    reference.Run(s, t);
    EXPECT_NEAR(ch->Query(s, t), reference.DistanceTo(t), 1e-9)
        << s << "->" << t;
  }
}

TEST(ContractionHierarchyTest, DisconnectedPairIsInfinite) {
  Graph g;
  g.AddNode({0, 0});
  g.AddNode({1, 0});
  g.AddNode({2, 0});
  g.AddBidirectionalEdge(0, 1, 1.0);
  ASSERT_TRUE(g.Finalize().ok());
  auto ch = ContractionHierarchy::Build(g);
  ASSERT_TRUE(ch.ok());
  EXPECT_EQ(ch->Query(0, 2), kInfCost);
  EXPECT_DOUBLE_EQ(ch->Query(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ch->Query(1, 1), 0.0);
}

TEST(ApspTest, RefusesOversizedMatrix) {
  Graph g;
  for (int i = 0; i < 100; ++i) g.AddNode({0, 0});
  ASSERT_TRUE(g.Finalize().ok());
  auto matrix = CostMatrix::Build(g, /*max_cells=*/100);
  EXPECT_EQ(matrix.status().code(), StatusCode::kOutOfRange);
}

TEST(OracleTest, AllOracleKindsAgree) {
  auto city = GenerateCity({.width = 10, .height = 10, .seed = 17});
  ASSERT_TRUE(city.ok());
  auto matrix_oracle = BuildOracle(city->graph, OracleKind::kMatrix);
  auto ch_oracle = BuildOracle(city->graph, OracleKind::kCh);
  auto dijkstra_oracle = BuildOracle(city->graph, OracleKind::kDijkstra);
  ASSERT_TRUE(matrix_oracle.ok());
  ASSERT_TRUE(ch_oracle.ok());
  ASSERT_TRUE(dijkstra_oracle.ok());
  Rng rng(5);
  for (int trial = 0; trial < 80; ++trial) {
    NodeId s = city->RandomNode(&rng);
    NodeId t = city->RandomNode(&rng);
    double reference = (*dijkstra_oracle)->Cost(s, t);
    EXPECT_NEAR((*ch_oracle)->Cost(s, t), reference, 1e-9);
    EXPECT_NEAR((*matrix_oracle)->Cost(s, t), reference, 1e-3);
  }
  EXPECT_GT((*dijkstra_oracle)->query_count(), 0);
}

TEST(OracleTest, ChOracleCachesRepeatQueries) {
  auto city = GenerateCity({.width = 8, .height = 8, .seed = 4});
  ASSERT_TRUE(city.ok());
  auto ch = ContractionHierarchy::Build(city->graph);
  ASSERT_TRUE(ch.ok());
  ChOracle oracle(
      std::make_shared<const ContractionHierarchy>(std::move(ch).value()));
  double first = oracle.Cost(0, 10);
  size_t size_after_first = oracle.cache_size();
  double second = oracle.Cost(0, 10);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(oracle.cache_size(), size_after_first);
}

}  // namespace
}  // namespace watter
