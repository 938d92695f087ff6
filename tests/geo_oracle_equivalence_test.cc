// Oracle-equivalence harness for the batched bucket-CH backend.
//
// The batch API's contract (travel_time_oracle.h) is that ManyToOne /
// OneToMany / ManyToMany return exactly the values the equivalent Cost()
// loop would produce. For the bucket backend that is a *bitwise* claim
// against the per-query CH oracle: both compute min over meeting nodes v of
// dist_up(s, v) + dist_down(v, t) from the same search graphs with the same
// Dijkstra relaxation order, so not even the last ulp may differ — which is
// what lets the simulation flip backends without perturbing a single metric
// (see the GeoBackend axis of sim_parallel_determinism_test).
//
// Against plain Dijkstra on the original graph the comparison is NEAR(1e-9),
// the repo's precedent for CH-vs-Dijkstra (geo_ch_stress_test.cc): shortcut
// weights are sums of arc weights accumulated in a different association
// order, so exact FP equality is not guaranteed there — only for
// unreachable (kInfCost) and source == target (0.0) verdicts.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/geo/bucket_ch.h"
#include "src/geo/city_generator.h"
#include "src/geo/contraction_hierarchy.h"
#include "src/geo/dijkstra.h"
#include "src/geo/travel_time_oracle.h"

namespace watter {
namespace {

std::shared_ptr<const ContractionHierarchy> BuildCh(const Graph& graph) {
  auto ch = ContractionHierarchy::Build(graph);
  EXPECT_TRUE(ch.ok());
  return std::make_shared<const ContractionHierarchy>(std::move(ch).value());
}

/// Draws a batch of nodes that deliberately includes the adversarial shapes:
/// duplicates (exercises the distinct-endpoint dedupe) and, with `apex`
/// given, the apex itself (source == target must short-circuit to 0.0).
std::vector<NodeId> DrawBatch(const City& city, Rng* rng, int max_size,
                              NodeId apex = kInvalidNode) {
  int size = static_cast<int>(rng->UniformInt(1, max_size));
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    double roll = rng->Uniform(0.0, 1.0);
    if (roll < 0.15 && !nodes.empty()) {
      nodes.push_back(nodes[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(nodes.size()) - 1))]);
    } else if (roll < 0.3 && apex != kInvalidNode) {
      nodes.push_back(apex);
    } else {
      nodes.push_back(city.RandomNode(rng));
    }
  }
  return nodes;
}

class OracleEquivalenceTest : public testing::TestWithParam<uint64_t> {};

// Bitwise batch-vs-per-query equivalence on generated cities, all three
// batch shapes, across repeated rounds so later batches also exercise the
// memo-cache hit paths of both oracles.
TEST_P(OracleEquivalenceTest, BucketBatchesMatchPerQueryChBitwise) {
  const uint64_t seed = GetParam();
  auto city = GenerateCity({.width = 18, .height = 18, .jitter = 0.3,
                            .center_slowdown = 1.8,
                            .seed = seed});
  ASSERT_TRUE(city.ok());
  auto ch = BuildCh(city->graph);
  ChOracle per_query(ch);
  BucketChOracle bucket(ch);
  ASSERT_TRUE(bucket.NativeBatch());
  ASSERT_FALSE(per_query.NativeBatch());

  Rng rng(seed * 31 + 7);
  for (int round = 0; round < 25; ++round) {
    NodeId apex = city->RandomNode(&rng);

    std::vector<NodeId> sources = DrawBatch(*city, &rng, 12, apex);
    std::vector<double> got(sources.size());
    bucket.ManyToOne(sources, apex, got);
    for (size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(got[i], per_query.Cost(sources[i], apex))
          << "seed " << seed << " round " << round << " m2o slot " << i;
      EXPECT_EQ(got[i], bucket.Cost(sources[i], apex)) << "self-consistency";
    }

    std::vector<NodeId> targets = DrawBatch(*city, &rng, 12, apex);
    got.assign(targets.size(), -1.0);
    bucket.OneToMany(apex, targets, got);
    for (size_t j = 0; j < targets.size(); ++j) {
      EXPECT_EQ(got[j], per_query.Cost(apex, targets[j]))
          << "seed " << seed << " round " << round << " o2m slot " << j;
    }

    std::vector<NodeId> rows = DrawBatch(*city, &rng, 6);
    std::vector<NodeId> cols = DrawBatch(*city, &rng, 6);
    std::vector<double> matrix(rows.size() * cols.size(), -1.0);
    bucket.ManyToMany(rows, cols, matrix);
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t j = 0; j < cols.size(); ++j) {
        EXPECT_EQ(matrix[i * cols.size() + j],
                  per_query.Cost(rows[i], cols[j]))
            << "seed " << seed << " round " << round << " m2m " << i << ","
            << j;
      }
    }
  }
}

// The same batches against plain Dijkstra ground truth on the original
// graph: NEAR(1e-9) for finite costs, exact for 0.0/unreachable verdicts.
TEST_P(OracleEquivalenceTest, BucketBatchesMatchDijkstraGroundTruth) {
  const uint64_t seed = GetParam();
  auto city = GenerateCity({.width = 14, .height = 14, .jitter = 0.35,
                            .seed = seed + 100});
  ASSERT_TRUE(city.ok());
  BucketChOracle bucket(BuildCh(city->graph));
  Dijkstra reference(&city->graph);

  Rng rng(seed * 17 + 3);
  for (int round = 0; round < 8; ++round) {
    NodeId target = city->RandomNode(&rng);
    std::vector<NodeId> sources = DrawBatch(*city, &rng, 10, target);
    std::vector<double> got(sources.size());
    bucket.ManyToOne(sources, target, got);
    for (size_t i = 0; i < sources.size(); ++i) {
      reference.Run(sources[i], target);
      double expected = reference.DistanceTo(target);
      if (sources[i] == target) {
        EXPECT_EQ(got[i], 0.0);
      } else {
        EXPECT_NEAR(got[i], expected, 1e-9)
            << "seed " << seed << " " << sources[i] << "->" << target;
      }
    }

    NodeId source = city->RandomNode(&rng);
    std::vector<NodeId> targets = DrawBatch(*city, &rng, 10, source);
    got.assign(targets.size(), -1.0);
    bucket.OneToMany(source, targets, got);
    reference.Run(source);
    for (size_t j = 0; j < targets.size(); ++j) {
      if (targets[j] == source) {
        EXPECT_EQ(got[j], 0.0);
      } else {
        EXPECT_NEAR(got[j], reference.DistanceTo(targets[j]), 1e-9)
            << "seed " << seed << " " << source << "->" << targets[j];
      }
    }
  }
}

// Unreachable pairs: generated cities are connected, so disconnection needs
// a hand-built graph. Two disjoint directed chains — every cross-component
// pair (and every wrong-direction intra-chain pair) must come back kInfCost
// from batch and per-query paths alike, with no contamination of the
// reachable slots sharing the batch.
TEST_P(OracleEquivalenceTest, UnreachablePairsAreExactlyInfinite) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 13 + 1);
  Graph g;
  const int kChain = 5;  // Nodes 0..4 and 5..9, no arcs between them.
  for (int i = 0; i < 2 * kChain; ++i) {
    g.AddNode({static_cast<double>(i), 0.0});
  }
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < kChain - 1; ++i) {
      NodeId a = c * kChain + i;
      g.AddEdge(a, a + 1, rng.Uniform(1.0, 9.0));  // One-way chains.
    }
  }
  ASSERT_TRUE(g.Finalize().ok());
  auto ch = BuildCh(g);
  ChOracle per_query(ch);
  BucketChOracle bucket(ch);

  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back(v);
  std::vector<double> matrix(all.size() * all.size(), -1.0);
  bucket.ManyToMany(all, all, matrix);
  int unreachable = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    std::vector<double> row(all.size(), -1.0);
    bucket.OneToMany(all[i], all, row);
    std::vector<double> col(all.size(), -1.0);
    bucket.ManyToOne(all, all[i], col);
    for (size_t j = 0; j < all.size(); ++j) {
      double expected = per_query.Cost(all[i], all[j]);
      EXPECT_EQ(matrix[i * all.size() + j], expected) << i << "," << j;
      EXPECT_EQ(row[j], expected) << i << "," << j;
      EXPECT_EQ(col[j], per_query.Cost(all[j], all[i])) << j << "," << i;
      if (expected == kInfCost) ++unreachable;
    }
  }
  // 5x5 cross-pairs each way plus the backward intra-chain pairs: the
  // unreachable case is exercised in bulk, not incidentally.
  EXPECT_GE(unreachable, 2 * kChain * kChain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleEquivalenceTest,
                         testing::Values(11u, 4242u, 987001u));

// Degenerate shapes that must not crash or touch out-of-batch memory:
// empty batches, single-element batches, and out-of-range node ids (which
// Cost() answers with kInfCost — or 0.0 when both endpoints are the same
// id, equality being checked before range).
TEST(OracleEquivalenceEdgeTest, EmptySingletonAndOutOfRangeBatches) {
  auto city = GenerateCity({.width = 6, .height = 6, .seed = 5});
  ASSERT_TRUE(city.ok());
  auto ch = BuildCh(city->graph);
  ChOracle per_query(ch);
  BucketChOracle bucket(ch);
  const NodeId n = city->graph.num_nodes();

  bucket.ManyToOne({}, 0, {});
  bucket.OneToMany(0, {}, {});
  bucket.ManyToMany({}, {}, {});

  std::vector<NodeId> batch = {0, n, -1, n + 7, 3, n};
  std::vector<double> got(batch.size());
  bucket.ManyToOne(batch, 2, got);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], per_query.Cost(batch[i], 2)) << i;
  }
  bucket.OneToMany(2, batch, got);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], per_query.Cost(2, batch[i])) << i;
  }
  // Out-of-range apex: every slot kInfCost except the equal-id ones.
  bucket.ManyToOne(batch, n, got);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], batch[i] == n ? 0.0 : kInfCost) << i;
  }
  std::vector<double> matrix(batch.size() * batch.size());
  bucket.ManyToMany(batch, batch, matrix);
  for (size_t i = 0; i < batch.size(); ++i) {
    for (size_t j = 0; j < batch.size(); ++j) {
      EXPECT_EQ(matrix[i * batch.size() + j],
                per_query.Cost(batch[i], batch[j]))
          << i << "," << j;
    }
  }

  std::vector<NodeId> one = {1};
  std::vector<double> one_out(1);
  bucket.ManyToOne(one, 4, one_out);
  EXPECT_EQ(one_out[0], per_query.Cost(1, 4));
}

// Batch diagnostics: the counters the platform surfaces must account one
// point result per batch slot plus one batch record per call, and the
// bucket build clock only advances when buckets are actually built (cache
// hits and trivial slots build nothing).
TEST(OracleEquivalenceEdgeTest, BatchCountersAccountEverySlot) {
  auto city = GenerateCity({.width = 8, .height = 8, .seed = 6});
  ASSERT_TRUE(city.ok());
  BucketChOracle bucket(BuildCh(city->graph));
  std::vector<NodeId> sources = {1, 2, 3, 1};
  std::vector<double> out(sources.size());

  bucket.ManyToOne(sources, 9, out);
  EXPECT_EQ(bucket.batch_count(), 1);
  EXPECT_EQ(bucket.batch_points(), 4);
  EXPECT_EQ(bucket.query_count(), 4);
  double built_once = bucket.bucket_build_seconds();
  EXPECT_GE(built_once, 0.0);

  // Fully cached repeat: another batch record, no new bucket builds.
  bucket.ManyToOne(sources, 9, out);
  EXPECT_EQ(bucket.batch_count(), 2);
  EXPECT_EQ(bucket.batch_points(), 8);
  EXPECT_EQ(bucket.bucket_build_seconds(), built_once);

  std::vector<double> matrix(sources.size() * sources.size());
  bucket.ManyToMany(sources, sources, matrix);
  EXPECT_EQ(bucket.batch_count(), 3);
  EXPECT_EQ(bucket.batch_points(), 8 + 8);
  EXPECT_EQ(bucket.query_count(), 8 + 16);
}

// The diagnostic counters are exact under concurrent callers: N threads
// each issuing M point queries and M batches through the wait-free matrix
// oracle must add up to exactly N * M of each. 80 threads outnumber the
// per-thread counter slots, so the shared overflow slot is exercised too.
TEST(OracleCounterTest, ConcurrentCountsAreExact) {
  auto city = GenerateCity({.width = 6, .height = 6, .seed = 3});
  ASSERT_TRUE(city.ok());
  auto oracle = BuildOracle(city->graph, OracleKind::kMatrix);
  ASSERT_TRUE(oracle.ok());
  TravelTimeOracle* shared = oracle->get();
  constexpr int kThreads = 80;
  constexpr int kCalls = 20000;
  const int64_t queries = shared->query_count();
  const int64_t batches = shared->batch_count();
  const int64_t points = shared->batch_points();
  std::latch start(kThreads);  // Every thread counts at the same time.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([shared, t, &start] {
      start.arrive_and_wait();
      const std::vector<NodeId> targets = {1, 2, 3};
      std::vector<double> out(targets.size());
      double sink = 0.0;
      for (int i = 0; i < kCalls; ++i) {
        sink += shared->Cost(t % 36, i % 36);
        shared->OneToMany(t % 36, targets, out);
      }
      EXPECT_GE(sink, 0.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  constexpr int64_t kTotal = int64_t{kThreads} * kCalls;
  // One point query per Cost() plus three per OneToMany (the base-class
  // loop answers each slot with Cost()).
  EXPECT_EQ(shared->query_count() - queries, kTotal * 4);
  EXPECT_EQ(shared->batch_count() - batches, kTotal);
  EXPECT_EQ(shared->batch_points() - points, kTotal * 3);
}

}  // namespace
}  // namespace watter
