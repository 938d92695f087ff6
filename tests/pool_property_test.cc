// Randomized property tests of the order pool: a stream of insertions,
// removals and expiries on a real city must preserve the structural
// invariants of the temporal shareability graph and the best-group map,
// incremental edge maintenance must match a from-scratch rebuild, and the
// parallel maintenance paths must match the serial ones bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/geo/city_generator.h"
#include "src/pool/order_pool.h"
#include "tests/test_util.h"

namespace watter {
namespace {

class PoolPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PoolPropertyTest, InvariantsHoldUnderRandomStreams) {
  auto city = GenerateCity({.width = 14, .height = 14, .seed = GetParam()});
  ASSERT_TRUE(city.ok());
  auto oracle = BuildOracle(city->graph, OracleKind::kMatrix);
  ASSERT_TRUE(oracle.ok());
  OrderPool pool(oracle->get(), PoolOptions{});
  Rng rng(GetParam() * 97 + 1);

  Time now = 0.0;
  OrderId next_id = 1;
  std::vector<OrderId> alive;
  for (int step = 0; step < 300; ++step) {
    now += rng.Uniform(0, 20);
    double action = rng.Uniform();
    if (action < 0.6 || alive.empty()) {
      // Insert a fresh order.
      Order order;
      order.id = next_id++;
      order.pickup = city->RandomNode(&rng);
      do {
        order.dropoff = city->RandomNode(&rng);
      } while (order.dropoff == order.pickup);
      order.riders = static_cast<int>(rng.UniformInt(1, 2));
      order.release = now;
      order.shortest_cost = (*oracle)->Cost(order.pickup, order.dropoff);
      order.deadline = now + rng.Uniform(1.2, 2.0) * order.shortest_cost;
      order.wait_limit = 0.8 * order.shortest_cost;
      ASSERT_TRUE(pool.Insert(order, now).ok());
      alive.push_back(order.id);
    } else if (action < 0.85) {
      // Remove a random resident (simulates dispatch/rejection).
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alive.size()) - 1));
      ASSERT_TRUE(pool.Remove(alive[pick]).ok());
      alive.erase(alive.begin() + static_cast<int64_t>(pick));
    } else {
      pool.ExpireEdges(now);
    }

    // ---- Invariants ----
    ASSERT_EQ(pool.size(), alive.size());
    const ShareabilityGraph& graph = pool.graph();
    int64_t directed_edges = 0;
    for (OrderId id : alive) {
      ASSERT_TRUE(pool.Contains(id));
      for (const ShareEdge& edge : graph.Neighbors(id)) {
        // Symmetry: every edge is mirrored.
        EXPECT_TRUE(graph.HasEdge(edge.other, id))
            << id << "-" << edge.other;
        // Endpoints are resident.
        EXPECT_TRUE(pool.Contains(edge.other));
        // Edge data is sane.
        EXPECT_GT(edge.pair_cost, 0.0);
        ++directed_edges;
      }
    }
    EXPECT_EQ(directed_edges % 2, 0);
    EXPECT_EQ(directed_edges / 2, graph.edge_count());

    // Best groups: verified feasible shared groups containing the owner.
    if (step % 10 == 0) {
      for (OrderId id : alive) {
        const BestGroup* best = pool.BestFor(id, now);
        if (best == nullptr) continue;
        EXPECT_GE(best->size(), 2);
        EXPECT_TRUE(std::binary_search(best->members.begin(),
                                       best->members.end(), id));
        // Members pairwise adjacent (clique property).
        for (size_t i = 0; i < best->members.size(); ++i) {
          for (size_t j = i + 1; j < best->members.size(); ++j) {
            EXPECT_TRUE(graph.HasEdge(best->members[i], best->members[j]));
          }
        }
        // Group not expired and its route is structurally valid.
        EXPECT_GE(best->plan.latest_departure, now);
        std::vector<const Order*> members;
        for (OrderId member : best->members) {
          members.push_back(pool.GetOrder(member));
        }
        EXPECT_TRUE(best->plan.route.SatisfiesPrecedenceAndCapacity(
            members, pool.options().capacity));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolPropertyTest,
                         testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Incremental maintenance vs. from-scratch rebuild, and parallel vs. serial.
// ---------------------------------------------------------------------------

// One scripted mutation, pre-generated so the same stream can be replayed
// into several pools.
struct PoolOp {
  enum Kind { kInsert, kRemove, kExpire } kind;
  Order order;          // kInsert.
  Time inserted_at = 0; // kInsert.
  OrderId target = kInvalidOrder;  // kRemove.
  Time now = 0;
};

// A deterministic random op stream over a generated city. Also returns the
// final timestamp via `end_time`.
std::vector<PoolOp> MakeOpStream(const City& city, TravelTimeOracle* oracle,
                                 uint64_t seed, int steps, Time* end_time) {
  Rng rng(seed * 131 + 5);
  Time now = 0.0;
  OrderId next_id = 1;
  std::vector<OrderId> alive;
  std::vector<PoolOp> ops;
  for (int step = 0; step < steps; ++step) {
    now += rng.Uniform(0, 20);
    double action = rng.Uniform();
    PoolOp op;
    op.now = now;
    if (action < 0.6 || alive.empty()) {
      Order order;
      order.id = next_id++;
      order.pickup = city.RandomNode(&rng);
      do {
        order.dropoff = city.RandomNode(&rng);
      } while (order.dropoff == order.pickup);
      order.riders = static_cast<int>(rng.UniformInt(1, 2));
      order.release = now;
      order.shortest_cost = oracle->Cost(order.pickup, order.dropoff);
      order.deadline = now + rng.Uniform(1.2, 2.0) * order.shortest_cost;
      order.wait_limit = 0.8 * order.shortest_cost;
      op.kind = PoolOp::kInsert;
      op.order = order;
      op.inserted_at = now;
      alive.push_back(order.id);
    } else if (action < 0.85) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alive.size()) - 1));
      op.kind = PoolOp::kRemove;
      op.target = alive[pick];
      alive.erase(alive.begin() + static_cast<int64_t>(pick));
    } else {
      op.kind = PoolOp::kExpire;
    }
    ops.push_back(op);
  }
  *end_time = now;
  return ops;
}

void ApplyOp(OrderPool* pool, const PoolOp& op) {
  switch (op.kind) {
    case PoolOp::kInsert:
      ASSERT_TRUE(pool->Insert(op.order, op.inserted_at).ok());
      break;
    case PoolOp::kRemove:
      ASSERT_TRUE(pool->Remove(op.target).ok());
      break;
    case PoolOp::kExpire:
      pool->ExpireEdges(op.now);
      break;
  }
}

// Adjacency snapshot with edges sorted by neighbor id, for exact comparison.
std::map<OrderId, std::vector<ShareEdge>> SnapshotEdges(
    const ShareabilityGraph& graph) {
  std::map<OrderId, std::vector<ShareEdge>> snapshot;
  for (OrderId id : graph.OrderIds()) {
    std::vector<ShareEdge> edges = graph.Neighbors(id);
    std::sort(edges.begin(), edges.end(),
              [](const ShareEdge& a, const ShareEdge& b) {
                return a.other < b.other;
              });
    snapshot.emplace(id, std::move(edges));
  }
  return snapshot;
}

void ExpectSameEdges(const std::map<OrderId, std::vector<ShareEdge>>& a,
                     const std::map<OrderId, std::vector<ShareEdge>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [id, edges_a] : a) {
    auto it = b.find(id);
    ASSERT_NE(it, b.end()) << "node " << id << " missing";
    const std::vector<ShareEdge>& edges_b = it->second;
    ASSERT_EQ(edges_a.size(), edges_b.size()) << "node " << id;
    for (size_t i = 0; i < edges_a.size(); ++i) {
      EXPECT_EQ(edges_a[i].other, edges_b[i].other) << "node " << id;
      // Bitwise: both sides run the identical planner computation.
      EXPECT_EQ(edges_a[i].expiry, edges_b[i].expiry) << "node " << id;
      EXPECT_EQ(edges_a[i].pair_cost, edges_b[i].pair_cost) << "node " << id;
    }
  }
}

class PoolRebuildPropertyTest : public testing::TestWithParam<uint64_t> {};

// After an arbitrary insert/remove/expire stream, the incrementally
// maintained graph must equal a graph rebuilt from scratch by replaying the
// surviving orders chronologically at their original insertion times (both
// trimmed to the same `now`): incremental maintenance may never leave ghost
// edges behind nor lose live ones.
TEST_P(PoolRebuildPropertyTest, IncrementalEdgesMatchFromScratchRebuild) {
  auto city = GenerateCity({.width = 14, .height = 14, .seed = GetParam()});
  ASSERT_TRUE(city.ok());
  auto oracle = BuildOracle(city->graph, OracleKind::kMatrix);
  ASSERT_TRUE(oracle.ok());

  Time end_time = 0.0;
  std::vector<PoolOp> ops =
      MakeOpStream(*city, oracle->get(), GetParam(), 250, &end_time);

  OrderPool incremental(oracle->get(), PoolOptions{});
  std::map<OrderId, PoolOp> alive;  // Insert ops of resident orders.
  int checkpoints = 0;
  for (size_t step = 0; step < ops.size(); ++step) {
    const PoolOp& op = ops[step];
    ApplyOp(&incremental, op);
    if (testing::Test::HasFatalFailure()) return;
    if (op.kind == PoolOp::kInsert) alive.emplace(op.order.id, op);
    if (op.kind == PoolOp::kRemove) alive.erase(op.target);

    if (step % 50 != 49 && step + 1 != ops.size()) continue;
    ++checkpoints;
    Time now = op.now;
    // Rebuild from scratch: replay the survivors chronologically (std::map
    // iterates ascending ids == ascending insertion order here).
    OrderPool rebuilt(oracle->get(), PoolOptions{});
    for (const auto& [id, insert_op] : alive) {
      ASSERT_TRUE(rebuilt.Insert(insert_op.order, insert_op.inserted_at).ok());
    }
    // Trim both to `now`: the incremental pool may carry expired-but-not-
    // yet-trimmed edges that the rebuild never materializes.
    incremental.ExpireEdges(now);
    rebuilt.ExpireEdges(now);
    ExpectSameEdges(SnapshotEdges(incremental.graph()),
                    SnapshotEdges(rebuilt.graph()));
  }
  EXPECT_GE(checkpoints, 5);
}

// Bitwise best-group comparison between two pools at one timestamp.
void ExpectSameBestGroups(OrderPool* a, OrderPool* b,
                          const std::vector<OrderId>& ids, Time now) {
  for (OrderId id : ids) {
    const BestGroup* ga = a->BestFor(id, now);
    const BestGroup* gb = b->BestFor(id, now);
    ASSERT_EQ(ga == nullptr, gb == nullptr) << "order " << id;
    if (ga == nullptr) continue;
    EXPECT_EQ(ga->members, gb->members) << "order " << id;
    // Bitwise: a cached plan reused at a later time must equal the plan a
    // cold pool computes fresh (min-cost feasible routes are depart-time-
    // invariant while unexpired; see group_plan_cache.h).
    EXPECT_EQ(ga->plan.total_cost, gb->plan.total_cost) << "order " << id;
    EXPECT_EQ(ga->plan.latest_departure, gb->plan.latest_departure)
        << "order " << id;
    EXPECT_EQ(ga->sum_detour, gb->sum_detour) << "order " << id;
    EXPECT_EQ(ga->sum_release, gb->sum_release) << "order " << id;
  }
}

// The same op stream driven through a serial pool and through a pool whose
// maintenance fans out on a 4-thread executor must produce bitwise-identical
// graphs and best groups — the determinism contract of the parallel paths.
// (Under TSan this doubles as the data-race harness for src/pool/.)
TEST_P(PoolRebuildPropertyTest, ParallelMaintenanceMatchesSerial) {
  auto city = GenerateCity({.width = 14, .height = 14, .seed = GetParam()});
  ASSERT_TRUE(city.ok());
  auto oracle = BuildOracle(city->graph, OracleKind::kMatrix);
  ASSERT_TRUE(oracle.ok());

  Time end_time = 0.0;
  std::vector<PoolOp> ops =
      MakeOpStream(*city, oracle->get(), GetParam(), 250, &end_time);

  ThreadPool executor(4);
  OrderPool serial(oracle->get(), PoolOptions{});
  OrderPool parallel(oracle->get(), PoolOptions{});
  parallel.set_executor(&executor);

  for (size_t step = 0; step < ops.size(); ++step) {
    const PoolOp& op = ops[step];
    ApplyOp(&serial, op);
    ApplyOp(&parallel, op);
    if (testing::Test::HasFatalFailure()) return;
    if (step % 25 != 24 && step + 1 != ops.size()) continue;

    ExpectSameEdges(SnapshotEdges(serial.graph()),
                    SnapshotEdges(parallel.graph()));

    // Exercise the batched (parallel) best-group refresh against the serial
    // per-order path and require identical winners.
    std::vector<OrderId> ids = serial.OrderIds();
    std::sort(ids.begin(), ids.end());
    parallel.RefreshBestGroups(ids, op.now);
    for (OrderId id : ids) {
      const BestGroup* a = serial.BestFor(id, op.now);
      const BestGroup* b = parallel.BestFor(id, op.now);
      ASSERT_EQ(a == nullptr, b == nullptr) << "order " << id;
      if (a == nullptr) continue;
      EXPECT_EQ(a->members, b->members) << "order " << id;
      EXPECT_EQ(a->plan.total_cost, b->plan.total_cost) << "order " << id;
      EXPECT_EQ(a->plan.latest_departure, b->plan.latest_departure)
          << "order " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolRebuildPropertyTest,
                         testing::Values(11, 222, 3303));

// ---------------------------------------------------------------------------
// Churn-heavy incremental maintenance: reverse index + shared plan cache.
// ---------------------------------------------------------------------------

// A departure-heavy op stream with large time jumps: removals dominate the
// mutation mix (exercising the reverse-membership index), and the jumps push
// sim time past many cached latest_departures (exercising edge expiry, group
// expiry, and plan-cache replans).
std::vector<PoolOp> MakeChurnStream(const City& city, TravelTimeOracle* oracle,
                                    uint64_t seed, int steps, Time* end_time) {
  Rng rng(seed * 977 + 13);
  Time now = 0.0;
  OrderId next_id = 1;
  std::vector<OrderId> alive;
  std::vector<PoolOp> ops;
  for (int step = 0; step < steps; ++step) {
    now += rng.Uniform(0, 12);
    double action = rng.Uniform();
    PoolOp op;
    op.now = now;
    if (action < 0.45 || alive.empty()) {
      Order order;
      order.id = next_id++;
      order.pickup = city.RandomNode(&rng);
      do {
        order.dropoff = city.RandomNode(&rng);
      } while (order.dropoff == order.pickup);
      order.riders = static_cast<int>(rng.UniformInt(1, 2));
      order.release = now;
      order.shortest_cost = oracle->Cost(order.pickup, order.dropoff);
      order.deadline = now + rng.Uniform(1.2, 2.0) * order.shortest_cost;
      order.wait_limit = 0.8 * order.shortest_cost;
      op.kind = PoolOp::kInsert;
      op.order = order;
      op.inserted_at = now;
      alive.push_back(order.id);
    } else if (action < 0.85) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alive.size()) - 1));
      op.kind = PoolOp::kRemove;
      op.target = alive[pick];
      alive.erase(alive.begin() + static_cast<int64_t>(pick));
    } else {
      op.kind = PoolOp::kExpire;
    }
    ops.push_back(op);
  }
  *end_time = now;
  return ops;
}

class PoolChurnPropertyTest : public testing::TestWithParam<uint64_t> {};

// Churn-heavy arrivals/departures/edge- and group-expiries: the
// incrementally maintained map (reverse-membership dirtying + shared plan
// cache, refreshed in parallel batches) must stay bitwise equal to a pool
// rebuilt from scratch at every checkpoint — and its counters must be a
// pure function of the op stream, identical with and without the executor.
TEST_P(PoolChurnPropertyTest, IncrementalMatchesFromScratchUnderChurn) {
  auto city = GenerateCity({.width = 14, .height = 14, .seed = GetParam()});
  ASSERT_TRUE(city.ok());
  auto oracle = BuildOracle(city->graph, OracleKind::kMatrix);
  ASSERT_TRUE(oracle.ok());

  Time end_time = 0.0;
  std::vector<PoolOp> ops =
      MakeChurnStream(*city, oracle->get(), GetParam(), 350, &end_time);

  ThreadPool executor(4);
  OrderPool serial(oracle->get(), PoolOptions{});
  OrderPool parallel(oracle->get(), PoolOptions{});
  parallel.set_executor(&executor);

  std::map<OrderId, PoolOp> alive;  // Insert ops of resident orders.
  int checkpoints = 0;
  int groups_seen = 0;
  for (size_t step = 0; step < ops.size(); ++step) {
    const PoolOp& op = ops[step];
    ApplyOp(&serial, op);
    ApplyOp(&parallel, op);
    if (testing::Test::HasFatalFailure()) return;
    if (op.kind == PoolOp::kInsert) alive.emplace(op.order.id, op);
    if (op.kind == PoolOp::kRemove) alive.erase(op.target);

    if (step % 25 != 24 && step + 1 != ops.size()) continue;
    ++checkpoints;
    Time now = op.now;
    serial.ExpireEdges(now);
    parallel.ExpireEdges(now);
    std::vector<OrderId> ids = serial.SortedOrderIds();
    // Identical refresh batches on both pools: this is what must make every
    // counter below independent of the executor.
    serial.RefreshBestGroups(ids, now);
    parallel.RefreshBestGroups(ids, now);
    ExpectSameBestGroups(&serial, &parallel, ids, now);

    // From-scratch rebuild: no stale plan may survive a member departure,
    // and a cached unexpired plan must equal the freshly planned one.
    OrderPool rebuilt(oracle->get(), PoolOptions{});
    for (const auto& [id, insert_op] : alive) {
      ASSERT_TRUE(rebuilt.Insert(insert_op.order, insert_op.inserted_at).ok());
    }
    rebuilt.ExpireEdges(now);
    ExpectSameBestGroups(&parallel, &rebuilt, ids, now);
    for (OrderId id : ids) {
      if (parallel.BestFor(id, now) != nullptr) ++groups_seen;
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(checkpoints, 5);
  EXPECT_GT(groups_seen, 0);  // The stream actually formed shared groups.

  // Counters included: the three-phase refresh makes the diagnostic
  // counters a pure function of the op stream, not of the thread count.
  BestGroupMap& a = serial.best_groups();
  BestGroupMap& b = parallel.best_groups();
  EXPECT_EQ(a.recompute_count(), b.recompute_count());
  EXPECT_EQ(a.groups_evaluated(), b.groups_evaluated());
  EXPECT_EQ(a.plan_cache_hits(), b.plan_cache_hits());
  EXPECT_EQ(a.plan_cache_misses(), b.plan_cache_misses());
  EXPECT_EQ(a.plan_cache_replans(), b.plan_cache_replans());
  EXPECT_EQ(a.plan_cache_evictions(), b.plan_cache_evictions());
  EXPECT_EQ(a.plan_cache_size(), b.plan_cache_size());
  EXPECT_EQ(a.reverse_index_fanout(), b.reverse_index_fanout());
  EXPECT_EQ(serial.planner().plan_count(), parallel.planner().plan_count());
  // The churn stream must actually have exercised the new machinery.
  EXPECT_GT(b.plan_cache_hits(), 0);
  EXPECT_GT(b.reverse_index_fanout(), 0);
  EXPECT_GT(b.plan_cache_evictions(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolChurnPropertyTest,
                         testing::Values(17, 901, 6006));

// ---------------------------------------------------------------------------
// Batch insert vs. one-by-one inserts.
// ---------------------------------------------------------------------------

// One scripted mutation of the batch stream: a batch of arrivals (each at
// its own time), a removal, or an edge expiry.
struct BatchOp {
  enum Kind { kBatch, kRemove, kExpire } kind;
  std::vector<Order> orders;  // kBatch, in arrival order.
  std::vector<Time> times;    // kBatch, non-decreasing.
  OrderId target = kInvalidOrder;  // kRemove.
  Time now = 0;  // Time after the op (the last arrival's for a batch).
};

// What the stream is built to exercise; counted while generating so every
// seed can assert it hit each shape.
struct BatchShapes {
  int past_latest_dispatch = 0;  // Arrival already past its own deadline.
  int expires_within_batch = 0;  // Candidate live for one arrival, not a later.
  int duplicates = 0;            // Arrival whose id is already pooled.
};

// Random-size batches mixed with removals and expiries. Arrivals are spread
// over up to ~2 minutes per batch, and a share of them get near-zero
// slack, so candidates go stale between two arrivals of one batch; a few
// arrive already past their latest dispatch, and a few reuse an id that is
// resident or earlier in the same batch.
std::vector<BatchOp> MakeBatchStream(const City& city, TravelTimeOracle* oracle,
                                     uint64_t seed, int steps,
                                     BatchShapes* shapes) {
  Rng rng(seed * 7919 + 3);
  Time now = 0.0;
  OrderId next_id = 1;
  std::vector<Order> alive;  // Resident orders, for removals and duplicates.
  std::vector<BatchOp> ops;
  for (int step = 0; step < steps; ++step) {
    double action = rng.Uniform();
    BatchOp op;
    if (action < 0.6 || alive.empty()) {
      op.kind = BatchOp::kBatch;
      int size = static_cast<int>(rng.UniformInt(1, 12));
      std::vector<Order> admitted;  // This batch's arrivals that will pool.
      for (int k = 0; k < size; ++k) {
        now += rng.Uniform(0, 12);
        double roll = rng.Uniform();
        Order order;
        if (roll < 0.06 && !(alive.empty() && admitted.empty())) {
          const std::vector<Order>& from =
              admitted.empty() || (!alive.empty() && rng.Uniform() < 0.5)
                  ? alive
                  : admitted;
          order = from[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
          ++shapes->duplicates;
        } else {
          order.id = next_id++;
          order.pickup = city.RandomNode(&rng);
          do {
            order.dropoff = city.RandomNode(&rng);
          } while (order.dropoff == order.pickup);
          order.riders = static_cast<int>(rng.UniformInt(1, 2));
          order.release = now;
          order.shortest_cost = oracle->Cost(order.pickup, order.dropoff);
          if (roll < 0.12) {
            // Released a while ago and already past its latest dispatch.
            order.release = now - rng.Uniform(30, 120);
            order.deadline = order.release + order.shortest_cost +
                             rng.Uniform(0, 20);
            ++shapes->past_latest_dispatch;
          } else if (roll < 0.35) {
            // Near-zero slack: stale within a few of the batch's arrivals.
            order.deadline = now + order.shortest_cost + rng.Uniform(0, 30);
          } else {
            order.deadline = now + rng.Uniform(1.2, 2.0) * order.shortest_cost;
          }
          order.wait_limit = 0.8 * order.shortest_cost;
          admitted.push_back(order);
        }
        op.orders.push_back(order);
        op.times.push_back(now);
      }
      // Candidates live at one arrival of the batch but stale at its last:
      // residents from the first arrival on, each arrival from the next.
      auto count_stale = [&](const Order& other, Time live_at) {
        if (live_at <= other.LatestDispatch() &&
            other.LatestDispatch() < op.times.back()) {
          ++shapes->expires_within_batch;
        }
      };
      for (const Order& other : alive) count_stale(other, op.times.front());
      for (size_t k = 0; k + 1 < op.orders.size(); ++k) {
        count_stale(op.orders[k], op.times[k + 1]);
      }
      for (const Order& order : admitted) alive.push_back(order);
    } else if (action < 0.85) {
      now += rng.Uniform(0, 12);
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alive.size()) - 1));
      op.kind = BatchOp::kRemove;
      op.target = alive[pick].id;
      alive.erase(alive.begin() + static_cast<int64_t>(pick));
    } else {
      now += rng.Uniform(0, 12);
      op.kind = BatchOp::kExpire;
    }
    op.now = now;
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<Arrival> ArrivalsOf(const BatchOp& op) {
  std::vector<Arrival> arrivals;
  for (size_t k = 0; k < op.orders.size(); ++k) {
    arrivals.push_back(Arrival{&op.orders[k], op.times[k]});
  }
  return arrivals;
}

void ExpectSamePlan(const GroupPlan& a, const GroupPlan& b) {
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.latest_departure, b.latest_departure);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.route.stops, b.route.stops);
  EXPECT_EQ(a.route.offsets, b.route.offsets);
}

// Exact graph comparison, adjacency *order* included (no sorting).
void ExpectSameGraph(const ShareabilityGraph& a, const ShareabilityGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.pair_tests(), b.pair_tests());
  for (OrderId id : a.OrderIds()) {
    ASSERT_TRUE(b.Contains(id)) << "node " << id;
    EXPECT_EQ(a.InsertedAt(id), b.InsertedAt(id)) << "node " << id;
    const std::vector<ShareEdge>& ea = a.Neighbors(id);
    const std::vector<ShareEdge>& eb = b.Neighbors(id);
    ASSERT_EQ(ea.size(), eb.size()) << "node " << id;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].other, eb[i].other) << "node " << id << " slot " << i;
      EXPECT_EQ(ea[i].expiry, eb[i].expiry) << "node " << id;
      EXPECT_EQ(ea[i].pair_cost, eb[i].pair_cost) << "node " << id;
    }
  }
}

class PoolBatchInsertTest : public testing::TestWithParam<uint64_t> {};

// Graph level: InsertBatch — serial and on a 4-thread executor — must
// produce the statuses, seeds, adjacency (in order), pair_tests and planner
// traffic of inserting the same arrivals one by one.
TEST_P(PoolBatchInsertTest, GraphBatchMatchesOneByOne) {
  auto city = GenerateCity({.width = 14, .height = 14, .seed = GetParam()});
  ASSERT_TRUE(city.ok());
  auto oracle = BuildOracle(city->graph, OracleKind::kMatrix);
  ASSERT_TRUE(oracle.ok());
  BatchShapes shapes;
  std::vector<BatchOp> ops =
      MakeBatchStream(*city, oracle->get(), GetParam(), 160, &shapes);
  EXPECT_GT(shapes.past_latest_dispatch, 0);
  EXPECT_GT(shapes.expires_within_batch, 0);
  EXPECT_GT(shapes.duplicates, 0);

  ThreadPool executor(4);
  RoutePlanner planner_one(oracle->get());
  RoutePlanner planner_serial(oracle->get());
  RoutePlanner planner_parallel(oracle->get());
  ShareabilityGraph one(&planner_one, ShareabilityOptions{});
  ShareabilityGraph serial(&planner_serial, ShareabilityOptions{});
  ShareabilityGraph parallel(&planner_parallel, ShareabilityOptions{});
  parallel.set_executor(&executor);

  int already_exists = 0;
  int in_batch_edges = 0;
  int lone_stale_arrivals = 0;
  for (const BatchOp& op : ops) {
    if (op.kind == BatchOp::kRemove) {
      for (ShareabilityGraph* g : {&one, &serial, &parallel}) {
        ASSERT_TRUE(g->Remove(op.target).ok());
      }
      continue;
    }
    if (op.kind == BatchOp::kExpire) {
      for (ShareabilityGraph* g : {&one, &serial, &parallel}) {
        g->ExpireEdges(op.now);
      }
      continue;
    }
    std::vector<Arrival> arrivals = ArrivalsOf(op);
    std::vector<InsertOutcome> batch_serial = serial.InsertBatch(arrivals);
    std::vector<InsertOutcome> batch_parallel = parallel.InsertBatch(arrivals);
    ASSERT_EQ(batch_serial.size(), arrivals.size());
    ASSERT_EQ(batch_parallel.size(), arrivals.size());
    for (size_t k = 0; k < arrivals.size(); ++k) {
      // The reference: this arrival inserted on its own.
      const InsertOutcome single =
          std::move(one.InsertBatch({&arrivals[k], 1}).front());
      for (const InsertOutcome* outcome :
           {&batch_serial[k], &batch_parallel[k]}) {
        ASSERT_EQ(outcome->status.code(), single.status.code()) << k;
        ASSERT_EQ(outcome->seeds.size(), single.seeds.size());
        for (size_t i = 0; i < single.seeds.size(); ++i) {
          EXPECT_EQ(outcome->seeds[i].other, single.seeds[i].other);
          ExpectSamePlan(outcome->seeds[i].plan, single.seeds[i].plan);
        }
      }
      if (!single.status.ok()) {
        EXPECT_EQ(single.status.code(), StatusCode::kAlreadyExists);
        EXPECT_TRUE(single.seeds.empty());
        ++already_exists;
        continue;
      }
      // Edges commit ascending by partner id.
      EXPECT_TRUE(std::is_sorted(single.seeds.begin(), single.seeds.end(),
                                 [](const PairPlanSeed& a,
                                    const PairPlanSeed& b) {
                                   return a.other < b.other;
                                 }));
      if (op.times[k] > op.orders[k].LatestDispatch()) {
        EXPECT_TRUE(single.seeds.empty());
        ++lone_stale_arrivals;
      }
      for (const PairPlanSeed& seed : single.seeds) {
        for (size_t j = 0; j < k; ++j) {
          if (op.orders[j].id == seed.other) ++in_batch_edges;
        }
      }
    }
    ExpectSameGraph(one, serial);
    ExpectSameGraph(one, parallel);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(planner_one.plan_count(), planner_serial.plan_count());
  EXPECT_EQ(planner_one.plan_count(), planner_parallel.plan_count());
  EXPECT_GT(already_exists, 0);
  EXPECT_GT(in_batch_edges, 0);  // Arrivals of one batch paired up.
  EXPECT_GT(lone_stale_arrivals, 0);
  EXPECT_GT(one.edge_count(), 0);
}

// Pool level: the same stream through OrderPool::InsertBatch (serial and
// 4-thread) and one-by-one Insert must leave identical graphs, best groups
// and plan-cache counters — seeding and dirty-marking included.
TEST_P(PoolBatchInsertTest, PoolBatchMatchesOneByOne) {
  auto city = GenerateCity({.width = 14, .height = 14, .seed = GetParam()});
  ASSERT_TRUE(city.ok());
  auto oracle = BuildOracle(city->graph, OracleKind::kMatrix);
  ASSERT_TRUE(oracle.ok());
  BatchShapes shapes;
  std::vector<BatchOp> ops =
      MakeBatchStream(*city, oracle->get(), GetParam(), 160, &shapes);

  ThreadPool executor(4);
  OrderPool one(oracle->get(), PoolOptions{});
  OrderPool serial(oracle->get(), PoolOptions{});
  OrderPool parallel(oracle->get(), PoolOptions{});
  parallel.set_executor(&executor);

  int groups_seen = 0;
  for (const BatchOp& op : ops) {
    if (op.kind == BatchOp::kRemove) {
      for (OrderPool* pool : {&one, &serial, &parallel}) {
        ASSERT_TRUE(pool->Remove(op.target).ok());
      }
      continue;
    }
    if (op.kind == BatchOp::kExpire) {
      for (OrderPool* pool : {&one, &serial, &parallel}) {
        pool->ExpireEdges(op.now);
      }
      continue;
    }
    std::vector<Arrival> arrivals = ArrivalsOf(op);
    std::vector<Status> statuses_serial = serial.InsertBatch(arrivals);
    std::vector<Status> statuses_parallel = parallel.InsertBatch(arrivals);
    for (size_t k = 0; k < arrivals.size(); ++k) {
      Status status = one.Insert(op.orders[k], op.times[k]);
      EXPECT_EQ(statuses_serial[k].code(), status.code()) << k;
      EXPECT_EQ(statuses_parallel[k].code(), status.code()) << k;
    }
    ExpectSameGraph(one.graph(), serial.graph());
    ExpectSameGraph(one.graph(), parallel.graph());

    // A check: refresh every pooled order and compare the winners.
    std::vector<OrderId> ids = one.SortedOrderIds();
    for (OrderPool* pool : {&one, &serial, &parallel}) {
      pool->ExpireEdges(op.now);
      pool->RefreshBestGroups(ids, op.now);
    }
    ExpectSameBestGroups(&one, &serial, ids, op.now);
    ExpectSameBestGroups(&one, &parallel, ids, op.now);
    for (OrderId id : ids) {
      if (one.BestFor(id, op.now) != nullptr) ++groups_seen;
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(groups_seen, 0);
  for (OrderPool* pool : {&serial, &parallel}) {
    BestGroupMap& a = one.best_groups();
    BestGroupMap& b = pool->best_groups();
    EXPECT_EQ(a.plan_cache_seeds(), b.plan_cache_seeds());
    EXPECT_EQ(a.recompute_count(), b.recompute_count());
    EXPECT_EQ(a.groups_evaluated(), b.groups_evaluated());
    EXPECT_EQ(a.plan_cache_hits(), b.plan_cache_hits());
    EXPECT_EQ(a.plan_cache_misses(), b.plan_cache_misses());
    EXPECT_EQ(a.plan_cache_size(), b.plan_cache_size());
    EXPECT_EQ(one.planner().plan_count(), pool->planner().plan_count());
  }
  EXPECT_GT(one.best_groups().plan_cache_seeds(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolBatchInsertTest,
                         testing::Values(7, 4242, 90001));

// ---------------------------------------------------------------------------
// Plan-cache seeding from edge certification.
// ---------------------------------------------------------------------------

// Inserting an order plans a pair route for every edge it certifies; those
// plans are seeded into the group-plan cache, so the first refresh touching
// the pair must be a pure hit — zero additional planner calls — instead of
// the miss it was before seeding.
TEST(PlanCacheSeedingTest, InsertSeedsPairPlansThatRefreshHitsWithoutReplan) {
  constexpr double kMin = 60.0;
  Graph graph = testutil::MakeExample1Graph();
  DijkstraOracle oracle(&graph);
  OrderPool pool(&oracle, PoolOptions{});
  BestGroupMap& map = pool.best_groups();

  auto corridor = [&](OrderId id) {
    return Order{.id = id, .pickup = testutil::kD, .dropoff = testutil::kF,
                 .riders = 1, .release = 0.0, .deadline = 60 * kMin,
                 .wait_limit = 10 * kMin, .shortest_cost = 2 * kMin};
  };
  ASSERT_TRUE(pool.Insert(corridor(1), 0.0).ok());
  ASSERT_TRUE(pool.Insert(corridor(2), 0.0).ok());
  ASSERT_TRUE(pool.graph().HasEdge(1, 2));
  EXPECT_EQ(map.plan_cache_seeds(), 1);
  EXPECT_EQ(map.plan_cache_size(), 1);

  // The refresh finds {1,2} already planned: a hit, no misses, no replans,
  // and — the point of seeding — not one extra planner call.
  int64_t plans_before = pool.planner().plan_count();
  const BestGroup* best = pool.BestFor(1, 0.0);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->members, (std::vector<OrderId>{1, 2}));
  EXPECT_EQ(map.plan_cache_hits(), 1);
  EXPECT_EQ(map.plan_cache_misses(), 0);
  EXPECT_EQ(map.plan_cache_replans(), 0);
  EXPECT_EQ(pool.planner().plan_count(), plans_before);

  // The seeded plan must equal what the planner would produce for the
  // sorted member set (completion re-aligned from edge input order).
  auto direct = pool.planner().PlanBest(
      {pool.GetOrder(1), pool.GetOrder(2)}, 0.0, pool.options().capacity);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(best->plan.total_cost, direct->total_cost);
  EXPECT_EQ(best->plan.latest_departure, direct->latest_departure);
  ASSERT_EQ(best->plan.completion.size(), direct->completion.size());
  for (size_t i = 0; i < direct->completion.size(); ++i) {
    EXPECT_EQ(best->plan.completion[i], direct->completion[i]) << i;
  }

  // Anchor 2 reuses the same cached entry: still no planner traffic (the
  // snapshot excludes the direct verification call above).
  plans_before = pool.planner().plan_count();
  EXPECT_NE(pool.BestFor(2, 0.0), nullptr);
  EXPECT_EQ(map.plan_cache_hits(), 2);
  EXPECT_EQ(pool.planner().plan_count(), plans_before);
}

// ---------------------------------------------------------------------------
// Plan-cache soundness under truncated enumeration.
// ---------------------------------------------------------------------------

// When the visit budget clips enumeration, "no group found" must stay
// re-runnable (never enter the negative cache), even though the plan cache
// remembers per-member-set infeasibility verdicts from the clipped search:
// cached verdicts are exact facts about specific member sets, so removing a
// neighbor can still pull a previously unseen feasible clique inside the
// budget and the re-search must find it.
TEST(PlanCacheTruncationTest, TruncatedSearchIsNeverACachedNegative) {
  constexpr double kMin = 60.0;
  Graph graph = testutil::MakeExample1Graph();
  DijkstraOracle oracle(&graph);
  PoolOptions options;
  options.cliques = CliqueOptions{/*max_size=*/5, /*max_visits=*/2};
  OrderPool pool(&oracle, options);

  // Four identical d->f corridor trips (cost 2 min): all pairs shareable at
  // release. Orders 2 and 3 have tight deadlines; 1 and 9 have loose ones.
  auto corridor = [&](OrderId id, Time deadline) {
    return Order{.id = id, .pickup = testutil::kD, .dropoff = testutil::kF,
                 .riders = 1, .release = 0.0, .deadline = deadline,
                 .wait_limit = 10 * kMin, .shortest_cost = 2 * kMin};
  };
  ASSERT_TRUE(pool.Insert(corridor(1, 60 * kMin), 0.0).ok());
  ASSERT_TRUE(pool.Insert(corridor(2, 4.2 * kMin), 0.0).ok());
  ASSERT_TRUE(pool.Insert(corridor(3, 4.2 * kMin), 0.0).ok());
  ASSERT_TRUE(pool.Insert(corridor(9, 60 * kMin), 0.0).ok());
  ASSERT_TRUE(pool.graph().HasEdge(1, 9));
  BestGroupMap& map = pool.best_groups();
  // Every certified edge seeded its pair plan into the cache at insert.
  EXPECT_EQ(map.plan_cache_seeds(), pool.graph().edge_count());

  // At t = 5 min every group containing 2 or 3 is infeasible (their
  // deadlines pass before any route could finish), but edges have not been
  // trimmed. Enumeration from anchor 1 visits {1,2} then {1,2,3} and hits
  // the 2-visit budget — the feasible {1,9} is beyond the clipped prefix.
  // {1,2} was seeded at insert but its route expired with 2's deadline, so
  // the scan re-plans it; {1,2,3} was never planned and is the one miss.
  Time now = 5 * kMin;
  int64_t plans_before = pool.planner().plan_count();
  EXPECT_EQ(pool.BestFor(1, now), nullptr);
  EXPECT_EQ(map.plan_cache_misses(), 1);  // {1,2,3} planned fresh...
  EXPECT_EQ(map.plan_cache_replans(), 1);  // ...and seeded {1,2} re-planned.
  EXPECT_EQ(pool.planner().plan_count(), plans_before + 2);

  // ...but the truncated "no group" outcome was not cached as negative: the
  // next lookup re-runs the search, now answered from the plan cache alone.
  int64_t recomputes = map.recompute_count();
  EXPECT_EQ(pool.BestFor(1, now), nullptr);
  EXPECT_EQ(map.recompute_count(), recomputes + 1);
  EXPECT_EQ(pool.planner().plan_count(), plans_before + 2);  // All hits.
  EXPECT_EQ(map.plan_cache_hits(), 2);

  // Removing neighbors pulls new cliques inside the budget. After 2 leaves,
  // the prefix is {1,3}, {1,3,9} — still truncated, still no negative.
  ASSERT_TRUE(pool.Remove(2).ok());
  EXPECT_EQ(pool.BestFor(1, now), nullptr);
  // After 3 leaves too, {1,9} is finally visited and must be found despite
  // every earlier search having returned nothing.
  ASSERT_TRUE(pool.Remove(3).ok());
  const BestGroup* best = pool.BestFor(1, now);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->members, (std::vector<OrderId>{1, 9}));
  EXPECT_GE(best->plan.latest_departure, now);
}

}  // namespace
}  // namespace watter
