// Temporal shareability graph (Definition 8).
//
// Nodes are waiting orders; an edge (o_i, o_j, tau_e) certifies that the two
// orders admit a feasible *beneficially shared* route if dispatched before
// timestamp tau_e. Edges are computed exactly with the route planner when an
// order is inserted: deadlines only tighten as time passes, so a pair that is
// infeasible now can never become feasible later, and a feasible pair stays
// feasible exactly until its latest departure — which becomes the edge
// expiry.
//
// "Beneficially shared" means the minimum-cost pair route interleaves the
// riders (someone is on board while the other is picked up). Purely
// sequential chaining satisfies the route constraints but provides no pooling
// benefit and would make the graph near-complete; the paper's shareability
// notion ("orders that can be shared in a group") is interpreted as true
// sharing. See DESIGN.md, key decisions.
#ifndef WATTER_POOL_SHAREABILITY_GRAPH_H_
#define WATTER_POOL_SHAREABILITY_GRAPH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/core/route_planner.h"
#include "src/core/types.h"

namespace watter {

/// One shareability edge from the perspective of a node.
struct ShareEdge {
  OrderId other = kInvalidOrder;
  Time expiry = 0.0;       ///< tau_e: latest departure keeping the pair feasible.
  double pair_cost = 0.0;  ///< Minimal travel cost of the shared route.
};

/// A pair plan an insert computed while certifying an edge, surfaced so the
/// caller can seed the group-plan cache instead of re-planning the same pair
/// during the next RefreshBestGroups. `plan.completion` is aligned to the
/// input order {inserted order, other}, not to sorted member ids.
struct PairPlanSeed {
  OrderId other = kInvalidOrder;
  GroupPlan plan;
};

/// One arrival of a batch insert: `order` joins the graph at time `now`.
struct Arrival {
  const Order* order = nullptr;  ///< Not owned; read only during the call.
  Time now = 0.0;
};

/// What inserting one arrival produced.
struct InsertOutcome {
  Status status;  ///< Ok, or AlreadyExists if the id was already resident.
  /// One entry per new edge, ascending by neighbor id: the orders that
  /// gained an edge to the arrival (their best group may improve), with the
  /// plan behind each edge so callers can seed their plan caches.
  std::vector<PairPlanSeed> seeds;
};

/// Configuration of edge creation.
struct ShareabilityOptions {
  /// Vehicle capacity assumed when testing pair routes (the fleet's max).
  int capacity = 4;
  /// Require the min-cost pair route to interleave riders (see file header).
  bool require_overlap = true;
};

/// The dynamic order pool graph.
///
/// Concurrency model: the graph itself is single-writer — all mutation
/// happens on the caller's thread. InsertBatch fans the pure pair-
/// feasibility tests of a whole batch out over an optional ThreadPool in one
/// fork-join and commits the results serially in arrival order, so the
/// resulting graph is bitwise identical for any thread count (see
/// thread_pool.h, determinism contract). ExpireEdges is a serial pass: its
/// per-entry trims cost less than waking the pool.
class ShareabilityGraph {
 public:
  ShareabilityGraph(RoutePlanner* planner, ShareabilityOptions options)
      : planner_(planner), options_(options) {}

  /// Installs the executor used to parallelize InsertBatch's pair-
  /// feasibility tests. Null (the default) or a 1-thread pool keeps
  /// everything on the calling thread. Not owned.
  void set_executor(ThreadPool* executor) { executor_ = executor; }

  /// Inserts `arrivals` in order. The graph, the outcomes and pair_tests()
  /// are exactly those of inserting each arrival on its own, in turn, at its
  /// own `now`: arrival i is tested against the resident orders plus the
  /// batch's earlier arrivals. Only the work is batched — every pair test of
  /// the batch runs in one fan-out. Returns one outcome per arrival.
  std::vector<InsertOutcome> InsertBatch(std::span<const Arrival> arrivals);

  /// Inserts `order` at time `now` as a batch of one. Returns the ids of
  /// existing orders that gained an edge, ascending. AlreadyExists if the id
  /// is resident.
  Result<std::vector<OrderId>> Insert(const Order& order, Time now);

  /// Removes an order and all its edges. Returns the ids of former
  /// neighbors. NotFound if absent.
  Result<std::vector<OrderId>> Remove(OrderId id);

  /// Drops all edges with expiry < now. Returns the ids of orders that lost
  /// at least one edge.
  std::vector<OrderId> ExpireEdges(Time now);

  bool Contains(OrderId id) const { return entries_.count(id) > 0; }
  const Order* GetOrder(OrderId id) const;
  Time InsertedAt(OrderId id) const;

  /// Adjacency of `id` (empty if unknown).
  const std::vector<ShareEdge>& Neighbors(OrderId id) const;

  /// True if an un-expired edge links a and b.
  bool HasEdge(OrderId a, OrderId b) const;

  /// Ids of all resident orders (unspecified order).
  std::vector<OrderId> OrderIds() const;

  size_t size() const { return entries_.size(); }
  int64_t edge_count() const { return edge_count_; }
  int64_t pair_tests() const { return pair_tests_; }

 private:
  struct Entry {
    Order order;
    Time inserted_at = 0.0;
    std::vector<ShareEdge> edges;
  };

  void RemoveEdgeTo(OrderId from, OrderId to);

  RoutePlanner* planner_;
  ShareabilityOptions options_;
  ThreadPool* executor_ = nullptr;  // Optional; not owned.
  std::unordered_map<OrderId, Entry> entries_;
  int64_t edge_count_ = 0;   // Undirected edges currently present.
  int64_t pair_tests_ = 0;   // Pair plans attempted (diagnostics).
  std::vector<ShareEdge> empty_;
};

}  // namespace watter

#endif  // WATTER_POOL_SHAREABILITY_GRAPH_H_
