// OrderPool: the graph-based order pooling manager of Algorithm 1.
//
// Composes the temporal shareability graph with the best-group map and keeps
// both consistent across the four update situations: (1) order arrival,
// (2) order departure, (3) edge expiration, (4) group expiration.
#ifndef WATTER_POOL_ORDER_POOL_H_
#define WATTER_POOL_ORDER_POOL_H_

#include <algorithm>
#include <span>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/route_planner.h"
#include "src/core/types.h"
#include "src/geo/travel_time_oracle.h"
#include "src/pool/best_group_map.h"
#include "src/pool/clique_enumerator.h"
#include "src/pool/shareability_graph.h"

namespace watter {

/// Pool-wide configuration.
struct PoolOptions {
  /// Max riders per group route (the fleet's largest vehicle, Kw).
  int capacity = 4;
  /// Shared routes must truly interleave riders (see shareability_graph.h).
  bool require_overlap = true;
  /// Clique enumeration bounds.
  CliqueOptions cliques;
  /// Extra-time weights used to rank candidate groups.
  ExtraTimeWeights weights;
  /// Let lone orders form 1-"groups" in the best-group map (non-paper
  /// variant; see BestGroupMap).
  bool include_singletons = false;
};

/// Dynamic pool of waiting orders with O(1) best-group retrieval.
class OrderPool {
 public:
  /// `oracle` must outlive the pool.
  OrderPool(TravelTimeOracle* oracle, PoolOptions options)
      : options_(options),
        planner_(oracle),
        graph_(&planner_,
               ShareabilityOptions{options.capacity, options.require_overlap}),
        best_(&graph_, &planner_, options.weights, options.capacity,
              options.cliques, options.include_singletons) {}

  /// Installs the executor used by the maintenance passes (pair tests on
  /// insert, best-group recomputation). Null or a 1-thread pool keeps the
  /// pool fully serial. Not owned; must outlive the pool's use. Results are
  /// identical for any thread count.
  void set_executor(ThreadPool* executor) {
    graph_.set_executor(executor);
    best_.set_executor(executor);
  }

  /// Inserts arriving orders (Algorithm 1 line 3) as one batch and updates
  /// edges and dirty best-groups. The pool ends up exactly as after Insert
  /// on each arrival in turn (ShareabilityGraph::InsertBatch); the batch
  /// only shares one fan-out of the pair tests. Returns one status per
  /// arrival (Ok, or AlreadyExists).
  std::vector<Status> InsertBatch(std::span<const Arrival> arrivals);

  /// Inserts one arriving order: a batch of one.
  Status Insert(const Order& order, Time now);

  /// Removes a dispatched/rejected/expired order (lines 12, 15).
  Status Remove(OrderId id);

  /// Drops expired edges (lines 5-6) and marks affected orders stale.
  void ExpireEdges(Time now);

  /// Best group of `id` at `now`; nullptr when no feasible group remains.
  const BestGroup* BestFor(OrderId id, Time now) {
    return best_.BestFor(id, now);
  }

  /// Pure cached best-group lookup (see BestGroupMap::PeekBest): never
  /// recomputes, safe for concurrent reads. The batched dispatch engine
  /// proposes offers against this frozen view after RefreshBestGroups.
  const BestGroup* PeekBest(OrderId id, Time now) const {
    return best_.PeekBest(id, now);
  }

  /// Refreshes the stale best groups of `ids` in one (possibly parallel)
  /// batch so the platform's serial decision loop hits a warm cache. Pass
  /// `ids` sorted: the commit order follows it deterministically.
  void RefreshBestGroups(const std::vector<OrderId>& ids, Time now) {
    best_.RefreshMany(ids, now);
  }

  const Order* GetOrder(OrderId id) const { return graph_.GetOrder(id); }
  bool Contains(OrderId id) const { return graph_.Contains(id); }
  std::vector<OrderId> OrderIds() const { return graph_.OrderIds(); }

  /// Pooled order ids in ascending (arrival) order — the canonical frozen
  /// work list of both dispatch engines' check rounds.
  std::vector<OrderId> SortedOrderIds() const {
    std::vector<OrderId> ids = graph_.OrderIds();
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  size_t size() const { return graph_.size(); }

  const ShareabilityGraph& graph() const { return graph_; }
  BestGroupMap& best_groups() { return best_; }
  RoutePlanner& planner() { return planner_; }
  const PoolOptions& options() const { return options_; }

 private:
  PoolOptions options_;
  RoutePlanner planner_;
  ShareabilityGraph graph_;
  BestGroupMap best_;
};

}  // namespace watter

#endif  // WATTER_POOL_ORDER_POOL_H_
