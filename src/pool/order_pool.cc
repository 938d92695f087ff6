#include "src/pool/order_pool.h"

namespace watter {

std::vector<Status> OrderPool::InsertBatch(std::span<const Arrival> arrivals) {
  std::vector<InsertOutcome> outcomes = graph_.InsertBatch(arrivals);
  std::vector<Status> statuses;
  statuses.reserve(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const InsertOutcome& outcome = outcomes[i];
    statuses.push_back(outcome.status);
    if (!outcome.status.ok()) continue;
    // Seed the group-plan cache with the pair plans edge certification just
    // computed: the next RefreshBestGroups would otherwise re-plan exactly
    // these member sets as cache misses.
    const Order& order = *arrivals[i].order;
    for (const PairPlanSeed& seed : outcome.seeds) {
      best_.SeedPlan(order, *graph_.GetOrder(seed.other), seed.plan);
    }
    best_.MarkDirty(order.id);
    for (const PairPlanSeed& seed : outcome.seeds) best_.MarkDirty(seed.other);
  }
  return statuses;
}

Status OrderPool::Insert(const Order& order, Time now) {
  const Arrival arrival{&order, now};
  return InsertBatch({&arrival, 1}).front();
}

Status OrderPool::Remove(OrderId id) {
  auto neighbors = graph_.Remove(id);
  if (!neighbors.ok()) return neighbors.status();
  best_.OnOrderRemoved(id);
  return Status::Ok();
}

void OrderPool::ExpireEdges(Time now) {
  for (OrderId affected : graph_.ExpireEdges(now)) {
    best_.MarkDirty(affected);
  }
}

}  // namespace watter
