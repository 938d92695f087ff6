// Algorithm 2 (the average extra-time threshold-based grouping strategy)
// and the batched dispatch offer machinery (docs/DISPATCH.md): offer
// generation is split from the commit so a check round can propose offers
// in parallel and resolve conflicts in one deterministic sorted pass — the
// KIT sorted-offers scheme.
#ifndef WATTER_STRATEGY_DECISION_H_
#define WATTER_STRATEGY_DECISION_H_

#include <functional>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/route_planner.h"
#include "src/core/types.h"
#include "src/pool/best_group_map.h"
#include "src/strategy/threshold_provider.h"

namespace watter {

/// Inputs of one hold/dispatch decision for a candidate group.
struct DecisionInputs {
  double average_extra_time = 0.0;        ///< \bar{te} (Algorithm 2 line 4).
  double average_threshold = 0.0;         ///< \bar{theta} (line 5).
  Time earliest_wait_deadline = 0.0;      ///< min_i (t(i) + eta(i)) (line 1).
  Time now = 0.0;                         ///< System timestamp ts.
};

/// Algorithm 2: dispatch when the earliest member's waiting window has
/// elapsed, or when the group's average extra time is within the average
/// expected threshold.
inline bool MakeDispatchDecision(const DecisionInputs& inputs) {
  if (inputs.now > inputs.earliest_wait_deadline) return true;  // Lines 2-3.
  return inputs.average_extra_time <= inputs.average_threshold;  // Line 6.
}

/// Convenience: evaluates Algorithm 2 for a concrete best group by querying
/// each member's threshold from `provider`. `orders` resolves member ids.
bool DecideGroupDispatch(const BestGroup& group,
                         const std::vector<const Order*>& members, Time now,
                         const ExtraTimeWeights& weights,
                         ThresholdProvider* provider,
                         const PoolContext& context);

/// Algorithm 2 with member thresholds precomputed by the caller. The
/// batched engine queries the (stateful, non-thread-safe) provider once per
/// member in the serial prologue, then evaluates decisions in the parallel
/// propose phase through this pure variant. `thresholds[i]` is theta for
/// `members[i]`.
bool DecideGroupDispatchPrecomputed(const BestGroup& group,
                                    const std::vector<const Order*>& members,
                                    const std::vector<double>& thresholds,
                                    Time now,
                                    const ExtraTimeWeights& weights);

/// One candidate dispatch of a check round: a group (or solo order) bound
/// to a concrete worker, with the cost that ranks it in the commit pass.
/// Offers are produced in parallel against frozen pool and fleet state;
/// `anchor` (the proposing pooled order) is unique per offer and is what
/// makes the sort below a total order.
struct DispatchOffer {
  OrderId anchor = kInvalidOrder;
  std::vector<OrderId> members;     ///< Sorted; includes the anchor.
  WorkerId worker = kInvalidWorker;
  double pickup_delay = 0.0;        ///< Worker location -> first stop.
  double cost = 0.0;                ///< Ranking key: pickup delay + route.
  bool solo = false;                ///< Timeout solo fallback, not a group.
  GroupPlan plan;                   ///< Copied: survives pool mutation.
};

/// The sorted-offers total order: cheapest first; ties broken by anchor id
/// then worker id. Anchor ids are unique within a round, so the order is
/// total and the sorted sequence — hence the whole commit pass — is
/// independent of the (thread-count-dependent) propose completion order.
bool OfferBefore(const DispatchOffer& a, const DispatchOffer& b);

/// Outcome of conflict resolution for one offer.
enum class OfferOutcome {
  kCommitted,       ///< Won its worker and all its members.
  kWorkerConflict,  ///< Worker already claimed by a cheaper offer.
  kOrderConflict,   ///< Some member already dispatched by a cheaper offer.
};

/// The deterministic commit-pass core: sorts `offers` in place by
/// OfferBefore, then greedily accepts each offer whose worker is still
/// unclaimed and whose members are all still undispatched. Returns one
/// outcome per offer, aligned with the *sorted* order. Pure — the platform
/// applies kCommitted outcomes to the real fleet/pool, and the table-driven
/// conflict tests exercise this function directly.
std::vector<OfferOutcome> ResolveOffers(std::vector<DispatchOffer>* offers);

/// Shard assignment of the frozen round state, for the region-sharded
/// commit pass (docs/DISPATCH.md, "Region-sharded reconciliation"). Both
/// callbacks must be pure over the round's frozen state: a worker's shard
/// is the grid region of its current (idle) location, an order's shard the
/// region of its pickup. Called only for ids that appear in some offer.
struct OfferShardMap {
  int num_shards = 1;
  std::function<int(WorkerId)> worker_shard;
  std::function<int(OrderId)> order_shard;
};

/// Geographic scope of one offer in the sharded commit pass. The *home
/// shard* of an offer is its worker's shard, so worker contention is always
/// intra-shard; only member overlap can cross a shard boundary.
enum class OfferScope {
  /// Worker and every member in the home shard, and the offer's conflict
  /// component contains no border offer: resolved by the home shard's
  /// parallel scan.
  kInterior,
  /// The offer itself straddles a boundary (some member's shard differs
  /// from the home shard): resolved by the serial reconciliation pass.
  kBorder,
  /// Interior-shaped, but conflict-linked (transitively, via shared workers
  /// or members) to a border offer: pulled into the reconciliation pass so
  /// its outcome cannot depend on the shard layout.
  kBorderAffected,
};

/// Result of the sharded commit pass, aligned with the *sorted* offers.
struct ShardedResolution {
  std::vector<OfferOutcome> outcomes;
  std::vector<OfferScope> scopes;
  /// Home shard (worker shard) per sorted offer; border-scoped offers keep
  /// their home shard here too.
  std::vector<int> home_shards;
  int64_t interior_offers = 0;
  int64_t border_offers = 0;
  int64_t border_affected = 0;
};

/// The region-sharded commit pass: sorts `offers` by OfferBefore exactly
/// like ResolveOffers, then resolves interior offers per shard (in parallel
/// on `executor` when provided) and border-component offers in one serial
/// reconciliation scan, both in the same sorted total order.
///
/// Bitwise-equality guarantee: the greedy scan of ResolveOffers touches an
/// offer's outcome only through offers sharing its worker or a member, so
/// it decomposes exactly over connected components of that conflict graph.
/// Every component lies entirely in one shard's scan or entirely in the
/// reconciliation pass (a worker's offers share a home shard; member
/// sharing across home shards implies a border offer, which drags the whole
/// component into reconciliation), and the two scan kinds never share a
/// worker or member — so the outcomes equal ResolveOffers on the same
/// offers, for any shard count, any shard labeling, and any thread count
/// (strategy_dispatch_conflict_test fuzzes all three).
ShardedResolution ResolveOffersSharded(std::vector<DispatchOffer>* offers,
                                       const OfferShardMap& shards,
                                       ThreadPool* executor = nullptr);

}  // namespace watter

#endif  // WATTER_STRATEGY_DECISION_H_
