#include "src/pool/shareability_graph.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "src/obs/trace.h"

namespace watter {
namespace {

// Minimum number of pair tests per chunk, and per batch before InsertBatch
// fans out to the executor; below this the planner calls are cheaper than
// waking the pool.
constexpr size_t kParallelGrain = 16;

/// True if the route has riders of two different orders on board for a
/// strictly positive duration (i.e. pooling actually happens; a pickup at
/// the exact node where a partner alights does not count).
bool RouteInterleaves(const Route& route) {
  int onboard_orders = 0;
  for (size_t s = 0; s + 1 < route.stops.size(); ++s) {
    onboard_orders += route.stops[s].is_pickup ? 1 : -1;
    if (onboard_orders >= 2 &&
        route.offsets[s + 1] > route.offsets[s]) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<std::vector<OrderId>> ShareabilityGraph::Insert(const Order& order,
                                                       Time now) {
  const Arrival arrival{&order, now};
  InsertOutcome outcome = std::move(InsertBatch({&arrival, 1}).front());
  if (!outcome.status.ok()) return outcome.status;
  std::vector<OrderId> gained;
  for (const PairPlanSeed& seed : outcome.seeds) gained.push_back(seed.other);
  return gained;
}

std::vector<InsertOutcome> ShareabilityGraph::InsertBatch(
    std::span<const Arrival> arrivals) {
  WATTER_TRACE_SPAN_HOT("graph.insert");
  std::vector<InsertOutcome> outcomes(arrivals.size());

  // Probe phase, serial and in arrival order: each arrival's candidate
  // partners exactly as a one-at-a-time insert would see them — the
  // resident orders plus the batch's earlier arrivals — quick-rejected at
  // the arrival's own time (an order past its latest dispatch can never be
  // part of a feasible route, and the planner would discover that the
  // expensive way) and sorted by id. Arrival i's tests are
  // pairs[first_pair[i], first_pair[i + 1]).
  struct PairTest {
    size_t arrival;
    const Order* candidate;  // Points into entries_ or into `arrivals`.
  };
  std::vector<PairTest> pairs;
  std::vector<size_t> first_pair(arrivals.size() + 1, 0);
  std::vector<const Order*> admitted;  // Earlier arrivals that will commit.
  TravelTimeOracle* oracle = planner_->oracle();
  std::vector<NodeId> nodes;
  std::vector<double> scratch;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    first_pair[i] = pairs.size();
    const Order& order = *arrivals[i].order;
    const Time now = arrivals[i].now;
    const bool duplicate =
        entries_.count(order.id) > 0 ||
        std::any_of(admitted.begin(), admitted.end(),
                    [&](const Order* other) { return other->id == order.id; });
    if (duplicate) {
      outcomes[i].status = Status::AlreadyExists(
          "order " + std::to_string(order.id) + " already pooled");
      continue;
    }
    if (now <= order.LatestDispatch()) {
      for (const auto& [other_id, other] : entries_) {
        if (now <= other.order.LatestDispatch()) {
          pairs.push_back(PairTest{i, &other.order});
        }
      }
      for (const Order* other : admitted) {
        if (now <= other->LatestDispatch()) pairs.push_back(PairTest{i, other});
      }
      std::sort(pairs.begin() + static_cast<ptrdiff_t>(first_pair[i]),
                pairs.end(), [](const PairTest& a, const PairTest& b) {
                  return a.candidate->id < b.candidate->id;
                });
    }
    admitted.push_back(&order);
    pair_tests_ += static_cast<int64_t>(pairs.size() - first_pair[i]);

    // Batch prefetch for natively batched oracles: every pair plan of this
    // arrival needs costs between its endpoints and the candidates', so
    // issue them as four anchor-shaped batches (one per direction per
    // endpoint). The bucket backend answers each with two search spaces for
    // the anchor plus one per distinct candidate node — and primes its memo
    // cache, which turns the planner's point queries into hits. Results are
    // discarded; the batches are bitwise-equal to the Cost() calls they
    // pre-answer, so this cannot change any plan.
    if (oracle->NativeBatch() && pairs.size() > first_pair[i]) {
      nodes.clear();
      for (size_t k = first_pair[i]; k < pairs.size(); ++k) {
        nodes.push_back(pairs[k].candidate->pickup);
        nodes.push_back(pairs[k].candidate->dropoff);
      }
      scratch.resize(nodes.size());
      oracle->OneToMany(order.pickup, nodes, scratch);
      oracle->OneToMany(order.dropoff, nodes, scratch);
      oracle->ManyToOne(nodes, order.pickup, scratch);
      oracle->ManyToOne(nodes, order.dropoff, scratch);
    }
  }
  first_pair[arrivals.size()] = pairs.size();

  // Fan-out phase: one fork-join over every pair test of the batch. Tests
  // are pure (planner + oracle are thread-safe; the graph is not mutated),
  // each writing only its own slot.
  struct TestedEdge {
    ShareEdge edge;
    GroupPlan plan;
  };
  auto test_pair = [&](size_t k) -> std::optional<TestedEdge> {
    const Arrival& arrival = arrivals[pairs[k].arrival];
    const Order& candidate = *pairs[k].candidate;
    auto plan = planner_->PlanBest({arrival.order, &candidate}, arrival.now,
                                   options_.capacity);
    if (!plan.ok()) return std::nullopt;
    if (options_.require_overlap && !RouteInterleaves(plan->route)) {
      return std::nullopt;
    }
    ShareEdge edge{candidate.id, plan->latest_departure, plan->total_cost};
    return TestedEdge{edge, std::move(plan).value()};
  };
  std::vector<std::optional<TestedEdge>> tested;
  bool parallel = executor_ != nullptr && executor_->num_threads() > 1 &&
                  pairs.size() > kParallelGrain;
  if (parallel) {
    executor_->ParallelMap(pairs.size(), kParallelGrain, &tested, test_pair);
  } else {
    tested.reserve(pairs.size());
    for (size_t k = 0; k < pairs.size(); ++k) tested.push_back(test_pair(k));
  }

  // Ordered commit, arrival by arrival: mirror each surviving edge on both
  // endpoints, ascending by candidate id, and surface the plan behind it.
  // An arrival's entry lands before the next arrival's commit mirrors edges
  // onto it.
  for (size_t i = 0; i < arrivals.size(); ++i) {
    InsertOutcome& outcome = outcomes[i];
    if (!outcome.status.ok()) continue;
    Entry entry;
    entry.order = *arrivals[i].order;
    entry.inserted_at = arrivals[i].now;
    for (size_t k = first_pair[i]; k < first_pair[i + 1]; ++k) {
      std::optional<TestedEdge>& t = tested[k];
      if (!t.has_value()) continue;
      entry.edges.push_back(t->edge);
      entries_.find(t->edge.other)
          ->second.edges.push_back(
              ShareEdge{entry.order.id, t->edge.expiry, t->edge.pair_cost});
      ++edge_count_;
      outcome.seeds.push_back(PairPlanSeed{t->edge.other, std::move(t->plan)});
    }
    entries_.emplace(entry.order.id, std::move(entry));
  }
  return outcomes;
}

Result<std::vector<OrderId>> ShareabilityGraph::Remove(OrderId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return Status::NotFound("order " + std::to_string(id) + " not pooled");
  }
  std::vector<OrderId> neighbors;
  neighbors.reserve(it->second.edges.size());
  for (const ShareEdge& edge : it->second.edges) {
    neighbors.push_back(edge.other);
    RemoveEdgeTo(edge.other, id);
    --edge_count_;
  }
  entries_.erase(it);
  return neighbors;
}

void ShareabilityGraph::RemoveEdgeTo(OrderId from, OrderId to) {
  auto it = entries_.find(from);
  if (it == entries_.end()) return;
  auto& edges = it->second.edges;
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [to](const ShareEdge& e) {
                               return e.other == to;
                             }),
              edges.end());
}

std::vector<OrderId> ShareabilityGraph::ExpireEdges(Time now) {
  std::vector<OrderId> affected;
  int64_t directed = 0;
  for (auto& [id, entry] : entries_) {
    auto& edges = entry.edges;
    size_t before = edges.size();
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [now](const ShareEdge& e) {
                                 return e.expiry < now;
                               }),
                edges.end());
    if (edges.size() != before) affected.push_back(id);
    directed += static_cast<int64_t>(edges.size());
  }
  // Each expired edge was trimmed from both endpoints. The affected list's
  // order is unspecified; it only feeds unordered dirty-marking.
  edge_count_ = directed / 2;
  return affected;
}

const Order* ShareabilityGraph::GetOrder(OrderId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.order;
}

Time ShareabilityGraph::InsertedAt(OrderId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? -1.0 : it->second.inserted_at;
}

const std::vector<ShareEdge>& ShareabilityGraph::Neighbors(OrderId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? empty_ : it->second.edges;
}

bool ShareabilityGraph::HasEdge(OrderId a, OrderId b) const {
  for (const ShareEdge& edge : Neighbors(a)) {
    if (edge.other == b) return true;
  }
  return false;
}

std::vector<OrderId> ShareabilityGraph::OrderIds() const {
  std::vector<OrderId> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

}  // namespace watter
