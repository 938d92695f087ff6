#include "src/geo/travel_time_oracle.h"

#include "src/geo/dijkstra.h"

namespace watter {

int TravelTimeOracle::ClaimCounterSlot() {
  static std::atomic<int> next_slot{0};
  int slot = next_slot.fetch_add(1, std::memory_order_relaxed);
  counter_slot_ = slot < kOwnedCounterSlots ? slot : kSharedCounterSlot;
  return counter_slot_;
}

void TravelTimeOracle::ManyToOne(std::span<const NodeId> sources,
                                 NodeId target, std::span<double> out) {
  CountBatch(static_cast<int64_t>(sources.size()));
  for (size_t i = 0; i < sources.size(); ++i) {
    out[i] = Cost(sources[i], target);
  }
}

void TravelTimeOracle::OneToMany(NodeId source,
                                 std::span<const NodeId> targets,
                                 std::span<double> out) {
  CountBatch(static_cast<int64_t>(targets.size()));
  for (size_t j = 0; j < targets.size(); ++j) {
    out[j] = Cost(source, targets[j]);
  }
}

void TravelTimeOracle::ManyToMany(std::span<const NodeId> sources,
                                  std::span<const NodeId> targets,
                                  std::span<double> out) {
  CountBatch(static_cast<int64_t>(sources.size() + targets.size()));
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      out[i * targets.size() + j] = Cost(sources[i], targets[j]);
    }
  }
}

double ChOracle::Cost(NodeId from, NodeId to) {
  CountQuery();
  if (from == to) return 0.0;
  uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
                 static_cast<uint32_t>(to);
  // The lock also covers ch_->Query: the hierarchy reuses mutable scratch
  // buffers across queries, so queries must not overlap.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  double cost = ch_->Query(from, to);
  if (cache_.size() >= cache_capacity_) cache_.clear();  // Cheap epoch flush.
  cache_.emplace(key, cost);
  return cost;
}

DijkstraOracle::DijkstraOracle(const Graph* graph, size_t max_cached_sources)
    : graph_(graph), max_cached_sources_(max_cached_sources) {}

const std::vector<double>& DijkstraOracle::RowFor(NodeId source) {
  auto it = rows_.find(source);
  if (it != rows_.end()) {
    lru_.splice(lru_.begin(), lru_, lru_pos_[source]);
    return it->second;
  }
  if (rows_.size() >= max_cached_sources_) {
    NodeId victim = lru_.back();
    lru_.pop_back();
    lru_pos_.erase(victim);
    rows_.erase(victim);
  }
  Dijkstra search(graph_);
  search.Run(source);
  std::vector<double> row(static_cast<size_t>(graph_->num_nodes()), kInfCost);
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    row[v] = search.DistanceTo(v);
  }
  auto [inserted, _] = rows_.emplace(source, std::move(row));
  lru_.push_front(source);
  lru_pos_[source] = lru_.begin();
  return inserted->second;
}

double DijkstraOracle::Cost(NodeId from, NodeId to) {
  CountQuery();
  // One lock around lookup-or-compute: RowFor mutates the row cache and the
  // LRU list, and the returned row reference must not be invalidated by a
  // concurrent eviction while we read it.
  std::lock_guard<std::mutex> lock(mu_);
  return RowFor(from)[to];
}

}  // namespace watter
