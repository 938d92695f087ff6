// TravelTimeOracle: the single cost abstraction the whole framework uses.
//
// Every algorithm in the paper (pool management, route planning, GDP, GAS,
// RL features) only ever needs cost(l_i, l_j), the shortest travel time
// between two locations. Oracles answer that query from an APSP matrix, a
// contraction hierarchy, or on-demand Dijkstra with caching — all behind one
// interface so scenarios can pick the right trade-off for their city size.
#ifndef WATTER_GEO_TRAVEL_TIME_ORACLE_H_
#define WATTER_GEO_TRAVEL_TIME_ORACLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/geo/apsp.h"
#include "src/geo/contraction_hierarchy.h"
#include "src/geo/graph.h"

namespace watter {

/// Abstract shortest-travel-time provider.
///
/// Besides the point-to-point Cost(), every oracle answers *batch* queries —
/// ManyToOne / OneToMany / ManyToMany — because the framework's two hottest
/// access patterns are inherently batched: a fleet probe rates all candidate
/// workers against one pickup, and a pool insertion rates one order against
/// all resident candidates. The base class implements the batch calls as
/// Cost() loops (exactly the code the callers used to inline), so every
/// backend is batch-callable; BucketChOracle overrides them with genuinely
/// batched bucket-CH searches that share work across the batch.
///
/// Thread safety: all queries may be called concurrently from the platform's
/// parallel check/maintenance loops. MatrixOracle is wait-free (const table
/// reads); the caching oracles serialize behind an internal mutex.
class TravelTimeOracle {
 public:
  virtual ~TravelTimeOracle() = default;

  /// Shortest travel time (seconds) from `from` to `to`; kInfCost if
  /// unreachable. Implementations may cache internally. Safe to call from
  /// multiple threads.
  virtual double Cost(NodeId from, NodeId to) = 0;

  /// Batch query: out[i] = Cost(sources[i], target). `out` must have
  /// sources.size() slots. Results are exactly the values the equivalent
  /// Cost() loop would produce (the equivalence suite pins this for the
  /// bucket backend).
  virtual void ManyToOne(std::span<const NodeId> sources, NodeId target,
                         std::span<double> out);

  /// Batch query: out[j] = Cost(source, targets[j]). `out` must have
  /// targets.size() slots.
  virtual void OneToMany(NodeId source, std::span<const NodeId> targets,
                         std::span<double> out);

  /// Batch query: out[i * targets.size() + j] = Cost(sources[i],
  /// targets[j]) (row-major). `out` must have sources.size() *
  /// targets.size() slots.
  virtual void ManyToMany(std::span<const NodeId> sources,
                          std::span<const NodeId> targets,
                          std::span<double> out);

  /// True when the batch calls are genuinely batched rather than the base
  /// class's Cost() loops. Callers use this to decide whether cache-priming
  /// prefetches (e.g. the shareability graph's per-anchor candidate batch)
  /// pay for themselves.
  virtual bool NativeBatch() const { return false; }

  /// Seconds spent building memoized search spaces (bucket-CH only; 0
  /// elsewhere). Accumulated once per build under the oracle's mutex.
  virtual double bucket_build_seconds() const { return 0.0; }

  /// Number of point queries answered, batched or not (diagnostics).
  int64_t query_count() const { return SumCounter(&CounterSlot::queries); }

  /// Number of batch calls answered (diagnostics).
  int64_t batch_count() const { return SumCounter(&CounterSlot::batches); }

  /// Total batched endpoints across all batch calls: sources for
  /// many-to-one, targets for one-to-many, both for many-to-many. Divided
  /// by batch_count() this is the mean batch width the consumers achieve.
  int64_t batch_points() const { return SumCounter(&CounterSlot::points); }

 protected:
  // The counters are exact under concurrent callers without a lock-prefixed
  // read-modify-write on the hot path (Cost() is the hottest call in the
  // tree; a shared fetch_add costs several percent end-to-end). Each thread
  // owns one cache-line-padded slot and bumps it with a plain relaxed
  // load/store; readers sum the slots. Threads past the first
  // kOwnedCounterSlots of the process share one overflow slot updated with
  // fetch_add, which keeps them exact too. Readers racing with writers see
  // some prefix of the increments; once the writers have synchronized with
  // the reader (a ThreadPool join), the sum is exact.
  void CountQuery() { CountQueries(1); }

  void CountQueries(int64_t n) { Bump(&CounterSlot::queries, n); }

  void CountBatch(int64_t points) {
    Bump(&CounterSlot::batches, 1);
    Bump(&CounterSlot::points, points);
  }

 private:
  static constexpr int kOwnedCounterSlots = 64;
  static constexpr int kSharedCounterSlot = kOwnedCounterSlots;

  struct alignas(64) CounterSlot {
    std::atomic<int64_t> queries{0};
    std::atomic<int64_t> batches{0};
    std::atomic<int64_t> points{0};
  };

  /// The calling thread's slot index, claimed on its first count (process-
  /// wide, never released; kSharedCounterSlot once the owned slots run out).
  static int ClaimCounterSlot();

  // Constant-initialized and trivially destructible, so reading it needs no
  // TLS init guard; -1 means "not claimed yet".
  static inline constinit thread_local int counter_slot_ = -1;

  void Bump(std::atomic<int64_t> CounterSlot::*field, int64_t n) {
    int slot = counter_slot_;
    if (slot < 0) [[unlikely]] slot = ClaimCounterSlot();
    std::atomic<int64_t>& counter = counter_slots_[slot].*field;
    if (slot == kSharedCounterSlot) [[unlikely]] {
      counter.fetch_add(n, std::memory_order_relaxed);
    } else {
      counter.store(counter.load(std::memory_order_relaxed) + n,
                    std::memory_order_relaxed);
    }
  }

  int64_t SumCounter(std::atomic<int64_t> CounterSlot::*field) const {
    int64_t sum = 0;
    for (const CounterSlot& slot : counter_slots_) {
      sum += (slot.*field).load(std::memory_order_relaxed);
    }
    return sum;
  }

  std::array<CounterSlot, kOwnedCounterSlots + 1> counter_slots_;
};

/// Oracle backed by a dense all-pairs matrix: O(1) per query.
class MatrixOracle : public TravelTimeOracle {
 public:
  explicit MatrixOracle(std::shared_ptr<const CostMatrix> matrix)
      : matrix_(std::move(matrix)) {}

  double Cost(NodeId from, NodeId to) override {
    CountQuery();
    return matrix_->Cost(from, to);
  }

 private:
  std::shared_ptr<const CostMatrix> matrix_;
};

/// Oracle backed by a contraction hierarchy with a small memo cache.
class ChOracle : public TravelTimeOracle {
 public:
  ChOracle(std::shared_ptr<const ContractionHierarchy> ch,
           size_t cache_capacity = 1 << 20)
      : ch_(std::move(ch)), cache_capacity_(cache_capacity) {}

  double Cost(NodeId from, NodeId to) override;

  size_t cache_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }

 private:
  std::shared_ptr<const ContractionHierarchy> ch_;
  size_t cache_capacity_;
  mutable std::mutex mu_;  // Guards cache_.
  std::unordered_map<uint64_t, double> cache_;
};

/// Oracle running full Dijkstra per distinct source, LRU-bounded.
///
/// Amortizes well when many queries share sources (e.g. one order's pickup
/// probed against many candidate partners).
class DijkstraOracle : public TravelTimeOracle {
 public:
  explicit DijkstraOracle(const Graph* graph, size_t max_cached_sources = 256);

  double Cost(NodeId from, NodeId to) override;

 private:
  const std::vector<double>& RowFor(NodeId source);

  const Graph* graph_;
  size_t max_cached_sources_;
  std::mutex mu_;  // Guards rows_ and the LRU bookkeeping.
  std::unordered_map<NodeId, std::vector<double>> rows_;
  std::list<NodeId> lru_;  // Front = most recent.
  std::unordered_map<NodeId, std::list<NodeId>::iterator> lru_pos_;
};

}  // namespace watter

#endif  // WATTER_GEO_TRAVEL_TIME_ORACLE_H_
