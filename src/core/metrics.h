// METRS objective accounting and the paper's four evaluation metrics:
// Extra Time, Unified Cost, Service Rate and Running Time (Section VII-A,
// "Measurements").
#ifndef WATTER_CORE_METRICS_H_
#define WATTER_CORE_METRICS_H_

#include <string>
#include <vector>

#include "src/core/types.h"

namespace watter {

/// Configuration of the metric pipeline.
struct MetricsOptions {
  /// Definition 6 trade-off weights (paper default: alpha = beta = 1).
  ExtraTimeWeights weights;
  /// Unified-cost rejection penalty factor: penalty = factor * cost(lp, ld)
  /// (the paper follows [9] and uses 10x the shortest cost).
  double uc_penalty_factor = 10.0;
};

/// Per-served-order record kept for distribution fitting and debugging.
struct ServedRecord {
  OrderId id = kInvalidOrder;
  double response = 0.0;  ///< t_r
  double detour = 0.0;    ///< t_d
  double extra = 0.0;     ///< te = alpha*t_d + beta*t_r
  int group_size = 1;
};

/// Pool-side work counters of one run (all zero for the non-pooling
/// baselines, which have no order pool). These are deterministic — bitwise
/// identical across thread counts and dispatch engines for a fixed scenario
/// — so committed baselines diff them directly to catch cache regressions
/// (docs/PERFORMANCE.md, `BENCH_pool.json`).
struct PoolStats {
  int64_t best_group_recomputes = 0;  ///< Best-group searches committed.
  int64_t groups_evaluated = 0;       ///< Candidate groups rated by searches.
  int64_t planner_plans = 0;          ///< RoutePlanner::PlanBest invocations.
  int64_t pair_tests = 0;             ///< Shareability pair feasibility tests.
  int64_t plan_cache_hits = 0;        ///< Group-plan cache lookups served.
  int64_t plan_cache_misses = 0;      ///< Lookups that had to plan fresh.
  int64_t plan_cache_replans = 0;     ///< Expired entries re-planned later.
  int64_t plan_cache_seeds = 0;       ///< Pair plans adopted from edge tests.
  int64_t plan_cache_evictions = 0;   ///< Entries dropped on member departure.
  int64_t reverse_index_fanout = 0;   ///< Owners dirtied via member->owners.
};

/// Travel-time-oracle work counters of one run (filled by WatterPlatform
/// from the scenario's oracle; zero elsewhere). Unlike PoolStats these are
/// *diagnostic*: the counts are exact under any thread count (per-thread
/// slots, travel_time_oracle.h), but the two geo backends intentionally
/// issue different query totals, so determinism comparisons across
/// backends exclude them, like wall-clock fields. bucket_build_seconds is
/// wall-clock, hence excluded from determinism too.
struct GeoStats {
  int64_t queries = 0;        ///< Point results answered (batched or not).
  int64_t batches = 0;        ///< Batch calls (ManyToOne/OneToMany/ManyToMany).
  int64_t batch_points = 0;   ///< Batched endpoints; /batches = mean width.
  double bucket_build_seconds = 0.0;  ///< Search-space build time (0 if unused).
};

/// Batched-dispatch work counters of one run (zero for the serial engine
/// and the baselines). The offer and outcome totals are deterministic —
/// identical across thread AND shard counts, because the sharded
/// reconciliation is bitwise-equal to the global commit scan
/// (docs/DISPATCH.md). The border splits measure the shard layout itself
/// and legitimately vary with `--shards` (at 1 shard everything is
/// interior); determinism comparisons across shard counts exclude them.
struct DispatchStats {
  int64_t offers = 0;             ///< Bids that reached conflict resolution.
  int64_t committed = 0;          ///< Offers that dispatched.
  int64_t worker_conflicts = 0;   ///< Lost the worker to a cheaper offer.
  int64_t order_conflicts = 0;    ///< Lost a member to a cheaper offer.
  int64_t border_offers = 0;      ///< Offers straddling a shard boundary.
  int64_t border_affected = 0;    ///< Interior offers pulled into the
                                  ///< reconciliation pass by a border link.
};

/// Fault-injection and overload-degradation counters of one run (zero when
/// `--faults` and the round work budget are off; docs/ROBUSTNESS.md). All
/// deterministic: faults fire from a precomputed schedule and shedding is
/// decided from frozen state, so these diff bitwise across thread and shard
/// counts like PoolStats — except watchdog_trips, which is wall-clock
/// driven (CLI opt-in) and excluded from determinism comparisons.
struct FaultStats {
  int64_t dropouts = 0;           ///< Workers taken offline at round starts.
  int64_t midroute_dropouts = 0;  ///< Of those, mid-route with riders aboard.
  int64_t late_dropouts = 0;      ///< Dropouts between resolve and commit.
  int64_t returns = 0;            ///< Workers brought back online.
  int64_t brownout_rounds = 0;    ///< Rounds run under a degraded oracle.
  int64_t recovered_orders = 0;   ///< Aboard orders re-pooled after a dropout.
  int64_t failed_services = 0;    ///< Aboard orders past deadline at dropout.
  int64_t aborted_commits = 0;    ///< Winning offers undone by a lost worker.
  int64_t shed_orders = 0;        ///< Propose work deferred by the budget.
  int64_t degraded_rounds = 0;    ///< Rounds that shed at least one order.
  int64_t work_units = 0;         ///< Propose work units spent (budgeted runs).
  int64_t watchdog_trips = 0;     ///< Wall-clock watchdog activations.
};

/// Aggregated results of one simulation run.
struct MetricsReport {
  int64_t served = 0;
  int64_t rejected = 0;
  /// Orders cancelled by the rider hazard — a subset of `rejected` (they
  /// carry the same penalties), broken out for fault/chaos accounting.
  int64_t cancelled = 0;
  /// Orders that boarded but could not be served within their (grace-
  /// extended) deadline after a worker dropout. Terminal, like rejection.
  int64_t failed_services = 0;
  double total_extra_time = 0.0;    ///< Sum of te over served orders.
  double total_metrs_penalty = 0.0; ///< Sum of p(i) over rejected orders.
  double metrs_objective = 0.0;     ///< Equation 2.
  double worker_travel = 0.0;       ///< Total driver travel seconds.
  double unified_cost = 0.0;        ///< worker_travel + UC rejection penalty.
  double service_rate = 0.0;        ///< |O+| / |O|.
  double avg_extra = 0.0;
  double avg_response = 0.0;
  double avg_detour = 0.0;
  double avg_group_size = 0.0;
  double algorithm_seconds = 0.0;   ///< Total decision-making wall time.
  double running_time_per_order = 0.0;  ///< algorithm_seconds / |O|.
  /// Fraction of fleet time spent driving: worker_travel / (fleet size *
  /// simulated horizon); 0 when fleet info was not supplied.
  double fleet_utilization = 0.0;
  /// Pool/planner work counters (filled by WatterPlatform; zero elsewhere).
  PoolStats pool;
  /// Travel-time-oracle work counters (filled by WatterPlatform; zero
  /// elsewhere). Cumulative over the oracle's lifetime, which includes
  /// scenario generation's shortest-cost sampling.
  GeoStats geo;
  /// Batched-dispatch work counters (filled by WatterPlatform's batched
  /// engine; zero under kSerial and in the baselines).
  DispatchStats dispatch;
  /// Fault-injection / degradation counters (filled by WatterPlatform; all
  /// zero when faults and the work budget are off).
  FaultStats faults;

  /// One-line summary for logs.
  std::string ToString() const;
};

/// Serializes a full report as one JSON object. Overlapping fields use the
/// exact bench_util record names (served, metrs_objective, oracle_queries,
/// running_time_per_order_us, ...) so `watter_cli --metrics-json` output
/// and BENCH_*.json records diff with the same tooling; the remaining
/// MetricsReport fields ride along under their struct names.
std::string MetricsReportJson(const MetricsReport& report);

/// Streams served/rejected order outcomes and produces a MetricsReport.
class MetricsCollector {
 public:
  explicit MetricsCollector(MetricsOptions options = {})
      : options_(options) {}

  /// Records a served order with its realized response and detour times.
  void RecordServed(const Order& order, double response, double detour,
                    int group_size);

  /// Records a rejected order (adds its METRS and unified-cost penalties).
  void RecordRejected(const Order& order);

  /// Records a rider-cancelled order: same penalties as a rejection (the
  /// cancelled_ count is a subset of rejected_, so faults-off aggregates
  /// are unchanged), plus the cancellation break-out.
  void RecordCancelled(const Order& order);

  /// Records an order that boarded but could not be served within its
  /// deadline after its worker dropped out (docs/ROBUSTNESS.md). Carries
  /// rejection-style penalties; terminal, so it joins the service-rate
  /// denominator.
  void RecordFailedService(const Order& order);

  /// Exactly undoes an earlier RecordServed for an aboard-but-undelivered
  /// order whose worker dropped out: the same float contributions are
  /// subtracted, so a recovered order that later serves again accumulates
  /// from a clean slate. The historical served_extra_times() sample keeps
  /// the original entry (it is a fitting corpus, not an invariant).
  void ReverseServed(const Order& order, double response, double detour,
                     int group_size);

  /// Adds driver travel seconds (pickup legs + route legs).
  void AddWorkerTravel(double seconds) { worker_travel_ += seconds; }

  /// Adds algorithm (decision-making) wall time.
  void AddAlgorithmTime(double seconds) { algorithm_seconds_ += seconds; }

  /// Supplies fleet size and simulated horizon for utilization reporting.
  void SetFleetInfo(int fleet_size, double horizon_seconds) {
    fleet_size_ = fleet_size;
    horizon_seconds_ = horizon_seconds;
  }

  /// Extra times of served orders so far — the "historical data H" that
  /// Algorithm 3 fits the Gaussian Mixture Model to.
  const std::vector<double>& served_extra_times() const {
    return served_extras_;
  }

  const std::vector<ServedRecord>& served_records() const {
    return served_records_;
  }

  const MetricsOptions& options() const { return options_; }
  int64_t total_orders() const { return served_ + rejected_ + failed_; }
  int64_t served_count() const { return served_; }
  int64_t rejected_count() const { return rejected_; }
  int64_t cancelled_count() const { return cancelled_; }
  int64_t failed_count() const { return failed_; }

  /// Finalizes averages and rates into a report.
  MetricsReport Report() const;

 private:
  MetricsOptions options_;
  int64_t served_ = 0;
  int64_t rejected_ = 0;
  int64_t cancelled_ = 0;  // Subset of rejected_.
  int64_t failed_ = 0;     // Failed services (not part of rejected_).
  double total_extra_ = 0.0;
  double total_response_ = 0.0;
  double total_detour_ = 0.0;
  double total_group_size_ = 0.0;
  double total_metrs_penalty_ = 0.0;
  double total_uc_penalty_ = 0.0;
  double worker_travel_ = 0.0;
  double algorithm_seconds_ = 0.0;
  int fleet_size_ = 0;
  double horizon_seconds_ = 0.0;
  std::vector<double> served_extras_;
  std::vector<ServedRecord> served_records_;
};

}  // namespace watter

#endif  // WATTER_CORE_METRICS_H_
