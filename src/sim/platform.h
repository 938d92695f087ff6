// WatterPlatform: the end-to-end simulation of Algorithm 1.
//
// Consumes a Scenario's time-ordered order stream, maintains the order pool
// (temporal shareability graph + best-group map), runs asynchronous periodic
// checks, applies the threshold-based grouping strategy (Algorithm 2) with a
// pluggable ThresholdProvider, assigns dispatched groups to the closest
// available worker, and accumulates the paper's four metrics.
//
// Dispatch/hold semantics implemented here (see DESIGN.md):
//  - A group is dispatched when Algorithm 2 says so, or when holding it past
//    the next check would let it expire (feasibility-forced dispatch; this
//    is what "as late as possible" means for WATTER-timeout).
//  - A lone order (no shared group) waits until its watching window eta
//    elapses, then is served solo while feasible ("dispatched immediately
//    when there is a suitable group, otherwise rejected").
//  - An order is rejected once no feasible service remains (its latest
//    dispatch time has passed without a worker).
#ifndef WATTER_SIM_PLATFORM_H_
#define WATTER_SIM_PLATFORM_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/metrics.h"
#include "src/geo/grid_index.h"
#include "src/obs/timeline.h"
#include "src/pool/order_pool.h"
#include "src/sim/fault_injector.h"
#include "src/sim/fleet.h"
#include "src/strategy/decision.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"

namespace watter {

/// How a check round turns warm best-group caches into dispatches.
enum class DispatchMode {
  /// The paper-faithful sequential decision loop: orders are visited in
  /// arrival order and every dispatch immediately reshapes what later
  /// orders see (lazy regrouping, worker consumption).
  kSerial,
  /// The batched engine (docs/DISPATCH.md): candidate offers are computed
  /// in parallel against frozen pool/fleet state, resolved in the
  /// sorted-offers total order (cost, anchor, worker) — per region shard
  /// when `num_shards > 1` — and committed in one serial pass. Results are
  /// bitwise identical across thread and shard counts, but intentionally
  /// differ from kSerial (different, globally-ranked commit order); the
  /// flag exists for exactly that A/B comparison.
  kBatched,
};

/// Simulation configuration.
struct SimOptions {
  /// Asynchronous periodic check interval (seconds).
  double check_period = 5.0;
  /// Pool configuration (capacity is overridden by the scenario's Kw).
  PoolOptions pool;
  /// Metric weights and penalties.
  MetricsOptions metrics;
  /// Spatial feature grid (paper Section VII-A: 10x10 cells).
  int grid_cells = 10;
  /// Candidates probed for the closest-worker query.
  int worker_candidates = 8;
  /// Serve timed-out lone orders alone when feasible.
  bool solo_fallback = true;
  /// Rider impatience: once an order's watching window has elapsed, it
  /// cancels with this per-second hazard rate (0 disables). The paper folds
  /// cancellations into expirations ("the order may be canceled at any
  /// time, which is also considered as an expiration").
  double cancellation_hazard = 0.0;
  /// Seed for platform-side randomness (currently only cancellations).
  uint64_t sim_seed = 0xC0FFEE;
  /// Threads for the check loop and pool maintenance. 0 = inherit the
  /// scenario's WorkloadOptions::num_threads; otherwise as there (1 =
  /// serial, negative = all hardware threads). Metrics and dispatch
  /// decisions are bitwise identical for any value (see thread_pool.h).
  int num_threads = 0;
  /// Dispatch engine for the decision phase of each check round. Batched is
  /// the default since the paper-scale A/B (docs/PERFORMANCE.md): global
  /// cost-ranked commits serve up to +11pp service rate under fleet
  /// contention and are within noise otherwise. `kSerial` keeps the
  /// paper-faithful sequential loop (CLI `--dispatch=serial`).
  DispatchMode dispatch = DispatchMode::kBatched;
  /// Geographic shards for the batched engine's conflict resolution (CLI
  /// `--shards`). 0 = inherit the scenario's WorkloadOptions::num_shards.
  /// With N > 1 the feature grid is partitioned into N rectangular regions
  /// (GridIndex::RegionOf); interior offers resolve per shard in parallel
  /// and border components are reconciled serially (docs/DISPATCH.md).
  /// Propose, commit and sweep are the same single pass for every N.
  /// Metrics and served sets are bitwise identical for any shard count;
  /// ignored by kSerial.
  int num_shards = 0;
  /// Chrome trace-event JSON output path. Empty = inherit the scenario's
  /// WorkloadOptions::trace_path (the common case; this override exists for
  /// embedders that run several platforms over one scenario). Tracing obeys
  /// the observability contract (docs/OBSERVABILITY.md): off is a no-op,
  /// on never changes a single metric bit.
  std::string trace_path;
  /// Per-round timeline output path (JSON, or CSV for `.csv` paths). Empty
  /// = inherit WorkloadOptions::timeline_path. Same contract as trace_path.
  std::string timeline_path;
  /// Deterministic fault-injection spec (docs/ROBUSTNESS.md grammar; CLI
  /// `--faults`). Empty = inherit WorkloadOptions::faults. Faults-off runs
  /// are byte-identical to a build without the robustness subsystem; a
  /// fixed spec is bitwise deterministic across threads and shards.
  std::string faults;
  /// Per-round propose work budget, in deterministic work units (candidate
  /// probes + planner plans — never wall-clock). When a round's pooled
  /// orders would exceed it, the least-urgent tail in
  /// latest-dispatch-then-id order is shed to the next round
  /// (docs/ROBUSTNESS.md). 0 = inherit WorkloadOptions::round_work_budget;
  /// negative forces unlimited even when the workload sets a budget.
  int64_t round_work_budget = 0;
  /// Opt-in wall-clock watchdog (CLI `--watchdog-ms`): when a check round
  /// takes longer than this many milliseconds, the effective work budget
  /// is halved (floored at a small minimum); compliant rounds grow it back
  /// ~25% per round toward the configured budget (or unlimited). Inherently
  /// wall-clock driven, so runs with a watchdog are excluded from the
  /// bitwise-determinism contract — it exists for live CLI deployments,
  /// not experiments. 0 disables.
  double watchdog_ms = 0.0;
};

/// One observed per-order decision; the RL trainer consumes these to build
/// MDP transitions offline (Section VI-A).
struct DecisionObservation {
  OrderId order = kInvalidOrder;
  const Order* order_ref = nullptr;
  Time now = 0.0;
  int action = 0;        ///< 1 = dispatch, 0 = wait.
  bool expired = false;  ///< Order left the platform unserved.
  double detour = 0.0;   ///< Realized detour (valid when dispatched).
  /// Cell-count snapshots (valid during the callback only).
  const std::vector<int>* demand_pickup = nullptr;
  const std::vector<int>* demand_dropoff = nullptr;
  const std::vector<int>* supply = nullptr;
};

/// Drives one full simulation run.
class WatterPlatform {
 public:
  /// `scenario` and `provider` must outlive the platform.
  WatterPlatform(Scenario* scenario, ThresholdProvider* provider,
                 SimOptions options);

  /// Runs the simulation to completion and returns the metric report.
  MetricsReport Run();

  /// Installs an observer called on every decision (RL data collection).
  void set_observer(std::function<void(const DecisionObservation&)> observer) {
    observer_ = std::move(observer);
  }

  const MetricsCollector& metrics() const { return metrics_; }
  const OrderPool& pool() const { return pool_; }
  const Fleet& fleet() const { return fleet_; }

  /// Fault/degradation counters accumulated so far (all zero when faults
  /// and the work budget are off). Tests read these between/after runs.
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// The fault injector, or nullptr when the resolved spec is inert.
  const FaultInjector* fault_injector() const { return injector_.get(); }

  /// The per-round timeline, populated only when a timeline path was
  /// resolved (SimOptions or WorkloadOptions); nullptr otherwise. Valid for
  /// the platform's lifetime — tests read it after Run().
  const obs::TimelineSampler* timeline() const { return timeline_.get(); }

 private:
  /// One rider group aboard a dispatched worker, kept (only while dropouts
  /// are scheduled) so a mid-route dropout can reverse the not-yet-delivered
  /// members' bookkeeping and re-pool them (docs/ROBUSTNESS.md).
  struct AboardMember {
    Order order;
    double response = 0.0;
    double detour = 0.0;
    Time dropoff_time = 0.0;  ///< When this member's drop-off completes.
  };
  struct ActiveTrip {
    Time dispatch_time = 0.0;
    double travel = 0.0;  ///< Worker travel recorded for this trip.
    int group_size = 1;
    std::vector<AboardMember> members;
  };

  /// Pools `arrivals` in one batch insert and indexes the ones the pool
  /// accepted in the demand grids.
  void InsertArrivals(std::span<const Arrival> arrivals);
  void RunCheck(Time now);
  /// The sequential decision/dispatch loop (DispatchMode::kSerial).
  /// `propose_ids` is the budget-eligible subset of `ids` (== `ids` when
  /// the work budget is off); shed orders only get the wait/expiry path.
  void RunDecisionLoopSerial(const std::vector<OrderId>& ids,
                             const std::vector<OrderId>& propose_ids, Time now,
                             const PoolContext& context);
  /// The batched engine (DispatchMode::kBatched), for any shard count:
  /// parallel offer propose, ResolveOffersSharded conflict resolution, one
  /// serial commit pass in sorted-offers order, one serial post-sweep. Only
  /// `propose_ids` bid; the sweep walks all of `ids`.
  void RunDecisionLoopBatched(const std::vector<OrderId>& ids,
                              const std::vector<OrderId>& propose_ids,
                              Time now, const PoolContext& context);
  /// Serial prologue of the batched engine: thresholds for every
  /// order appearing in some cached best group, queried in ascending id
  /// order (providers are stateful and not thread-safe).
  std::unordered_map<OrderId, double> PrecomputeThresholds(
      const std::vector<OrderId>& ids, Time now, const PoolContext& context);
  /// Pure propose step for one order against frozen pool/fleet state:
  /// returns an offer with a bound worker, or worker == kInvalidWorker when
  /// the order makes no dispatch bid this round. `thresholds` carries the
  /// serially precomputed theta per pooled order.
  DispatchOffer ProposeOffer(
      OrderId id, Time now,
      const std::unordered_map<OrderId, double>& thresholds);
  /// The worker probe both engines bid with: binds the closest
  /// capacity-feasible idle worker for `riders` riders to the offer's first
  /// stop (worker, pickup_delay, cost). Leaves `offer->worker` ==
  /// kInvalidWorker — no bid — when no worker qualifies or its pickup leg is
  /// unreachable. Pure read of the fleet and the oracle.
  void BindWorker(DispatchOffer* offer, int riders) const;
  /// The one commit path of both engines: claims the offer's worker, records
  /// metrics and observations, and removes the members from the pool.
  /// FailedPrecondition when the worker is no longer claimable (a
  /// late-dropout fault took it offline between resolution and commit); the
  /// offer is then abandoned and its members stay pooled for the sweep.
  Status CommitOffer(const DispatchOffer& offer, Time now);
  /// Grid region of `node` under the `num_shards_` partition.
  int ShardOfNode(NodeId node) const;
  /// `cancelled` marks a rider-hazard cancellation (same penalties, broken
  /// out in the metrics as a subset of rejections).
  void RejectOrder(const Order& order, Time now, bool cancelled = false);
  void RemoveFromIndexes(const Order& order);
  /// Applies every fault event due at this round boundary (serial phase):
  /// dropouts/returns and brownout window toggles.
  void ApplyFaults(Time now);
  /// Applies due late-dropout events — between conflict resolution and
  /// commit in the batched engine, after the decision loop in the serial
  /// engine.
  void ApplyLateFaults(Time now);
  /// Takes one worker offline and, when it was mid-route, recovers the
  /// interrupted trip (reverse bookkeeping, re-pool or fail the riders).
  void HandleDropout(WorkerId id, Time now, bool late);
  void RecoverTrip(WorkerId id, Time now);
  /// Remembers a dispatched trip for dropout recovery (only while dropouts
  /// are scheduled; otherwise trips are not tracked at all).
  void TrackTrip(WorkerId worker, ActiveTrip trip);
  /// Estimated propose-phase work units for one pooled order (candidate
  /// probes + planner plans), from frozen post-refresh state.
  int64_t EstimateWorkUnits(OrderId id, Time now) const;
  /// Solo-fallback eligibility shared by ProposeOffer, the serial loop and
  /// the work-unit estimator.
  bool SoloEligible(const Order& order, Time now) const;
  /// The budget pre-pass: charges estimated work units in latest-dispatch-
  /// then-id order and returns the eligible prefix (ascending id). Sheds
  /// the rest to the next round, updating the shed/degraded counters. Only
  /// called when budgeting is on.
  std::vector<OrderId> BudgetedIds(const std::vector<OrderId>& ids, Time now);
  /// Wall-clock watchdog (CLI opt-in): halve the effective budget after an
  /// overrun round, recover it gradually on compliant rounds.
  void AdjustWatchdog(double round_ms);
  void Observe(const Order& order, Time now, int action, bool expired,
               double detour);
  /// Closes the current RoundSample: end-of-round state, dispatch/counter
  /// deltas, and the phase durations the decision loops stamped into
  /// `round_sample_`. No-op unless the timeline sampler is active.
  void FinishRoundSample(Time now, double total_seconds);

  Scenario* scenario_;
  ThresholdProvider* provider_;
  SimOptions options_;
  // Resolved shard count (>= 1) for the batched conflict resolution.
  int num_shards_ = 1;
  // Fault-injection state (docs/ROBUSTNESS.md), declared before the pool:
  // oracle_ is the effective cost source every platform query (pool
  // planning included) goes through — the degraded wrapper whenever
  // brownouts are scheduled, the scenario's oracle otherwise.
  FaultSpec fault_spec_;
  std::unique_ptr<FaultInjector> injector_;          // null = faults off.
  std::unique_ptr<DegradedOracle> degraded_oracle_;  // Brownouts only.
  TravelTimeOracle* oracle_ = nullptr;
  // Declared before the pool and fleet that borrow it, so it outlives them.
  ThreadPool executor_;
  OrderPool pool_;
  Fleet fleet_;
  MetricsCollector metrics_;
  Rng rng_;
  // Batched-engine work counters, copied into MetricsReport::dispatch.
  DispatchStats dispatch_stats_;
  // Fault/degradation counters, copied into MetricsReport::faults.
  FaultStats fault_stats_;
  // In-flight trips for dropout recovery, keyed by worker; populated only
  // while dropouts are scheduled (track_trips_). Entries are overwritten on
  // re-dispatch and erased on recovery; entries of naturally completed
  // trips linger harmlessly (bounded by fleet size) until overwritten.
  std::unordered_map<WorkerId, ActiveTrip> active_trips_;
  bool track_trips_ = false;
  int brownout_depth_ = 0;  // Open brownout windows right now.
  // Overload-degradation state: budgeting_ arms the budget pre-pass
  // (configured budget and/or watchdog); effective_budget_ is what the
  // current round enforces (0 = unlimited) and differs from work_budget_
  // only while the watchdog has it clamped.
  bool budgeting_ = false;
  int64_t work_budget_ = 0;
  int64_t effective_budget_ = 0;
  int64_t round_units_ = 0;  // Work units charged in the last budget pass.
  // Observability (all inert unless the run resolved a trace/timeline
  // path; see docs/OBSERVABILITY.md). The sampler is allocated up front so
  // `sampling_` is one bool test on the round path; `round_sample_` is the
  // in-progress sample the decision loops stamp phase durations into, and
  // `counter_base_` holds the previous round's cumulative counters so each
  // sample carries per-round deltas.
  std::string trace_path_;
  std::string timeline_path_;
  bool sampling_ = false;
  std::unique_ptr<obs::TimelineSampler> timeline_;
  obs::RoundSample round_sample_;
  obs::RoundSample counter_base_;
  int64_t round_counter_ = 0;
  GridIndex demand_pickup_index_;
  GridIndex demand_dropoff_index_;
  std::function<void(const DecisionObservation&)> observer_;
  // Snapshots rebuilt at each check round.
  std::vector<int> demand_pickup_counts_;
  std::vector<int> demand_dropoff_counts_;
  std::vector<int> supply_counts_;
};

/// Convenience: builds the platform and runs it.
MetricsReport RunWatter(Scenario* scenario, ThresholdProvider* provider,
                        const SimOptions& options = {});

}  // namespace watter

#endif  // WATTER_SIM_PLATFORM_H_
