// TimelineSampler: one RoundSample per platform check round, capturing what
// the simulation looked like (pool size, shareability edges, queue depth),
// what the round did (offers, commits, conflicts, counter deltas), and where
// its wall-clock went (per-phase durations). Exported as JSON or CSV via
// `--timeline FILE`; schema documented in docs/OBSERVABILITY.md.
//
// Unlike the trace (every span, per thread), the timeline is a fixed ~200
// bytes per round regardless of scale, so it is the right tool for the
// paper-scale 125k/6k profile where a full trace would be gigabytes.
//
// Fields are plain integers/doubles (no core/metrics.h types) so obs stays
// below core in the module DAG — core links obs for the plan-latency
// histogram, so obs including core headers would be a cycle.
#ifndef WATTER_OBS_TIMELINE_H_
#define WATTER_OBS_TIMELINE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace watter {
namespace obs {

/// Everything recorded about one check round. Wall-clock fields (`*_s`) are
/// diagnostic only; every other field is covered by the determinism
/// contract (bitwise identical across threads/shards/backends/tracing).
struct RoundSample {
  int64_t round = 0;
  double now = 0.0;  ///< Simulation time of the check (seconds).

  // State at the end of the round.
  int64_t pool_size = 0;
  int64_t shareability_edges = 0;
  /// Always 0: commits are synchronous. Kept so timeline readers keep
  /// their column.
  int64_t pipeline_depth = 0;

  // What the round's decision loop did.
  int64_t offers = 0;
  int64_t committed = 0;
  int64_t worker_conflicts = 0;
  int64_t order_conflicts = 0;

  // Deltas of the cumulative Pool/Geo counters over this round.
  int64_t planner_plans = 0;
  int64_t pair_tests = 0;
  int64_t recomputes = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t geo_queries = 0;
  int64_t geo_batches = 0;

  // Robustness columns (docs/ROBUSTNESS.md) — all zero when fault injection
  // and the work budget are off. fault_events counts the dropout/return
  // events applied this round; degraded is 1 while a brownout window
  // is open; the rest are per-round deltas of the FaultStats counters.
  int64_t fault_events = 0;
  int64_t recovered = 0;   ///< Aboard orders re-pooled after dropouts.
  int64_t failed = 0;      ///< Aboard orders failed terminally.
  int64_t shed = 0;        ///< Orders shed by the work budget.
  int64_t degraded = 0;    ///< 1 = round ran under a brownout.
  int64_t work_units = 0;  ///< Work units charged by the budget pass.

  // Per-phase wall-clock (seconds). The serial engine folds its whole
  // decision loop into commit_s (it has no propose/resolve split).
  double maintenance_s = 0.0;
  double refresh_s = 0.0;
  double propose_s = 0.0;
  double resolve_s = 0.0;
  double commit_s = 0.0;
  double sweep_s = 0.0;
  double total_s = 0.0;
};

/// Collects RoundSamples (single-threaded: the platform's event loop is the
/// only writer) and exports them. Also aggregates totals for benches.
class TimelineSampler {
 public:
  void Record(const RoundSample& sample) { samples_.push_back(sample); }

  const std::vector<RoundSample>& samples() const { return samples_; }

  /// Column-wise sums (round holds the count, now the last sim time,
  /// pool_size / shareability_edges / pipeline_depth the max seen).
  RoundSample Totals() const;

  /// Writes {"rounds": [...], "totals": {...}} as JSON. Returns false if
  /// the file cannot be written.
  bool WriteJson(const std::string& path) const;

  /// One header row plus one row per sample, same field order as the JSON.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<RoundSample> samples_;
};

}  // namespace obs
}  // namespace watter

#endif  // WATTER_OBS_TIMELINE_H_
