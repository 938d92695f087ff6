// Determinism regression harness for the parallel platform.
//
// The paper's metrics must be a pure function of the scenario, never of the
// machine: the platform's parallel check loop and pool maintenance promise
// bitwise-identical results for any thread count (thread_pool.h, determinism
// contract). This suite runs the same scenario at 1, 2 and 8 threads across
// several RNG seeds — in BOTH dispatch engines (serial loop and the batched
// sorted-offers engine, docs/DISPATCH.md) — and asserts the metric reports
// and the exact served/expired order sets match the 1-thread reference bit
// for bit within each engine. Wall-clock fields (algorithm_seconds,
// running_time_per_order) are the one intentional exclusion. The two
// engines intentionally differ from each other (globally-ranked vs chained
// commit order); no cross-engine equality is asserted.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/metrics.h"
#include "src/obs/histogram_registry.h"
#include "src/obs/trace.h"
#include "src/sim/platform.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"

namespace watter {
namespace {

struct RunOutcome {
  MetricsReport report;
  std::set<OrderId> served;
  std::set<OrderId> expired;
};

WorkloadOptions DeterminismWorkload(uint64_t seed) {
  WorkloadOptions options;
  options.dataset = DatasetKind::kCdc;
  options.num_orders = 500;
  options.num_workers = 50;
  options.city_width = 16;
  options.city_height = 16;
  options.duration = 3600.0;
  options.seed = seed;
  return options;
}

RunOutcome RunWithThreads(uint64_t seed, int num_threads,
                          double cancellation_hazard, DispatchMode dispatch,
                          int num_shards = 1,
                          OracleKind oracle = OracleKind::kMatrix,
                          GeoBackend geo = GeoBackend::kBucket,
                          bool traced = false) {
  WorkloadOptions workload = DeterminismWorkload(seed);
  workload.oracle = oracle;
  workload.geo = geo;
  auto scenario = GenerateScenario(workload);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  if (!scenario.ok()) return {};
  OnlineThresholdProvider provider;
  SimOptions options;
  options.num_threads = num_threads;
  options.cancellation_hazard = cancellation_hazard;
  options.dispatch = dispatch;
  options.num_shards = num_shards;
  std::string trace_path, timeline_path;
  if (traced) {
    trace_path = ::testing::TempDir() + "/determinism_trace.json";
    timeline_path = ::testing::TempDir() + "/determinism_timeline.json";
    options.trace_path = trace_path;
    options.timeline_path = timeline_path;
  }
  WatterPlatform platform(&*scenario, &provider, options);
  RunOutcome outcome;
  platform.set_observer([&outcome](const DecisionObservation& obs) {
    if (obs.action == 1) {
      outcome.served.insert(obs.order);
    } else if (obs.expired) {
      outcome.expired.insert(obs.order);
    }
  });
  outcome.report = platform.Run();
  if (traced) {
    // A traced Run() leaves the process-global sinks armed (they accumulate
    // by design); disarm and drop them so later runs in this binary really
    // are trace-off, and so buffers do not grow across the matrix.
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().Clear();
    obs::HistogramRegistry::Global().Disable();
    obs::HistogramRegistry::Global().Clear();
    std::remove(trace_path.c_str());
    std::remove(timeline_path.c_str());
  }
  return outcome;
}

// Bitwise equality on everything except wall-clock timings.
void ExpectIdentical(const RunOutcome& reference, const RunOutcome& candidate,
                     int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  const MetricsReport& a = reference.report;
  const MetricsReport& b = candidate.report;
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.total_extra_time, b.total_extra_time);
  EXPECT_EQ(a.total_metrs_penalty, b.total_metrs_penalty);
  EXPECT_EQ(a.metrs_objective, b.metrs_objective);
  EXPECT_EQ(a.worker_travel, b.worker_travel);
  EXPECT_EQ(a.unified_cost, b.unified_cost);
  EXPECT_EQ(a.service_rate, b.service_rate);
  EXPECT_EQ(a.avg_extra, b.avg_extra);
  EXPECT_EQ(a.avg_response, b.avg_response);
  EXPECT_EQ(a.avg_detour, b.avg_detour);
  EXPECT_EQ(a.avg_group_size, b.avg_group_size);
  EXPECT_EQ(a.fleet_utilization, b.fleet_utilization);
  // Batched-engine offer/outcome totals are deterministic across both
  // threads and shards (the sharded reconciliation is bitwise-equal to the
  // global scan). Border splits are excluded here: they describe the shard
  // layout itself and legitimately differ across shard counts.
  EXPECT_EQ(a.dispatch.offers, b.dispatch.offers);
  EXPECT_EQ(a.dispatch.committed, b.dispatch.committed);
  EXPECT_EQ(a.dispatch.worker_conflicts, b.dispatch.worker_conflicts);
  EXPECT_EQ(a.dispatch.order_conflicts, b.dispatch.order_conflicts);
  EXPECT_EQ(reference.served, candidate.served);
  EXPECT_EQ(reference.expired, candidate.expired);
}

// Parameterized over (seed, dispatch engine): each engine must be a pure
// function of the scenario at every thread count.
class ParallelDeterminismTest
    : public testing::TestWithParam<std::tuple<uint64_t, DispatchMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  DispatchMode dispatch() const { return std::get<1>(GetParam()); }
};

TEST_P(ParallelDeterminismTest, MetricsIdenticalAcrossThreadCounts) {
  RunOutcome reference = RunWithThreads(seed(), 1, 0.0, dispatch());
  // A nontrivial run, or the comparison proves nothing.
  ASSERT_GT(reference.report.served, 0);
  ASSERT_FALSE(reference.served.empty());
  for (int threads : {2, 8}) {
    RunOutcome candidate = RunWithThreads(seed(), threads, 0.0, dispatch());
    ExpectIdentical(reference, candidate, threads);
    // The oracle work is a pure function of the scenario and its counters
    // are exact under concurrent callers, so they match too.
    EXPECT_EQ(reference.report.geo.queries, candidate.report.geo.queries);
    EXPECT_EQ(reference.report.geo.batches, candidate.report.geo.batches);
    EXPECT_EQ(reference.report.geo.batch_points,
              candidate.report.geo.batch_points);
  }
}

TEST_P(ParallelDeterminismTest, CancellationRandomnessIsThreadInvariant) {
  // Rider impatience draws from the platform RNG; the draws happen in the
  // serial phase of either engine (the decision loop, or the batched
  // post-commit sweep), so the sequence must not depend on thread count.
  RunOutcome reference = RunWithThreads(seed(), 1, 0.01, dispatch());
  ASSERT_GT(reference.report.served, 0);
  for (int threads : {2, 8}) {
    ExpectIdentical(reference,
                    RunWithThreads(seed(), threads, 0.01, dispatch()),
                    threads);
  }
}

std::string CaseName(
    const testing::TestParamInfo<std::tuple<uint64_t, DispatchMode>>& info) {
  return (std::get<1>(info.param) == DispatchMode::kBatched ? "batched_s"
                                                            : "serial_s") +
         std::to_string(std::get<0>(info.param));
}

// Geo-backend axis: with a CH-backed city, the per-query and bucket-CH
// backends must produce bit-identical simulations — same metrics, same
// served/expired sets — in both engines at every thread count. This is the
// end-to-end face of the oracle-equivalence suite's bitwise claim: because
// every batch slot equals its Cost() twin to the last ulp, swapping the
// backend may only move runtime, never a decision. The geo counters in
// MetricsReport::geo are excluded like wall-clock (the backends intentionally
// issue different query counts).
class GeoBackendDeterminismTest
    : public testing::TestWithParam<std::tuple<uint64_t, DispatchMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  DispatchMode dispatch() const { return std::get<1>(GetParam()); }
};

TEST_P(GeoBackendDeterminismTest, BucketAndPerQueryBackendsAgreeBitwise) {
  RunOutcome reference = RunWithThreads(seed(), 1, 0.0, dispatch(), 1,
                                        OracleKind::kCh,
                                        GeoBackend::kPerQuery);
  ASSERT_GT(reference.report.served, 0);
  ASSERT_FALSE(reference.served.empty());
  for (int threads : {2, 8}) {
    ExpectIdentical(reference,
                    RunWithThreads(seed(), threads, 0.0, dispatch(), 1,
                                   OracleKind::kCh, GeoBackend::kPerQuery),
                    threads);
  }
  for (int threads : {1, 2, 8}) {
    ExpectIdentical(reference,
                    RunWithThreads(seed(), threads, 0.0, dispatch(), 1,
                                   OracleKind::kCh, GeoBackend::kBucket),
                    threads);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GeoBackendDeterminismTest,
    testing::Combine(testing::Values(7, 990017),
                     testing::Values(DispatchMode::kSerial,
                                     DispatchMode::kBatched)),
    CaseName);

TEST(BatchedDispatchTest, EveryOrderAccountedAndComparableToSerial) {
  // Sanity on the engine itself (beyond thread invariance): all orders are
  // served or rejected exactly once, and the batched engine stays in the
  // same quality regime as the serial loop on a nontrivial workload.
  RunOutcome serial = RunWithThreads(7, 2, 0.0, DispatchMode::kSerial);
  RunOutcome batched = RunWithThreads(7, 2, 0.0, DispatchMode::kBatched);
  EXPECT_EQ(batched.report.served + batched.report.rejected,
            serial.report.served + serial.report.rejected);
  ASSERT_GT(batched.report.served, 0);
  EXPECT_GT(batched.report.service_rate,
            0.8 * serial.report.service_rate);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ParallelDeterminismTest,
    testing::Combine(testing::Values(7, 1234, 990017),
                     testing::Values(DispatchMode::kSerial,
                                     DispatchMode::kBatched)),
    CaseName);

// Shard axis: region-sharded conflict resolution must be invisible in the
// results. The unsharded 1-thread run is the reference; every
// (shards, threads) combination must match it bit for bit — metrics,
// served/expired sets, and the deterministic dispatch counters — in both
// engines (kSerial ignores the knob; asserting that guards against the
// shard plumbing leaking into the serial path). The ResolveOffersSharded
// equality proof (decision.h) is what this exercises end to end.
class ShardedDeterminismTest
    : public testing::TestWithParam<std::tuple<uint64_t, DispatchMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  DispatchMode dispatch() const { return std::get<1>(GetParam()); }

  void ExpectMatrixIdentical(double cancellation_hazard) {
    RunOutcome reference =
        RunWithThreads(seed(), 1, cancellation_hazard, dispatch(), 1);
    ASSERT_GT(reference.report.served, 0);
    ASSERT_FALSE(reference.served.empty());
    for (int shards : {2, 4, 16}) {
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        ExpectIdentical(reference,
                        RunWithThreads(seed(), threads, cancellation_hazard,
                                       dispatch(), shards),
                        threads);
      }
    }
  }
};

TEST_P(ShardedDeterminismTest, MetricsIdenticalAcrossShardCounts) {
  ExpectMatrixIdentical(0.0);
}

TEST_P(ShardedDeterminismTest, CancellationRandomnessIsShardInvariant) {
  // The hazard draws happen in the serial post-sweep, whose RNG sequence
  // must not depend on the shard count (the pool holds the same survivors
  // in the same order because the committed sets are bitwise equal).
  ExpectMatrixIdentical(0.01);
}

TEST(ShardedDispatchStatsTest, BorderWorkIsObservedAndBounded) {
  // The classification counters must actually partition the offer stream:
  // interior + border + affected = offers, with some work in each class on
  // a dense workload (16 regions over a 16x16 grid guarantees straddling
  // groups). This is the one place border splits are asserted — the
  // determinism comparisons above deliberately exclude them.
  RunOutcome sharded = RunWithThreads(7, 8, 0.0, DispatchMode::kBatched, 16);
  const DispatchStats& stats = sharded.report.dispatch;
  ASSERT_GT(stats.offers, 0);
  EXPECT_GT(stats.border_offers, 0);
  EXPECT_LE(stats.border_offers + stats.border_affected, stats.offers);
  RunOutcome unsharded = RunWithThreads(7, 8, 0.0, DispatchMode::kBatched, 1);
  EXPECT_EQ(unsharded.report.dispatch.border_offers, 0);
  EXPECT_EQ(unsharded.report.dispatch.border_affected, 0);
  EXPECT_EQ(unsharded.report.dispatch.offers, stats.offers);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ShardedDeterminismTest,
    testing::Combine(testing::Values(7, 1234, 990017),
                     testing::Values(DispatchMode::kSerial,
                                     DispatchMode::kBatched)),
    CaseName);

// Trace axis: arming the observability taps (trace + timeline + histograms)
// must be invisible in the results — the "on never perturbs" half of the
// overhead contract (src/obs/trace.h, docs/OBSERVABILITY.md). The untraced
// 1-thread unsharded run is the reference; traced runs must match it bit
// for bit across thread counts and shard counts in both engines. The traced
// runs also prove the export path is safe to run concurrently with worker
// pools (the span buffers merge under TSan in CI's filtered job).
class TraceDeterminismTest
    : public testing::TestWithParam<std::tuple<uint64_t, DispatchMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  DispatchMode dispatch() const { return std::get<1>(GetParam()); }
};

TEST_P(TraceDeterminismTest, TracedRunsMatchUntracedBitwise) {
  RunOutcome reference = RunWithThreads(seed(), 1, 0.0, dispatch(), 1);
  ASSERT_GT(reference.report.served, 0);
  ASSERT_FALSE(reference.served.empty());
  for (int shards : {1, 4}) {
    // The serial engine ignores the shard knob; one pass is enough.
    if (dispatch() == DispatchMode::kSerial && shards != 1) continue;
    for (int threads : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " traced");
      ExpectIdentical(reference,
                      RunWithThreads(seed(), threads, 0.0, dispatch(),
                                     shards, OracleKind::kMatrix,
                                     GeoBackend::kBucket, /*traced=*/true),
                      threads);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TraceDeterminismTest,
    testing::Combine(testing::Values(7, 990017),
                     testing::Values(DispatchMode::kSerial,
                                     DispatchMode::kBatched)),
    CaseName);

}  // namespace
}  // namespace watter
