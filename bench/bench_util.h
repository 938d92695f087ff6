// Shared harness for the figure-reproduction benches.
//
// Each bench sweeps one experimental knob (Table III), runs the five
// algorithms of the paper's evaluation (WATTER-expect / -online / -timeout,
// GDP, GAS; plus the Section V GMM strategy), and prints one table per
// metric in the layout of the corresponding figure: rows = sweep values,
// columns = algorithms.
//
// Scale note (DESIGN.md substitution 3): order/worker counts are scaled down
// ~30x from the paper so a full sweep finishes in minutes on one core while
// preserving the order-to-worker ratios that drive the trends.
#ifndef WATTER_BENCH_BENCH_UTIL_H_
#define WATTER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/gas.h"
#include "src/baseline/gdp.h"
#include "src/common/table.h"
#include "src/rl/trainer.h"
#include "src/sim/platform.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"

namespace watter {
namespace bench {

/// True when `--quick` is passed or WATTER_BENCH_QUICK is set: fewer sweep
/// points and no RL training, for smoke runs.
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return std::getenv("WATTER_BENCH_QUICK") != nullptr;
}

/// Threads the simulated platforms run on: `--threads T` or
/// WATTER_BENCH_THREADS (0 = all hardware threads; default 1 = serial).
/// Metrics are thread-count-independent, so sweeps stay comparable.
inline int BenchThreads(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      return std::atoi(argv[i + 1]);
    }
  }
  const char* env = std::getenv("WATTER_BENCH_THREADS");
  return env != nullptr ? std::atoi(env) : 1;
}

inline const char* DispatchName(DispatchMode mode) {
  return mode == DispatchMode::kBatched ? "batched" : "serial";
}

/// Dispatch engines to sweep: `--dispatch serial|batched|both` or
/// WATTER_BENCH_DISPATCH. Default runs the batched engine only (the
/// platform default since the engine A/B); `both` produces the
/// serial-vs-batched A/B the JSON baseline records.
inline std::vector<DispatchMode> BenchDispatchModes(int argc, char** argv) {
  const char* value = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--dispatch") == 0) value = argv[i + 1];
  }
  if (value == nullptr) value = std::getenv("WATTER_BENCH_DISPATCH");
  if (value == nullptr || std::strcmp(value, "batched") == 0) {
    return {DispatchMode::kBatched};
  }
  if (std::strcmp(value, "serial") == 0) return {DispatchMode::kSerial};
  if (std::strcmp(value, "both") == 0) {
    return {DispatchMode::kSerial, DispatchMode::kBatched};
  }
  std::fprintf(stderr, "unknown --dispatch value: %s\n", value);
  std::exit(2);
}

inline const char* GeoName(GeoBackend geo) {
  return geo == GeoBackend::kBucket ? "bucket" : "per-query";
}

/// Travel-time-oracle backend for the CH-backed datasets (nyc/xia):
/// `--geo per-query|bucket` or WATTER_BENCH_GEO, default bucket (the
/// batched bucket-CH oracle, src/geo/bucket_ch.h). The backends are
/// bitwise-equivalent (tests/geo_oracle_equivalence_test.cc), so the flag
/// can only move running time — every other column stays identical, which
/// is exactly what BENCH_geo.json records. The matrix-oracle cdc dataset
/// ignores it.
inline GeoBackend BenchGeoBackend(int argc, char** argv) {
  const char* value = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--geo") == 0) value = argv[i + 1];
  }
  if (value == nullptr) value = std::getenv("WATTER_BENCH_GEO");
  if (value == nullptr || std::strcmp(value, "bucket") == 0) {
    return GeoBackend::kBucket;
  }
  if (std::strcmp(value, "per-query") == 0) return GeoBackend::kPerQuery;
  std::fprintf(stderr, "unknown --geo value: %s\n", value);
  std::exit(2);
}

/// Shard counts for the batched engine's region-sharded commit pass:
/// `--shards N[,N...]` or WATTER_BENCH_SHARDS, default {1} (unsharded).
/// Metrics are shard-count-independent (sim_parallel_determinism_test), so
/// extra shard values add rows that differ only in running time and the
/// border-work counters; the serial engine ignores the knob.
inline std::vector<int> BenchShardsSweep(int argc, char** argv) {
  const char* value = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0) value = argv[i + 1];
  }
  if (value == nullptr) value = std::getenv("WATTER_BENCH_SHARDS");
  if (value == nullptr) return {1};
  std::vector<int> shards;
  for (const char* p = value; *p != '\0';) {
    char* end = nullptr;
    long parsed = std::strtol(p, &end, 10);
    if (end == p || parsed < 1) {
      std::fprintf(stderr, "bad --shards value: %s\n", value);
      std::exit(2);
    }
    shards.push_back(static_cast<int>(parsed));
    p = *end == ',' ? end + 1 : end;
  }
  if (shards.empty()) {
    std::fprintf(stderr, "bad --shards value: %s\n", value);
    std::exit(2);
  }
  return shards;
}

/// Deterministic fault-injection spec for the simulated runs: `--faults
/// SPEC` or WATTER_BENCH_FAULTS (docs/ROBUSTNESS.md grammar). Empty (the
/// default) keeps fault injection off — the sweep is then bitwise identical
/// to a faultless build. A faulted sweep is what BENCH_faults.json records:
/// the GDP/GAS baselines ignore faults, so drivers skip them when a spec is
/// set.
inline std::string BenchFaultSpec(int argc, char** argv) {
  const char* value = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) value = argv[i + 1];
  }
  if (value == nullptr) value = std::getenv("WATTER_BENCH_FAULTS");
  if (value == nullptr) return "";
  Result<FaultSpec> parsed = ParseFaultSpec(value);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --faults value: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return value;
}

/// For drivers that take one shard count per invocation: like
/// BenchShardsSweep but rejects a comma list loudly.
inline int SingleBenchShards(int argc, char** argv) {
  std::vector<int> shards = BenchShardsSweep(argc, argv);
  if (shards.size() != 1) {
    std::fprintf(stderr,
                 "a --shards sweep is only supported by bench_fig3_vary_n; "
                 "pick one value\n");
    std::exit(2);
  }
  return shards.front();
}

/// For drivers that run one engine per invocation: like BenchDispatchModes
/// but rejects `both` loudly instead of silently dropping a mode.
inline DispatchMode SingleDispatchMode(int argc, char** argv) {
  std::vector<DispatchMode> modes = BenchDispatchModes(argc, argv);
  if (modes.size() != 1) {
    std::fprintf(stderr,
                 "--dispatch both is only supported by bench_fig3_vary_n; "
                 "pick serial or batched\n");
    std::exit(2);
  }
  return modes.front();
}

/// Machine-readable sweep output (`--json FILE` or WATTER_BENCH_JSON): one
/// JSON array of records, one record per (sweep value, algorithm) cell,
/// written at process exit. BENCH_dispatch.json in the repo root is
/// produced this way (CMake target `bench_dispatch_json`) so dispatch-
/// engine baselines stay comparable across PRs.
struct JsonSink {
  std::string path;
  int threads = 1;
  const char* dispatch = "batched";
  const char* geo = "bucket";
  int shards = 1;
  std::string faults;  ///< Fault spec of the sweep ("" = faults off).
  std::vector<std::string> records;

  ~JsonSink() { Flush(); }

  void Flush() {
    if (path.empty() || records.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < records.size(); ++i) {
      std::fprintf(f, "  %s%s\n", records[i].c_str(),
                   i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    records.clear();
  }
};

inline JsonSink& BenchJson() {
  static JsonSink sink;
  return sink;
}

inline std::string BenchJsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  const char* env = std::getenv("WATTER_BENCH_JSON");
  return env != nullptr ? env : "";
}

/// Chrome trace-event output for the simulated runs: `--trace FILE` or
/// WATTER_BENCH_TRACE (docs/OBSERVABILITY.md). The recorder is global and
/// accumulates across runs, and every traced run re-exports the whole
/// buffer, so FILE ends up covering the full sweep on one timeline.
/// Run-neutral: metrics are bitwise identical with or without it.
inline std::string BenchTracePath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) return argv[i + 1];
  }
  const char* env = std::getenv("WATTER_BENCH_TRACE");
  return env != nullptr ? env : "";
}

/// Per-round timeline output: `--timeline FILE` or WATTER_BENCH_TIMELINE
/// (JSON, or CSV when FILE ends in ".csv"). The sampler is per-platform, so
/// each run overwrites FILE and the last simulated run of the sweep wins —
/// point a sweep of one cell at it, or use watter_cli for a single run.
/// Run-neutral like the trace.
inline std::string BenchTimelinePath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--timeline") == 0) return argv[i + 1];
  }
  const char* env = std::getenv("WATTER_BENCH_TIMELINE");
  return env != nullptr ? env : "";
}

/// Baseline workload for a dataset at the reproduction scale. Defaults
/// mirror Table III's italicized values: n = base, m = 5k-scaled, tau = 1.6,
/// Kw = 4.
///
/// The city and time window are sized so that the *spatio-temporal order
/// density* (arrivals per cell-hour), not just the n/m ratio, is in the
/// paper's regime: at the paper's 30k-125k orders/day nearly every order
/// finds pooling partners, and that density is what makes waiting pay off.
/// A naive 30x scale-down of n alone would leave most orders partnerless
/// and flip the comparison (see EXPERIMENTS.md, calibration note).
inline WorkloadOptions BaseWorkload(DatasetKind dataset) {
  WorkloadOptions options;
  options.dataset = dataset;
  options.num_orders = dataset == DatasetKind::kNyc ? 3000 : 1500;
  options.num_workers = 150;
  options.tau = 1.6;
  options.eta = 0.8;
  options.max_capacity = 4;
  options.duration = 2.0 * 3600.0;
  options.city_width = 24;
  options.city_height = 24;
  // One fixed city per dataset (training and evaluation share roads).
  options.city_seed = 50000 + static_cast<uint64_t>(dataset) * 101;
  options.seed = 424242;  // Evaluation day.
  return options;
}

/// Named algorithm runner.
struct Algorithm {
  std::string name;
  std::function<MetricsReport(Scenario*)> run;
};

/// Trains a WATTER-expect model for workloads shaped like `base`.
inline Result<ExpectModel> TrainExpect(const WorkloadOptions& base) {
  ExpectTrainOptions train;
  train.bootstrap_days = 1;
  train.behavior_days = 2;
  train.epochs = 2;
  return TrainExpectModel(base, train);
}

/// The paper's algorithm family. `model` may be null (quick mode): then
/// WATTER-expect and WATTER-gmm are omitted. `sim` selects the dispatch
/// engine (and any other platform knob) for the WATTER strategies; the
/// GDP/GAS baselines have their own loops and ignore it — pass
/// `with_baselines = false` on all but the first engine of a multi-engine
/// sweep so they are not re-run (and re-recorded) with numbers the knob
/// cannot change.
inline std::vector<Algorithm> AlgorithmFamily(const ExpectModel* model,
                                              const SimOptions& sim = {},
                                              bool with_baselines = true) {
  std::vector<Algorithm> algorithms;
  if (model != nullptr) {
    algorithms.push_back({"WATTER-expect", [model, sim](Scenario* s) {
                            auto provider = model->MakeProvider();
                            return RunWatter(s, provider.get(), sim);
                          }});
    algorithms.push_back({"WATTER-gmm", [model, sim](Scenario* s) {
                            GmmThresholdProvider provider(*model->mixture);
                            return RunWatter(s, &provider, sim);
                          }});
  }
  algorithms.push_back({"WATTER-online", [sim](Scenario* s) {
                          OnlineThresholdProvider provider;
                          return RunWatter(s, &provider, sim);
                        }});
  algorithms.push_back({"WATTER-timeout", [sim](Scenario* s) {
                          TimeoutThresholdProvider provider;
                          return RunWatter(s, &provider, sim);
                        }});
  if (with_baselines) {
    algorithms.push_back({"GDP", [](Scenario* s) { return RunGdp(s); }});
    algorithms.push_back({"GAS", [](Scenario* s) { return RunGas(s); }});
  }
  return algorithms;
}

/// One metric extracted from a report.
struct MetricColumn {
  const char* title;
  std::function<double(const MetricsReport&)> get;
  int precision;
};

/// The paper's four measurements. "Extra Time" is the METRS objective
/// (served extra time + rejection penalties, Equation 2).
inline std::vector<MetricColumn> PaperMetrics() {
  return {
      {"Extra Time (s)",
       [](const MetricsReport& r) { return r.metrs_objective; }, 0},
      {"Unified Cost",
       [](const MetricsReport& r) { return r.unified_cost; }, 0},
      {"Service Rate (%)",
       [](const MetricsReport& r) { return r.service_rate * 100.0; }, 1},
      {"Running Time (us/order)",
       [](const MetricsReport& r) {
         return r.running_time_per_order * 1e6;
       },
       1},
  };
}

/// Runs `algorithms` over scenarios produced per sweep value and prints the
/// figure-style tables. `make_options` maps a sweep value to workload
/// options; `sweep_label` names the x-axis (e.g. "n", "m", "tau").
template <typename SweepValue>
void RunSweep(const std::string& figure, DatasetKind dataset,
              const std::string& sweep_label,
              const std::vector<SweepValue>& values,
              const std::function<WorkloadOptions(SweepValue)>& make_options,
              const std::vector<Algorithm>& algorithms) {
  // results[value][algorithm].
  std::vector<std::vector<MetricsReport>> results;
  for (SweepValue value : values) {
    results.emplace_back();
    for (const Algorithm& algorithm : algorithms) {
      WorkloadOptions options = make_options(value);
      auto scenario = GenerateScenario(options);
      if (!scenario.ok()) {
        std::fprintf(stderr, "scenario failed: %s\n",
                     scenario.status().ToString().c_str());
        std::exit(1);
      }
      results.back().push_back(algorithm.run(&*scenario));
      if (!BenchJson().path.empty()) {
        const MetricsReport& r = results.back().back();
        char record[2048];
        std::snprintf(
            record, sizeof(record),
            "{\"figure\": \"%s\", \"dataset\": \"%s\", \"sweep\": \"%s\", "
            "\"value\": %s, \"algorithm\": \"%s\", \"threads\": %d, "
            "\"dispatch\": \"%s\", \"geo\": \"%s\", \"shards\": %d, "
            "\"faults\": \"%s\", "
            "\"served\": %lld, \"rejected\": %lld, "
            "\"metrs_objective\": %.6g, \"unified_cost\": %.6g, "
            "\"service_rate\": %.6g, \"running_time_per_order_us\": %.3f, "
            "\"planner_plans\": %lld, \"pair_tests\": %lld, "
            "\"recomputes\": %lld, \"groups_evaluated\": %lld, "
            "\"plan_cache_hits\": %lld, \"plan_cache_misses\": %lld, "
            "\"plan_cache_replans\": %lld, \"plan_cache_seeds\": %lld, "
            "\"oracle_queries\": %lld, \"oracle_batches\": %lld, "
            "\"oracle_batch_points\": %lld, "
            "\"cancelled\": %lld, \"failed_services\": %lld, "
            "\"fault_dropouts\": %lld, \"fault_midroute_dropouts\": %lld, "
            "\"fault_late_dropouts\": %lld, \"fault_returns\": %lld, "
            "\"fault_brownout_rounds\": %lld, "
            "\"fault_recovered_orders\": %lld, "
            "\"fault_aborted_commits\": %lld, \"shed_orders\": %lld, "
            "\"degraded_rounds\": %lld, \"work_units\": %lld}",
            figure.c_str(), DatasetName(dataset), sweep_label.c_str(),
            std::to_string(value).c_str(), algorithm.name.c_str(),
            BenchJson().threads, BenchJson().dispatch, BenchJson().geo,
            BenchJson().shards, BenchJson().faults.c_str(),
            static_cast<long long>(r.served),
            static_cast<long long>(r.rejected), r.metrs_objective,
            r.unified_cost, r.service_rate, r.running_time_per_order * 1e6,
            static_cast<long long>(r.pool.planner_plans),
            static_cast<long long>(r.pool.pair_tests),
            static_cast<long long>(r.pool.best_group_recomputes),
            static_cast<long long>(r.pool.groups_evaluated),
            static_cast<long long>(r.pool.plan_cache_hits),
            static_cast<long long>(r.pool.plan_cache_misses),
            static_cast<long long>(r.pool.plan_cache_replans),
            static_cast<long long>(r.pool.plan_cache_seeds),
            static_cast<long long>(r.geo.queries),
            static_cast<long long>(r.geo.batches),
            static_cast<long long>(r.geo.batch_points),
            static_cast<long long>(r.cancelled),
            static_cast<long long>(r.failed_services),
            static_cast<long long>(r.faults.dropouts),
            static_cast<long long>(r.faults.midroute_dropouts),
            static_cast<long long>(r.faults.late_dropouts),
            static_cast<long long>(r.faults.returns),
            static_cast<long long>(r.faults.brownout_rounds),
            static_cast<long long>(r.faults.recovered_orders),
            static_cast<long long>(r.faults.aborted_commits),
            static_cast<long long>(r.faults.shed_orders),
            static_cast<long long>(r.faults.degraded_rounds),
            static_cast<long long>(r.faults.work_units));
        BenchJson().records.emplace_back(record);
      }
    }
  }
  for (const MetricColumn& metric : PaperMetrics()) {
    std::printf("-- %s | %s | %s (rows: %s) --\n", figure.c_str(),
                DatasetName(dataset), metric.title, sweep_label.c_str());
    std::vector<std::string> headers = {sweep_label};
    for (const Algorithm& algorithm : algorithms) {
      headers.push_back(algorithm.name);
    }
    Table table(headers);
    for (size_t v = 0; v < values.size(); ++v) {
      std::vector<std::string> row = {std::to_string(values[v])};
      for (size_t a = 0; a < algorithms.size(); ++a) {
        row.push_back(
            Table::Num(metric.get(results[v][a]), metric.precision));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
}

/// Datasets to sweep: all three, or just CDC in quick mode.
inline std::vector<DatasetKind> BenchDatasets(bool quick) {
  if (quick) return {DatasetKind::kCdc};
  return {DatasetKind::kNyc, DatasetKind::kCdc, DatasetKind::kXia};
}

/// Like BenchDatasets(quick), but `--datasets nyc|cdc|xia` (or
/// WATTER_BENCH_DATASETS) narrows the sweep to one dataset, so a full-scale
/// engine A/B fits the 1-core recording box without dropping sweep points.
inline std::vector<DatasetKind> BenchDatasets(int argc, char** argv,
                                              bool quick) {
  const char* value = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--datasets") == 0) value = argv[i + 1];
  }
  if (value == nullptr) value = std::getenv("WATTER_BENCH_DATASETS");
  if (value == nullptr || std::strcmp(value, "all") == 0) {
    return BenchDatasets(quick);
  }
  if (std::strcmp(value, "nyc") == 0) return {DatasetKind::kNyc};
  if (std::strcmp(value, "cdc") == 0) return {DatasetKind::kCdc};
  if (std::strcmp(value, "xia") == 0) return {DatasetKind::kXia};
  std::fprintf(stderr, "unknown --datasets value: %s\n", value);
  std::exit(2);
}

}  // namespace bench
}  // namespace watter

#endif  // WATTER_BENCH_BENCH_UTIL_H_
