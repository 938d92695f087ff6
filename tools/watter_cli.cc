// watter — command-line front end of the WATTER library.
//
// Subcommands:
//   watter generate --out DIR [workload flags]
//       Generate a synthetic workload and write orders/workers CSVs.
//   watter run --strategy NAME [workload flags]
//       Run one algorithm over a generated scenario and print metrics.
//       NAME in {online, timeout, gdp, gas, nonsharing, gmm}.
//   watter train --model FILE [workload flags]
//       Train a WATTER-expect model offline and save it.
//   watter evaluate --model FILE [workload flags]
//       Load a trained model and evaluate it on a fresh day.
//
// Common workload flags (defaults in brackets):
//   --dataset nyc|cdc|xia [cdc]   --orders N [1500]   --workers M [150]
//   --tau X [1.6]  --eta X [0.8]  --capacity K [4]    --seed S [42]
//   --city-seed S [derived]       --duration HOURS [2]
//   --threads T [1; 0 = all hardware threads] — parallelism of the check
//   loop and pool maintenance; metrics are identical for any T.
//   --dispatch serial|batched [batched] — decision engine of the WATTER
//   strategies (docs/DISPATCH.md): the batched sorted-offers engine (the
//   default — its cost-ranked commits serve more orders under contention,
//   see docs/PERFORMANCE.md) or the paper-faithful sequential loop. Either
//   engine is deterministic for any --threads.
//   --geo per-query|bucket [bucket] — travel-time oracle backend for the
//   CH-backed datasets (nyc/xia): the batched bucket-CH oracle (default,
//   src/geo/bucket_ch.h) or the per-query CH oracle. The two are bitwise
//   equivalent (tests/geo_oracle_equivalence_test.cc) — the flag only moves
//   runtime, never a metric. Ignored by the matrix-oracle cdc dataset.
//   --shards N [1] — region shards of the batched engine's conflict
//   resolution (docs/DISPATCH.md): N > 1 partitions the feature grid into N
//   regions and resolves interior offers per shard in parallel with a
//   serial border reconciliation. Metrics are identical for any N (the
//   sharded pass is bitwise-equal to the global one); ignored by
//   --dispatch serial.
//
// Robustness flags (docs/ROBUSTNESS.md):
//   --faults SPEC — deterministic fault injection, e.g.
//   "dropouts=5;brownouts=2;seed=7". Worker dropouts/returns and oracle
//   brownouts fire from a precomputed seeded schedule,
//   so a fixed spec is bitwise reproducible across threads and shards.
//   Empty (the default) disables fault injection entirely.
//   --budget N — per-round propose work budget in deterministic work units
//   (candidate probes + planner plans); overloaded rounds shed their
//   least-urgent tail to the next round. 0 = unlimited.
//   --watchdog-ms MS — opt-in wall-clock watchdog: rounds slower than MS
//   halve the effective work budget, compliant rounds grow it back. Wall-
//   clock driven, so excluded from the determinism contract.
//
// Observability flags (docs/OBSERVABILITY.md; all run-neutral — metrics are
// bitwise identical whether they are set or not):
//   --trace FILE — export a Chrome trace-event JSON of the run (load in
//   Perfetto / chrome://tracing): phase spans for every check round, pool
//   refresh internals, oracle batches and thread-pool jobs.
//   --timeline FILE — per-round timeline (pool size, shareability edges,
//   offers/conflicts, phase durations, counter deltas) as
//   JSON, or CSV when FILE ends in ".csv".
//   --metrics-json FILE — dump the full MetricsReport as one JSON object
//   (bench_util field names for the overlapping fields, so it diffs against
//   BENCH_*.json records directly).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/baseline/gas.h"
#include "src/baseline/gdp.h"
#include "src/baseline/nonsharing.h"
#include "src/common/table.h"
#include "src/rl/model_io.h"
#include "src/rl/trainer.h"
#include "src/sim/platform.h"
#include "src/stats/em_fitter.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/dataset_io.h"
#include "src/workload/scenario.h"

namespace {

using namespace watter;

struct CliArgs {
  std::string command;
  WorkloadOptions workload;
  SimOptions sim;
  std::string strategy = "online";
  std::string model_path;
  std::string out_dir = ".";
  std::string metrics_json_path;
  bool ok = true;
  std::string error;
};

[[noreturn]] void Usage(const char* message = nullptr) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: watter <generate|run|train|evaluate> [flags]\n"
               "  run flags:      --strategy "
               "online|timeout|gdp|gas|nonsharing|gmm\n"
               "  model flags:    --model FILE\n"
               "  output flags:   --out DIR\n"
               "  workload flags: --dataset nyc|cdc|xia --orders N "
               "--workers M\n"
               "                  --tau X --eta X --capacity K --seed S\n"
               "                  --city-seed S --duration HOURS\n"
               "                  --threads T (0 = all hardware threads)\n"
               "                  --dispatch serial|batched (default batched)\n"
               "                  --geo per-query|bucket (default bucket)\n"
               "                  --shards N (default 1 = unsharded resolve)\n"
               "  robustness:     --faults SPEC (docs/ROBUSTNESS.md grammar)\n"
               "                  --budget N (per-round propose work units)\n"
               "                  --watchdog-ms MS (wall-clock budget clamp)\n"
               "  observability:  --trace FILE (Chrome trace-event JSON)\n"
               "                  --timeline FILE (per-round JSON; .csv = CSV)\n"
               "                  --metrics-json FILE (full report as JSON)\n");
  std::exit(2);
}

CliArgs Parse(int argc, char** argv) {
  CliArgs args;
  if (argc < 2) Usage("missing command");
  args.command = argv[1];
  args.workload.dataset = DatasetKind::kCdc;
  args.workload.num_orders = 1500;
  args.workload.num_workers = 150;
  args.workload.duration = 2 * 3600.0;
  args.workload.city_width = 24;
  args.workload.city_height = 24;

  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) Usage((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--dataset") == 0) {
      std::string name = need_value("--dataset");
      if (name == "nyc") {
        args.workload.dataset = DatasetKind::kNyc;
      } else if (name == "cdc") {
        args.workload.dataset = DatasetKind::kCdc;
      } else if (name == "xia") {
        args.workload.dataset = DatasetKind::kXia;
      } else {
        Usage("unknown dataset");
      }
    } else if (std::strcmp(argv[i], "--orders") == 0) {
      args.workload.num_orders = std::atoi(need_value("--orders"));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      args.workload.num_workers = std::atoi(need_value("--workers"));
    } else if (std::strcmp(argv[i], "--tau") == 0) {
      args.workload.tau = std::atof(need_value("--tau"));
    } else if (std::strcmp(argv[i], "--eta") == 0) {
      args.workload.eta = std::atof(need_value("--eta"));
    } else if (std::strcmp(argv[i], "--capacity") == 0) {
      args.workload.max_capacity = std::atoi(need_value("--capacity"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args.workload.seed =
          static_cast<uint64_t>(std::atoll(need_value("--seed")));
    } else if (std::strcmp(argv[i], "--city-seed") == 0) {
      args.workload.city_seed =
          static_cast<uint64_t>(std::atoll(need_value("--city-seed")));
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      args.workload.duration = std::atof(need_value("--duration")) * 3600.0;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      args.workload.num_threads = std::atoi(need_value("--threads"));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      int shards = std::atoi(need_value("--shards"));
      if (shards < 1) Usage("--shards needs a positive shard count");
      args.workload.num_shards = shards;
    } else if (std::strcmp(argv[i], "--dispatch") == 0) {
      std::string mode = need_value("--dispatch");
      if (mode == "serial") {
        args.sim.dispatch = DispatchMode::kSerial;
      } else if (mode == "batched") {
        args.sim.dispatch = DispatchMode::kBatched;
      } else {
        Usage("unknown dispatch mode (serial|batched)");
      }
    } else if (std::strcmp(argv[i], "--geo") == 0) {
      std::string backend = need_value("--geo");
      if (backend == "per-query") {
        args.workload.geo = GeoBackend::kPerQuery;
      } else if (backend == "bucket") {
        args.workload.geo = GeoBackend::kBucket;
      } else {
        Usage("unknown geo backend (per-query|bucket)");
      }
    } else if (std::strcmp(argv[i], "--strategy") == 0) {
      args.strategy = need_value("--strategy");
    } else if (std::strcmp(argv[i], "--model") == 0) {
      args.model_path = need_value("--model");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      args.out_dir = need_value("--out");
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      std::string spec = need_value("--faults");
      Result<FaultSpec> parsed = ParseFaultSpec(spec);
      if (!parsed.ok()) {
        Usage(("--faults: " + parsed.status().ToString()).c_str());
      }
      args.workload.faults = spec;
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      args.workload.round_work_budget = std::atoll(need_value("--budget"));
    } else if (std::strcmp(argv[i], "--watchdog-ms") == 0) {
      double ms = std::atof(need_value("--watchdog-ms"));
      if (ms < 0.0) Usage("--watchdog-ms needs a non-negative value");
      args.sim.watchdog_ms = ms;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      args.workload.trace_path = need_value("--trace");
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      args.workload.timeline_path = need_value("--timeline");
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      args.metrics_json_path = need_value("--metrics-json");
    } else {
      Usage((std::string("unknown flag: ") + argv[i]).c_str());
    }
  }
  return args;
}

void PrintReport(const std::string& name, const MetricsReport& report) {
  Table table({"metric", "value"});
  table.AddRow({"algorithm", name});
  table.AddRow({"orders served", std::to_string(report.served)});
  table.AddRow({"orders rejected", std::to_string(report.rejected)});
  table.AddRow({"service rate (%)",
                Table::Num(report.service_rate * 100.0, 2)});
  table.AddRow({"extra time / METRS objective (s)",
                Table::Num(report.metrs_objective, 0)});
  table.AddRow({"  served extra time (s)",
                Table::Num(report.total_extra_time, 0)});
  table.AddRow({"  rejection penalties (s)",
                Table::Num(report.total_metrs_penalty, 0)});
  table.AddRow({"unified cost", Table::Num(report.unified_cost, 0)});
  table.AddRow({"worker travel (s)", Table::Num(report.worker_travel, 0)});
  table.AddRow({"avg response (s)", Table::Num(report.avg_response, 1)});
  table.AddRow({"avg detour (s)", Table::Num(report.avg_detour, 1)});
  table.AddRow({"avg group size", Table::Num(report.avg_group_size, 2)});
  table.AddRow({"running time / order (us)",
                Table::Num(report.running_time_per_order * 1e6, 1)});
  table.Print();
  // Pool work counters (zero for the non-pooling baselines): the planner-
  // invocation and plan-cache numbers that the committed BENCH_pool.json
  // baselines track (docs/PERFORMANCE.md, "Incremental pool maintenance").
  if (report.pool.planner_plans > 0) {
    Table pool({"pool counter", "value"});
    pool.AddRow({"planner plans (PlanBest)",
                 std::to_string(report.pool.planner_plans)});
    pool.AddRow({"pair tests", std::to_string(report.pool.pair_tests)});
    pool.AddRow({"best-group recomputes",
                 std::to_string(report.pool.best_group_recomputes)});
    pool.AddRow({"groups evaluated",
                 std::to_string(report.pool.groups_evaluated)});
    pool.AddRow({"plan-cache hits",
                 std::to_string(report.pool.plan_cache_hits)});
    pool.AddRow({"plan-cache misses",
                 std::to_string(report.pool.plan_cache_misses)});
    pool.AddRow({"plan-cache replans",
                 std::to_string(report.pool.plan_cache_replans)});
    pool.AddRow({"plan-cache evictions",
                 std::to_string(report.pool.plan_cache_evictions)});
    pool.AddRow({"plan-cache seeds",
                 std::to_string(report.pool.plan_cache_seeds)});
    pool.AddRow({"reverse-index fan-out",
                 std::to_string(report.pool.reverse_index_fanout)});
    pool.Print();
  }
  // Fault-injection / degradation counters — only when something fired
  // (docs/ROBUSTNESS.md). Deterministic except the watchdog trips.
  const FaultStats& faults = report.faults;
  if (faults.dropouts + faults.late_dropouts + faults.returns +
          faults.brownout_rounds + faults.shed_orders +
          faults.watchdog_trips >
      0) {
    Table fault_table({"fault counter", "value"});
    fault_table.AddRow({"worker dropouts", std::to_string(faults.dropouts)});
    fault_table.AddRow({"  mid-route (riders aboard)",
                        std::to_string(faults.midroute_dropouts)});
    fault_table.AddRow({"late dropouts (resolve/commit)",
                        std::to_string(faults.late_dropouts)});
    fault_table.AddRow({"worker returns", std::to_string(faults.returns)});
    fault_table.AddRow({"brownout rounds",
                        std::to_string(faults.brownout_rounds)});
    fault_table.AddRow({"orders recovered",
                        std::to_string(faults.recovered_orders)});
    fault_table.AddRow({"failed services",
                        std::to_string(faults.failed_services)});
    fault_table.AddRow({"aborted commits",
                        std::to_string(faults.aborted_commits)});
    fault_table.AddRow({"orders shed (budget)",
                        std::to_string(faults.shed_orders)});
    fault_table.AddRow({"degraded rounds",
                        std::to_string(faults.degraded_rounds)});
    fault_table.AddRow({"work units charged",
                        std::to_string(faults.work_units)});
    fault_table.AddRow({"watchdog trips",
                        std::to_string(faults.watchdog_trips)});
    fault_table.Print();
  }
  // Travel-time-oracle work counters (diagnostic, not deterministic:
  // metrics.h, GeoStats). Batch rows only appear once a batch ran.
  if (report.geo.queries > 0) {
    Table geo({"geo counter", "value"});
    geo.AddRow({"oracle queries", std::to_string(report.geo.queries)});
    geo.AddRow({"oracle batches", std::to_string(report.geo.batches)});
    geo.AddRow({"batched points", std::to_string(report.geo.batch_points)});
    geo.AddRow({"bucket build (ms)",
                Table::Num(report.geo.bucket_build_seconds * 1e3, 1)});
    geo.Print();
  }
}

int Generate(const CliArgs& args) {
  auto scenario = GenerateScenario(args.workload);
  if (!scenario.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  std::string orders_path = args.out_dir + "/orders.csv";
  std::string workers_path = args.out_dir + "/workers.csv";
  Status status = SaveOrdersCsv(orders_path, scenario->orders);
  if (status.ok()) status = SaveWorkersCsv(workers_path, scenario->workers);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu orders to %s\nwrote %zu workers to %s\n",
              scenario->orders.size(), orders_path.c_str(),
              scenario->workers.size(), workers_path.c_str());
  return 0;
}

int Run(const CliArgs& args) {
  auto scenario = GenerateScenario(args.workload);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  MetricsReport report;
  std::string name = args.strategy;
  if (args.strategy == "online") {
    OnlineThresholdProvider provider;
    report = RunWatter(&*scenario, &provider, args.sim);
  } else if (args.strategy == "timeout") {
    TimeoutThresholdProvider provider;
    report = RunWatter(&*scenario, &provider, args.sim);
  } else if (args.strategy == "gdp") {
    report = RunGdp(&*scenario);
  } else if (args.strategy == "gas") {
    report = RunGas(&*scenario);
  } else if (args.strategy == "nonsharing") {
    report = RunNonSharing(&*scenario);
  } else if (args.strategy == "gmm") {
    // Bootstrap a same-shaped training day, fit, then run.
    WorkloadOptions boot = args.workload;
    boot.seed = args.workload.seed * 31 + 7;
    // Observe the evaluation run only, not the bootstrap day.
    boot.trace_path.clear();
    boot.timeline_path.clear();
    auto boot_scenario = GenerateScenario(boot);
    if (!boot_scenario.ok()) return 1;
    TimeoutThresholdProvider timeout;
    WatterPlatform bootstrap(&*boot_scenario, &timeout, args.sim);
    (void)bootstrap.Run();
    auto mixture = FitGmm(bootstrap.metrics().served_extra_times(),
                          {.num_components = 3, .seed = 11});
    if (!mixture.ok()) {
      std::fprintf(stderr, "GMM fit failed: %s\n",
                   mixture.status().ToString().c_str());
      return 1;
    }
    GmmThresholdProvider provider(std::move(mixture).value());
    report = RunWatter(&*scenario, &provider, args.sim);
    name = "WATTER-gmm";
  } else {
    Usage("unknown strategy");
  }
  PrintReport(name, report);
  if (!args.metrics_json_path.empty()) {
    std::FILE* f = std::fopen(args.metrics_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "metrics-json write failed: %s\n",
                   args.metrics_json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", MetricsReportJson(report).c_str());
    std::fclose(f);
    std::printf("metrics JSON written to %s\n",
                args.metrics_json_path.c_str());
  }
  return 0;
}

int Train(const CliArgs& args) {
  if (args.model_path.empty()) Usage("train needs --model FILE");
  std::printf("training WATTER-expect on %s-shaped workloads...\n",
              DatasetName(args.workload.dataset));
  auto model = TrainExpectModel(args.workload);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  Status status = SaveExpectModel(args.model_path, *model);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("model saved to %s (%zu experiences, %d mixture components)\n",
              args.model_path.c_str(), model->experiences,
              model->mixture->num_components());
  return 0;
}

int Evaluate(const CliArgs& args) {
  if (args.model_path.empty()) Usage("evaluate needs --model FILE");
  auto scenario = GenerateScenario(args.workload);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  auto model = LoadExpectModel(args.model_path, scenario->city);
  if (!model.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  auto provider = model->MakeProvider();
  MetricsReport report = RunWatter(&*scenario, provider.get(), args.sim);
  PrintReport("WATTER-expect", report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args = Parse(argc, argv);
  if (args.command == "generate") return Generate(args);
  if (args.command == "run") return Run(args);
  if (args.command == "train") return Train(args);
  if (args.command == "evaluate") return Evaluate(args);
  Usage("unknown command");
}
