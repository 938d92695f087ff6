// One benchmark repeat of one workload, driven by perfbench/run.py.
//
//   perfbench_runner --workload sparse|dense|road --seed N [--timeline PATH]
//
// Generates the workload's scenario from the seed, builds the platform and
// runs it once, timing GenerateScenario, the WatterPlatform constructor and
// the Run() call from outside. Prints one JSON object on stdout: those
// times, peak RSS, and every deterministic output the correctness gate
// compares across repeats.
//
// With --timeline the repeat is the traced one: it arms the platform's
// per-round timeline (written to PATH) and installs timing decorators at
// the platform's two public seams, Scenario::oracle and the
// ThresholdProvider, then adds their figures and the raw per-round samples
// to the JSON. Arming the timeline also enables the process-global latency
// histograms for the rest of the process, which is why run.py keeps traced
// and timed repeats in separate processes.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/metrics.h"
#include "src/geo/travel_time_oracle.h"
#include "src/obs/timeline.h"
#include "src/sim/platform.h"
#include "src/strategy/threshold_provider.h"
#include "src/workload/scenario.h"

namespace {

using namespace watter;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The three workloads. All run the batched engine with WATTER-online,
// capacity 4, tau 1.6 and eta 0.8; perfbench/README.md says why each one
// exists and which layer it loads.
struct Workload {
  const char* name;
  DatasetKind dataset;
  OracleKind oracle;
  int orders;
  int workers;
  int city;      // Square city side (cells).
  double hours;  // Arrival window.
  int threads;
  int shards;
};

constexpr Workload kWorkloads[] = {
    {"sparse", DatasetKind::kCdc, OracleKind::kMatrix, 30000, 3000, 24, 4.0,
     1, 1},
    {"dense", DatasetKind::kCdc, OracleKind::kMatrix, 20000, 3000, 24, 2.0,
     2, 2},
    {"road", DatasetKind::kNyc, OracleKind::kCh, 20000, 2000, 32, 4.0, 1, 1},
};

// The road network is part of a workload's definition: every seed replays
// its demand day and fleet on the city GenerateScenario derives for the
// reference seed 20240301 (the seed of bench_e2e and the paper-scale test).
constexpr uint64_t kCitySeed = 20240301ULL * 7919 + 13;

WorkloadOptions OptionsFor(const Workload& w, uint64_t seed) {
  WorkloadOptions options;
  options.dataset = w.dataset;
  options.oracle = w.oracle;
  options.geo = GeoBackend::kBucket;
  options.num_orders = w.orders;
  options.num_workers = w.workers;
  options.city_width = w.city;
  options.city_height = w.city;
  options.duration = w.hours * 3600.0;
  options.tau = 1.6;
  options.eta = 0.8;
  options.max_capacity = 4;
  options.num_threads = w.threads;
  options.num_shards = w.shards;
  options.seed = seed;
  options.city_seed = kCitySeed;
  return options;
}

// Times one call in every kSampleEvery per thread with a steady_clock pair
// and scales the sampled mean up to all calls. A clock pair around every
// call would cost more than the ~10 ns matrix lookup it measures and
// double the run. Per-thread slots keep the hot path free of shared
// read-modify-writes; slots live as long as the timer.
class SampledTimer {
 public:
  static constexpr int64_t kSampleEvery = 64;

  SampledTimer() : id_(next_id_.fetch_add(1)) {}
  SampledTimer(const SampledTimer&) = delete;
  SampledTimer& operator=(const SampledTimer&) = delete;

  template <typename F>
  auto Time(F&& call) {
    Slot& slot = LocalSlot();
    const int64_t calls = Bump(slot.calls, 1);
    if (calls % kSampleEvery != 0) return call();
    const Clock::time_point start = Clock::now();
    auto result = call();
    const int64_t ns = (Clock::now() - start).count();
    Bump(slot.sampled, 1);
    Bump(slot.sampled_ns, ns);
    return result;
  }

  int64_t calls() const { return Sum(&Slot::calls); }

  /// Sampled mean, less the cost of an empty clock pair, times all calls.
  double EstimatedSeconds(double clock_pair_ns) const {
    const int64_t sampled = Sum(&Slot::sampled);
    if (sampled == 0) return 0.0;
    const double mean_ns =
        static_cast<double>(Sum(&Slot::sampled_ns)) / sampled;
    return std::max(0.0, mean_ns - clock_pair_ns) * calls() * 1e-9;
  }

 private:
  struct Slot {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> sampled{0};
    std::atomic<int64_t> sampled_ns{0};
  };

  // Only the owning thread writes a slot, so a relaxed load+store is exact.
  static int64_t Bump(std::atomic<int64_t>& counter, int64_t n) {
    const int64_t value = counter.load(std::memory_order_relaxed) + n;
    counter.store(value, std::memory_order_relaxed);
    return value;
  }

  // Keyed by a process-unique id, not the address, so a destroyed timer's
  // cached entry can never be mistaken for a new one.
  Slot& LocalSlot() {
    thread_local std::vector<std::pair<uint64_t, Slot*>> cache;
    for (const auto& [id, slot] : cache) {
      if (id == id_) return *slot;
    }
    std::lock_guard<std::mutex> lock(mu_);
    Slot* slot = &slots_.emplace_back();
    cache.emplace_back(id_, slot);
    return *slot;
  }

  int64_t Sum(std::atomic<int64_t> Slot::*field) const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t total = 0;
    for (const Slot& slot : slots_) {
      total += (slot.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  static inline std::atomic<uint64_t> next_id_{0};
  const uint64_t id_;
  mutable std::mutex mu_;  // Guards slots_ (a deque: stable addresses).
  std::deque<Slot> slots_;
};

// Median cost of an empty steady_clock pair, subtracted from each sample.
double ClockPairNanos() {
  std::vector<int64_t> ns(4001);
  for (int64_t& sample : ns) {
    const Clock::time_point start = Clock::now();
    sample = (Clock::now() - start).count();
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return static_cast<double>(ns[ns.size() / 2]);
}

// Decorator for Scenario::oracle. It counts through the base-class
// counters, because the platform reads MetricsReport::geo from
// scenario->oracle, and forwards the capability probe and the bucket build
// time, because the shareability graph only prefetches batches when
// NativeBatch() is true. Batch calls are timed exactly; point calls are
// sampled.
class TimedOracle final : public TravelTimeOracle {
 public:
  explicit TimedOracle(std::unique_ptr<TravelTimeOracle> inner)
      : inner_(std::move(inner)) {}

  double Cost(NodeId from, NodeId to) override {
    CountQuery();
    return point_.Time([&] { return inner_->Cost(from, to); });
  }

  void ManyToOne(std::span<const NodeId> sources, NodeId target,
                 std::span<double> out) override {
    Count(sources.size(), sources.size());
    TimeBatch([&] { inner_->ManyToOne(sources, target, out); });
  }

  void OneToMany(NodeId source, std::span<const NodeId> targets,
                 std::span<double> out) override {
    Count(targets.size(), targets.size());
    TimeBatch([&] { inner_->OneToMany(source, targets, out); });
  }

  void ManyToMany(std::span<const NodeId> sources,
                  std::span<const NodeId> targets,
                  std::span<double> out) override {
    Count(sources.size() + targets.size(), sources.size() * targets.size());
    TimeBatch([&] { inner_->ManyToMany(sources, targets, out); });
  }

  bool NativeBatch() const override { return inner_->NativeBatch(); }

  double bucket_build_seconds() const override {
    return inner_->bucket_build_seconds();
  }

  const SampledTimer& point_timer() const { return point_; }

  double batch_seconds() const {
    return batch_ns_.load(std::memory_order_relaxed) * 1e-9;
  }

 private:
  void Count(size_t points, size_t queries) {
    CountBatch(static_cast<int64_t>(points));
    CountQueries(static_cast<int64_t>(queries));
  }

  template <typename F>
  void TimeBatch(F&& call) {
    const Clock::time_point start = Clock::now();
    call();
    batch_ns_.fetch_add((Clock::now() - start).count(),
                        std::memory_order_relaxed);
  }

  std::unique_ptr<TravelTimeOracle> inner_;
  SampledTimer point_;
  std::atomic<int64_t> batch_ns_{0};
};

// Decorator for the ThresholdProvider the platform is given.
class TimedThresholds final : public ThresholdProvider {
 public:
  explicit TimedThresholds(ThresholdProvider* inner) : inner_(inner) {}

  double ThresholdFor(const Order& order, Time now,
                      const PoolContext& context) override {
    return timer_.Time(
        [&] { return inner_->ThresholdFor(order, now, context); });
  }

  const char* name() const override { return inner_->name(); }

  const SampledTimer& timer() const { return timer_; }

 private:
  ThresholdProvider* inner_;
  SampledTimer timer_;
};

// Minimal JSON object writer: doubles print with 17 significant digits so
// run.py can compare them bit for bit.
class JsonObject {
 public:
  JsonObject& Int(const char* key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Num(const char* key, double value) {
    if (!std::isfinite(value)) return Raw(key, "null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Str(const char* key, const std::string& value) {
    return Raw(key, std::string("\"").append(value).append("\""));
  }
  JsonObject& Nums(const char* key, const std::vector<double>& values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? ", " : "",
                    values[i]);
      list += buf;
    }
    return Raw(key, list + "]");
  }
  JsonObject& Obj(const char* key, const JsonObject& value) {
    return Raw(key, value.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_.append(", ");
    body_.append("\"").append(key).append("\": ").append(value);
    return *this;
  }
  std::string body_;
};

// Everything the correctness gate requires to be bit-identical across the
// timed repeats and the traced run of one workload and seed.
JsonObject CheckedOutputs(const MetricsReport& r, int64_t generated) {
  JsonObject pool;
  pool.Int("best_group_recomputes", r.pool.best_group_recomputes)
      .Int("groups_evaluated", r.pool.groups_evaluated)
      .Int("planner_plans", r.pool.planner_plans)
      .Int("pair_tests", r.pool.pair_tests)
      .Int("plan_cache_hits", r.pool.plan_cache_hits)
      .Int("plan_cache_misses", r.pool.plan_cache_misses)
      .Int("plan_cache_replans", r.pool.plan_cache_replans)
      .Int("plan_cache_seeds", r.pool.plan_cache_seeds)
      .Int("plan_cache_evictions", r.pool.plan_cache_evictions)
      .Int("reverse_index_fanout", r.pool.reverse_index_fanout);
  JsonObject dispatch;
  dispatch.Int("offers", r.dispatch.offers)
      .Int("committed", r.dispatch.committed)
      .Int("worker_conflicts", r.dispatch.worker_conflicts)
      .Int("order_conflicts", r.dispatch.order_conflicts);
  JsonObject out;
  out.Int("generated", generated)
      .Int("served", r.served)
      .Int("rejected", r.rejected)
      .Int("failed_services", r.failed_services)
      .Num("service_rate", r.service_rate)
      .Num("extra_time_s", r.metrs_objective)
      .Num("unified_cost", r.unified_cost)
      .Num("worker_travel", r.worker_travel)
      .Obj("pool", pool)
      .Obj("dispatch", dispatch);
  return out;
}

JsonObject TracedOutputs(const MetricsReport& r, const TimedOracle& oracle,
                         const TimedThresholds& thresholds,
                         const obs::TimelineSampler& timeline) {
  const double clock_pair_ns = ClockPairNanos();
  const obs::RoundSample totals = timeline.Totals();
  std::vector<double> round_s;
  round_s.reserve(timeline.samples().size());
  int64_t peak_pool = 0;
  int64_t peak_depth = 0;
  for (const obs::RoundSample& sample : timeline.samples()) {
    round_s.push_back(sample.total_s);
    peak_pool = std::max(peak_pool, sample.pool_size);
    peak_depth = std::max(peak_depth, sample.pipeline_depth);
  }
  JsonObject out;
  out.Int("geo_queries", r.geo.queries)
      .Int("geo_batches", r.geo.batches)
      .Int("geo_batch_points", r.geo.batch_points)
      .Num("geo_bucket_build_s", r.geo.bucket_build_seconds)
      .Num("geo_point_s", oracle.point_timer().EstimatedSeconds(clock_pair_ns))
      .Num("geo_batch_s", oracle.batch_seconds())
      .Int("threshold_calls", thresholds.timer().calls())
      .Num("threshold_s", thresholds.timer().EstimatedSeconds(clock_pair_ns))
      .Int("border_offers", r.dispatch.border_offers)
      .Int("peak_pool", peak_pool)
      .Int("peak_pipeline_depth", peak_depth)
      .Num("maintenance_s", totals.maintenance_s)
      .Num("refresh_s", totals.refresh_s)
      .Num("propose_s", totals.propose_s)
      .Num("resolve_s", totals.resolve_s)
      .Num("commit_s", totals.commit_s)
      .Num("sweep_s", totals.sweep_s)
      .Nums("round_total_s", round_s);
  return out;
}

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_runner --workload "
               "sparse|dense|road --seed N [--timeline PATH]\n",
               error);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 20240301;
  std::string timeline_path;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("every flag needs a value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) Usage("unknown workload");
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--timeline") == 0) {
      timeline_path = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (workload == nullptr) Usage("--workload is required");
  const bool traced = !timeline_path.empty();

  const WorkloadOptions options = OptionsFor(*workload, seed);
  SimOptions sim;
  sim.dispatch = DispatchMode::kBatched;
  sim.timeline_path = timeline_path;
  OnlineThresholdProvider online;
  TimedThresholds timed_thresholds(&online);
  ThresholdProvider* provider =
      traced ? static_cast<ThresholdProvider*>(&timed_thresholds) : &online;

  const Clock::time_point setup_start = Clock::now();
  Result<Scenario> scenario = GenerateScenario(options);
  if (!scenario.ok()) {
    std::fprintf(stderr, "GenerateScenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  const double generate_s = SecondsSince(setup_start);
  const TimedOracle* timed_oracle = nullptr;
  if (traced) {
    auto oracle = std::make_unique<TimedOracle>(std::move(scenario->oracle));
    timed_oracle = oracle.get();
    scenario->oracle = std::move(oracle);
  }
  WatterPlatform platform(&*scenario, provider, sim);
  const double setup_s = SecondsSince(setup_start);

  const Clock::time_point run_start = Clock::now();
  const MetricsReport report = platform.Run();
  const double run_s = SecondsSince(run_start);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const int64_t generated = static_cast<int64_t>(scenario->orders.size());

  JsonObject out;
  out.Str("workload", workload->name)
      .Int("seed", static_cast<int64_t>(seed))
      .Num("generate_s", generate_s)
      .Num("setup_s", setup_s)
      .Num("run_s", run_s)
      .Num("algorithm_s", report.algorithm_seconds)
      .Int("peak_rss_kb", usage.ru_maxrss)
      .Obj("check", CheckedOutputs(report, generated));
  if (traced) {
    if (platform.timeline() == nullptr) {
      std::fprintf(stderr, "the timeline was not armed\n");
      return 1;
    }
    out.Obj("traced", TracedOutputs(report, *timed_oracle, timed_thresholds,
                                    *platform.timeline()));
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
