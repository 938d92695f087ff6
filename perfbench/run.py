#!/usr/bin/env python3
"""WATTER benchmark: builds perfbench_runner from the checkout, replays one
workload (or all of them) as a batch replay for --seconds, checks that the
outputs are correct, and prints the metrics.

    python3 perfbench/run.py [--workload sparse|dense|road|all]
                             [--seed N] [--seconds S] [--trace 0|1]

A run replays several demand days drawn from --seed (DAYS below), round-robin,
one process per repeat, until --seconds is spent. --trace 0 reports the
end-to-end metrics of these timed repeats; --trace 1 adds one traced process
per day and reports the per-layer metrics. --workload all does both for every
workload and prints the tables. The last line of stdout is always one JSON
object: {"correct", "attempted", "failed", "metrics"}. Metric definitions and
the workload each one should move are in perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_runner")
OUT = os.path.join(BUILD, "perfbench-out")

WORKLOADS = ("sparse", "dense", "road")
DEFAULT_SEED = 20240301
# Demand days per run. Single days of the same workload differ by several
# percent in work; the median over days keeps a run steady across seeds.
DAYS = {"sparse": 8, "dense": 10, "road": 4}
RUNNER_TIMEOUT_S = 170

PHASES = ("maintenance_s", "refresh_s", "propose_s", "resolve_s",
          "commit_s", "sweep_s")

END_TO_END = (  # name, unit
    ("us_per_order", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("service_rate", "ratio"),
    ("extra_time_s", "s"),
    ("unified_cost", "s"),
)

PER_LAYER = (  # name, unit
    ("workload.generate_s", "s"),
    ("geo.queries", "count"),
    ("geo.batches", "count"),
    ("geo.mean_batch_width", "count"),
    ("geo.busy_s", "s"),
    ("geo.bucket_build_s", "s"),
    ("planner.plans", "count"),
    ("planner.plans_per_order", "count"),
    ("pool.arrival_s", "s"),
    ("pool.pair_tests", "count"),
    ("pool.refresh_s", "s"),
    ("pool.maintenance_s", "s"),
    ("pool.groups_evaluated", "count"),
    ("pool.recomputes", "count"),
    ("pool.plan_cache_hit_ratio", "ratio"),
    ("pool.plan_cache_evictions", "count"),
    ("pool.peak_size", "count"),
    ("strategy.threshold_calls", "count"),
    ("strategy.busy_s", "s"),
    ("sim.propose_s", "s"),
    ("dispatch.offers", "count"),
    ("dispatch.commit_ratio", "ratio"),
    ("dispatch.order_conflicts", "count"),
    ("dispatch.worker_conflicts", "count"),
    ("sim.resolve_s", "s"),
    ("sim.commit_s", "s"),
    ("sim.sweep_s", "s"),
    ("sim.rounds", "count"),
    ("sim.round_p50_ms", "ms"),
    ("sim.round_p99_ms", "ms"),
    ("pipeline.peak_depth", "count"),
    ("dispatch.border_offers", "count"),
    ("obs.trace_overhead", "ratio"),
)


class CheckFailed(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def day_seeds(seed, days):
    """The run's demand days: the seed itself, then splitmix64-derived
    seeds, so different seeds share no day."""
    out = [seed]
    state = seed & 0xFFFFFFFFFFFFFFFF
    while len(out) < days:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        out.append((z ^ (z >> 31)) >> 1)
    return out


def build():
    """Configures and builds the runner; build output goes to stderr so the
    last line of stdout stays the result."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench_runner",
              "-j", jobs]]
    for step in steps:
        try:
            subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=840)
        except (OSError, subprocess.SubprocessError) as error:
            log(f"build failed: {error}")
            return False
    return True


def run_runner(workload, day, timeline=None):
    cmd = [RUNNER, "--workload", workload, "--seed", str(day)]
    if timeline:
        cmd += ["--timeline", timeline]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUNNER_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"runner exited {proc.returncode} on day {day}: "
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_record(workload, day, record):
    c = record["check"]
    terminal = c["served"] + c["rejected"] + c["failed_services"]
    if terminal != c["generated"]:
        raise CheckFailed(
            f"{workload} day {day}: served {c['served']} + rejected "
            f"{c['rejected']} + failed {c['failed_services']} != generated "
            f"{c['generated']}")
    for key in ("service_rate", "extra_time_s", "unified_cost"):
        if c[key] is None:
            raise CheckFailed(f"{workload} day {day}: {key} is not finite")


def check_same(workload, day, first, other, what):
    if first["check"] != other["check"]:
        diff = sorted(k for k in first["check"]
                      if first["check"][k] != other["check"][k])
        raise CheckFailed(f"{workload} day {day}: {what} differ from the "
                          f"first timed repeat in {diff}")


def timed_repeats(workload, days, budget_s, min_cycles):
    """Round-robin cycles over the days, one process per repeat, until the
    next cycle would overrun the budget (at least min_cycles)."""
    records = {day: [] for day in days}
    start = time.monotonic()
    cycles = 0
    while True:
        cycle_start = time.monotonic()
        for day in days:
            record = run_runner(workload, day)
            check_record(workload, day, record)
            if records[day]:
                check_same(workload, day, records[day][0], record,
                           "timed repeats")
            records[day].append(record)
        cycles += 1
        cycle_s = time.monotonic() - cycle_start
        if (cycles >= min_cycles and
                time.monotonic() - start + cycle_s > budget_s):
            return records


def traced_runs(workload, days, timed):
    os.makedirs(OUT, exist_ok=True)
    traced = {}
    for day in days:
        path = os.path.join(OUT, f"timeline-{workload}-{day}.json")
        record = run_runner(workload, day, timeline=path)
        check_record(workload, day, record)
        check_same(workload, day, timed[day][0], record, "traced outputs")
        traced[day] = record
    return traced


def nearest_rank(sorted_values, q):
    """The q-quantile as the ceil(q*n)-th smallest sample: always one of
    the samples, so it lies within [min, max]."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def end_to_end(timed):
    """Per-metric sample lists and the reported value (median for timings,
    the run's total for the deterministic quality metrics)."""
    records = [r for day in timed.values() for r in day]
    us = [r["run_s"] * 1e6 / r["check"]["generated"] for r in records]
    setup = [r["setup_s"] for r in records]
    rss = [r["peak_rss_kb"] / 1024.0 for r in records]
    firsts = [day[0]["check"] for day in timed.values()]
    generated = sum(c["generated"] for c in firsts)
    samples = {
        "us_per_order": us,
        "setup_s": setup,
        "peak_rss_mb": rss,
        "service_rate": [sum(c["served"] for c in firsts) / generated],
        "extra_time_s": [sum(c["extra_time_s"] for c in firsts)],
        "unified_cost": [sum(c["unified_cost"] for c in firsts)],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    return values, samples


def per_layer(workload, timed, traced):
    recs = list(traced.values())
    t = [r["traced"] for r in recs]
    c = [r["check"] for r in recs]

    def total(key, src=t):
        return sum(x[key] for x in src)

    def pool(key):
        return sum(x["pool"][key] for x in c)

    def dispatch(key):
        return sum(x["dispatch"][key] for x in c)

    generated = total("generated", c)
    algorithm_s = sum(r["algorithm_s"] for r in recs)
    phases = {p: total(p) for p in PHASES}
    arrival_s = algorithm_s - sum(phases.values())
    run_s = sum(r["run_s"] for r in recs)
    # The traced phases, with arrival, must account for the Run() call's
    # wall time as measured from outside the program.
    if (arrival_s < -0.01 * algorithm_s or
            abs(algorithm_s - run_s) > 0.05 * run_s):
        raise CheckFailed(
            f"{workload}: traced phases {sum(phases.values()):.4f}s + arrival "
            f"{arrival_s:.4f}s do not add up to the Run() wall {run_s:.4f}s")
    rounds = sorted(s for x in t for s in x["round_total_s"])
    if not rounds:
        raise CheckFailed(f"{workload}: the traced run recorded no rounds")
    p50, p99 = nearest_rank(rounds, 0.50), nearest_rank(rounds, 0.99)
    if not rounds[0] <= p50 <= p99 <= rounds[-1]:
        raise CheckFailed(f"{workload}: round percentiles outside [min, max]")
    hits, misses = pool("plan_cache_hits"), pool("plan_cache_misses")
    offers = dispatch("offers")
    batches = total("geo_batches")
    timed_run_s = sum(statistics.median(r["run_s"] for r in timed[day])
                      for day in traced)
    generate = [r["generate_s"] for day in timed.values() for r in day]
    generate += [r["generate_s"] for r in recs]
    values = {
        "workload.generate_s": statistics.median(generate),
        "geo.queries": total("geo_queries"),
        "geo.batches": batches,
        "geo.mean_batch_width": total("geo_batch_points") / batches
        if batches else 0.0,
        "geo.busy_s": total("geo_point_s") + total("geo_batch_s"),
        "geo.bucket_build_s": total("geo_bucket_build_s"),
        "planner.plans": pool("planner_plans"),
        "planner.plans_per_order": pool("planner_plans") / generated,
        "pool.arrival_s": arrival_s,
        "pool.pair_tests": pool("pair_tests"),
        "pool.refresh_s": phases["refresh_s"],
        "pool.maintenance_s": phases["maintenance_s"],
        "pool.groups_evaluated": pool("groups_evaluated"),
        "pool.recomputes": pool("best_group_recomputes"),
        "pool.plan_cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "pool.plan_cache_evictions": pool("plan_cache_evictions"),
        "pool.peak_size": max(x["peak_pool"] for x in t),
        "strategy.threshold_calls": total("threshold_calls"),
        "strategy.busy_s": total("threshold_s"),
        "sim.propose_s": phases["propose_s"],
        "dispatch.offers": offers,
        "dispatch.commit_ratio": dispatch("committed") / offers
        if offers else 0.0,
        "dispatch.order_conflicts": dispatch("order_conflicts"),
        "dispatch.worker_conflicts": dispatch("worker_conflicts"),
        "sim.resolve_s": phases["resolve_s"],
        "sim.commit_s": phases["commit_s"],
        "sim.sweep_s": phases["sweep_s"],
        "sim.rounds": len(rounds),
        "sim.round_p50_ms": p50 * 1e3,
        "sim.round_p99_ms": p99 * 1e3,
        "pipeline.peak_depth": max(x["peak_pipeline_depth"] for x in t),
        "dispatch.border_offers": total("border_offers"),
        "obs.trace_overhead": run_s / timed_run_s,
    }
    shares = {name: seconds / algorithm_s
              for name, seconds in list(phases.items()) +
              [("arrival_s", arrival_s)]}
    return values, shares, algorithm_s, (rounds[0], rounds[-1])


def print_end_to_end(workload, days, values, samples):
    print(f"== {workload}: end-to-end ({len(days)} demand days, "
          f"{len(samples['us_per_order'])} timed repeats) ==")
    print(f"  {'metric':<16} {'unit':<6} {'median':>16} {'q1':>16} "
          f"{'q3':>16} {'n':>4}")
    for name, unit in END_TO_END:
        v = samples[name]
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        print(f"  {name:<16} {unit:<6} {values[name]:>16.6g} {q1:>16.6g} "
              f"{q3:>16.6g} {len(v):>4}")


def print_per_layer(workload, values, shares, algorithm_s, round_range):
    print(f"== {workload}: per-layer (traced, {algorithm_s:.3f}s algorithm "
          f"time) ==")
    for name, unit in PER_LAYER:
        print(f"  {name:<28} {unit:<6} {values[name]:>16.6g}")
    print(f"  round samples: {values['sim.rounds']}, min "
          f"{round_range[0] * 1e3:.3f} ms, max {round_range[1] * 1e3:.3f} ms")
    print("  phase shares of algorithm time: " + ", ".join(
        f"{name[:-2]} {share:.1%}" for name, share in shares.items()) +
        f" (sum {sum(shares.values()):.1%})")


def bench_workload(workload, seed, seconds, trace, report):
    """Returns (metrics, attempted, failed) for one workload."""
    days = day_seeds(seed, DAYS[workload])
    log(f"[{workload}] days {days}")
    # End-to-end runs repeat every day at least twice, so the determinism
    # gate compares timed repeats. A --trace 1 run compares its traced pass
    # with one timed cycle and leaves that pass about half of the time.
    if trace and not report:
        timed = timed_repeats(workload, days, 0.5 * seconds, 1)
    else:
        timed = timed_repeats(workload, days, seconds, 2)
    records = [r for day in timed.values() for r in day]
    values, samples = end_to_end(timed)
    metrics = {}
    if report or not trace:
        metrics.update({name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END})
    if report:
        print_end_to_end(workload, days, values, samples)
    if trace:
        traced = traced_runs(workload, days, timed)
        records += list(traced.values())
        layer, shares, algorithm_s, round_range = per_layer(
            workload, timed, traced)
        metrics.update({name: {"value": layer[name], "unit": unit}
                        for name, unit in PER_LAYER})
        if report:
            print_per_layer(workload, layer, shares, algorithm_s, round_range)
    attempted = sum(r["check"]["generated"] for r in records)
    failed = sum(r["check"]["rejected"] + r["check"]["failed_services"]
                 for r in records)
    return metrics, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not build():
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    report = args.workload == "all"
    trace = bool(args.trace) or report
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in workloads:
        try:
            m, a, f = bench_workload(workload, args.seed, args.seconds,
                                     trace, report)
        except CheckFailed as error:
            log(f"CHECK FAILED [{workload}]: {error}")
            correct = False
            attempted = max(attempted, 1)
            failed = attempted
            continue
        except (OSError, subprocess.SubprocessError, ValueError,
                KeyError) as error:
            log(f"[{workload}] runner error: {error}")
            return 1
        prefix = f"{workload}/" if report else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if correct else attempted,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
