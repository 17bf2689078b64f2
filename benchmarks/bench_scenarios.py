"""Experiment E11: the adversarial scenario matrix.

The paper's model (Section 1.2) grants the adversary the wake-up
schedule and the initial placement.  This experiment sweeps
GatherKnownUpperBound across the full scenario matrix — wake
strategies x placement strategies x adversary budgets — through the
``repro.runner`` engine, and checks the two properties the theorems
promise: gathering succeeds under *every* scenario, and a budgeted
adversary (``worst_of:k``) can slow the algorithm but never break it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

from common import publish

from repro.analysis import ResultTable
from repro.runner import ExperimentSpec, run_experiment
from repro.runner.search import SearchSpec, run_search

WAKES = ("simultaneous", "staggered:4", "single_awake", "random:20")
PLACEMENTS = ("default", "spread", "eccentric")


def test_e11_scenario_matrix(benchmark):
    table = ResultTable(
        "E11: gathering across the scenario matrix "
        "(ring n=5, labels 1, 2)",
        ["placement", "wake", "rounds", "moves", "events"],
    )
    spec = ExperimentSpec(
        algorithm="gather_known",
        family="ring",
        sizes=(5,),
        label_sets=((1, 2),),
        seeds=(0,),
        wake_schedules=WAKES,
        placements=PLACEMENTS,
    )

    def workload():
        return run_experiment(spec, workers=1)

    result = benchmark.pedantic(workload, rounds=1, iterations=1)
    assert result.failed == 0, result.failures()
    for rec in result.records:
        table.add_row(
            rec["placement"],
            rec["wake_schedule"],
            rec["metrics"]["rounds"],
            rec["metrics"]["moves"],
            rec["metrics"]["events"],
        )
    rounds = [r["metrics"]["rounds"] for r in result.records]
    extra = (
        f"{len(result.records)} scenarios, all gathered; "
        f"rounds span {min(rounds)}..{max(rounds)} — the adversary "
        "moves the constant, never the guarantee"
    )
    publish("e11_scenario_matrix", table, extra)


def test_e11b_adversary_budget(benchmark):
    table = ResultTable(
        "E11b: budgeted random adversary (ring n=5, random wake + "
        "placement)",
        ["adversary", "rounds", "vs fixed"],
    )
    spec = ExperimentSpec(
        algorithm="gather_known",
        family="ring",
        sizes=(5,),
        label_sets=((1, 2),),
        seeds=(0,),
        wake_schedules=("random:30",),
        placements=("random",),
        adversaries=("best_of:4", "fixed", "worst_of:4"),
    )

    def workload():
        return run_experiment(spec, workers=1)

    result = benchmark.pedantic(workload, rounds=1, iterations=1)
    assert result.failed == 0, result.failures()
    by_adv = {r["adversary"]: r["metrics"] for r in result.records}
    fixed = by_adv["fixed"]["rounds"]
    for name in ("best_of:4", "fixed", "worst_of:4"):
        rounds = by_adv[name]["rounds"]
        table.add_row(name, rounds, f"{rounds / fixed:.2f}x")
    assert by_adv["worst_of:4"]["rounds"] >= fixed
    assert by_adv["best_of:4"]["rounds"] <= fixed
    extra = (
        "a 4-draw adversary shifts gathering time by "
        f"{by_adv['worst_of:4']['rounds'] / by_adv['best_of:4']['rounds']:.2f}x "
        "between its luckiest and cruelest draws"
    )
    publish("e11b_adversary_budget", table, extra)


def test_e11c_pipelined_backend(benchmark):
    """E11c: the pipelined backend on a graph-generation-heavy grid.

    48 short trials (talking baseline, random-regular family) where
    every placement scenario of a ``(size, seed)`` point shares one
    rejection-sampled graph: the ``process`` backend rebuilds that
    graph once per trial and pays one pool round-trip per trial, while
    ``pipelined`` ships graph-grouped batches and builds each graph
    once.  Records must be byte-identical; only wall-clock may differ.
    """

    def grid() -> ExperimentSpec:
        return ExperimentSpec(
            algorithm="talking",
            family="random_regular",
            sizes=(8, 12),
            label_sets=((1, 2),),
            seeds=tuple(range(6)),
            placements=("default", "spread", "random", "eccentric"),
        )

    def timed(backend: str) -> tuple[float, object]:
        best = None
        result = None
        for _ in range(3):
            start = time.perf_counter()
            result = run_experiment(grid(), workers=2, backend=backend)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best, result

    process_time, process_result = timed("process")

    def workload():
        return run_experiment(grid(), workers=2, backend="pipelined")

    pipelined_result = benchmark.pedantic(workload, rounds=3, iterations=1)
    pipelined_time = benchmark.stats.stats.min
    assert process_result.failed == pipelined_result.failed == 0
    assert (
        process_result.canonical_json()
        == pipelined_result.canonical_json()
    )
    table = ResultTable(
        "E11c: process vs pipelined backend (48 talking trials, "
        "random_regular n=8/12, 4 placements per graph, workers=2)",
        ["backend", "best of 3 (s)", "trials/s"],
    )
    n_trials = len(process_result.records)
    table.add_row("process", f"{process_time:.3f}",
                  f"{n_trials / process_time:.0f}")
    table.add_row("pipelined", f"{pipelined_time:.3f}",
                  f"{n_trials / pipelined_time:.0f}")
    speedup = process_time / pipelined_time
    # The acceptance bar is <=; the margin protects against noisy CI
    # boxes without letting a real regression through.
    assert pipelined_time <= process_time * 1.10, (
        f"pipelined {pipelined_time:.3f}s vs process {process_time:.3f}s"
    )
    extra = (
        f"pipelined is {speedup:.2f}x the process backend on this "
        "grid (graph dedup + batched pool round-trips), with "
        "byte-identical records"
    )
    publish("e11c_pipelined_backend", table, extra)


def test_e11d_adaptive_search(benchmark):
    """E11d: the adaptive adversary vs blind sampling, equal budget.

    A ``worst_of:k`` adversary blindly samples k scenario draws; the
    hill-climbing search spends the same k trials walking the *same*
    seeded draw stream and improving on what it finds.  The search's
    worst case must therefore be at least as bad — this is the
    acceptance property of the search engine, measured here with its
    wall-clock cost.
    """
    budget = 12
    baseline = ExperimentSpec(
        algorithm="gather_known",
        family="ring",
        sizes=(6,),
        label_sets=((1, 2),),
        seeds=(0,),
        wake_schedules=("random:20",),
        placements=("random",),
        adversaries=(f"worst_of:{budget}",),
    )
    sampled = run_experiment(baseline, workers=1)
    assert sampled.failed == 0, sampled.failures()
    sampled_rounds = sampled.records[0]["metrics"]["rounds"]

    spec = SearchSpec(
        algorithm="gather_known",
        family="ring",
        n=6,
        labels=(1, 2),
        seed=0,
        strategy="hill_climb",
        budget=budget,
        max_delay=20,
    )

    def workload():
        return run_search(spec, workers=1)

    result = benchmark.pedantic(workload, rounds=1, iterations=1)
    assert result.best is not None
    assert result.best_value >= sampled_rounds
    table = ResultTable(
        f"E11d: worst_of:{budget} sample vs hill_climb search "
        "(gather_known, ring n=6, random wake+placement, seed 0)",
        ["adversary", "worst rounds", "trials"],
    )
    table.add_row(f"worst_of:{budget}", sampled_rounds, budget)
    table.add_row(
        f"search hill_climb:{budget}", result.best_value,
        result.evaluated,
    )
    extra = (
        f"the adaptive adversary found a scenario "
        f"{result.best_value - sampled_rounds} round(s) worse than the "
        f"best of {budget} blind draws, at the same trial budget "
        f"(scenario: {result.best['placement']} / "
        f"{result.best['wake_schedule']})"
    )
    publish("e11d_adaptive_search", table, extra)


# ----------------------------------------------------------------------
# Benchmark-trend presets: ``python benchmarks/bench_scenarios.py``.
#
# CI runs the quick preset on every push, emits BENCH_scenarios.json
# (trials/s per backend) as an artifact, and fails when throughput
# regresses more than the tolerance against the committed baseline
# (benchmarks/baselines/BENCH_scenarios.json).  Comparisons use
# *normalized* throughput — trials/s multiplied by the runtime of a
# fixed simulator-free calibration loop — so machine-speed differences
# between the baseline host and the CI runner cancel out while real
# engine regressions do not.
# ----------------------------------------------------------------------

TREND_BACKENDS = ("serial", "process", "pipelined")


def scheduler_specs(quick: bool) -> list[ExperimentSpec]:
    """The EXPLO-heavy scheduler workload: walk-dominated trials.

    These trials are where the event scheduler itself (not the
    engine's fan-out) is the bottleneck: ``gather_known`` at n >= 10
    walks ~10^5 UXS edges per trial, and the EST-dominated
    ``gather_unknown`` points exercise signature walks against a token
    group.  The walk-segment fast path (PR 5) is gated by this entry.
    """
    seeds = (0, 1) if quick else (0, 1, 2, 3)
    return [
        ExperimentSpec(
            algorithm="gather_known",
            family="ring",
            sizes=(10, 12),
            label_sets=((1, 2),),
            seeds=seeds,
            placements=("spread", "eccentric"),
        ),
        ExperimentSpec(
            algorithm="gather_unknown",
            family="edge",
            sizes=(2,),
            label_sets=((1, 2), (2, 3), (1, 3)),
            seeds=seeds,
        ),
    ]


def batched_specs(quick: bool) -> list[ExperimentSpec]:
    """Same-graph trial batches for the pipelined backend.

    ``graph_seed_mode="fixed"`` makes every ``(size, seed)`` graph
    shared by all label-set x placement variants, so the pipelined
    backend's batch plan builds each graph once for a batch of four
    trials that also share its route cache.
    """
    seeds = (0, 1) if quick else (0, 1, 2, 3)
    return [
        ExperimentSpec(
            algorithm="gather_known",
            family="ring",
            sizes=(10, 12),
            label_sets=((1, 2), (3, 1)),
            seeds=seeds,
            placements=("spread", "eccentric"),
            graph_seed_mode="fixed",
        ),
    ]


def _timed_specs(
    specs: list[ExperimentSpec], repetitions: int, backend: str | None
) -> tuple[int, float]:
    """(trial count, best wall-clock) of running ``specs`` in-process."""
    n_trials = sum(len(spec.trials()) for spec in specs)
    best = None
    for _ in range(repetitions):
        start = time.perf_counter()
        for spec in specs:
            result = run_experiment(spec, workers=1, backend=backend)
            if result.failed:
                raise RuntimeError(
                    f"scheduler grid failed: "
                    f"{result.failures()[0]['error']}"
                )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return n_trials, best


def _counter_sum(snapshot: dict, name: str) -> int:
    return sum(
        row["value"]
        for row in snapshot["series"]
        if row["name"] == name and row["kind"] == "counter"
    )


def _scheduler_counters(
    specs: list[ExperimentSpec], backend: str | None
) -> dict:
    """Key scheduler counters for one workload (separate metered pass).

    The timed repetitions stay metrics-free (the throughput gate has a
    2% budget); this extra pass re-runs the grid once with a registry
    attached and distills the counters the trend artifact tracks:
    walk-segment batching and plan-cache locality.
    """
    from repro.explore.uxs import reset_cache_stats
    from repro.metrics import registry as metrics_registry
    from repro.sim.agent import reset_intern_stats

    # Collector tallies are process-wide; zero them so each workload
    # reports its own pass, not everything measured before it.
    reset_intern_stats()
    reset_cache_stats()
    reg = metrics_registry.Registry(source="bench")
    with metrics_registry.attached(reg):
        for spec in specs:
            run_experiment(spec, workers=1, backend=backend)
    snap = reg.snapshot()
    hits = _counter_sum(snap, "sim.plan_intern.hits")
    misses = _counter_sum(snap, "sim.plan_intern.misses")
    return {
        "segments": _counter_sum(snap, "sim.walk.segments"),
        "segment_edges": _counter_sum(snap, "sim.walk.segment_edges"),
        "plan_intern_hit_ratio": round(
            hits / max(1, hits + misses), 4
        ),
    }


def measure_scheduler(
    quick: bool, calibration: float, repetitions: int = 3
) -> dict:
    """Time the walk-heavy workloads (in-process, best of reps).

    ``walk_heavy`` runs the mixed serial workload; ``walk_heavy_batched``
    pushes same-graph trials through the pipelined backend's inline
    batch plan (one graph build and one route cache per batch).

    Each entry also carries a ``counters`` block from a separate
    instrumented pass; the regression gate ignores it
    (:func:`check_trend` compares ``normalized`` only).
    """
    entries = {}
    for name, specs, backend in (
        ("walk_heavy", scheduler_specs(quick), None),
        ("walk_heavy_batched", batched_specs(quick), "pipelined"),
    ):
        n_trials, best = _timed_specs(specs, repetitions, backend)
        trials_per_s = n_trials / best
        entries[name] = {
            "trials": n_trials,
            "seconds": round(best, 4),
            "trials_per_s": round(trials_per_s, 2),
            "normalized": round(trials_per_s * calibration, 4),
            "counters": _scheduler_counters(specs, backend),
        }
    return entries


def trend_spec(quick: bool) -> ExperimentSpec:
    """The timing grid: short talking trials, shared rejection-sampled
    graphs — the workload the pipelined backend exists for."""
    return ExperimentSpec(
        algorithm="talking",
        family="random_regular",
        sizes=(8, 12),
        label_sets=((1, 2),),
        # Large enough that per-trial work, not pool startup, dominates
        # the quick preset — a 25% regression gate on a too-short run
        # would only measure timer noise.
        seeds=tuple(range(12 if quick else 24)),
        placements=("default", "spread", "random", "eccentric"),
    )


def _calibrate(loops: int = 200_000) -> float:
    """Seconds for a fixed interpreter-bound loop (no simulator code),
    so normalized throughput cancels machine speed but not engine
    regressions."""
    digest = b"bench-trend-calibration"
    start = time.perf_counter()
    for _ in range(loops):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - start


def measure_trend(
    quick: bool = True, repetitions: int = 3, workers: int = 2
) -> dict:
    """Time every trend backend; return the BENCH_scenarios payload."""
    calibration = min(_calibrate() for _ in range(3))
    spec = trend_spec(quick)
    n_trials = len(spec.trials())
    backends = {}
    for backend in TREND_BACKENDS:
        backend_workers = 1 if backend == "serial" else workers
        # Pooled backends carry fork/startup cost and suffer core
        # contention the single-threaded calibration loop does not;
        # extra repetitions keep their best-of measurement stable.
        reps = repetitions if backend == "serial" else repetitions + 2
        best = None
        for _ in range(reps):
            start = time.perf_counter()
            result = run_experiment(
                trend_spec(quick), workers=backend_workers,
                backend=backend,
            )
            elapsed = time.perf_counter() - start
            if result.failed:
                raise RuntimeError(
                    f"trend grid failed on {backend}: "
                    f"{result.failures()[0]['error']}"
                )
            best = elapsed if best is None else min(best, elapsed)
        trials_per_s = n_trials / best
        backends[backend] = {
            "seconds": round(best, 4),
            "trials_per_s": round(trials_per_s, 2),
            "normalized": round(trials_per_s * calibration, 4),
        }
    return {
        "preset": "quick" if quick else "full",
        "trials": n_trials,
        "workers": workers,
        "calibration_s": round(calibration, 4),
        "backends": backends,
        "scheduler": measure_scheduler(quick, calibration),
    }


def check_trend(
    measured: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Regression messages (empty = within tolerance of the baseline)."""
    failures = []
    sections = (
        ("backends", "backends"),
        ("scheduler", "scheduler"),
    )
    for section, label in sections:
        for name, entry in sorted(baseline.get(section, {}).items()):
            got = measured.get(section, {}).get(name)
            if got is None:
                failures.append(f"{label}/{name}: missing from this run")
                continue
            floor = entry["normalized"] * (1.0 - tolerance)
            if got["normalized"] < floor:
                failures.append(
                    f"{label}/{name}: normalized throughput "
                    f"{got['normalized']:.4f} fell below "
                    f"{floor:.4f} (baseline {entry['normalized']:.4f} "
                    f"- {tolerance:.0%})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure scenario-sweep throughput per backend, "
                    "emit BENCH_scenarios.json, and optionally fail "
                    "on regression against a committed baseline.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="the 96-trial CI preset (default: the 192-trial grid)",
    )
    parser.add_argument(
        "--emit", metavar="PATH", default=None,
        help="write the measurement JSON here",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare against this baseline file and exit 1 on "
             "regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional throughput drop (default: 0.25)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="workers for the pooled backends (default: 2)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=3,
        help="timing repetitions per backend, best kept (default: 3)",
    )
    args = parser.parse_args(argv)
    measured = measure_trend(
        quick=args.quick, repetitions=args.repetitions,
        workers=args.workers,
    )
    print(json.dumps(measured, sort_keys=True, indent=1))
    if args.emit:
        pathlib.Path(args.emit).write_text(
            json.dumps(measured, sort_keys=True, indent=1) + "\n"
        )
    if args.check:
        baseline = json.loads(pathlib.Path(args.check).read_text())
        failures = check_trend(measured, baseline, args.tolerance)
        for failure in failures:
            print(f"REGRESSION {failure}")
        if failures:
            return 1
        gated = len(baseline.get("backends", {})) + len(
            baseline.get("scheduler", {})
        )
        print(
            f"throughput within {args.tolerance:.0%} of the baseline "
            f"for {gated} gated entr(ies)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
