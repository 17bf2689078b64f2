"""The benchmark's measurement passes.

A run works on one *pass*: the chunks its seed draws
(:meth:`Workload.pass_for`).  The host this runs on is shared, and its
speed drifts by tens of percent for seconds at a time, so every
end-to-end metric is a median over samples spread across the whole run
rather than one long measurement.

An untraced run (``--trace 0``, :func:`untraced_run`) repeats the pass
until ``seconds`` of sweeping, with nothing wrapped and no metrics
registry attached.  Each chunk of each repetition is timed on its own;
the throughputs divide the pass's trials (or simulated events) by the
sum over its chunks of each chunk's median time, so a slow spell
spoils one chunk's sample and not a whole repetition's.  On serial
workloads each repetition also gives one latency sample per trial (the
gap between ``progress`` callbacks).  Outside the timed sweep it
takes, after every repetition, one sample each of:

* set-up: imports, first sequence generation and cache fill, timed in
  a fresh interpreter (:func:`setup_seconds`);
* per-trial latency from a serial pass over the first
  ``latency_chunks`` chunks, on workloads whose sweep is not serial;

and, after every chunk from the end of the first repetition on, a
burst of warm re-sweeps and of queries of a store filled once from the
first ``store_chunks`` chunks (:class:`StoreBench`), each call timed
on its own.  The store metrics are the medians of all those calls.

A trial's latency is the median over repetitions of its own gap, so
the latency percentiles are over the pass's trials.  Every timed
section starts after a full garbage collection, so a collection of the
previous section's garbage does not land in it.

A traced run (``--trace 1``, :func:`traced_run`) alternates the pass
untraced and traced (worker-side span wrappers plus a registry), then
runs the parent-side layers once: the pass through the pipelined
backend into a fresh store, a warm re-sweep and a query.

Every execution, re-sweep and query is checked against the stored
digests (:class:`Checker`).
"""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

from repro.explore import uxs
from repro.metrics import registry as metrics_registry
from repro.runner import ResultStore, query, run_experiment
from repro.sim import agent

from . import spans
from .digests import load_table, records_digest, rows_digest
from .workloads import Workload

RUN_PY = pathlib.Path(__file__).resolve().with_name("run.py")
# The self times of the worker-side spans: with runner.unattributed_s
# they add up to runner.sweep_s.
SWEEP_LAYERS = ("graphs.build_s", "explore.preflight_s", "core.run_self_s",
                "sim.run_s", "runner.scenario_s", "runner.trial_self_s")
QUERY_METRICS = ("rounds", "events", "moves")
# Pool size of the pipelined pass a traced run measures fan-out on.
FANOUT_WORKERS = 2
# A store sample times its re-sweeps (and queries) one by one for about
# this long.
STORE_SAMPLE_S = 0.05


# ----------------------------------------------------------------------
# Chunks: run, store, query.
# ----------------------------------------------------------------------

def run_chunk(workload: Workload, chunk_id: int, *, tiny: bool = False,
              backend: str = "serial", workers: int = 1,
              store: ResultStore | None = None, progress=None) -> list:
    """Run every grid of one chunk; one ExperimentResult per grid.

    ``progress`` is a :class:`Gaps` recorder, restarted per grid.
    """
    results = []
    for spec in workload.specs(chunk_id, tiny):
        if progress is not None:
            progress.start()
        results.append(run_experiment(spec, workers=workers, backend=backend,
                                      store=store, progress=progress))
    return results


def save_chunk(store: ResultStore, results: list) -> None:
    for result in results:
        store.save(result.spec, {r["key"]: r for r in result.ok_records()})


def query_chunk(store: ResultStore, workload: Workload,
                results: list) -> list[list[dict]]:
    """Group-by over each grid of a stored chunk."""
    return [
        query.aggregate(
            store.iter_records(result.spec.spec_hash()),
            group_by=workload.group_by,
            metrics=QUERY_METRICS,
        )
        for result in results
    ]


def _trials(results: list) -> int:
    return sum(len(result.records) for result in results)


def _ok_trials(results: list) -> int:
    return sum(len(result.ok_records()) for result in results)


def _events(results: list) -> int:
    return sum(
        record["metrics"]["events"]
        for result in results
        for record in result.ok_records()
    )


class Checker:
    """Compares every pass's outputs with the stored digests.

    ``attempted`` counts executed trials.  A chunk whose records differ
    from its digest counts all its trials as failed; a warm re-sweep or
    query that differs charges its chunk's trials once more unless an
    execution of that chunk was already charged.
    """

    def __init__(self, workload: Workload, tiny: bool) -> None:
        table = load_table()[workload.name]["tiny" if tiny else "full"]
        self._records = table["records"]
        self._rows = table["query"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._charged: set[int] = set()

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def _mismatch(self, chunk_id: int, trials: int, what: str) -> None:
        self.problems.append(f"chunk {chunk_id}: {what} differ from the "
                             "stored digest")
        if chunk_id not in self._charged:
            self._charged.add(chunk_id)
            self.failed += trials

    def executed(self, chunk_id: int, results: list) -> None:
        trials = _trials(results)
        self.attempted += trials
        if records_digest(results) == self._records[chunk_id]:
            self.failed += sum(result.failed for result in results)
            return
        self.problems.append(
            f"chunk {chunk_id}: records differ from the stored digest"
        )
        self._charged.add(chunk_id)
        self.failed += trials

    def cached(self, chunk_id: int, results: list) -> None:
        if (any(result.executed for result in results)
                or records_digest(results) != self._records[chunk_id]):
            self._mismatch(chunk_id, _trials(results), "warm re-sweep records")

    def queried(self, chunk_id: int, rows: list, trials: int) -> None:
        if rows_digest(rows) != self._rows[chunk_id]:
            self._mismatch(chunk_id, trials, "query rows")


class Gaps:
    """``progress`` callback recording the host time between trials."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def __call__(self, done, total, record, from_cache) -> None:
        now = time.perf_counter()
        self.samples.append(now - self._last)
        self._last = now


class StoreBench:
    """A fresh store holding some chunks, re-swept and queried."""

    def __init__(self, workload: Workload, chunks: list[tuple[int, list]],
                 root: pathlib.Path, checker: Checker) -> None:
        self.workload = workload
        self.chunks = chunks
        self.checker = checker
        self.store = ResultStore(root)
        for _chunk_id, results in chunks:
            save_chunk(self.store, results)
        self.records = 0  # records one query aggregates

    def resweep(self) -> list[list]:
        """Re-run every stored grid; every trial comes from the store."""
        return [
            [run_experiment(result.spec, workers=self.workload.workers,
                            backend=self.workload.backend, store=self.store)
             for result in results]
            for _chunk_id, results in self.chunks
        ]

    def scan(self) -> list[list]:
        return [query_chunk(self.store, self.workload, results)
                for _chunk_id, results in self.chunks]

    def sample(self, sample_s: float = 0.0) -> tuple[list, list]:
        """Seconds of each of back-to-back re-sweeps, and of each of
        back-to-back queries, lasting about ``sample_s`` (one call each
        when 0); the last outputs are checked."""
        warm, again = _call_times(self.resweep, sample_s)
        scan, rows = _call_times(self.scan, sample_s)
        for (chunk_id, results), got, chunk_rows in zip(self.chunks, again,
                                                        rows):
            self.checker.cached(chunk_id, got)
            self.checker.queried(chunk_id, chunk_rows, _trials(results))
        self.records = sum(row["count"] for chunk in rows for grid in chunk
                           for row in grid)
        return warm, scan


def _call_times(fn, sample_s: float) -> tuple[list[float], list]:
    """Call ``fn`` until ``sample_s`` seconds have passed (at least
    once); the seconds of each call and the last call's output."""
    gc.collect()
    times: list[float] = []
    while not times or sum(times) < sample_s:
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return times, out


# ----------------------------------------------------------------------
# Untraced run.
# ----------------------------------------------------------------------

def warm_up(workload: Workload) -> list:
    """Set-up work: first sequence generation and cache fill, by
    running the tiny preset's first chunk."""
    return run_chunk(workload, 0, tiny=True)


def setup_seconds(workload: Workload) -> float:
    """Set-up time of a fresh interpreter (``run.py --setup-probe``)."""
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--setup-probe",
         "--workload", workload.name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile)``; the maximum below eleven samples."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (pool worker or
    set-up probe), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def untraced_run(workload: Workload, seed: int, seconds: float, tiny: bool,
                 work: pathlib.Path, checker: Checker,
                 min_passes: int) -> tuple[dict, dict]:
    """The end-to-end metrics, plus notes for the report."""
    chunk_ids = workload.pass_for(seed)
    serial = workload.backend == "serial"
    warm_up(workload)
    chunk_seconds: dict[int, list[float]] = {c: [] for c in chunk_ids}
    gaps, setups, warms, scans = [], [], [], []
    bench = None
    swept = 0.0
    while swept < seconds or len(gaps) < min_passes:
        # The timed sweep: one pass, chunk by chunk, into a fresh store
        # when the workload's sweep is not serial.
        store_root = work / f"timed-{len(gaps)}"
        store = None if serial else ResultStore(store_root)
        recorder = Gaps() if serial else None
        done = []
        for chunk_id in chunk_ids:
            gc.collect()
            start = time.perf_counter()
            results = run_chunk(workload, chunk_id, tiny=tiny,
                                backend=workload.backend,
                                workers=workload.workers, store=store,
                                progress=recorder)
            elapsed = time.perf_counter() - start
            swept += elapsed
            chunk_seconds[chunk_id].append(elapsed)
            checker.executed(chunk_id, results)
            done.append(results)
            if bench is not None:
                warm, scan = bench.sample(STORE_SAMPLE_S)
                warms += warm
                scans += scan
        shutil.rmtree(store_root, ignore_errors=True)

        if recorder is None:
            recorder = Gaps()
            gc.collect()
            for chunk_id in chunk_ids[:workload.latency_chunks]:
                checker.executed(chunk_id, run_chunk(
                    workload, chunk_id, tiny=tiny, progress=recorder))
        gaps.append(recorder.samples)

        if bench is None:
            bench = StoreBench(
                workload, list(zip(chunk_ids, done))[:workload.store_chunks],
                work / "store", checker,
            )
            warm, scan = bench.sample(STORE_SAMPLE_S)
            warms += warm
            scans += scan
        setups.append(setup_seconds(workload))

    pass_seconds = sum(statistics.median(chunk_seconds[c])
                       for c in chunk_ids)
    latency = [statistics.median(trial) for trial in zip(*gaps)]
    tail_ms, tail_pct = tail(latency)
    metrics = {
        "setup_s": statistics.median(setups),
        "trials_per_s": sum(map(_ok_trials, done)) / pass_seconds,
        "trial_ms_p50": 1000.0 * statistics.median(latency),
        "trial_ms_tail": 1000.0 * tail_ms,
        "sim_events_per_s": sum(map(_events, done)) / pass_seconds,
        "peak_rss_mb": peak_rss_mb(),
        "warm_resweep_s": statistics.median(warms),
        "query_s": statistics.median(scans),
    }
    notes = {
        "pass": f"chunks {chunk_ids}, {len(gaps)} repetitions in "
                f"{swept:.3f} s of sweeping; median pass {pass_seconds:.3f} s",
        "latency": f"{len(latency)} trials x {len(gaps)} repetitions, "
                   f"tail = p{tail_pct:.2f} (highest percentile with >= 10 "
                   "trials beyond)",
        "store": f"{bench.records} records in {len(bench.chunks)} chunks, "
                 f"{len(warms)} re-sweeps and {len(scans)} queries timed",
    }
    return metrics, notes


# ----------------------------------------------------------------------
# Traced run.
# ----------------------------------------------------------------------

def _series(snapshot: dict, name: str, field: str = "value"):
    return sum(s.get(field, 0) for s in snapshot["series"]
               if s["name"] == name)


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _tallies() -> tuple[int, ...]:
    stats = uxs.cache_stats()
    return (*agent.intern_stats(), stats["seq_hits"], stats["seq_misses"],
            stats["plan_hits"], stats["plan_misses"])


def traced_serial_pass(workload: Workload, chunk_ids: list[int],
                       checker: Checker, tiny: bool) -> dict:
    """One serial pass with the worker-side wrappers and a registry.

    Returns the pass's spans, its wall seconds (the ``run_experiment``
    calls only), registry snapshot, cache-tally deltas, the number of
    distinct graphs it ran on and its chunks' results.
    """
    rec = spans.SpanRecorder()
    reg = metrics_registry.Registry(source="perfbench")
    graphs = set()
    done = []
    before = _tallies()
    seconds = 0.0
    with metrics_registry.attached(reg), spans.patched(spans.worker_side(rec)):
        for chunk_id in chunk_ids:
            start = time.perf_counter()
            results = run_chunk(workload, chunk_id, tiny=tiny)
            seconds += time.perf_counter() - start
            done.append((chunk_id, results))
    after = _tallies()
    for chunk_id, results in done:
        checker.executed(chunk_id, results)
        graphs.update((r["family"], r["n"], r["graph_seed"])
                      for result in results for r in result.records)
    return {
        "spans": rec.spans,
        "seconds": seconds,
        "snapshot": reg.snapshot(),
        "tallies": [b - a for a, b in zip(before, after)],
        "graphs": len(graphs),
        "chunks": done,
    }


def _worker_metrics(worker: dict, untraced: float) -> dict:
    """Per-layer metrics of one traced serial pass."""
    layer = spans.self_times(worker["spans"])
    snap = worker["snapshot"]
    (intern_hits, intern_misses, seq_hits, seq_misses, plan_hits,
     plan_misses) = worker["tallies"]
    segments = _series(snap, "sim.walk.segments")
    segment_edges = _series(snap, "sim.walk.segment_edges")
    build_s, build_calls = layer.get("graphs.build", (0.0, 0))
    preflight_s, preflight_calls = layer.get("explore.preflight", (0.0, 0))
    return {
        "graphs.build_s": build_s,
        "graphs.build_calls": build_calls,
        "explore.preflight_s": preflight_s,
        "explore.preflight_calls": preflight_calls,
        "explore.preflight_per_graph": preflight_calls / worker["graphs"],
        "explore.seq_cache.hit_ratio": _ratio(seq_hits, seq_misses),
        "explore.plan_cache.hit_ratio": _ratio(plan_hits, plan_misses),
        "core.run_self_s": layer.get("core.run", (0.0, 0))[0],
        "sim.run_s": layer.get("sim.run", (0.0, 0))[0],
        "sim.runs": _series(snap, "sim.runs"),
        "sim.events": _series(snap, "sim.events"),
        "sim.walk.segments": segments,
        "sim.walk.segment_edges": segment_edges,
        "sim.edges_per_segment": segment_edges / segments if segments else 0.0,
        "sim.plan_intern.hit_ratio": _ratio(intern_hits, intern_misses),
        "sim.watch.fires": _series(snap, "sim.watch.fires"),
        "sim.faults.injected": _series(snap, "sim.faults.injected"),
        "sim.edges.blocked": _series(snap, "sim.edges.blocked"),
        "runner.scenario_s": layer.get("runner.scenario", (0.0, 0))[0],
        "runner.trial_self_s": layer.get("runner.trial", (0.0, 0))[0],
        "runner.unattributed_s":
            worker["seconds"] - spans.root_seconds(worker["spans"]),
        "runner.sweep_s": worker["seconds"],
        "trace.overhead_frac": worker["seconds"] / untraced - 1.0,
    }


def traced_run(workload: Workload, seed: int, tiny: bool, work: pathlib.Path,
               checker: Checker, rounds: int) -> tuple[dict, dict]:
    """The per-layer metrics, plus notes for the report.

    Worker-side metrics come from the median (by wall time) of
    ``rounds`` traced serial passes, each right after the same pass
    untraced; one whole round keeps its layers summing to its wall
    time.
    """
    chunk_ids = workload.pass_for(seed)
    warm_up(workload)
    per_round = []
    for _ in range(rounds):
        start = time.perf_counter()
        for chunk_id in chunk_ids:
            checker.executed(chunk_id, run_chunk(workload, chunk_id,
                                                 tiny=tiny))
        untraced = time.perf_counter() - start
        worker = traced_serial_pass(workload, chunk_ids, checker, tiny)
        per_round.append(_worker_metrics(worker, untraced))
    per_round.sort(key=lambda r: r["runner.sweep_s"])
    metrics = per_round[len(per_round) // 2]

    # Parent-side layers, once: the pipelined backend's fan-out into a
    # fresh store (talking_sweep's timed sweep; the other workloads
    # run it here only, so the layer is measured on every workload),
    # then the store and the query.
    rec = spans.SpanRecorder()
    reg = metrics_registry.Registry(source="perfbench")
    with metrics_registry.attached(reg), spans.patched(spans.parent_side(rec)):
        store = ResultStore(work / "fanout")
        for chunk_id in chunk_ids:
            checker.executed(chunk_id, run_chunk(
                workload, chunk_id, tiny=tiny, backend="pipelined",
                workers=FANOUT_WORKERS, store=store))
        bench = StoreBench(workload, worker["chunks"][:workload.store_chunks],
                           work / "store", checker)
        bench.sample()
    parent = reg.snapshot()
    io = spans.self_times(rec.spans)
    metrics.update({
        "runner.backends.queue_wait_s": float(
            _series(parent, "runner.pipeline.queue_wait_seconds", "sum")),
        "runner.backends.batches": _series(parent, "runner.backend.batches"),
        "store.save_s": io.get("store.save", (0.0, 0))[0],
        "store.load_s": io.get("store.load", (0.0, 0))[0],
        "store.bytes.read": _series(parent, "store.bytes.read"),
        "store.shards.read": _series(parent, "store.shards.read"),
        "query.scan_s": io.get("query.scan", (0.0, 0))[0],
        "query.records": bench.records,
    })

    base = metrics["runner.sweep_s"]
    notes = {"traced pass": f"chunks {chunk_ids}, median of {rounds} "
                            f"rounds: {base:.3f} s"}
    shares = {name[:-2]: metrics[name]
              for name in SWEEP_LAYERS + ("runner.unattributed_s",)}
    for name, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        notes[f"  {name}"] = (f"{seconds:.4f} s = {100 * seconds / base:.1f}% "
                              f"of {base:.4f} s")
    return metrics, notes
