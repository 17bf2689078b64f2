"""Pool-worker side of the experiment engine.

A worker process builds its :class:`UXSProvider` exactly once, in the
pool initializer, and pre-warms it for every size bound the grid will
need.  Exploration sequences are pure functions of ``(N, seed,
factor)``, so each worker rebuilds them cheaply and *identically* —
nothing graph-sized ever crosses the process boundary, and no trial
re-derives a sequence (``tests/test_runner.py`` asserts both).

Only plain dicts travel through the pool: :func:`run_trial_payload`
takes a ``TrialSpec`` dict and returns a record dict, which keeps the
pickled task tiny and version-skew-proof.  The pipelined backend ships
*batches* of trials sharing one graph instead
(:func:`run_trial_batch`); the worker builds that graph once — graphs
are pure functions of ``(family, n, graph_seed)``, so this is a pure
wall-clock optimization with byte-identical records.
"""

from __future__ import annotations

import os

from ..explore.uxs import UXSProvider
from ..metrics import registry as _metrics_registry
from ..graphs.port_graph import PortGraph
from .spec import TrialSpec
from .trial import _build_graph, execute_trial

# Process-global state, set once per worker by :func:`init_worker`.
_PROVIDER: UXSProvider | None = None
_INIT_COUNT = 0  # instrumentation for the reuse property tests

# Most-recent graphs, keyed by (family, n, graph_seed).  Batches
# arrive grouped by graph, so a tiny cache already removes all
# redundant construction; the cap only guards against pathological
# interleavings keeping graph-sized objects alive.
_GRAPH_CACHE: dict[tuple[str, int, int], PortGraph] = {}
_GRAPH_CACHE_CAP = 4


def init_worker(
    provider_args: dict,
    prewarm_sizes: tuple[int, ...],
    enable_metrics: bool = False,
) -> None:
    """Pool initializer: build and pre-warm the per-process provider.

    ``enable_metrics`` attaches a process-local metrics registry (the
    parent's registry is not inherited across the pool boundary); task
    results then carry the worker's *cumulative* snapshot back for the
    parent to fold in with replace-per-worker semantics.
    """
    global _PROVIDER, _INIT_COUNT
    if enable_metrics:
        # Always a fresh registry: under the fork start method the
        # child inherits the parent's attached registry (same source,
        # pre-fork counts), which would alias every worker onto one
        # absorb key and double-count the parent's own series.  The
        # collector tallies are module globals the fork copied too, so
        # zero them — this worker reports its own totals only.
        from ..explore import uxs as _uxs
        from ..sim import agent as _agent

        _agent.reset_intern_stats()
        _uxs.reset_cache_stats()
        _metrics_registry.attach(
            _metrics_registry.Registry(source=f"pool-worker-{os.getpid()}")
        )
    _PROVIDER = UXSProvider(**provider_args)
    _INIT_COUNT += 1
    for n in prewarm_sizes:
        _PROVIDER.sequence(n)


def _metrics_envelope() -> dict | None:
    """The attached registry's cumulative snapshot, or ``None``."""
    reg = _metrics_registry.current()
    if reg is None:
        return None
    return {"worker": reg.source, "snapshot": reg.snapshot()}


def current_provider() -> UXSProvider | None:
    """The worker's provider (``None`` before :func:`init_worker`)."""
    return _PROVIDER


def shared_graph(trial: TrialSpec) -> PortGraph | None:
    """Build (or fetch) the trial's graph for batch-mates to share.

    Returns ``None`` when construction fails — the per-trial execution
    path then rebuilds and captures the identical error, so a batch of
    infeasible trials records exactly what the serial path records.
    """
    key = (trial.family, trial.n, trial.graph_seed)
    if key in _GRAPH_CACHE:
        return _GRAPH_CACHE[key]
    try:
        graph = _build_graph(trial)
    except Exception:
        return None
    if len(_GRAPH_CACHE) >= _GRAPH_CACHE_CAP:
        _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
    _GRAPH_CACHE[key] = graph
    return graph


def _safe_record(trial: TrialSpec, graph: PortGraph | None = None) -> dict:
    """The trial's record; never raises.

    :func:`repro.runner.trial.execute_trial` captures simulation
    failures, and this wrapper catches even record-building errors so
    a worker cannot poison the pool.
    """
    try:
        return execute_trial(trial, provider=_PROVIDER, graph=graph).record()
    except Exception as exc:  # pragma: no cover - defense in depth
        record = trial.to_dict()
        record["ok"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["metrics"] = {}
        return record


def run_trial_payload(payload: dict) -> dict:
    """Execute one trial dict and return its record dict; never raises."""
    record = _safe_record(TrialSpec.from_dict(payload))
    envelope = _metrics_envelope()
    if envelope is None:
        return record
    # Metrics-enabled pool: wrap the record with the worker's running
    # snapshot.  The default path returns the bare record dict, so the
    # pool protocol is unchanged when metrics are off.
    return {"__metrics__": envelope, "record": record}


def run_trial_batch(payload: dict) -> list[dict] | dict:
    """Execute a batch of trial dicts sharing one graph; never raises.

    With a worker-local metrics registry attached (``init_worker``'s
    ``enable_metrics``), the record list is wrapped as
    ``{"__metrics__": ..., "records": [...]}``; the bare list is
    returned otherwise, keeping the default pool protocol unchanged.

    The pipelined backend groups trials by ``(family, n, graph_seed)``
    and ships each group as one task, so the graph is built once per
    batch instead of once per trial (and its route cache is shared by
    every trial of the batch).  Records are byte-identical to the
    per-trial path: the shared graph is the same pure function of the
    trial coordinates the serial path computes.
    """
    records = _run_trial_batch_records(payload)
    envelope = _metrics_envelope()
    if envelope is None:
        return records
    return {"__metrics__": envelope, "records": records}


def _run_trial_batch_records(payload: dict) -> list[dict]:
    trials = [TrialSpec.from_dict(p) for p in payload["trials"]]
    graph = shared_graph(trials[0]) if trials else None
    return [_safe_record(trial, graph) for trial in trials]
