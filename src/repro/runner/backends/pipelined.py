"""The pipelined backend: graph-grouped batches, prefetched producer.

On scenario-matrix grids many trials share one graph — every
placement/wake/adversary combination of a ``(size, labels, seed)``
grid point runs on the *same* port labeling (the graph seed is derived
from the scenario-free key precisely so scenario comparisons never
conflate the adversary with graph variation).  The ``process`` backend
ships one trial per task, so each worker rebuilds that shared graph
once per trial; on graph-generation-heavy families (``random_regular``
rejection-samples entire pairings) the rebuild dominates wall-clock.

This backend pipelines instead:

* pending trials are grouped by graph identity ``(family, n,
  graph_seed)`` and cut into batches (``batch_size`` option, default
  8), each shipped as a single pool task;
* a producer thread prepares upcoming batch payloads into a bounded
  queue while the pool simulates — production overlaps execution
  instead of alternating with it;
* each worker builds a batch's graph once (:func:`repro.runner.worker
  .run_trial_batch`) and reuses it for every trial in the batch.

Records are byte-identical to the serial backend: graphs are pure
functions of the trial coordinates, and batching changes only *when*
work happens, never what it computes.  ``workers=1`` executes the same
batch plan in-process (no pool), which keeps the batching logic on the
tested serial path.
"""

from __future__ import annotations

import queue
import threading
import time as _time
from typing import Iterator

from ...explore.uxs import UXSProvider
from ...metrics import registry as _metrics_registry
from .. import worker as worker_mod
from ..spec import TrialSpec
from ..trial import execute_trial
from .base import BackendContext
from .process import pool_context

_DEFAULT_BATCH_SIZE = 8


def plan_batches(
    pending: list[TrialSpec], batch_size: int
) -> list[list[TrialSpec]]:
    """Group trials by graph identity, split into ``batch_size`` runs.

    Groups keep first-occurrence order (deterministic given the
    canonical grid order), so the batch plan — like everything else in
    the engine — is a pure function of the spec.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    groups: dict[tuple[str, int, int], list[TrialSpec]] = {}
    for trial in pending:
        key = (trial.family, trial.n, trial.graph_seed)
        groups.setdefault(key, []).append(trial)
    batches = []
    for group in groups.values():
        for start in range(0, len(group), batch_size):
            batches.append(group[start:start + batch_size])
    return batches


class PipelinedBackend:
    """Overlap batch production with pool simulation."""

    name = "pipelined"

    def execute(self, ctx: BackendContext) -> Iterator[dict]:
        batch_size = int(
            ctx.options.get("batch_size", _DEFAULT_BATCH_SIZE)
        )
        batches = plan_batches(ctx.pending, batch_size)
        if ctx.workers == 1:
            yield from self._execute_inline(ctx, batches)
        else:
            yield from self._execute_pool(ctx, batches)

    @staticmethod
    def _execute_inline(
        ctx: BackendContext, batches: list[list[TrialSpec]]
    ) -> Iterator[dict]:
        # Same batch plan, no pool: the graph of each batch is still
        # built exactly once, so the dedup win survives workers=1.
        reg = _metrics_registry.current()
        provider = UXSProvider(**ctx.provider_args)
        for batch in batches:
            if reg is not None:
                reg.counter(
                    "runner.backend.batches", backend="pipelined"
                ).value += 1
                reg.histogram("runner.backend.batch_size").observe(
                    len(batch)
                )
            graph = worker_mod.shared_graph(batch[0])
            for trial in batch:
                result = execute_trial(trial, provider=provider, graph=graph)
                if reg is not None:
                    reg.counter(
                        "runner.backend.records", backend="pipelined"
                    ).value += 1
                yield result.record()

    @staticmethod
    def _execute_pool(
        ctx: BackendContext, batches: list[list[TrialSpec]]
    ) -> Iterator[dict]:
        # The producer serializes upcoming batches into a bounded
        # queue; the pool's task feeder drains it concurrently with
        # result consumption, so payload preparation overlaps
        # simulation instead of preceding it.
        reg = _metrics_registry.current()
        prefetch = int(ctx.options.get("prefetch", 2 * ctx.workers))
        feed: queue.Queue = queue.Queue(maxsize=max(1, prefetch))
        stop = threading.Event()
        _SENTINEL = None

        def put_guarded(item) -> bool:
            # Never block forever: if the consumer abandoned the
            # generator (an error mid-iteration, KeyboardInterrupt),
            # nothing drains the queue and a plain put() would strand
            # this thread — and its payloads — for the process's life.
            while not stop.is_set():
                try:
                    feed.put(item, timeout=0.1)
                    return True
                except queue.Full:
                    continue
            return False

        def put_timed(item) -> bool:
            # Time spent blocked on a full queue is backpressure: the
            # pool is saturated and prefetching is ahead of it.
            start = _time.perf_counter()
            ok = put_guarded(item)
            reg.histogram("runner.pipeline.queue_wait_seconds").observe(
                _time.perf_counter() - start
            )
            return ok

        put = put_guarded if reg is None else put_timed

        def produce() -> None:
            for batch in batches:
                if reg is not None:
                    reg.counter(
                        "runner.backend.batches", backend="pipelined"
                    ).value += 1
                    reg.histogram("runner.backend.batch_size").observe(
                        len(batch)
                    )
                if not put({"trials": [t.to_dict() for t in batch]}):
                    return
            put_guarded(_SENTINEL)

        def payloads() -> Iterator[dict]:
            while True:
                item = feed.get()
                if item is _SENTINEL:
                    return
                yield item

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        try:
            mp = pool_context()
            with mp.Pool(
                processes=ctx.workers,
                initializer=worker_mod.init_worker,
                initargs=(ctx.provider_args, ctx.prewarm, reg is not None),
            ) as pool:
                for records in pool.imap_unordered(
                    worker_mod.run_trial_batch, payloads(), chunksize=1
                ):
                    if reg is not None and isinstance(records, dict):
                        # Cumulative worker snapshot: replace-per-worker
                        # fold (see Registry.absorb), then unwrap.
                        envelope = records["__metrics__"]
                        reg.absorb(
                            envelope["worker"], envelope["snapshot"]
                        )
                        records = records["records"]
                        reg.counter(
                            "runner.backend.records", backend="pipelined"
                        ).value += len(records)
                    yield from records
        finally:
            stop.set()
            producer.join()
