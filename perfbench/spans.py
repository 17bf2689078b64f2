"""Layer spans recorded from outside the program, for traced passes only.

:class:`SpanRecorder` wraps public functions of the program so that
each call records a span ``(name, start, end, parent)``; :func:`patched`
installs such wrappers for the duration of one pass and restores the
originals afterwards, so untraced passes run the program untouched.
A name is patched where it is *looked up*: the serial backend imported
``execute_trial`` by name, so the wrapper goes on
``repro.runner.backends.serial.execute_trial``, not on
``repro.runner.trial``.

A span's self time is its duration minus the durations of its direct
children.  Spans of one thread nest, so the self times of all spans
sum to the durations of the root spans, and a pass's wall time minus
that sum is what no span explains (``runner.unattributed_s``).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.explore import uxs
from repro.runner import query, store, trial
from repro.runner.backends import serial
from repro.sim import scheduler

# Front-ends that runner.trial calls by their imported names: the
# core.runs and baselines entry points (run_* validate a report;
# prepare_* serve faulted trials, which read the raw result instead).
_FRONT_ENDS = (
    "run_gather_known",
    "run_gather_unknown",
    "run_gossip_known",
    "run_gossip_unknown",
    "run_talking_gather",
    "run_random_walk_gather",
    "prepare_gather_known",
    "prepare_gather_unknown",
)


class SpanRecorder:
    """In-memory spans of the thread that created the recorder.

    Calls from other threads (the pipelined backend's producer) pass
    through unrecorded, so the spans of one recorder always nest.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with each call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator; each ``next`` is one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(name, iter(fn(*args, **kwargs)))

        return traced

    def _iterate(self, name: str, items: Iterator) -> Iterator:
        while True:
            index = self._open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """``{name: (summed self seconds, calls)}`` over complete spans."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - child[i], calls + 1)
    return out


def root_seconds(spans: list[list]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(
        end - start for _name, start, end, parent in spans if parent < 0
    )


@contextmanager
def patched(patches: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``container.attr = wrapper`` (or ``container[attr]``) for a
    block and restore every original on exit."""
    saved = []
    try:
        for container, attr, wrapper in patches:
            if isinstance(container, dict):
                saved.append((container, attr, container[attr]))
                container[attr] = wrapper
            else:
                saved.append((container, attr, container.__dict__[attr]))
                setattr(container, attr, wrapper)
        yield
    finally:
        for container, attr, original in reversed(saved):
            if isinstance(container, dict):
                container[attr] = original
            else:
                setattr(container, attr, original)


def worker_side(rec: SpanRecorder) -> list[tuple[object, str, Callable]]:
    """Wrappers for the layers a trial runs through (serial backend)."""
    patches: list[tuple[object, str, Callable]] = [
        (serial, "execute_trial",
         rec.wrap("runner.trial", serial.execute_trial)),
        (trial, "resolve_scenario",
         rec.wrap("runner.scenario", trial.resolve_scenario)),
        (uxs.UXSProvider, "verify_for_graph",
         rec.wrap("explore.preflight", uxs.UXSProvider.verify_for_graph)),
        (scheduler.Simulation, "run",
         rec.wrap("sim.run", scheduler.Simulation.run)),
    ]
    patches += [
        (trial, name, rec.wrap("core.run", getattr(trial, name)))
        for name in _FRONT_ENDS
        if hasattr(trial, name)
    ]
    patches += [
        (trial.FAMILIES, family, rec.wrap("graphs.build", build))
        for family, build in trial.FAMILIES.items()
    ]
    return patches


def parent_side(rec: SpanRecorder) -> list[tuple[object, str, Callable]]:
    """Wrappers for the layers the sweep's own process runs: the store
    and the query (reads through ``iter_records`` count as loads)."""
    rs = store.ResultStore
    return [
        (rs, "save", rec.wrap("store.save", rs.save)),
        (rs, "load", rec.wrap("store.load", rs.load)),
        (rs, "iter_records", rec.wrap_iter("store.load", rs.iter_records)),
        (query, "aggregate", rec.wrap("query.scan", query.aggregate)),
    ]
