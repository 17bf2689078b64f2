"""Experiment E5 + ablations: the building-block procedures.

* E5 — TZ rendezvous: two agents with distinct labels meet within our
  explicit bound P(N, i), across graphs, labels and start offsets.
* A1 — event-compression ablation: the simulated-rounds /
  scheduler-events ratio that makes the doubly-exponential algorithm
  executable.
* A2 — raw scheduler throughput (events per second).
"""

from __future__ import annotations

import time

from common import publish

from repro.analysis import ResultTable
from repro.core.labels import transformed_label
from repro.core.parameters import KnownBoundParameters
from repro.explore.tz import tz
from repro.explore.uxs import UXSProvider
from repro.graphs import family_for_size, ring, single_edge
from repro.sim import AgentSpec, Simulation, WatchTriggered
from repro.sim.agent import move, wait


def _tz_meeting(graph, n_bound, label_a, label_b, offset, provider):
    params = KnownBoundParameters(n_bound, provider)
    phase = max(
        len(transformed_label(label_a)), len(transformed_label(label_b))
    )
    duration = params.d(phase)

    def make(label, delay):
        def program(ctx):
            if delay:
                yield from wait(ctx, delay)
            try:
                yield from tz(
                    ctx, provider, n_bound,
                    transformed_label(label), duration, watch=("gt", 1),
                )
            except WatchTriggered as trig:
                return trig.observation.round
            return None

        return program

    sim = Simulation(
        graph,
        [
            AgentSpec(1, 0, make(label_a, 0)),
            AgentSpec(2, graph.n - 1, make(label_b, offset)),
        ],
    )
    result = sim.run()
    met = [o.payload for o in result.outcomes if o.payload is not None]
    return (min(met) if met else None), params.p_bound(phase) + offset


def test_e5_tz_meeting_times(benchmark):
    provider = UXSProvider()
    table = ResultTable(
        "E5: TZ rendezvous (meeting round vs bound P)",
        ["graph", "n", "labels", "offset", "met at", "bound P"],
    )

    def workload():
        rows = []
        for n in (3, 4, 5):
            offset_half = provider.length(n)
            for labels in ((1, 2), (3, 5), (2, 9)):
                for offset in (0, offset_half):
                    for name, graph in family_for_size(n, seed=1):
                        met, bound = _tz_meeting(
                            graph, n, labels[0], labels[1], offset, provider
                        )
                        assert met is not None, (name, n, labels, offset)
                        assert met <= bound
                        rows.append(
                            (name, n, str(labels), offset, met, bound)
                        )
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    # Publish a digest (full matrix is large): worst case per n.
    digest: dict[int, tuple] = {}
    for row in rows:
        n = row[1]
        if n not in digest or row[4] > digest[n][4]:
            digest[n] = row
    for row in digest.values():
        table.add_row(*row)
    publish(
        "e5_tz_meetings",
        table,
        f"({len(rows)} graph x label x offset cases, all met within P)",
    )


def test_a1_event_compression(benchmark):
    """Simulated rounds per scheduler event across workloads."""
    table = ResultTable(
        "A1: event compression (simulated rounds / scheduler events)",
        ["workload", "rounds", "events", "compression"],
    )

    def workload():
        from repro.core import run_gather_known, run_gather_unknown

        rows = []
        r1 = run_gather_known(ring(6, seed=1), [1, 2], 6)
        rows.append(
            ("known bound, ring(6)", r1.round, r1.events,
             f"{r1.round // max(1, r1.events)}x")
        )
        r2 = run_gather_unknown(single_edge(), [2, 3])
        rows.append(
            ("unknown bound, 2-node", r2.round, r2.events,
             f"10^{len(str(r2.round // max(1, r2.events))) - 1}x")
        )
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    for row in rows:
        table.add_row(*row)
    publish("a1_event_compression", table)


def test_a2_scheduler_throughput(benchmark):
    """Raw event rate of the simulator core."""

    def spin():
        moves = 200_000

        def program(ctx):
            for _ in range(moves):
                yield from move(ctx, 0)
            return None

        sim = Simulation(single_edge(), [AgentSpec(1, 0, program)])
        start = time.perf_counter()
        result = sim.run()
        elapsed = time.perf_counter() - start
        return result.events, elapsed

    events, elapsed = benchmark.pedantic(spin, rounds=1, iterations=1)
    table = ResultTable(
        "A2: scheduler throughput",
        ["events", "seconds", "events/sec"],
    )
    table.add_row(events, f"{elapsed:.3f}", int(events / elapsed))
    publish("a2_scheduler_throughput", table)
    assert events / elapsed > 20_000, "simulator became pathologically slow"
