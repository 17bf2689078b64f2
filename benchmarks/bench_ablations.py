"""Ablations of our design choices.

* AB1 — exploration-sequence length: gathering time is linear in
  T(EXPLO(N)), so certified-short sequences are the single biggest
  lever on simulated rounds.
* AB2 — adversary wake-up spread: the algorithm re-synchronises, so
  the declaration round must shift by at most the spread itself plus
  one phase.
* AB3 — TZ bound tightness: the measured meeting round against our
  P(N, i) (how much slack the proofs buy).
* AB4 — randomized-silent extension: what knowing only the team size
  buys, and how it degrades with k.
"""

from __future__ import annotations

from common import publish

from repro.analysis import ResultTable
from repro.core import run_gather_known
from repro.core.labels import transformed_label
from repro.core.parameters import KnownBoundParameters
from repro.explore.uxs import UXSProvider
from repro.extensions import run_randomized_silent_gather
from repro.graphs import ring


def test_ab1_uxs_length(benchmark):
    table = ResultTable(
        "AB1: exploration-sequence length vs gathering time (ring(5))",
        ["L(5)", "T(EXPLO)", "round", "moves"],
    )

    def workload():
        rows = []
        for length in (39, 60, 120, 240):
            provider = UXSProvider(lengths={5: length})
            provider.verify_for_graph(5, ring(5, seed=1))
            report = run_gather_known(
                ring(5, seed=1), [1, 2], 5, provider=provider
            )
            rows.append(
                (length, 2 * length, report.round, report.total_moves)
            )
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    for row in rows:
        table.add_row(*row)
    # Rounds scale linearly with the sequence length.
    first, last = rows[0], rows[-1]
    ratio = (last[2] / first[2]) / (last[0] / first[0])
    publish(
        "ab1_uxs_length",
        table,
        f"round-vs-length proportionality ratio: {ratio:.2f} (1.0 = linear)",
    )
    assert 0.5 <= ratio <= 2.0


def test_ab2_wake_spread(benchmark):
    table = ResultTable(
        "AB2: adversary wake-up spread (ring(4), labels 1, 2)",
        ["spread", "round", "shift vs spread 0"],
    )

    def workload():
        rows = []
        base = run_gather_known(ring(4, seed=1), [1, 2], 4).round
        for spread in (0, 7, 31, 200, 1000):
            report = run_gather_known(
                ring(4, seed=1), [1, 2], 4, wake_rounds=[0, spread]
            )
            rows.append((spread, report.round, report.round - base))
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    params = KnownBoundParameters(4)
    for row in rows:
        table.add_row(*row)
        # The shift is bounded by the spread plus one phase quantum.
        assert abs(row[2]) <= row[0] + params.phase_duration_bound(8)
    publish("ab2_wake_spread", table)


def test_ab3_tz_bound_slack(benchmark):
    from repro.explore.tz import tz
    from repro.sim import AgentSpec, Simulation, WatchTriggered
    from repro.sim.agent import wait

    provider = UXSProvider()
    table = ResultTable(
        "AB3: TZ meeting round vs proven bound P (ring(4))",
        ["labels", "met at", "P bound", "slack factor"],
    )

    def run_pair(a, b):
        params = KnownBoundParameters(4, provider)
        phase = max(len(transformed_label(a)), len(transformed_label(b)))
        duration = params.d(phase)

        def make(lab):
            def program(ctx):
                try:
                    yield from tz(
                        ctx, provider, 4, transformed_label(lab),
                        duration, watch=("gt", 1),
                    )
                except WatchTriggered as trig:
                    return trig.observation.round
                return None

            return program

        sim = Simulation(
            ring(4, seed=1),
            [AgentSpec(1, 0, make(a)), AgentSpec(2, 3, make(b))],
        )
        result = sim.run()
        met = min(
            o.payload for o in result.outcomes if o.payload is not None
        )
        return met, params.p_bound(phase)

    def workload():
        rows = []
        for a, b in ((1, 2), (3, 5), (7, 8), (11, 13)):
            met, bound = run_pair(a, b)
            rows.append(((a, b), met, bound, bound / met))
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    for (a, b), met, bound, slack in rows:
        table.add_row(f"({a},{b})", met, bound, f"{slack:.1f}x")
        assert met <= bound
    publish("ab3_tz_slack", table)


def test_ab4_randomized_extension(benchmark):
    table = ResultTable(
        "AB4: randomized silent gathering (knows only k; mean of 10 seeds)",
        ["graph", "k", "mean round", "deterministic (paper)"],
    )

    def workload():
        rows = []
        for k in (2, 3, 4):
            labels = list(range(1, k + 1))
            runs = [
                run_randomized_silent_gather(
                    ring(5, seed=1), labels, seed=s
                ).round
                for s in range(10)
            ]
            mean = sum(runs) / len(runs)
            det = run_gather_known(ring(5, seed=1), labels, 5).round
            rows.append(("ring(5)", k, round(mean, 1), det))
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    for row in rows:
        table.add_row(*row)
    publish(
        "ab4_randomized_extension",
        table,
        "randomization + known k is far faster on small instances, but "
        "offers no deterministic guarantee and needs the team size - "
        "the knowledge the paper's algorithms do without",
    )
