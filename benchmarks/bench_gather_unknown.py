"""Experiments E6/E7: GatherUnknownUpperBound (Theorem 4.1).

* E6 — feasibility: the zero-knowledge algorithm gathers, elects the
  smallest label and learns the graph size, executed literally on
  2-node networks (the feasibility envelope).
* E7 — the hypothesis schedule grows (doubly) exponentially: measured
  declaration clocks against the closed-form T_h, and the size-3 wall.
"""

from __future__ import annotations

from common import publish

from repro.analysis import ResultTable, format_big
from repro.core import (
    DovetailOmega,
    TwoNodeDenseOmega,
    UnknownBoundSchedule,
    run_gather_unknown,
)
from repro.graphs import single_edge


def test_e6_feasibility(benchmark):
    table = ResultTable(
        "E6: zero-knowledge gathering on the 2-node network",
        ["labels", "omega", "hypothesis", "round", "events", "leader", "size"],
    )

    def workload():
        cases = [
            ([1, 2], "dovetail", None, {}),
            ([1, 3], "dovetail", None, {}),
            ([2, 3], "dovetail", None, {}),
            ([4, 9], "2-node-dense", TwoNodeDenseOmega(), {}),
            ([5, 7], "2-node-dense", TwoNodeDenseOmega(), {}),
            # Adversarial wake-up: the partner sleeps until visited.
            ([1, 2], "dovetail+dormant", None, {"wake_rounds": [0, None]}),
        ]
        rows = []
        for labels, desc, omega, kwargs in cases:
            r = run_gather_unknown(
                single_edge(), labels, omega=omega, **kwargs
            )
            assert r.leader == min(labels)
            assert r.size == 2
            rows.append(
                (str(labels), desc, r.hypothesis, r.round,
                 r.events, r.leader, r.size)
            )
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    for row in rows:
        table.add_row(*row)
    publish("e6_unknown_feasibility", table)


def test_e7_schedule_growth(benchmark):
    sched = UnknownBoundSchedule(DovetailOmega())
    table = ResultTable(
        "E7: the doubly-exponential hypothesis schedule",
        ["h", "n_h", "S_h", "T_h", "T_{h+1}/T_h"],
    )

    def workload():
        rows = []
        for h in range(1, 6):
            ratio = sched.t_hyp(h + 1) // sched.t_hyp(h)
            rows.append(
                (h, sched.n(h), sched.s(h), sched.t_hyp(h), ratio)
            )
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    for row in rows:
        table.add_row(*row)
        # Exponential: each hypothesis costs at least 10**60 times the
        # previous one on the 2-node prefix.
        assert row[4] > 10**60
    wall = (
        "size-3 wall: one BallTraversal(h) at n_h = 3 enumerates "
        f"{format_big(2 ** sched.ball_length(6))}+ paths; "
        "EnsureCleanExploration adds "
        f"{format_big(2 ** (3**5 + 1))} more - execution is physically "
        "impossible, exactly as the paper's exponential bound predicts."
    )
    publish("e7_schedule_growth", table, wall)


def test_e7b_measured_vs_schedule(benchmark):
    """Measured declaration clock straddles the schedule prefix."""
    table = ResultTable(
        "E7b: measured declaration round vs closed-form schedule",
        ["labels", "hypothesis h*", "sum T_1..T_{h*-1}", "declared at"],
    )

    def workload():
        sched = UnknownBoundSchedule(DovetailOmega())
        rows = []
        for labels in ([1, 2], [1, 3], [2, 3]):
            r = run_gather_unknown(single_edge(), labels)
            prefix = sched.start_round_bound(r.hypothesis)
            assert prefix <= r.round
            rows.append((str(labels), r.hypothesis, prefix, r.round))
        return rows

    rows = benchmark.pedantic(workload, rounds=1, iterations=1)
    for row in rows:
        table.add_row(*row)
    publish("e7b_measured_vs_schedule", table)
