"""Paced walks: one ``paced`` op for "per port, wait then move".

``GatherUnknownUpperBound`` walks its balls and unwinds its hypotheses
behind a slowdown wait before every edge; :func:`paced_walk` issues
that alternation as one op and the scheduler runs it without
re-entering the program.  The reference oracle cannot run the
algorithm's astronomically large clocks, so the algorithm is pinned
here against itself: the same runs with ``paced_walk`` expanded back
into literal ``wait`` + ``move`` calls must give an identical
:class:`SimulationResult`, outcomes, ``move_log`` and typed event
stream.  The seeded paced family in ``tests/test_differential.py``
pins the op against the reference on small clocks.
"""

from __future__ import annotations

import pytest

from repro.core import gather_unknown as gu
from repro.core.runs import prepare_gather_unknown
from repro.events.processors import ListProcessor
from repro.events.stream import EventDispatcher
from repro.events.types import to_payload
from repro.graphs import path_graph, single_edge
from repro.sim import AgentSpec, Simulation, SimulationError
from repro.sim.adversary import simultaneous, staggered
from repro.sim.agent import move, paced_walk, wait
from repro.sim.reference import ReferenceSimulation


def literal_paced_walk(
    ctx, ports, delay, stop_degree=None, stop_before_invalid=False
):
    """:func:`paced_walk` as the literal per-edge program."""
    trace = []
    for port in ports:
        degree = ctx.degree()
        if stop_degree is not None and degree >= stop_degree:
            break
        if stop_before_invalid and not 0 <= port < degree:
            break
        yield from wait(ctx, delay)
        obs = yield from move(ctx, port)
        trace.append((obs.round, obs.degree, obs.entry_port, obs.curcard))
    return trace


def run_unknown(labels, wakes, faults=None, horizon=None):
    """One traced gather_unknown run on the edge: result, log, events."""
    prepared = prepare_gather_unknown(
        single_edge(), list(labels), wake_rounds=list(wakes),
        faults=faults, horizon=horizon,
    )
    sim = prepared.simulation
    sim.trace = True
    events = ListProcessor()
    sim.attach_events(EventDispatcher([events]))
    return sim.run(), sim.move_log, [to_payload(e) for e in events.events]


def assert_same_run(paced, literal):
    (res, log, events), (exp, exp_log, exp_events) = paced, literal
    assert res.events == exp.events
    assert res.final_round == exp.final_round
    assert res.total_moves == exp.total_moves
    assert res.crashed_labels == exp.crashed_labels
    assert res.timed_out == exp.timed_out
    for out, ref in zip(res.outcomes, exp.outcomes, strict=True):
        assert (
            out.label, out.start_node, out.wake_round, out.finish_round,
            out.finish_node, repr(out.payload), out.declared, out.crashed,
            out.moves,
        ) == (
            ref.label, ref.start_node, ref.wake_round, ref.finish_round,
            ref.finish_node, repr(ref.payload), ref.declared, ref.crashed,
            ref.moves,
        )
    assert log == exp_log
    assert events == exp_events


def run_paced_and_literal(monkeypatch, *args, **kwargs):
    paced = run_unknown(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(gu, "paced_walk", literal_paced_walk)
        literal = run_unknown(*args, **kwargs)
    return paced, literal


class TestGatherUnknownEquivalence:
    @pytest.mark.parametrize("labels", [(1, 2), (2, 3), (1, 3)])
    @pytest.mark.parametrize(
        "wakes", [simultaneous(2), staggered(2, 5)],
        ids=["simultaneous", "staggered:5"],
    )
    def test_paced_matches_literal(self, monkeypatch, labels, wakes):
        paced, literal = run_paced_and_literal(monkeypatch, labels, wakes)
        assert paced[0].gathered()
        assert_same_run(paced, literal)

    @pytest.mark.parametrize(
        "offset", [-1, 0, 1], ids=["mid-wait", "move-round", "arrival"]
    )
    def test_crash_mid_walk_with_horizon(self, monkeypatch, offset):
        """Label 3 crashes inside one of its slowed walks (a round
        before one of its moves, at the move round or at the arrival);
        the survivor runs on until the horizon."""
        _res, log, _events = run_unknown((1, 3), simultaneous(2))
        rounds = [rnd for rnd, idx, _src, _dst in log if idx == 1]
        # Moves after a slowdown wait are edges of paced walks.
        paced = [r for prev, r in zip(rounds, rounds[1:]) if r - prev > 10**6]
        crash = paced[len(paced) // 2] + offset
        paced_run, literal = run_paced_and_literal(
            monkeypatch, (1, 3), simultaneous(2),
            faults=[(3, crash)], horizon=2 * crash,
        )
        assert paced_run[0].crashed_labels == (3,)
        assert paced_run[0].timed_out
        assert_same_run(paced_run, literal)

    def test_one_resume_per_walk(self):
        """The point of the op: the slowed walks no longer resume the
        program per edge, while ``events`` still counts both resumes
        of every literal wait + move pair."""
        prepared = prepare_gather_unknown(single_edge(), [1, 3])
        sim = prepared.simulation
        resumes = []
        resume = sim._resume

        def counting(idx, round_):
            resumes.append(round_)
            return resume(idx, round_)

        sim._resume = counting
        result = sim.run()
        assert result.events == 9544
        assert len(resumes) < result.events // 20


def _run(graph, program, sim_cls=Simulation):
    return sim_cls(graph, [AgentSpec(1, 0, program, 0)], trace=True).run()


class TestPacedWalkHelper:
    def test_records_every_arrival(self):
        def program(ctx):
            trace = yield from paced_walk(ctx, (0, 1, 0), 3)
            return trace

        res = _run(path_graph(3), program)
        assert res.outcomes[0].payload == [
            (4, 2, 0, 1), (8, 1, 0, 1), (12, 2, 1, 1),
        ]
        # Two events per edge (wait end, arrival) plus the first resume.
        assert res.events == 1 + 2 * 3

    @pytest.mark.parametrize("sim_cls", [Simulation, ReferenceSimulation])
    def test_stops_before_wait(self, sim_cls):
        def program(ctx):
            # path3: node 0 has degree 1, node 1 degree 2.
            at_start = yield from paced_walk(ctx, (0,), 2, stop_degree=1)
            by_degree = yield from paced_walk(
                ctx, (0, 1, 0), 2, stop_degree=2
            )
            by_port = yield from paced_walk(
                ctx, (1, 1), 2, stop_before_invalid=True
            )
            return len(at_start), len(by_degree), len(by_port), ctx.obs.round

        res = _run(path_graph(3), program, sim_cls=sim_cls)
        assert res.outcomes[0].payload == (0, 1, 1, 6)

    def test_logs_entries(self):
        def program(ctx):
            ctx.record_entries()
            yield from paced_walk(ctx, (0, 1), 1)
            return ctx.stop_recording_entries()

        assert _run(path_graph(3), program).outcomes[0].payload == [0, 0]

    @pytest.mark.parametrize("sim_cls", [Simulation, ReferenceSimulation])
    def test_invalid_port_rejected_at_move_round(self, sim_cls):
        def program(ctx):
            yield from paced_walk(ctx, (0, 5), 4)

        with pytest.raises(SimulationError, match="invalid port 5"):
            _run(path_graph(3), program, sim_cls=sim_cls)

    @pytest.mark.parametrize("sim_cls", [Simulation, ReferenceSimulation])
    def test_zero_delay_rejected(self, sim_cls):
        def program(ctx):
            yield from paced_walk(ctx, (0,), 0)

        with pytest.raises(SimulationError, match="delay >= 1"):
            _run(path_graph(3), program, sim_cls=sim_cls)
