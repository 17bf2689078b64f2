"""Direct tests of GatherUnknownUpperBound's subroutines.

The end-to-end runs in ``test_gather_unknown.py`` exercise everything
together; here each routine of Algorithms 6-11 is driven in isolation
on crafted scenarios, including the exact-duration property of a
failed hypothesis (Lemma 4.5) — the linchpin of the synchronization
argument.
"""

from __future__ import annotations

import pytest

from repro.core.configurations import DovetailOmega
from repro.core.gather_unknown import (
    ball_traversal,
    ensure_clean_exploration,
    hypothesis,
    move_to_central,
    star_check,
)
from repro.core.unknown_parameters import UnknownBoundSchedule
from repro.graphs import path_graph, single_edge, star_graph
from repro.sim import AgentSpec, Simulation
from repro.sim.agent import move, wait


@pytest.fixture()
def sched(provider):
    return UnknownBoundSchedule(DovetailOmega(), provider)


def run_agents(graph, programs_with_starts, max_events=5_000_000):
    """Run labelled programs; returns {label: payload}."""
    specs = [
        AgentSpec(label, start, program, wake_round=wake)
        for label, start, program, wake in programs_with_starts
    ]
    sim = Simulation(graph, specs, max_events=max_events)
    result = sim.run()
    return {
        out.label: out.payload for out in result.outcomes
    }


class TestBallTraversal:
    def test_succeeds_on_two_node_graph(self, sched):
        def program(ctx):
            ok = yield from ball_traversal(ctx, sched, 1)
            return (ok, ctx.obs.round)

        def sleeper(ctx):
            yield from wait(ctx, 10**30)
            return None

        payloads = run_agents(
            single_edge(),
            [(1, 0, program, 0), (2, 1, sleeper, 0)],
        )
        ok, _round = payloads[1]
        assert ok is True

    def test_returns_to_start(self, sched):
        def program(ctx):
            ctx.record_entries()
            ok = yield from ball_traversal(ctx, sched, 1)
            entries = ctx.stop_recording_entries()
            return (ok, len(entries))

        def sleeper(ctx):
            yield from wait(ctx, 10**30)
            return None

        payloads = run_agents(
            single_edge(),
            [(1, 0, program, 0), (2, 1, sleeper, 0)],
        )
        ok, moves = payloads[1]
        assert ok and moves == 2 * sched.ball_length(1)

    def test_aborts_on_high_degree(self, sched):
        """A node of degree >= n_h proves the hypothesis wrong."""

        def program(ctx):
            ok = yield from ball_traversal(ctx, sched, 1)
            return ok

        def sleeper(ctx):
            yield from wait(ctx, 10**30)
            return None

        # Star centre has degree 3 >= n_1 = 2: the walker starting at
        # a leaf reaches it on its first step and must bail out.
        payloads = run_agents(
            star_graph(4),
            [(1, 1, program, 0), (2, 2, sleeper, 0)],
        )
        assert payloads[1] is False

    @pytest.mark.parametrize("start,other", [(0, 2), (1, 0)],
                             ids=["reached", "start"])
    def test_aborts_on_degree_equal_to_n_h(self, sched, start, other):
        """The path's middle node has degree exactly n_1 = 2: reaching
        it, or starting on it, ends the traversal too."""

        def program(ctx):
            ok = yield from ball_traversal(ctx, sched, 1)
            return ok

        def sleeper(ctx):
            yield from wait(ctx, 10**30)
            return None

        payloads = run_agents(
            path_graph(3),
            [(1, start, program, 0), (2, other, sleeper, 0)],
        )
        assert payloads[1] is False


class TestMoveToCentralNode:
    def test_label_not_in_configuration(self, sched):
        # phi_1 has labels {1, 2}; agent 9 must give up immediately.
        def program(ctx):
            ok = yield from move_to_central(ctx, sched, 1)
            return (ok, ctx.obs.round)

        def sleeper(ctx):
            yield from wait(ctx, 10**30)
            return None

        payloads = run_agents(
            single_edge(),
            [(9, 0, program, 0), (2, 1, sleeper, 0)],
        )
        ok, round_ = payloads[9]
        assert ok is False and round_ == 0

    def test_success_when_team_assembles(self, sched):
        cfg = sched.config(1)
        assert cfg.label_values() == [1, 2]

        def program(ctx):
            ok = yield from move_to_central(ctx, sched, 1)
            return (ok, ctx.obs.round)

        payloads = run_agents(
            single_edge(),
            [(1, 0, program, 0), (2, 1, program, 0)],
        )
        ok1, r1 = payloads[1]
        ok2, r2 = payloads[2]
        assert ok1 and ok2
        assert r1 == r2  # both finish the S_h + n_h wait together

    def test_failure_when_partner_missing(self, sched):
        def central(ctx):
            ok = yield from move_to_central(ctx, sched, 1)
            return ok

        def absent(ctx):
            # Never joins: waits out the whole window far away.
            yield from wait(ctx, 10**40)
            return None

        payloads = run_agents(
            single_edge(),
            [(1, 0, central, 0), (9, 1, absent, 0)],
        )
        assert payloads[1] is False


class TestStarCheck:
    def _synchronized_pair(self, sched, extra=None):
        """Both phi_1 agents assembled at the central node, then
        star_check; returns the two verdicts."""

        def agent1(ctx):  # already at the central node
            yield from wait(ctx, 1)  # let agent 2 arrive
            verdict = yield from star_check(ctx, sched, 1)
            return verdict

        def agent2(ctx):
            yield from move(ctx, 0)
            verdict = yield from star_check(ctx, sched, 1)
            return verdict

        team = [(1, 0, agent1, 0), (2, 1, agent2, 0)]
        graph = single_edge()
        if extra is not None:
            graph, extra_specs = extra
            team = [
                (1, 0, agent1, 0),
                (2, 1, agent2, 0),
                *extra_specs,
            ]
        payloads = run_agents(graph, team)
        return payloads[1], payloads[2]

    def test_clean_pair_passes(self, sched):
        v1, v2 = self._synchronized_pair(sched)
        assert v1 is True and v2 is True

    def test_outsider_breaks_the_dance(self, sched):
        def outsider(ctx):
            yield from wait(ctx, 10**30)
            return None

        # Star graph: agents 1 and 2 dance at node 0 and 1 of a path
        # inside star_graph(3) = path of 3 with centre 0.  The parked
        # outsider at the other leaf is visited during the dance.
        graph = star_graph(3)
        extra = (graph, [(9, 2, outsider, 0)])
        v1, v2 = self._synchronized_pair(sched, extra=extra)
        assert v1 is False and v2 is False


class TestEnsureCleanExploration:
    def test_clean_pair_passes(self, sched):
        def agent1(ctx):
            yield from wait(ctx, 1)
            ok = yield from ensure_clean_exploration(ctx, sched, 1)
            return ok

        def agent2(ctx):
            yield from move(ctx, 0)
            ok = yield from ensure_clean_exploration(ctx, sched, 1)
            return ok

        payloads = run_agents(
            single_edge(), [(1, 0, agent1, 0), (2, 1, agent2, 0)]
        )
        assert payloads[1] is True and payloads[2] is True

    def test_interference_detected(self, sched):
        def agent1(ctx):
            yield from wait(ctx, 1)
            ok = yield from ensure_clean_exploration(ctx, sched, 1)
            return ok

        def agent2(ctx):
            yield from move(ctx, 0)
            ok = yield from ensure_clean_exploration(ctx, sched, 1)
            return ok

        def outsider(ctx):
            yield from wait(ctx, 10**30)
            return None

        # Under an n_h = 2 hypothesis the sweep only ever uses port 0,
        # so the interferer must sit on the port-0 side of the centre:
        # outsider at leaf 1, the second team agent arrives from leaf 2.
        payloads = run_agents(
            star_graph(3),
            [(1, 0, agent1, 0), (2, 2, agent2, 0), (9, 1, outsider, 0)],
        )
        # The sweep walks through the outsider's leaf: cardinality
        # deviates from k_h = 2 and both agents reject.
        assert payloads[1] is False and payloads[2] is False


class TestHypothesisDuration:
    def test_failed_hypothesis_takes_exactly_t1(self, sched):
        """Lemma 4.5: a failed Hypothesis(h) lasts exactly T_h."""

        def program(ctx):
            start = ctx.obs.round
            ok = yield from hypothesis(ctx, sched, 1)
            return (ok, ctx.obs.round - start)

        # Labels {5, 9}: not in phi_1 = {1, 2}, so hypothesis 1 fails
        # for both agents.
        payloads = run_agents(
            single_edge(), [(5, 0, program, 0), (9, 1, program, 0)]
        )
        for label in (5, 9):
            ok, spent = payloads[label]
            assert ok is False
            assert spent == sched.t_hyp(1)

    def test_true_hypothesis_returns_true(self, sched):
        def program(ctx):
            ok = yield from hypothesis(ctx, sched, 1)
            return ok

        payloads = run_agents(
            single_edge(), [(1, 0, program, 0), (2, 1, program, 0)]
        )
        assert payloads[1] is True and payloads[2] is True
