"""The vectorized segment planner's route cache, commit and shared users.

:class:`repro.sim.segments.RouteCache` chases each walk route once and
serves every later resume as array views; these tests pin the routes
against an independent per-edge replay, and pin
:meth:`SegmentPlan.apply_last_change` against a per-round delta model.
Trials on one graph object share that graph's cache, so mixed
same-graph batches must still match the :mod:`repro.sim.reference`
oracle trial by trial, and the pipelined backend (which runs such
batches) must record exactly what the serial backend records.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graphs import random_regular, ring, torus
from repro.runner import ExperimentSpec, run_experiment
from repro.sim import AgentSpec, Simulation, segments
from repro.sim.agent import walk
from repro.sim.segments import RouteCache, SegmentPlan, route_cache_for
from test_differential import (
    SELF_LOOP_GRAPH,
    assert_equivalent,
    covering_tour,
    random_script,
    run_both,
)

GRAPHS = {
    "ring6": ring(6),
    "torus33": torus(3, 3, seed=11),
    "regular8": random_regular(8, 3, seed=5),
}

GRAPH_NAMES = sorted(GRAPHS)


def naive_chase(graph, steps, pos, node, port):
    """Independent per-edge replay of a walk plan's route."""
    nodes, ents, degs = [node], [], []
    t = pos
    while True:
        node, entry = graph.neighbor(node, port)
        nodes.append(node)
        ents.append(entry)
        degree = graph.degree(node)
        degs.append(degree)
        t += 1
        if t >= len(steps):
            break
        step = steps[t]
        if step >= 0:
            if step >= degree:
                break
            port = step
        else:
            port = (entry + ~step) % degree
    return nodes, ents, degs


class TestRouteCache:
    @pytest.mark.parametrize("graph_name", GRAPH_NAMES)
    def test_routes_match_naive_chase(self, graph_name):
        graph = GRAPHS[graph_name]
        cache = RouteCache(graph)
        rng = random.Random(f"routes/{graph_name}")
        for _ in range(20):
            steps = tuple(
                ~rng.randrange(4) if rng.random() < 0.5
                else rng.randrange(4)
                for _ in range(rng.randrange(1, 8))
            )
            node = rng.randrange(graph.n)
            port = steps[0] if steps[0] >= 0 else ~steps[0]
            if port >= graph.degree(node):
                continue
            nodes, ents, degs = cache.route(steps, 0, node, port)
            exp = naive_chase(graph, steps, 0, node, port)
            assert (nodes.tolist(), ents.tolist(), degs.tolist()) == exp

    def test_suffix_states_share_one_chase(self):
        graph = ring(6)
        cache = RouteCache(graph)
        steps = (0, ~1, ~1, ~1)
        nodes, ents, degs = cache.route(steps, 0, 0, 0)
        assert len(nodes) == 5
        (pr,) = cache._plans.values()
        assert len(pr._chases) == 1
        # Resuming mid-plan is a suffix of the same chase: no re-chase,
        # and the suffix view matches the full route's tail.  The exit
        # port at position 2 follows the ~1 rule from the entry port.
        port2 = (int(ents[1]) + 1) % int(degs[1])
        nodes2, _, _ = cache.route(steps, 2, int(nodes[2]), port2)
        assert len(pr._chases) == 1
        assert nodes2.tolist() == nodes.tolist()[2:]

    def test_keyed_by_plan_identity_not_equality(self):
        graph = ring(6)
        cache = RouteCache(graph)
        # Built dynamically: equal literals would be constant-folded
        # into one interned tuple object.
        a = tuple([0, 0])
        b = tuple([0, 0])
        cache.route(a, 0, 0, 0)
        cache.route(b, 0, 0, 0)
        assert len(cache._plans) == 2

    def test_invalid_absolute_step_ends_route(self):
        graph = ring(6)
        cache = RouteCache(graph)
        steps = (0, 5, 0)  # port 5 does not exist on a ring node
        nodes, ents, _ = cache.route(steps, 0, 0, 0)
        assert len(nodes) == 2
        assert len(ents) == 1

    def test_shared_graph_cache_is_per_object(self):
        g = ring(6)
        assert route_cache_for(g) is route_cache_for(g)
        assert route_cache_for(g) is not route_cache_for(ring(6))


LAST_CHANGE_GRAPHS = {
    "ring6": ring(6),
    "torus33": torus(3, 3, seed=11),
    "self_loop4": SELF_LOOP_GRAPH,
}


def random_route(graph, rng, edges, start=None):
    """Nodes of a random ``edges``-edge walk (self-loops included)."""
    node = rng.randrange(graph.n) if start is None else start
    nodes = [node]
    for _ in range(edges):
        node, _entry = graph.neighbor(node, rng.randrange(graph.degree(node)))
        nodes.append(node)
    return nodes


def per_round_last_change(rows, weights, round_, last_change):
    """Brute force: a node changes in a round iff the walkers (row r
    standing for ``weights[r]`` of them) arriving there minus those
    leaving are non-zero."""
    out = list(last_change)
    for t in range(len(rows[0]) - 1):
        delta: dict[int, int] = {}
        for row, k in zip(rows, weights):
            delta[row[t]] = delta.get(row[t], 0) - k
            delta[row[t + 1]] = delta.get(row[t + 1], 0) + k
        for v, d in delta.items():
            if d:
                out[v] = round_ + t + 1
    return out


class TestLastChange:
    """:meth:`SegmentPlan.apply_last_change` writes exactly what m
    rounds of per-step moves would."""

    @staticmethod
    def check(graph, rows, weights=None, round_=17):
        weights = weights or [1] * len(rows)
        before = [-1] * graph.n
        plan = SegmentPlan(len(rows[0]) - 1, [], [], np.array(rows))
        got = list(before)
        plan.apply_last_change(got, round_, graph.n)
        assert got == per_round_last_change(rows, weights, round_, before)
        return got

    @pytest.mark.parametrize("graph_name", sorted(LAST_CHANGE_GRAPHS))
    @pytest.mark.parametrize("walkers", [1, 2, 3, 4])
    def test_random_routes(self, graph_name, walkers):
        graph = LAST_CHANGE_GRAPHS[graph_name]
        rng = random.Random(f"last_change/{graph_name}/{walkers}")
        for _ in range(30):
            m = rng.randrange(2, 25)
            start = rng.randrange(graph.n)
            # Common starts make collisions and splits likely.
            rows = [
                random_route(graph, rng, m, rng.choice([start, None]))
                for _ in range(walkers)
            ]
            self.check(graph, rows)

    @pytest.mark.parametrize("graph_name", sorted(LAST_CHANGE_GRAPHS))
    def test_lockstep_cohort(self, graph_name):
        """k walkers on one route: k identical rows, or the single
        row a lockstep plan stores, change the same nodes."""
        graph = LAST_CHANGE_GRAPHS[graph_name]
        rng = random.Random(f"lockstep/{graph_name}")
        for _ in range(20):
            route = random_route(graph, rng, rng.randrange(2, 25))
            for k in (2, 3, 4):
                assert (self.check(graph, [route] * k)
                        == self.check(graph, [route], weights=[k]))

    @pytest.mark.parametrize("graph_name", sorted(LAST_CHANGE_GRAPHS))
    def test_pair_trailing_by_one_step(self, graph_name):
        graph = LAST_CHANGE_GRAPHS[graph_name]
        rng = random.Random(f"trail/{graph_name}")
        for _ in range(20):
            full = random_route(graph, rng, rng.randrange(3, 25))
            self.check(graph, [full[1:], full[:-1]])

    @pytest.mark.parametrize("graph_name", sorted(LAST_CHANGE_GRAPHS))
    def test_swaps_across_an_edge(self, graph_name):
        """Crossing walkers cancel: nothing changes."""
        graph = LAST_CHANGE_GRAPHS[graph_name]
        u = 0
        v, _entry = graph.neighbor(u, 0)
        there = [u, v] * 4
        back = [v, u] * 4
        assert self.check(graph, [there, back]) == [-1] * graph.n
        # A crossing mid-route, next to moves that do count.
        rng = random.Random(f"swap/{graph_name}")
        tail = random_route(graph, rng, 5, v)
        self.check(graph, [[u] + tail, [v, u] + tail[:-1]])

    def test_self_loop_steps(self):
        graph = SELF_LOOP_GRAPH
        # Port 2 of node 1 is a self-loop: a walker spinning on it
        # changes nothing, alone or as a lockstep pair.
        spin = [1] * 6
        assert self.check(graph, [spin]) == [-1] * graph.n
        assert self.check(graph, [spin], weights=[2]) == [-1] * graph.n
        rng = random.Random("self_loop")
        for _ in range(20):
            route = [1, 1] + random_route(graph, rng, 6, 1)
            self.check(graph, [route])
            self.check(graph, [route], weights=[3])
            self.check(graph, [route, spin[:1] * len(route)])

    def test_rounds_beyond_int64(self):
        graph = ring(6)
        round_ = 2 ** 70
        got = self.check(graph, [[0, 1, 2, 3]], round_=round_)
        assert got[3] == round_ + 3
        self.check(graph, [[0, 1, 2, 1], [3, 2, 1, 0]], round_=round_)


class TestLockstepPlan:
    def test_pair_plans_one_route(self, monkeypatch):
        """Co-located walkers of one plan object share one route row
        and one walker tuple."""
        plans = []
        plan_segment = segments.plan_segment

        def recording(*args):
            plan = plan_segment(*args)
            plans.append(plan)
            return plan

        monkeypatch.setattr(segments, "plan_segment", recording)
        graph = ring(6)
        tour = (~0,) * 8

        def together(ctx):
            yield from walk(ctx, tour)

        start, back = graph.neighbor(0, 1)

        def join(ctx):
            yield from walk(ctx, (back,))
            yield from walk(ctx, tour)

        # Agent 2 steps back onto agent 1's node; from round 1 both
        # walk ``tour`` from one state.
        sim = Simulation(graph, [
            AgentSpec(1, 0, together, 1),
            AgentSpec(2, start, join, 0),
        ])
        sim.run()
        (plan,) = [p for p in plans if p is not None]
        assert plan._nodes.shape[0] == 1
        assert plan.walkers[0] is plan.walkers[1]


class TestSharedGraphRandomized:
    """Mixed-script trials run back to back on one graph object (and so
    through one shared route cache) must match the reference."""

    @pytest.mark.parametrize("graph_name", GRAPH_NAMES)
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_batch_matches_reference(self, graph_name, seed):
        graph = GRAPHS[graph_name]
        min_degree = min(graph.degree(v) for v in graph.nodes())
        rng = random.Random(f"cohort/{graph_name}/{seed}")
        tour = tuple(covering_tour(graph))
        for _ in range(4):
            scripts = [
                [("walk", tour, None)] + random_script(rng, min_degree, 3)
            ]
            agents = rng.randrange(2, 4)
            for _ in range(agents - 1):
                scripts.append(random_script(rng, min_degree))
            wakes = [0] + [
                rng.choice([None, 0, rng.randrange(1, 5)])
                for _ in range(agents - 1)
            ]
            starts = [0] + rng.sample(range(1, graph.n), agents - 1)
            assert_equivalent(*run_both(graph, scripts, wakes, starts))


class TestPipelinedBatches:
    """Same-graph batches on the pipelined backend vs the serial one."""

    @staticmethod
    def assert_backends_agree(spec):
        serial = run_experiment(spec, backend="serial")
        pipelined = run_experiment(spec, backend="pipelined")
        assert pipelined.canonical_json() == serial.canonical_json()
        return serial

    @pytest.mark.parametrize(
        "algorithm,family,n",
        [
            ("gather_known", "ring", 8),
            ("gather_known", "torus", 9),
            ("gather_unknown", "edge", 2),
        ],
    )
    def test_batch_records_match_serial(self, algorithm, family, n):
        spec = ExperimentSpec(
            algorithm=algorithm,
            family=family,
            sizes=(n,),
            label_sets=((1, 2), (3, 1)),
            seeds=(0, 1),
            placements=("spread", "eccentric"),
            graph_seed_mode="fixed",
        )
        assert len(spec.trials()) >= 4  # a real same-graph batch
        assert not self.assert_backends_agree(spec).failed

    def test_batch_captures_errors_like_serial(self):
        # gather_known needs distinct labels; duplicate labels fail at
        # run construction, which the batch must record in the exact
        # "{type}: {message}" form the serial path records.
        spec = ExperimentSpec(
            algorithm="gather_known",
            family="ring",
            sizes=(6,),
            label_sets=((2, 2),),
            seeds=(0, 1),
            graph_seed_mode="fixed",
        )
        result = self.assert_backends_agree(spec)
        assert not result.records[0]["ok"]
