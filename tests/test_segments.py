"""The vectorized segment planner's route cache and its shared users.

:class:`repro.sim.segments.RouteCache` chases each walk route once and
serves every later resume as array views; these tests pin the routes
against an independent per-edge replay.  Trials on one graph object
share that graph's cache, so mixed same-graph batches must still match
the :mod:`repro.sim.reference` oracle trial by trial, and the
pipelined backend (which runs such batches) must record exactly what
the serial backend records.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import random_regular, ring, torus
from repro.runner import ExperimentSpec, run_experiment
from repro.sim.segments import RouteCache, route_cache_for
from test_differential import (
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
