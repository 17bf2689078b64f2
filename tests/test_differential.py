"""Differential testing: event-compressed scheduler vs naive reference.

Randomized agent scripts (moves, multi-edge walks, watched waits,
stability waits) run on the production scheduler
(:mod:`repro.sim.scheduler`) — once with the vectorized segment
planner and once with the scalar one — and on the independent
round-by-round reference (:mod:`repro.sim.reference`).  All runs must
agree *byte for byte*: every field of every :class:`AgentOutcome`, the
``events`` counter (the fast path counts a virtual resume per walked
edge), the trace-mode ``move_log``, and — where budgets bite — the
exception type and message.  This is the strongest check that walk
segments and quiet-round skipping never change semantics.

The seeded randomized suite runs 210 deterministic scenarios across a
ring, a torus and random regular graphs (acceptance bar: >= 200),
each mixing walk plans (rule and absolute steps), dormant agents woken
mid-plan, and watches firing mid-segment.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    PortGraph,
    path_graph,
    random_regular,
    ring,
    single_edge,
    star_graph,
    torus,
)
from repro.sim import AgentSpec, DeadlockError, Simulation, WatchTriggered
from repro.sim.agent import (
    move,
    observe,
    paced_walk,
    wait,
    wait_stable,
    walk,
    walk_cols,
)
from repro.sim.faults import EdgeDynamics, make_dynamics
from repro.sim.reference import ReferenceSimulation
from repro.sim.scheduler import _PacedWalk

GRAPHS = {
    "edge": single_edge(),
    "path3": path_graph(3),
    "ring4": ring(4),
    "star4": star_graph(4),
}

# Families for the extended randomized suite: a ring, a 3x3 torus and
# two seeded random regular graphs (cycles, chords and degree >= 3).
EXTENDED_GRAPHS = {
    "ring6": ring(6),
    "torus33": torus(3, 3, seed=11),
    "regular6": random_regular(6, 3, seed=2),
    "regular8": random_regular(8, 3, seed=5),
}

# A 4-ring plus a self-loop at node 1 (ports 2 and 3) and a parallel
# edge 2-3: the only differential family with self-loop moves.
SELF_LOOP_GRAPH = PortGraph(
    4,
    [(0, 0, 1, 0), (1, 1, 2, 0), (2, 1, 3, 0), (3, 1, 0, 1),
     (1, 2, 1, 3), (2, 2, 3, 2)],
    allow_multi=True,
)

WATCHES = [None, ("gt", 1), ("ne", 1), ("eq", 2), ("lt", 2)]

op_strategy = st.one_of(
    st.tuples(
        st.just("move"),
        st.integers(0, 3),
        st.sampled_from(WATCHES),
    ),
    st.tuples(
        st.just("wait"),
        st.integers(1, 25),
        st.sampled_from(WATCHES),
    ),
    st.tuples(st.just("stable"), st.integers(1, 8)),
    st.tuples(
        st.just("walk"),
        st.lists(st.integers(-6, -1), min_size=1, max_size=10).map(tuple),
        st.sampled_from(WATCHES),
    ),
    st.tuples(st.just("observe"), st.integers(1, 12)),
)

script_strategy = st.lists(op_strategy, min_size=0, max_size=10)


def scripted_program(script):
    """Turn an op script into an agent program that logs observations."""

    def program(ctx):
        log = []
        for op in script:
            kind = op[0]
            if kind == "move":
                port = op[1] % ctx.degree()
                try:
                    obs = yield from move(ctx, port, watch=op[2])
                    log.append(
                        ("move", obs.round, obs.curcard, obs.entry_port)
                    )
                except WatchTriggered as trig:
                    log.append(
                        ("move!", trig.observation.round,
                         trig.observation.curcard)
                    )
            elif kind == "wait":
                try:
                    yield from wait(ctx, op[1], watch=op[2])
                    log.append(
                        ("wait", ctx.obs.round, ctx.obs.curcard)
                    )
                except WatchTriggered as trig:
                    log.append(
                        ("wait!", trig.observation.round,
                         trig.observation.curcard)
                    )
            elif kind == "walk":
                try:
                    trace = yield from walk(ctx, op[1], watch=op[2])
                    log.append(("walk", tuple(trace)))
                except WatchTriggered as trig:
                    log.append(
                        ("walk!", trig.observation.round,
                         trig.observation.curcard,
                         trig.observation.entry_port)
                    )
            elif kind == "observe":
                records = yield from observe(ctx, op[1])
                log.append(("observe", tuple(records)))
            elif kind == "paced":
                trace = yield from paced_walk(
                    ctx, op[1], op[2],
                    stop_degree=op[3], stop_before_invalid=op[4],
                )
                log.append(("paced", tuple(trace), ctx.obs.round))
            else:
                yield from wait_stable(ctx, op[1])
                log.append(("stable", ctx.obs.round, ctx.obs.curcard))
        return log

    return program


def _specs(scripts, wakes, starts=None):
    if starts is None:
        starts = list(range(len(scripts)))
    return [
        AgentSpec(i + 1, starts[i], scripted_program(scripts[i]), wakes[i])
        for i in range(len(scripts))
    ]


# Production planner legs: ``route_cache=None`` binds the vectorized
# numpy planner, ``route_cache=False`` forces the scalar one.
PLANNERS = (None, False)


def run_both(
    graph,
    scripts,
    wakes,
    starts=None,
    max_events=None,
    max_round=None,
    faults=None,
    dynamics=None,
    horizon=None,
):
    """Run the same scenario on both schedulers (trace mode).

    The production scheduler runs once per planner leg in
    :data:`PLANNERS`, so every scenario pins the vectorized and the
    scalar planner against the reference (and so against each other).
    ``dynamics`` is a factory ``graph -> EdgeDynamics`` so each run
    gets its own instance.  Returns one ``(sim, outcome)`` pair per
    planner leg followed by the reference's pair, where each outcome
    is either a :class:`SimulationResult` or the raised exception.
    """
    runs = [(Simulation, {"route_cache": rc}) for rc in PLANNERS]
    runs.append((ReferenceSimulation, {}))
    pairs = []
    for sim_cls, extra in runs:
        sim = sim_cls(
            graph,
            _specs(scripts, wakes, starts),
            max_events=max_events,
            max_round=max_round,
            trace=True,
            faults=faults,
            dynamics=None if dynamics is None else dynamics(graph),
            horizon=horizon,
            **extra,
        )
        try:
            out = sim.run()
        except Exception as exc:  # compared against the reference's error
            out = exc
        pairs.append((sim, out))
    return pairs


def assert_equivalent(*pairs):
    """Byte-for-byte equality of every planner leg with the reference
    (the last pair): results, events and move logs."""
    ref, ref_out = pairs[-1]
    for fast, fast_out in pairs[:-1]:
        _assert_pair_equivalent(fast, fast_out, ref, ref_out)


def _assert_pair_equivalent(fast, fast_out, ref, ref_out):
    if isinstance(fast_out, Exception) or isinstance(ref_out, Exception):
        assert type(fast_out) is type(ref_out), (fast_out, ref_out)
        assert str(fast_out) == str(ref_out)
        return
    assert fast_out.events == ref_out.events
    assert fast_out.final_round == ref_out.final_round
    assert fast_out.total_moves == ref_out.total_moves
    assert fast_out.crashed_labels == ref_out.crashed_labels
    assert fast_out.timed_out == ref_out.timed_out
    for out, exp in zip(fast_out.outcomes, ref_out.outcomes):
        assert out.label == exp.label
        assert out.start_node == exp.start_node
        assert out.wake_round == exp.wake_round
        assert out.finish_round == exp.finish_round
        assert out.finish_node == exp.finish_node
        assert out.payload == exp.payload, "observation logs diverged"
        assert out.declared == exp.declared
        assert out.moves == exp.moves
        assert out.crashed == exp.crashed
    assert fast.move_log == ref.move_log


class TestHandPickedScenarios:
    def test_two_sitters(self):
        scripts = [[("wait", 5, None)], [("wait", 9, None)]]
        assert_equivalent(*run_both(GRAPHS["edge"], scripts, [0, 0]))

    def test_watched_wait_interrupted(self):
        scripts = [
            [("wait", 100, ("gt", 1))],
            [("wait", 7, None), ("move", 0, None), ("wait", 50, None)],
        ]
        assert_equivalent(*run_both(GRAPHS["edge"], scripts, [0, 0]))

    def test_stability_restarts(self):
        scripts = [
            [("stable", 6)],
            [
                ("wait", 3, None), ("move", 0, None),
                ("wait", 3, None), ("move", 0, None),
                ("wait", 40, None),
            ],
        ]
        assert_equivalent(*run_both(GRAPHS["edge"], scripts, [0, 0]))

    def test_crossing_on_edge(self):
        scripts = [
            [("move", 0, ("gt", 1)), ("wait", 5, None)],
            [("move", 0, ("gt", 1)), ("wait", 5, None)],
        ]
        assert_equivalent(*run_both(GRAPHS["edge"], scripts, [0, 0]))

    def test_delayed_wake(self):
        scripts = [
            [("move", 0, None), ("wait", 30, None)],
            [("wait", 2, None), ("move", 1, None)],
        ]
        assert_equivalent(*run_both(GRAPHS["ring4"], scripts, [0, 13]))

    def test_three_agents_star(self):
        scripts = [
            [("move", 0, None), ("wait", 20, ("eq", 3))],
            [("wait", 4, None), ("move", 0, None), ("wait", 20, None)],
            [("wait", 8, None), ("move", 0, None), ("wait", 20, None)],
        ]
        assert_equivalent(*run_both(GRAPHS["star4"], scripts, [0, 0, 0]))


class TestWalkSegments:
    """Hand-picked scenarios aimed at the walk fast path."""

    def test_solo_walk_around_ring(self):
        scripts = [
            [("walk", (~0, ~0, ~0, ~0, ~0, ~0), None), ("wait", 4, None)],
            [("wait", 60, None)],
        ]
        assert_equivalent(*run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0]))

    def test_walk_through_plain_waiter(self):
        """A walk transits the node of a plain-waiting static agent:
        the walker's CurCard trace must show the meeting, the waiter
        must observe nothing, and last_change must feed a later
        wait_stable correctly."""
        scripts = [
            [("walk", (~0,) * 12, None), ("wait", 3, None)],
            [("wait", 40, None), ("stable", 5)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0], [0, 3])
        )

    def test_walk_watch_fires_mid_segment(self):
        """Two walkers head toward each other; the (gt, 1) watch must
        fire at the exact meeting edge."""
        scripts = [
            [("walk", (~0,) * 6, ("gt", 1)), ("wait", 9, None)],
            [("walk", (~1,) * 6, ("gt", 1)), ("wait", 9, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0], [0, 3])
        )

    def test_walk_wakes_dormant_mid_plan(self):
        """The route crosses a dormant agent's start node: the segment
        must truncate so the wake-up happens at per-step timing."""
        scripts = [
            [("walk", (~0,) * 10, None), ("wait", 30, None)],
            [("move", 1, None), ("wait", 10, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, None], [0, 4])
        )

    def test_walk_into_watching_waiter(self):
        """The route crosses a *watching* waiter: truncation must let
        the ordinary machinery deliver the trigger."""
        scripts = [
            [("walk", (~0,) * 10, None), ("wait", 30, None)],
            [("wait", 50, ("gt", 1)), ("move", 0, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0], [0, 4])
        )

    def test_lockstep_pair_walks_jointly(self):
        """Two co-located agents walk the same plan with a (ne, 2)
        watch — the merged-group EXPLO pattern."""
        tour = (~0, ~1, ~0, ~1, ~2, ~0)
        scripts = [
            [("move", 0, None), ("walk", tour, ("ne", 2)),
             ("wait", 7, None)],
            [("wait", 1, None), ("walk", tour, ("ne", 2)),
             ("wait", 7, None)],
        ]
        # Agent 1 moves onto agent 2's node in round 0; from round 1
        # they walk in lockstep.
        assert_equivalent(
            *run_both(
                EXTENDED_GRAPHS["torus33"], scripts, [0, 0],
                [1, 2],
            )
        )

    def test_lockstep_pair_with_different_watches(self):
        """A co-located pair walks one plan from one state, but only
        one walker watches: the shared CurCard row must fire the
        (gt, 2) watch where the pair passes the third agent, and the
        unwatched walker must walk on alone.  The third agent observes
        in the same segment, so it must see the pair arrive as two."""
        tour = (~0, ~1, ~0, ~1, ~2, ~0, ~1, ~0)
        scripts = [
            [("move", 0, None), ("walk", tour, ("gt", 2)),
             ("wait", 7, None)],
            [("wait", 1, None), ("walk", tour, None), ("wait", 7, None)],
            [("wait", 1, None), ("observe", 12), ("wait", 30, None)],
        ]
        pairs = run_both(
            EXTENDED_GRAPHS["torus33"], scripts, [0, 0, 0], [1, 2, 3]
        )
        assert_equivalent(*pairs)
        _ref, ref_out = pairs[-1]
        assert ref_out.outcomes[0].payload[1][0] == "walk!"
        assert ref_out.outcomes[1].payload[1][0] == "walk"

    @pytest.mark.parametrize("third", ["other_plan", "other_node"])
    def test_three_walkers_two_in_lockstep(self, third):
        """Two walkers share one walk state; the third walks an equal
        but distinct plan object from the same node, or the same plan
        from another node.  The cohort is not lockstep and must take
        the general path."""
        tour = (~0, ~1, ~0, ~1, ~2, ~0, ~1, ~0)
        if third == "other_plan":
            other, start, port = tuple(list(tour)), 5, 3
        else:
            other, start, port = tour, 6, 0
        scripts = [
            [("move", 0, None), ("walk", tour, None), ("wait", 7, None)],
            [("wait", 1, None), ("walk", tour, None), ("wait", 7, None)],
            [("move", port, None), ("walk", other, ("gt", 3)),
             ("wait", 7, None)],
        ]
        # Agents 1 and 3 move onto agent 2's node in round 0 (agent 3
        # only in the other_plan case); all three walk from round 1.
        assert_equivalent(
            *run_both(
                EXTENDED_GRAPHS["torus33"], scripts, [0, 0, 0],
                [1, 2, start],
            )
        )

    def test_absolute_and_rule_steps_mixed(self):
        scripts = [
            [("walk", (1, ~2, 0, ~1, 1, 0), None), ("wait", 5, None)],
            [("wait", 25, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["regular6"], scripts, [0, 0])
        )

    def test_invalid_absolute_step_rejected_identically(self):
        scripts = [
            [("walk", (0, 9, 0), None)],
            [("wait", 9, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0])
        )

    def test_event_budget_crossed_mid_segment(self):
        scripts = [
            [("walk", (~0,) * 10, None), ("wait", 5, None)],
            [("wait", 40, None)],
        ]
        for budget in (3, 5, 8, 11, 12, 13):
            assert_equivalent(
                *run_both(
                    EXTENDED_GRAPHS["ring6"], scripts, [0, 0],
                    max_events=budget,
                )
            )

    def test_round_budget_crossed_mid_segment(self):
        scripts = [
            [("walk", (~0,) * 10, None), ("wait", 5, None)],
            [("wait", 40, None)],
        ]
        for budget in (2, 4, 9, 10, 11):
            assert_equivalent(
                *run_both(
                    EXTENDED_GRAPHS["ring6"], scripts, [0, 0],
                    max_round=budget,
                )
            )

    def test_stale_heap_entry_never_trips_round_budget(self):
        """A watch-interrupted long wait leaves a superseded heap entry
        at its original wake round; with an unvisited dormant agent
        remaining, both schedulers must report the deadlock — the fast
        one must not mistake the stale entry for a round-budget breach
        at a phantom round."""
        scripts = [
            [("wait", 1000, ("gt", 1))],
            [("move", 0, None)],
            [("wait", 2, None)],
        ]
        assert_equivalent(
            *run_both(
                GRAPHS["path3"], scripts, [0, 0, None],
                max_round=500,
            )
        )


def covering_tour(graph, start=0):
    """Exit-port sequence of a DFS closed walk visiting every node.

    An agent executing these moves from ``start`` provably visits all
    nodes (and returns home), which guarantees that every dormant
    agent on the graph is woken by the tour.
    """
    ports: list[int] = []
    visited = {start}

    def dfs(node):
        for port in range(graph.degree(node)):
            dst, entry = graph.neighbor(node, port)
            if dst not in visited:
                visited.add(dst)
                ports.append(port)
                dfs(dst)
                ports.append(entry)

    dfs(start)
    assert len(visited) == graph.n
    return ports


def random_script(rng, min_degree, max_ops=8):
    """A seeded random op script mixing moves, walks, watched waits,
    per-round observations and stability waits.  Walk plans mix rule
    steps (always valid) with absolute ports below ``min_degree``
    (valid on every node)."""
    script = []
    for _ in range(rng.randrange(max_ops + 1)):
        kind = rng.choice(
            ("move", "wait", "stable", "walk", "walk", "observe")
        )
        if kind == "move":
            script.append(("move", rng.randrange(4), rng.choice(WATCHES)))
        elif kind == "wait":
            script.append(
                ("wait", rng.randrange(1, 26), rng.choice(WATCHES))
            )
        elif kind == "walk":
            steps = tuple(
                ~rng.randrange(6)
                if rng.random() < 0.6
                else rng.randrange(min_degree)
                for _ in range(rng.randrange(1, 13))
            )
            script.append(("walk", steps, rng.choice(WATCHES)))
        elif kind == "observe":
            script.append(("observe", rng.randrange(1, 10)))
        else:
            script.append(("stable", rng.randrange(1, 9)))
    return script


def random_scenario(graph, rng):
    """Seeded ``(scripts, wakes)`` of the randomized suites."""
    min_degree = min(graph.degree(v) for v in graph.nodes())
    # Agent 0 walks a covering tour as one big absolute-step walk plan
    # (waking every dormant agent), then improvises.
    tour = tuple(covering_tour(graph))
    scripts = [
        [("walk", tour, rng.choice(WATCHES))]
        + random_script(rng, min_degree, max_ops=4)
    ]
    agents = rng.randrange(2, min(5, graph.n) + 1)
    for _ in range(agents - 1):
        scripts.append(random_script(rng, min_degree))
    # Mix of adversary wakes and dormant (visit-woken) agents; the
    # tour guarantees the dormant ones always start eventually.
    wakes = [0] + [
        rng.choice([None, 0, rng.randrange(1, 7)])
        for _ in range(agents - 1)
    ]
    return scripts, wakes


class TestSeededRandomizedSuite:
    """210 deterministic differential scenarios (>= 200 required) on
    ring / torus / random-regular graphs, every one exercising walk
    plans alongside watches, wait_stable and dormant wake-ups."""

    SEEDS_PER_GRAPH = 70
    FAMILIES = ("ring6", "torus33", "regular8")

    @pytest.mark.parametrize("graph_name", FAMILIES)
    @pytest.mark.parametrize("seed", range(SEEDS_PER_GRAPH))
    def test_randomized_programs_agree(self, graph_name, seed):
        graph = EXTENDED_GRAPHS[graph_name]
        rng = random.Random(f"{graph_name}/{seed}")
        assert_equivalent(*run_both(graph, *random_scenario(graph, rng)))

    @pytest.mark.parametrize("graph_name", sorted(EXTENDED_GRAPHS))
    def test_all_dormant_but_one(self, graph_name):
        """Every agent except the tourer starts dormant and is woken
        purely by visits; both simulators must agree on wake timing."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour, None), ("wait", 5, None)],
            [("stable", 4), ("move", 1, None)],
            [("wait", 3, ("gt", 1)), ("move", 2, None)],
            [("stable", 2), ("wait", 6, ("eq", 2))],
        ]
        wakes = [0, None, None, None]
        assert_equivalent(*run_both(graph, scripts, wakes))

    @pytest.mark.parametrize("seed", range(4))
    def test_stability_watch_interplay_on_torus(self, seed):
        """wait_stable windows repeatedly broken by a tour through the
        waiter's node, with watch-carrying waits in between."""
        graph = EXTENDED_GRAPHS["torus33"]
        rng = random.Random(9000 + seed)
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour + tour, None)],
            [("stable", rng.randrange(2, 9))] * 3,
            [("wait", 50, ("gt", 1)), ("stable", 5), ("wait", 4, None)],
        ]
        assert_equivalent(
            *run_both(graph, scripts, [0, 0, rng.randrange(0, 5)])
        )


class TestSelfLoopFamily:
    """The randomized suite on :data:`SELF_LOOP_GRAPH`: self-loop
    moves leave CurCard unchanged, inside vectorized segments too."""

    SEEDS = 40

    @staticmethod
    def scenario(seed):
        rng = random.Random(f"self-loop/{seed}")
        return random_scenario(SELF_LOOP_GRAPH, rng)

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_randomized_programs_agree(self, seed):
        assert_equivalent(
            *run_both(SELF_LOOP_GRAPH, *self.scenario(seed))
        )

    def test_segments_cross_self_loops(self, monkeypatch):
        """The family reaches the planner's self-loop case: some
        vectorized segment routes contain a self-loop step."""
        from repro.sim import segments

        loops = []
        plan_segment = segments.plan_segment

        def recording(*args):
            plan = plan_segment(*args)
            if plan is not None and plan._nodes is not None:
                nodes = plan._nodes
                loops.append(int((nodes[:, 1:] == nodes[:, :-1]).sum()))
            return plan

        monkeypatch.setattr(segments, "plan_segment", recording)
        for seed in range(self.SEEDS):
            sim = Simulation(SELF_LOOP_GRAPH, _specs(*self.scenario(seed)))
            try:
                sim.run()
            except DeadlockError:  # a seed may strand a dormant agent
                pass
        assert any(loops)


class _AllBlockedRound(EdgeDynamics):
    """Blocks *every* edge during one specific round (and nothing
    else): the harshest liveness round a dynamics adversary can deal,
    where every attempted move must burn the round and retry."""

    __slots__ = ("block_round",)

    def __init__(self, graph, block_round: int) -> None:
        super().__init__(graph)
        self.block_round = block_round

    def blocked_edge(self, round_: int) -> int:  # pragma: no cover
        return -1

    def blocked(self, node: int, port: int, round_: int) -> bool:
        return round_ == self.block_round


class TestFaultedDifferential:
    """Crash faults and dynamic edges agree byte-for-byte between the
    event-compressed scheduler and the naive reference, on the same
    ring / torus / random-regular families as the unfaulted suite."""

    FAMILIES = ("ring6", "torus33", "regular8")

    @pytest.mark.parametrize("graph_name", FAMILIES)
    def test_crash_before_wake(self, graph_name):
        """An agent crashed before its wake round never acts — and a
        dormant victim crashed before any visit is simply removed."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour, None), ("wait", 4, None)],
            [("move", 0, None), ("wait", 6, None)],
            [("stable", 3), ("move", 1, None)],
        ]
        # Agent 2 wakes at round 9 but crashes at 4; agent 3 is
        # dormant and crashes before the tour reaches it.
        assert_equivalent(*run_both(
            graph, scripts, [0, 9, None],
            faults=[(2, 4), (3, 1)],
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    @pytest.mark.parametrize("crash_round", [3, 7, 12])
    def test_crash_mid_walk_segment(self, graph_name, crash_round):
        """Crashing a walker mid-plan truncates its batched segment at
        exactly the fault round on both schedulers."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour + tour, None)],
            [("wait", 2, None), ("walk", tour, ("gt", 1))],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0],
            faults=[(1, crash_round)],
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    def test_crash_of_last_mover(self, graph_name):
        """Crashing the only still-active agent must end the run
        identically (no survivor left to advance the round clock)."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("wait", 3, None)],
            [("wait", 5, None)],
            [("walk", tour + tour + tour, None)],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0, 0],
            faults=[(3, 20)],
            horizon=500,
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    def test_fully_blocked_round(self, graph_name):
        """A round in which every edge is blocked: all movers burn the
        round and retry, watchers see no arrivals, and both schedulers
        place every delayed move identically."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour, None), ("wait", 3, None)],
            [("move", 0, None), ("move", 1, ("gt", 1)), ("wait", 4, None)],
            [("wait", 2, ("gt", 1)), ("move", 1, None)],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0, 2],
            dynamics=lambda g: _AllBlockedRound(g, block_round=3),
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    @pytest.mark.parametrize("strategy", ["ring-sweep:2", "ring-random"])
    def test_builtin_dynamics_schedules(self, graph_name, strategy):
        """The shipped sweep/hash adversaries agree across schedulers
        (the hash schedule is stateless, so both instances see the
        identical blocked-edge sequence)."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour + tour, None)],
            [("stable", 3), ("move", 1, None), ("wait", 5, None)],
            [("wait", 4, ("gt", 1)), ("move", 0, None)],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0, None],
            dynamics=lambda g: make_dynamics(strategy, g, seed=13),
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_faulted_programs_agree(self, graph_name, seed):
        """Seeded random scripts with seeded crash schedules (and, on
        odd seeds, hash dynamics): the fault-handling differential
        analogue of the main randomized suite."""
        graph = EXTENDED_GRAPHS[graph_name]
        min_degree = min(graph.degree(v) for v in graph.nodes())
        rng = random.Random(f"faults/{graph_name}/{seed}")
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour, rng.choice(WATCHES))]
            + random_script(rng, min_degree, max_ops=4)
        ]
        agents = rng.randrange(2, min(5, graph.n) + 1)
        for _ in range(agents - 1):
            scripts.append(random_script(rng, min_degree))
        wakes = [0] + [
            rng.choice([None, 0, rng.randrange(1, 7)])
            for _ in range(agents - 1)
        ]
        victims = rng.sample(range(1, agents + 1), rng.randrange(1, agents))
        faults = sorted(
            (label, rng.randrange(0, 25)) for label in victims
        )
        dynamics = (
            (lambda g: make_dynamics("ring-random", g, seed=seed))
            if seed % 2
            else None
        )
        assert_equivalent(*run_both(
            graph, scripts, wakes,
            faults=faults, dynamics=dynamics, horizon=400,
        ))


# Families of the paced-walk suite: degree stops need nodes of unequal
# degree (path, star, the self-loop graph); the ring carries hash
# dynamics' blocked edges along longer walks.
PACED_GRAPHS = {
    "path3": GRAPHS["path3"],
    "star4": GRAPHS["star4"],
    "self-loop": SELF_LOOP_GRAPH,
    "ring6": EXTENDED_GRAPHS["ring6"],
}


def random_paced_op(rng, min_degree, max_degree):
    """A ``paced`` script op with delay 1-4 and an optional degree stop.

    Most ops also stop before invalid ports and draw ports below
    ``max_degree``; the rest draw ports below ``min_degree``, which
    every node has.
    """
    stop_invalid = rng.random() < 0.75
    bound = max_degree if stop_invalid else min_degree
    ports = tuple(rng.randrange(bound) for _ in range(rng.randrange(1, 9)))
    stop_degree = rng.choice((None, None, 2, 3, 4))
    return ("paced", ports, rng.randrange(1, 5), stop_degree, stop_invalid)


def random_paced_scenario(graph, rng):
    """Seeded ``(scripts, wakes)``: paced walks mixed into random scripts."""
    degrees = [graph.degree(v) for v in graph.nodes()]
    min_degree, max_degree = min(degrees), max(degrees)

    def script(ops):
        out = []
        for _ in range(ops):
            if rng.random() < 0.5:
                out.append(random_paced_op(rng, min_degree, max_degree))
            else:
                out.extend(random_script(rng, min_degree, max_ops=1))
        return out

    # Agent 0 tours first, so dormant agents always wake.
    scripts = [[("walk", tuple(covering_tour(graph)), None)] + script(3)]
    agents = rng.randrange(2, min(4, graph.n) + 1)
    scripts += [script(rng.randrange(1, 5)) for _ in range(agents - 1)]
    wakes = [0] + [
        rng.choice([None, 0, rng.randrange(1, 7)])
        for _ in range(agents - 1)
    ]
    return scripts, wakes


class TestPacedFamily:
    """``paced`` ops against the reference under both planners: delays
    1-4, both stop rules, a crash fault on odd seeds and ``ring-random``
    blocked edges on every third seed."""

    SEEDS = 30

    @staticmethod
    def scenario(graph_name, seed):
        graph = PACED_GRAPHS[graph_name]
        rng = random.Random(f"paced/{graph_name}/{seed}")
        scripts, wakes = random_paced_scenario(graph, rng)
        kwargs = {}
        if seed % 2:
            label = rng.randrange(1, len(scripts) + 1)
            kwargs.update(faults=[(label, rng.randrange(1, 30))], horizon=400)
        if seed % 3 == 0:
            kwargs["dynamics"] = lambda g: make_dynamics(
                "ring-random", g, seed=seed
            )
        return graph, scripts, wakes, kwargs

    @pytest.mark.parametrize("graph_name", sorted(PACED_GRAPHS))
    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_randomized_paced_programs_agree(self, graph_name, seed):
        graph, scripts, wakes, kwargs = self.scenario(graph_name, seed)
        assert_equivalent(*run_both(graph, scripts, wakes, **kwargs))

    def test_family_reaches_every_rule(self, monkeypatch):
        """The family stops paced walks on a degree and before an
        invalid port, blocks paced moves and crashes paced walkers."""
        seen = {"degree": 0, "invalid": 0, "blocked": 0, "crash": 0}
        arrival = Simulation._paced_arrival
        apply_moves = Simulation._apply_moves
        crash = Simulation._crash

        def recording_arrival(sim, idx, round_, q):
            going = arrival(sim, idx, round_, q)
            if not going and q.next < len(q.ports):
                degree = q.cols[1][-1]
                stop = q.stop_degree
                seen["degree" if stop and degree >= stop else "invalid"] += 1
            return going

        def paced(sim, idx):  # the queued slot holds a paced walk
            return isinstance(sim._queued[idx], _PacedWalk)

        def recording_moves(sim, pending, round_):
            apply_moves(sim, pending, round_)
            for idx, _port in pending:
                if paced(sim, idx) and sim._queued[idx].port is not None:
                    seen["blocked"] += 1

        def recording_crash(sim, idx, round_):
            seen["crash"] += paced(sim, idx)
            crash(sim, idx, round_)

        monkeypatch.setattr(Simulation, "_paced_arrival", recording_arrival)
        monkeypatch.setattr(Simulation, "_apply_moves", recording_moves)
        monkeypatch.setattr(Simulation, "_crash", recording_crash)
        for graph_name in PACED_GRAPHS:
            for seed in range(self.SEEDS):
                graph, scripts, wakes, kwargs = self.scenario(graph_name, seed)
                dynamics = kwargs.pop("dynamics", None)
                sim = Simulation(
                    graph, _specs(scripts, wakes),
                    dynamics=dynamics and dynamics(graph), **kwargs,
                )
                try:
                    sim.run()
                except DeadlockError:  # a crash may strand a dormant agent
                    pass
        assert all(seen.values()), seen

    @pytest.mark.parametrize("crash_round", [2, 3, 4, 5, 7])
    def test_crash_mid_paced_walk(self, crash_round):
        """Crash a paced walker in a wait, at a move round or at an
        arrival; from round 4 to 7 it waits on label 2's node, whose
        watches see it come and go."""
        graph = EXTENDED_GRAPHS["ring6"]
        scripts = [
            [("paced", (0, 1, 0, 0), 3, None, False)],
            [("move", 0, None), ("wait", 30, ("gt", 1)),
             ("wait", 30, ("lt", 2))],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0], starts=[0, 2],
            faults=[(1, crash_round)], horizon=200,
        ))

    def test_blocked_paced_move_retries(self):
        """A paced move into the fully blocked round burns the round
        and retries without a second wait."""
        graph = EXTENDED_GRAPHS["torus33"]
        scripts = [
            [("paced", (0, 1, 2, 3), 2, None, False), ("wait", 2, None)],
            [("paced", (3, 2), 1, None, False)],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 1],
            dynamics=lambda g: _AllBlockedRound(g, block_round=2),
        ))

    def test_invalid_paced_port_rejected_identically(self):
        scripts = [
            [("paced", (0, 0, 1), 2, None, False)],
            [("wait", 9, None)],
        ]
        assert_equivalent(*run_both(GRAPHS["path3"], scripts, [0, 0]))


def _walk_cols_program(ctx):
    cols = yield from walk_cols(ctx, (~1,) * 10)
    return cols


@pytest.mark.xfail(
    strict=True,
    reason="the scalar planner returns uncut walker columns when a later "
    "walker truncates the segment; fixing it changes stored records",
)
def test_scalar_planner_walk_cols_truncation():
    """Label 2 truncates the joint segment before dormant label 3, but
    ``_plan_segment`` hands label 1 its full-length columns, so
    ``walk_cols`` skips edges it never walked (19 moves against the
    reference's 20)."""
    graph = ring(8, seed=0)
    runs = []
    for sim_cls, extra in (
        (Simulation, {"route_cache": False}), (ReferenceSimulation, {}),
    ):
        sim = sim_cls(graph, [
            AgentSpec(1, 0, _walk_cols_program, 0),
            AgentSpec(2, 1, _walk_cols_program, 0),
            AgentSpec(3, 4, scripted_program([("wait", 1, None)]), None),
        ], trace=True, **extra)
        runs.append((sim, sim.run()))
    assert_equivalent(*runs)


@settings(max_examples=120, deadline=None)
@given(
    graph_name=st.sampled_from(sorted(GRAPHS)),
    scripts=st.lists(script_strategy, min_size=2, max_size=3),
    wake_picks=st.lists(st.integers(0, 6), min_size=3, max_size=3),
    data=st.data(),
)
def test_differential_property(graph_name, scripts, wake_picks, data):
    """Property: both simulators agree on every randomized scenario."""
    graph = GRAPHS[graph_name]
    scripts = scripts[: graph.n]  # at most one agent per node
    if len(scripts) < 2:
        scripts = scripts + [[("wait", 3, None)]]
        scripts = scripts[: max(2, min(graph.n, len(scripts)))]
    if len(scripts) > graph.n:
        scripts = scripts[: graph.n]
    wakes = [0] + [wake_picks[i % 3] for i in range(len(scripts) - 1)]
    assert_equivalent(*run_both(graph, scripts, wakes))
