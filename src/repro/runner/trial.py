"""Single-trial execution: resolve, simulate, record.

Maps a :class:`~repro.runner.spec.TrialSpec` onto the existing
simulation front-ends (:mod:`repro.core.runs`, :mod:`repro.baselines`)
and flattens the validated report into a JSON-safe *record* dict.

A trial's *scenario* — start nodes and wake rounds — is resolved here
from its declarative ``placement``/``wake_schedule`` strategy names
and a seed derived from the trial key, so every worker process
resolves the identical scenario with no coordination.  The
``adversary`` strategy decides how many seed-derived scenario draws
the adversary may evaluate (``worst_of:<k>`` keeps the slowest,
``best_of:<k>`` the fastest).

Records are the engine's unit of truth: they contain only
deterministic simulation quantities (rounds, moves, events, leader,
...) — never wall-clock times or process ids — so a parallel run is
byte-identical to a serial one.  Failures are captured as records with
``ok=False`` and the exception text, not raised, so one infeasible
grid point cannot crash a thousand-trial sweep.
"""

from __future__ import annotations

import random
from typing import Callable

from ..baselines import run_random_walk_gather, run_talking_gather
from ..core.parameters import KnownBoundParameters
from ..core.gather_known import smallest_label_length
from ..core.runs import (
    prepare_gather_known,
    prepare_gather_unknown,
    run_gather_known,
    run_gather_unknown,
    run_gossip_known,
    run_gossip_unknown,
)
from ..explore.uxs import UXSProvider
from ..graphs import generators
from ..graphs.port_graph import PortGraph
from ..events import stream as _event_stream
from ..events.types import TrialEnd as _EvTrialEnd, TrialStart as _EvTrialStart
from ..metrics import registry as _metrics_registry
from ..sim.adversary import parse_wake_strategy, schedule_from_strategy
from ..sim.faults import (
    ensure_round0_survivor,
    format_crash_faults,
    make_dynamics,
    parse_fault_strategy,
    resolve_fault_schedule,
)
from .spec import PLACEMENTS as spec_placement_names
from .spec import TrialSpec, derive_seed, parse_adversary, parse_placement


class TrialError(RuntimeError):
    """Raised only when a trial record itself cannot be produced."""


# ----------------------------------------------------------------------
# Graph-family registry: name -> callable(n, seed) -> PortGraph.
# ----------------------------------------------------------------------

def _edge_family(n: int, seed: int) -> PortGraph:
    if n != 2:
        raise ValueError("the 'edge' family only exists at size 2")
    return generators.single_edge()


FAMILIES: dict[str, Callable[[int, int], PortGraph]] = {
    "edge": _edge_family,
    "ring": lambda n, seed: generators.ring(n, seed=seed),
    "oriented_ring": lambda n, seed: generators.oriented_ring(n),
    "path": lambda n, seed: generators.path_graph(n, seed=seed),
    "star": lambda n, seed: generators.star_graph(n, seed=seed),
    "clique": lambda n, seed: generators.complete_graph(n, seed=seed),
    "tree": lambda n, seed: generators.random_tree(n, seed=seed),
    "random": lambda n, seed: generators.random_connected_graph(n, seed=seed),
    "torus": lambda n, seed: generators.torus_for_size(n, seed=seed),
    "random_regular": lambda n, seed: generators.random_regular(n, seed=seed),
}


class TrialResult:
    """Outcome of one trial, successful or failed.

    ``record()`` is the canonical JSON-safe form stored on disk and
    compared across serial/parallel runs.
    """

    __slots__ = ("trial", "ok", "error", "metrics")

    def __init__(
        self,
        trial: TrialSpec,
        ok: bool,
        metrics: dict | None = None,
        error: str | None = None,
    ) -> None:
        self.trial = trial
        self.ok = ok
        self.metrics = metrics or {}
        self.error = error

    def record(self) -> dict:
        rec = self.trial.to_dict()
        rec["ok"] = self.ok
        rec["error"] = self.error
        rec["metrics"] = self.metrics
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "TrialResult":
        return cls(
            TrialSpec.from_dict(rec),
            ok=rec["ok"],
            metrics=rec.get("metrics") or {},
            error=rec.get("error"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        status = "ok" if self.ok else f"FAILED ({self.error})"
        return f"TrialResult({self.trial.key}: {status})"


def _build_graph(trial: TrialSpec) -> PortGraph:
    if trial.graph_factory is not None:
        return trial.graph_factory(trial.n)
    try:
        family = FAMILIES[trial.family]
    except KeyError:
        raise TrialError(
            f"unknown graph family {trial.family!r}; "
            f"known: {sorted(FAMILIES)}"
        ) from None
    return family(trial.n, trial.graph_seed)


# ----------------------------------------------------------------------
# Placement-strategy registry: name -> callable(graph, k, seed).
# ``None`` means "use the run wrapper's default" (nodes 0..k-1).
# ----------------------------------------------------------------------

def _default_placement(graph: PortGraph, k: int, seed: int) -> None:
    return None


def _spread_placement(graph: PortGraph, k: int, seed: int) -> list[int]:
    if k == 2:
        return [0, graph.n - 1]
    # Evenly spaced; distinct whenever k <= n.
    return [i * graph.n // k for i in range(k)]


def _random_placement(graph: PortGraph, k: int, seed: int) -> list[int]:
    """Distinct start nodes sampled from the derived scenario seed."""
    if k > graph.n:
        raise ValueError("more agents than nodes")
    return random.Random(seed).sample(range(graph.n), k)


def _eccentric_placement(graph: PortGraph, k: int, seed: int) -> list[int]:
    """Farthest-point sampling: greedily maximize pairwise distance.

    The first agent starts at the node most distant from node 0; each
    subsequent agent at the node maximizing the minimum BFS distance
    to the agents placed so far (ties break toward the smallest node
    id, keeping the placement deterministic and seed-free).
    """
    if k > graph.n:
        raise ValueError("more agents than nodes")
    dist = graph.bfs_distances(0)
    chosen = [max(range(graph.n), key=lambda v: (dist[v], -v))]
    nearest = graph.bfs_distances(chosen[0])
    while len(chosen) < k:
        nxt = max(range(graph.n), key=lambda v: (nearest[v], -v))
        chosen.append(nxt)
        nearest = [
            min(a, b) for a, b in zip(nearest, graph.bfs_distances(nxt))
        ]
    return chosen


PLACEMENT_RESOLVERS: dict[
    str, Callable[[PortGraph, int, int], list[int] | None]
] = {
    "default": _default_placement,
    "spread": _spread_placement,
    "random": _random_placement,
    "eccentric": _eccentric_placement,
}

# The spec layer validates placement names against spec.PLACEMENTS
# (it cannot import this module — trial imports spec); fail at import
# if the two ever drift, instead of at the first sweep.
if set(PLACEMENT_RESOLVERS) != set(spec_placement_names):
    raise AssertionError(
        "placement registries out of sync: "
        f"{sorted(PLACEMENT_RESOLVERS)} vs {sorted(spec_placement_names)}"
    )


def _scenario_seed(trial: TrialSpec, component: str, draw: int) -> int:
    """Sub-seed for one scenario component of one adversary draw.

    Derived from the trial key *minus* its ``adv=`` segment, so the
    ``fixed`` adversary and draw 0 of ``worst_of:k``/``best_of:k`` on
    the same grid point resolve the identical scenario — which is what
    makes ``best_of <= fixed <= worst_of`` a guarantee rather than a
    statistical accident.  Placement and wake use distinct components
    so their random strategies draw independent streams.
    """
    base_key = "/".join(
        part for part in trial.key.split("/")
        if not part.startswith("adv=")
    )
    return derive_seed(trial.seed, f"{base_key}|{component}|{draw}")


def resolve_scenario(
    trial: TrialSpec, graph: PortGraph, draw: int = 0
) -> tuple[list[int] | None, list[int | None]]:
    """Resolve a trial's ``(start_nodes, wake_rounds)`` scenario.

    Pure in ``(trial, graph, draw)``: the randomness of the ``random``
    placement and wake strategies comes from seeds derived from the
    replicate seed, the trial coordinates and the adversary draw
    index, so every process resolves the same scenario and records
    stay byte-identical across worker counts.
    """
    k = len(trial.labels)
    if trial.placement.startswith("nodes:"):
        # An explicit assignment (the adaptive search's encoding of a
        # concrete scenario): no seed, no strategy — just range checks
        # against the concrete graph.
        _, nodes = parse_placement(trial.placement)
        if len(nodes) != k:
            raise ValueError(
                f"explicit placement has {len(nodes)} nodes for "
                f"{k} agents: {trial.placement!r}"
            )
        if any(v >= graph.n for v in nodes):
            raise ValueError(
                f"explicit placement node out of range for a "
                f"{graph.n}-node graph: {trial.placement!r}"
            )
        start_nodes: list[int] | None = list(nodes)
    else:
        try:
            place = PLACEMENT_RESOLVERS[trial.placement]
        except KeyError:
            raise TrialError(
                f"unknown placement {trial.placement!r}; "
                f"known: {sorted(PLACEMENT_RESOLVERS)}"
            ) from None
        start_nodes = place(
            graph, k, _scenario_seed(trial, "placement", draw)
        )
    wake_rounds = schedule_from_strategy(
        trial.wake_schedule, k, seed=_scenario_seed(trial, "wake", draw)
    )
    return start_nodes, wake_rounds


def _scenario_is_randomized(trial: TrialSpec) -> bool:
    """Whether any scenario component actually consumes its seed."""
    return (
        trial.placement == "random"
        or trial.wake_schedule.partition(":")[0] == "random"
        or trial.faults.partition(":")[0] == "crash-random"
        or trial.dynamics == "ring-random"
    )


def _run_gather_known(trial: TrialSpec, graph: PortGraph,
                      provider: UXSProvider | None,
                      start_nodes: list[int] | None,
                      wake_rounds: list[int | None]) -> dict:
    report = run_gather_known(
        graph,
        list(trial.labels),
        trial.n_bound,
        start_nodes=start_nodes,
        wake_rounds=wake_rounds,
        provider=provider,
    )
    return {
        "rounds": report.round,
        "moves": report.total_moves,
        "events": report.events,
        "phases": report.phases,
        "leader": report.leader,
        "node": report.node,
        "edges": graph.num_edges(),
    }


def _run_gather_unknown(trial: TrialSpec, graph: PortGraph,
                        provider: UXSProvider | None,
                        start_nodes: list[int] | None,
                        wake_rounds: list[int | None]) -> dict:
    # No knowledge: n_bound is deliberately unused.  Declaration
    # clocks are astronomical (hundreds of digits) but exact ints,
    # so records remain JSON-safe and byte-stable.
    report = run_gather_unknown(
        graph,
        list(trial.labels),
        start_nodes=start_nodes,
        wake_rounds=wake_rounds,
        provider=provider,
    )
    return {
        "rounds": report.round,
        "moves": report.total_moves,
        "events": report.events,
        "leader": report.leader,
        "node": report.node,
        "hypothesis": report.hypothesis,
        "size": report.size,
        "edges": graph.num_edges(),
    }


def _run_gossip_known(trial: TrialSpec, graph: PortGraph,
                      provider: UXSProvider | None,
                      start_nodes: list[int] | None,
                      wake_rounds: list[int | None]) -> dict:
    if trial.messages is None:
        raise ValueError("gossip trials need a message set")
    report = run_gossip_known(
        graph,
        list(trial.labels),
        list(trial.messages),
        trial.n_bound,
        start_nodes=start_nodes,
        wake_rounds=wake_rounds,
        provider=provider,
    )
    return {
        "rounds": report.round,
        "events": report.events,
        "leader": report.leader,
        "messages": dict(report.messages),
        "edges": graph.num_edges(),
    }


def _run_gossip_unknown(trial: TrialSpec, graph: PortGraph,
                        provider: UXSProvider | None,
                        start_nodes: list[int] | None,
                        wake_rounds: list[int | None]) -> dict:
    if trial.messages is None:
        raise ValueError("gossip trials need a message set")
    report = run_gossip_unknown(
        graph,
        list(trial.labels),
        list(trial.messages),
        start_nodes=start_nodes,
        wake_rounds=wake_rounds,
        provider=provider,
    )
    return {
        "rounds": report.round,
        "events": report.events,
        "leader": report.leader,
        "messages": dict(report.messages),
        "edges": graph.num_edges(),
    }


def _run_talking(trial: TrialSpec, graph: PortGraph,
                 provider: UXSProvider | None,
                 start_nodes: list[int] | None,
                 wake_rounds: list[int | None]) -> dict:
    report = run_talking_gather(
        graph,
        list(trial.labels),
        trial.n_bound,
        start_nodes=start_nodes,
        wake_rounds=wake_rounds,
        provider=provider,
    )
    return {
        "rounds": report.round,
        "moves": report.total_moves,
        "events": report.events,
        "leader": report.leader,
        "node": report.node,
        "edges": graph.num_edges(),
    }


def _run_random_walk(trial: TrialSpec, graph: PortGraph,
                     provider: UXSProvider | None,
                     start_nodes: list[int] | None,
                     wake_rounds: list[int | None]) -> dict:
    # The walk seed defaults to the trial's derived seed (replicates
    # explore different walks) but can be pinned via algorithm_params
    # to reproduce historical fixed-seed runs.
    walk_seed = trial.algorithm_params.get("seed", trial.graph_seed)
    report = run_random_walk_gather(
        graph,
        list(trial.labels),
        trial.n_bound,
        start_nodes=start_nodes,
        wake_rounds=wake_rounds,
        provider=provider,
        seed=walk_seed,
    )
    return {
        "rounds": report.round,
        "moves": report.total_moves,
        "events": report.events,
        "leader": report.leader,
        "node": report.node,
        "edges": graph.num_edges(),
    }


ALGORITHMS: dict[str, Callable] = {
    "gather_known": _run_gather_known,
    "gather_unknown": _run_gather_unknown,
    "gossip_known": _run_gossip_known,
    "gossip_unknown": _run_gossip_unknown,
    "talking": _run_talking,
    "random_walk": _run_random_walk,
}


# ----------------------------------------------------------------------
# Fault injection (docs/experiments.md, "Faults & dynamics").
#
# A trial with a non-default ``faults`` / ``dynamics`` axis bypasses the
# ``run_*`` front-ends: their reports validate that *everyone* gathered,
# which is exactly what a crashed agent prevents.  Faulted trials build
# through the ``prepare_*`` front-ends instead and read the raw
# :class:`~repro.sim.scheduler.SimulationResult`, recording the
# graceful-degradation quantities (``survivors_gathered``,
# ``partial_groups``, ``crashed_labels``, ``timed_out``).
# ----------------------------------------------------------------------

def _trial_is_faulted(trial: TrialSpec) -> bool:
    return trial.faults != "none" or trial.dynamics != "none"


def _resolve_trial_faults(
    trial: TrialSpec,
    wake_rounds: list[int | None],
    draw: int,
) -> tuple[tuple[int, int], ...]:
    """Resolve the trial's fault axis into concrete ``(label, round)``s.

    ``crash-random`` consumes a seed derived like placement/wake seeds
    (minus the ``adv=`` segment), so draw 0 of every adversary kind
    crashes the same agents.  Resolution always re-establishes the
    round-0 waker guarantee (:func:`ensure_round0_survivor`) so a
    ``random`` wake schedule's contract survives fault injection.
    """
    if trial.faults == "none":
        return ()
    faults = resolve_fault_schedule(
        trial.faults,
        trial.labels,
        seed=_scenario_seed(trial, "faults", draw),
    )
    return ensure_round0_survivor(faults, trial.labels, wake_rounds)


def _fault_horizon(
    trial: TrialSpec,
    wake_rounds: list[int | None],
    provider: UXSProvider | None,
) -> int | None:
    """Graceful-degradation round horizon for a faulted trial.

    ``gather_known`` is time-bounded by Theorem 3.1, so twice that
    envelope (plus the wake offset) cleanly separates "still running"
    from "survivors can never gather".  ``gather_unknown`` has no such
    closed form; it relies on its own budget errors, which the faulted
    runner converts into structured outcomes.  Overridable per trial
    via ``algorithm_params["horizon"]``.
    """
    horizon = trial.algorithm_params.get("horizon")
    if horizon is not None:
        return int(horizon)
    if trial.algorithm != "gather_known":
        return None
    bound = KnownBoundParameters(trial.n_bound, provider).total_time_bound(
        smallest_label_length(list(trial.labels))
    )
    max_wake = max((w for w in wake_rounds if w is not None), default=0)
    return 2 * bound + max_wake


def _faulted_metrics(
    trial: TrialSpec,
    graph: PortGraph,
    result,
    faults_pairs: tuple[tuple[int, int], ...],
    horizon: int | None,
    protocol_error: str | None = None,
) -> dict:
    """Flatten a faulted run's raw result into the robustness record."""
    rounds = result.final_round
    if result.timed_out and horizon is not None:
        rounds = horizon
    metrics = {
        "rounds": rounds,
        "moves": result.total_moves,
        "events": result.events,
        "edges": graph.num_edges(),
        "faults": format_crash_faults(faults_pairs),
        "dynamics": trial.dynamics,
        "crashed_labels": [label for label in result.crashed_labels],
        "survivors_gathered": result.survivors_gathered(),
        "partial_groups": list(result.partial_groups()),
        "timed_out": result.timed_out,
    }
    if protocol_error is not None:
        metrics["protocol_error"] = protocol_error
    return metrics


def _run_faulted(
    trial: TrialSpec,
    graph: PortGraph,
    provider: UXSProvider | None,
    start_nodes: list[int] | None,
    wake_rounds: list[int | None],
    draw: int,
    faults_pairs: tuple[tuple[int, int], ...] | None = None,
) -> dict:
    """Execute one faulted/dynamic scenario into robustness metrics.

    A protocol error (phase-budget overruns under blocked edges, wait
    budgets starved by a crashed teammate, deadlocks past the horizon's
    reach) is a *finding*, not a failure: the run is finalized
    gracefully (every live agent ends undeclared at its current node)
    and recorded ``ok`` with a ``protocol_error`` note, so a
    robustness sweep can query how often the paper's algorithm survives
    its model being broken.  ``timed_out`` stays false because the run
    ended by the error, not the horizon.  Any other exception is a
    genuine failure and propagates.
    """
    if faults_pairs is None:
        faults_pairs = _resolve_trial_faults(trial, wake_rounds, draw)
    else:
        faults_pairs = ensure_round0_survivor(
            faults_pairs, trial.labels, wake_rounds
        )
    dynamics = None
    if trial.dynamics != "none":
        dynamics = make_dynamics(
            trial.dynamics,
            graph,
            seed=_scenario_seed(trial, "dynamics", draw),
        )
    horizon = _fault_horizon(trial, wake_rounds, provider)
    if trial.algorithm == "gather_known":
        prepared = prepare_gather_known(
            graph,
            list(trial.labels),
            trial.n_bound,
            start_nodes=start_nodes,
            wake_rounds=wake_rounds,
            provider=provider,
            faults=faults_pairs or None,
            dynamics=dynamics,
            horizon=horizon,
        )
    elif trial.algorithm == "gather_unknown":
        prepared = prepare_gather_unknown(
            graph,
            list(trial.labels),
            start_nodes=start_nodes,
            wake_rounds=wake_rounds,
            provider=provider,
            faults=faults_pairs or None,
            dynamics=dynamics,
            horizon=horizon,
        )
    else:
        raise TrialError(
            f"faults/dynamics are not supported for "
            f"{trial.algorithm!r} trials"
        )
    sim = prepared.simulation
    protocol_error = None
    try:
        result = sim.run()
    except RuntimeError as exc:
        sim._graceful_stop()
        sim.timed_out = False
        result = sim.result()
        protocol_error = f"{type(exc).__name__}: {exc}"
    return _faulted_metrics(
        trial, graph, result, faults_pairs, horizon, protocol_error
    )


def _simulate_scenario(
    trial: TrialSpec,
    graph: PortGraph,
    provider: UXSProvider | None,
    algorithm: Callable,
    draw: int,
) -> dict:
    start_nodes, wake_rounds = resolve_scenario(trial, graph, draw)
    if _trial_is_faulted(trial):
        return _run_faulted(
            trial, graph, provider, start_nodes, wake_rounds, draw
        )
    return algorithm(trial, graph, provider, start_nodes, wake_rounds)


def _run_adaptive_adversary(
    trial: TrialSpec,
    graph: PortGraph,
    provider: UXSProvider | None,
    algorithm: Callable,
    budget: int,
) -> dict:
    """Execute an ``adaptive:<strategy>:<budget>`` adversary trial.

    The adversary evaluates the trial's fixed (draw-0) scenario first,
    then spends the remaining budget *searching* the randomized
    scenario components with the named strategy
    (:mod:`repro.runner.search`), keeping the worst outcome.  Priming
    the search with the fixed scenario makes ``adaptive >= fixed`` a
    structural guarantee, exactly as draw-0 sharing makes ``worst_of
    >= fixed`` one.  Everything is derived from the trial's scenario
    seed, so records stay byte-identical across backends and worker
    counts.  Deterministic scenario components are not searched
    (mirroring ``worst_of``): with nothing randomized the budget
    collapses to a single evaluation.
    """
    # Imported lazily: the search package imports this module's
    # sibling spec module at load time.
    from .search.space import ScenarioSpace
    from .search.strategies import drive_search, make_strategy

    strategy_name = trial.adversary.split(":")[1]
    faulted = _trial_is_faulted(trial)
    base_nodes, base_wake = resolve_scenario(trial, graph, 0)
    if faulted:
        base_faults = _resolve_trial_faults(trial, base_wake, 0)
        base_metrics = _run_faulted(
            trial, graph, provider, base_nodes, base_wake, 0,
            faults_pairs=base_faults,
        )
    else:
        base_faults = None
        base_metrics = algorithm(
            trial, graph, provider, base_nodes, base_wake
        )
    evaluated = 1
    chosen = base_metrics
    chosen_scenario: dict[str, str] = {
        "placement": trial.placement,
        "wake": trial.wake_schedule,
    }
    if faulted:
        chosen_scenario["faults"] = trial.faults
    if budget > 1 and _scenario_is_randomized(trial):
        wake_kind, wake_args = parse_wake_strategy(trial.wake_schedule)
        search_wake = wake_kind == "random"
        max_delay = (
            wake_args[0] if search_wake and wake_args else 16
        )
        dormant_pct = (
            wake_args[1] if search_wake and len(wake_args) > 1 else 25
        )
        search_faults = trial.faults.partition(":")[0] == "crash-random"
        fault_k = 0
        max_fault_round = 0
        if search_faults:
            _kind, fault_k, max_fault_round = parse_fault_strategy(
                trial.faults
            )
        space = ScenarioSpace(
            n=graph.n,
            team=len(trial.labels),
            max_delay=max_delay,
            dormant_pct=dormant_pct,
            search_placement=trial.placement == "random",
            search_wake=search_wake,
            search_faults=search_faults,
            fault_labels=trial.labels,
            fault_k=fault_k,
            max_fault_round=max_fault_round,
        )

        def stream(draw: int):
            nodes, wake = resolve_scenario(trial, graph, draw)
            faults = (
                _resolve_trial_faults(trial, wake, draw)
                if search_faults
                else None
            )
            return space.from_resolved(nodes, wake, faults)

        strategy = make_strategy(
            strategy_name,
            space,
            seed=_scenario_seed(trial, "adaptive", 0),
            budget=budget - 1,
            maximize=True,
            stream=stream,
        )
        metrics_by_sig: dict[str, dict] = {}
        base_point = space.from_resolved(
            base_nodes, base_wake,
            base_faults if search_faults else None,
        )
        strategy.prime(base_point, base_metrics["rounds"])
        metrics_by_sig[space.signature(base_point)] = base_metrics

        def evaluate_batch(points) -> list:
            values = []
            for point in points:
                nodes = (
                    list(point.nodes)
                    if point.nodes is not None
                    else base_nodes
                )
                wake = (
                    list(point.wake)
                    if point.wake is not None
                    else base_wake
                )
                if faulted:
                    pairs = (
                        point.faults
                        if point.faults is not None
                        else base_faults
                    )
                    metrics = _run_faulted(
                        trial, graph, provider, nodes, wake, 0,
                        faults_pairs=pairs,
                    )
                else:
                    metrics = algorithm(trial, graph, provider, nodes, wake)
                metrics_by_sig[space.signature(point)] = metrics
                values.append(metrics["rounds"])
            return values

        outcome = drive_search(
            strategy, evaluate_batch, budget - 1, maximize=True
        )
        evaluated += outcome.attempts
        if (
            outcome.best_point is not None
            and outcome.best_value is not None
            and outcome.best_value > base_metrics["rounds"]
        ):
            signature = space.signature(outcome.best_point)
            chosen = metrics_by_sig[signature]
            placement, wake, faults_str = space.encode(outcome.best_point)
            chosen_scenario = {
                "placement": placement or trial.placement,
                "wake": wake or trial.wake_schedule,
            }
            if faulted:
                chosen_scenario["faults"] = faults_str or trial.faults
    metrics = dict(chosen)
    metrics["adversary_draws"] = budget
    metrics["adversary_evaluated"] = evaluated
    metrics["adversary_scenario"] = chosen_scenario
    return metrics


def execute_trial(
    trial: TrialSpec,
    provider: UXSProvider | None = None,
    graph: PortGraph | None = None,
) -> TrialResult:
    """Run one trial, capturing any failure in the result record.

    ``provider`` is the process-local :class:`UXSProvider`; passing one
    lets a worker reuse its sequence cache across every trial it
    executes (sequences are pure functions of ``(N, seed, factor)``, so
    all workers agree without any cross-process traffic).

    ``graph`` optionally skips graph construction: graphs are pure
    functions of ``(family, n, graph_seed)``, so a caller that executes
    many trials on the same graph (the pipelined backend's batches) can
    build it once and share it — records stay byte-identical either
    way.  Passing ``None`` builds (and failure-captures) as usual.

    With a ``worst_of``/``best_of`` adversary the trial simulates every
    scenario draw and records the extremal one, annotating the metrics
    with the chosen draw index (``adversary_draw``) and the draw count.

    When an event dispatcher is attached (docs/observability.md) the
    execution is bracketed by :class:`TrialStart` / :class:`TrialEnd`
    events; records are byte-identical either way.
    """
    reg = _metrics_registry.current()
    if reg is None:
        return _execute_trial_events(trial, provider, graph)
    with reg.timer("runner.trial.wall_seconds"):
        result = _execute_trial_events(trial, provider, graph)
    status = "ok" if result.ok else "failed"
    reg.counter("runner.trials.executed", status=status).value += 1
    return result


def _execute_trial_events(
    trial: TrialSpec,
    provider: UXSProvider | None = None,
    graph: PortGraph | None = None,
) -> TrialResult:
    """The event-bracketing layer under :func:`execute_trial`."""
    emit = _event_stream.current()
    if emit is None:
        return _execute_trial_inner(trial, provider, graph)
    emit.emit(_trial_start_event(trial))
    result = _execute_trial_inner(trial, provider, graph)
    emit.emit(_trial_end_event(result))
    return result


def _trial_start_event(trial: TrialSpec):
    return _EvTrialStart(
        key=trial.key, algorithm=trial.algorithm,
        family=trial.family, n=trial.n, seed=trial.seed,
    )


def _trial_end_event(result: TrialResult):
    metrics = result.metrics
    return _EvTrialEnd(
        key=result.trial.key,
        ok=result.ok,
        error=result.error,
        rounds=metrics.get("rounds"),
        moves=metrics.get("moves"),
        events=metrics.get("events"),
    )


def _execute_trial_inner(
    trial: TrialSpec,
    provider: UXSProvider | None = None,
    graph: PortGraph | None = None,
) -> TrialResult:
    try:
        algorithm = ALGORITHMS[trial.algorithm]
    except KeyError:
        return TrialResult(
            trial,
            ok=False,
            error=(
                f"unknown algorithm {trial.algorithm!r}; "
                f"known: {sorted(ALGORITHMS)}"
            ),
        )
    try:
        kind, draws = parse_adversary(trial.adversary)
        if graph is None:
            graph = _build_graph(trial)
        if kind == "fixed":
            metrics = _simulate_scenario(
                trial, graph, provider, algorithm, 0
            )
        elif kind == "adaptive":
            metrics = _run_adaptive_adversary(
                trial, graph, provider, algorithm, budget=draws
            )
        else:
            # With fully deterministic scenario components every draw
            # is identical, so evaluating one is observationally
            # equivalent (ties keep the first draw) at 1/k the cost.
            evaluate = draws if _scenario_is_randomized(trial) else 1
            chosen: dict | None = None
            chosen_draw = 0
            for draw in range(evaluate):
                candidate = _simulate_scenario(
                    trial, graph, provider, algorithm, draw
                )
                better = chosen is None or (
                    candidate["rounds"] > chosen["rounds"]
                    if kind == "worst_of"
                    else candidate["rounds"] < chosen["rounds"]
                )
                if better:
                    chosen, chosen_draw = candidate, draw
            assert chosen is not None  # evaluate >= 1
            metrics = dict(chosen)
            metrics["adversary_draw"] = chosen_draw
            metrics["adversary_draws"] = draws
    except Exception as exc:  # captured, not raised: sweeps must survive
        return TrialResult(
            trial, ok=False, error=f"{type(exc).__name__}: {exc}"
        )
    return TrialResult(trial, ok=True, metrics=metrics)
