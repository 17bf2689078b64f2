"""High-level entry points: configure, simulate and validate a run.

These wrappers are the public API most users (and all benchmarks)
interact with: they assemble the agents, pre-flight-verify the
exploration sequences against the actual graph, run the event-driven
simulation and post-validate the outcome against the paper's
guarantees (same declaration round, same node, consistent leader).
"""

from __future__ import annotations

from ..explore.uxs import UXSProvider
from ..graphs.port_graph import PortGraph
from ..sim.agent import AgentContext, declare
from ..sim.scheduler import AgentSpec, Simulation, SimulationResult
from .configurations import DovetailOmega
from .gather_known import gather_known_core, gather_known_program, smallest_label_length
from .gather_unknown import gather_unknown_core, gather_unknown_program
from .gossip import gossip
from .parameters import KnownBoundParameters
from .results import GatherOutcome, GossipOutcome
from .unknown_parameters import UnknownBoundSchedule


class RunValidationError(AssertionError):
    """The simulation finished but violated a guarantee of the paper."""


class PreparedRun:
    """A fully built, not-yet-run simulation plus its validation step.

    The ``prepare_*`` front-ends below split run assembly (placement,
    pre-flight UXS verification, agent program construction) from
    execution so a caller can drive the simulation itself (faulted
    trials read its raw result instead of the validated report, tools
    attach event processors to it first); ``finalize`` turns a
    :class:`~repro.sim.scheduler.SimulationResult` — however obtained —
    into the same validated report ``run()`` returns.
    """

    __slots__ = ("simulation", "_finalize")

    def __init__(self, simulation: Simulation, finalize) -> None:
        self.simulation = simulation
        self._finalize = finalize

    def finalize(self, sim_result: SimulationResult):
        """Validate a result of :attr:`simulation` into a report."""
        return self._finalize(sim_result)

    def run(self):
        """Execute the simulation and validate, like the ``run_*`` API."""
        return self._finalize(self.simulation.run())


class GatherReport:
    """Validated result of a gathering run."""

    __slots__ = (
        "sim_result",
        "labels",
        "leader",
        "round",
        "node",
        "phases",
        "events",
        "total_moves",
    )

    def __init__(self, sim_result: SimulationResult, labels: list[int]) -> None:
        self.sim_result = sim_result
        self.labels = list(labels)
        if not sim_result.gathered():
            raise RunValidationError(
                "agents did not declare gathering at one node in one round: "
                f"{sim_result.outcomes}"
            )
        payloads = sim_result.payloads()
        leaders = {p.leader for p in payloads}
        if len(leaders) != 1:
            raise RunValidationError(f"leader disagreement: {leaders}")
        leader = leaders.pop()
        if leader not in self.labels:
            raise RunValidationError(
                f"elected leader {leader} is not an agent label {self.labels}"
            )
        self.leader = leader
        self.round = sim_result.declaration_round()
        self.node = sim_result.meeting_node()
        self.phases = max(p.phase for p in payloads)
        self.events = sim_result.events
        self.total_moves = sim_result.total_moves

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"GatherReport(round={self.round}, node={self.node}, "
            f"leader={self.leader}, phases={self.phases})"
        )


def _resolve_placement(
    graph: PortGraph,
    labels: list[int],
    start_nodes: list[int] | None,
    wake_rounds: list[int | None] | None,
) -> tuple[list[int], list[int | None]]:
    if start_nodes is None:
        start_nodes = list(range(len(labels)))
    if wake_rounds is None:
        wake_rounds = [0] * len(labels)
    if len(start_nodes) != len(labels) or len(wake_rounds) != len(labels):
        raise ValueError("labels, start_nodes and wake_rounds must align")
    if len(labels) < 2:
        raise ValueError("gathering needs at least two agents")
    if len(labels) > graph.n:
        raise ValueError("more agents than nodes")
    return start_nodes, wake_rounds


def prepare_gather_known(
    graph: PortGraph,
    labels: list[int],
    n_bound: int,
    start_nodes: list[int] | None = None,
    wake_rounds: list[int | None] | None = None,
    provider: UXSProvider | None = None,
    max_events: int | None = 300_000_000,
    faults=None,
    dynamics=None,
    horizon: int | None = None,
) -> PreparedRun:
    """Assemble a ``GatherKnownUpperBound`` run without executing it.

    ``faults`` / ``dynamics`` / ``horizon`` are forwarded to
    :class:`~repro.sim.scheduler.Simulation` unchanged; faulted runs
    bypass :meth:`PreparedRun.run` (whose ``GatherReport`` validation
    assumes everyone gathers) and inspect the raw result instead.
    """
    start_nodes, wake_rounds = _resolve_placement(
        graph, labels, start_nodes, wake_rounds
    )
    params = KnownBoundParameters(n_bound, provider)
    params.provider.verify_for_graph(n_bound, graph)
    budget = params.max_phases(smallest_label_length(labels)) + 2
    program = gather_known_program(params, max_phases=budget)
    specs = [
        AgentSpec(label, node, program, wake)
        for label, node, wake in zip(labels, start_nodes, wake_rounds)
    ]
    sim = Simulation(
        graph,
        specs,
        max_events=max_events,
        faults=faults,
        dynamics=dynamics,
        horizon=horizon,
    )
    labels = list(labels)
    return PreparedRun(sim, lambda result: GatherReport(result, labels))


def run_gather_known(
    graph: PortGraph,
    labels: list[int],
    n_bound: int,
    start_nodes: list[int] | None = None,
    wake_rounds: list[int | None] | None = None,
    provider: UXSProvider | None = None,
    max_events: int | None = 300_000_000,
) -> GatherReport:
    """Simulate ``GatherKnownUpperBound`` and validate Theorem 3.1.

    Parameters
    ----------
    graph:
        The (anonymous, port-labelled) network.
    labels:
        Distinct positive agent labels.
    n_bound:
        The common upper bound ``N >= graph.n`` known to all agents.
    start_nodes / wake_rounds:
        Placement and adversary wake schedule; ``None`` wake means the
        agent stays dormant until visited.
    """
    return prepare_gather_known(
        graph,
        labels,
        n_bound,
        start_nodes=start_nodes,
        wake_rounds=wake_rounds,
        provider=provider,
        max_events=max_events,
    ).run()


class GossipReport:
    """Validated result of a gossiping run."""

    __slots__ = ("sim_result", "messages", "round", "events", "leader")

    def __init__(
        self,
        sim_result: SimulationResult,
        expected: dict[str, int],
    ) -> None:
        self.sim_result = sim_result
        payloads = sim_result.payloads()
        rounds = {o.finish_round for o in sim_result.outcomes}
        if len(rounds) != 1:
            raise RunValidationError(
                f"gossip did not finish synchronously: {rounds}"
            )
        self.round = rounds.pop()
        learned = [p.messages for p in payloads]
        for got in learned:
            if got != expected:
                raise RunValidationError(
                    f"gossip mismatch: expected {expected}, got {got}"
                )
        self.messages = expected
        leaders = {
            p.gather.leader for p in payloads if p.gather is not None
        }
        self.leader = leaders.pop() if len(leaders) == 1 else None
        self.events = sim_result.events


def run_gossip_known(
    graph: PortGraph,
    labels: list[int],
    messages: list[str],
    n_bound: int,
    start_nodes: list[int] | None = None,
    wake_rounds: list[int | None] | None = None,
    provider: UXSProvider | None = None,
    max_events: int | None = 300_000_000,
) -> GossipReport:
    """``GossipKnownUpperBound`` (Section 5): gather, then gossip.

    ``messages[i]`` is the binary-string message of ``labels[i]``.
    Validates that every agent ends with the exact message multiset.
    """
    start_nodes, wake_rounds = _resolve_placement(
        graph, labels, start_nodes, wake_rounds
    )
    if len(messages) != len(labels):
        raise ValueError("one message per agent")
    for m in messages:
        if set(m) - {"0", "1"}:
            raise ValueError(f"messages are binary strings, got {m!r}")
    params = KnownBoundParameters(n_bound, provider)
    params.provider.verify_for_graph(n_bound, graph)
    budget = params.max_phases(smallest_label_length(labels)) + 2
    message_of = dict(zip(labels, messages))

    def make_program(my_message: str):
        def program(ctx: AgentContext):
            gather_outcome = yield from gather_known_core(
                ctx, params, max_phases=budget
            )
            learned = yield from gossip(ctx, params, my_message)
            yield from declare(
                ctx,
                GossipOutcome(ctx.label, learned, gather_outcome),
            )

        return program

    specs = [
        AgentSpec(label, node, make_program(message_of[label]), wake)
        for label, node, wake in zip(labels, start_nodes, wake_rounds)
    ]
    sim = Simulation(graph, specs, max_events=max_events)
    expected: dict[str, int] = {}
    for m in messages:
        expected[m] = expected.get(m, 0) + 1
    return GossipReport(sim.run(), expected)


def run_leader_election(
    graph: PortGraph,
    labels: list[int],
    n_bound: int,
    **kwargs,
) -> int:
    """Leader election (Theorem 3.1 by-product): the elected label."""
    report = run_gather_known(graph, labels, n_bound, **kwargs)
    return report.leader


class UnknownGatherReport:
    """Validated result of a ``GatherUnknownUpperBound`` run."""

    __slots__ = (
        "sim_result",
        "labels",
        "leader",
        "size",
        "round",
        "node",
        "hypothesis",
        "events",
        "total_moves",
        "true_index",
    )

    def __init__(
        self,
        sim_result: SimulationResult,
        labels: list[int],
        graph_size: int,
        true_index: int,
    ) -> None:
        self.sim_result = sim_result
        self.labels = list(labels)
        self.true_index = true_index
        if not sim_result.gathered():
            raise RunValidationError(
                "agents did not declare gathering at one node in one "
                f"round: {sim_result.outcomes}"
            )
        payloads = sim_result.payloads()
        leaders = {p.leader for p in payloads}
        sizes = {p.size for p in payloads}
        hypotheses = {p.phase for p in payloads}
        if leaders != {min(labels)}:
            raise RunValidationError(
                f"leader must be the smallest label {min(labels)}, "
                f"got {leaders}"
            )
        if sizes != {graph_size}:
            raise RunValidationError(
                f"agents learned size {sizes}, real size is {graph_size}"
            )
        if len(hypotheses) != 1:
            raise RunValidationError(
                f"agents confirmed different hypotheses: {hypotheses}"
            )
        self.leader = leaders.pop()
        self.size = graph_size
        self.hypothesis = hypotheses.pop()
        if self.hypothesis != true_index:
            raise RunValidationError(
                f"confirmed hypothesis {self.hypothesis} but the true "
                f"configuration has index {true_index}"
            )
        self.round = sim_result.declaration_round()
        self.node = sim_result.meeting_node()
        self.events = sim_result.events
        self.total_moves = sim_result.total_moves

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"UnknownGatherReport(hypothesis={self.hypothesis}, "
            f"round={self.round}, leader={self.leader}, size={self.size})"
        )


def _prepare_unknown(
    graph: PortGraph,
    labels: list[int],
    start_nodes: list[int] | None,
    wake_rounds: list[int | None] | None,
    omega,
    provider: UXSProvider | None,
):
    start_nodes, wake_rounds = _resolve_placement(
        graph, labels, start_nodes, wake_rounds
    )
    if omega is None:
        omega = DovetailOmega()
    sched = UnknownBoundSchedule(omega, provider)
    sched.provider.verify_for_graph(graph.n, graph)
    label_map = dict(zip(start_nodes, labels))
    true_index = omega.index_of(graph, label_map)
    if true_index is None:
        raise ValueError(
            "the real configuration does not occur in the enumerated "
            "prefix of Omega (labels too large or graph too big?)"
        )
    for h in range(1, true_index + 1):
        sched.assert_executable(h)
    return start_nodes, wake_rounds, sched, true_index


def prepare_gather_unknown(
    graph: PortGraph,
    labels: list[int],
    start_nodes: list[int] | None = None,
    wake_rounds: list[int | None] | None = None,
    omega=None,
    provider: UXSProvider | None = None,
    max_events: int | None = 50_000_000,
    faults=None,
    dynamics=None,
    horizon: int | None = None,
) -> PreparedRun:
    """Assemble a ``GatherUnknownUpperBound`` run without executing it."""
    start_nodes, wake_rounds, sched, true_index = _prepare_unknown(
        graph, labels, start_nodes, wake_rounds, omega, provider
    )
    program = gather_unknown_program(sched, max_hypotheses=true_index)
    specs = [
        AgentSpec(label, node, program, wake)
        for label, node, wake in zip(labels, start_nodes, wake_rounds)
    ]
    sim = Simulation(
        graph,
        specs,
        max_events=max_events,
        faults=faults,
        dynamics=dynamics,
        horizon=horizon,
    )
    labels = list(labels)
    return PreparedRun(
        sim,
        lambda result: UnknownGatherReport(
            result, labels, graph.n, true_index
        ),
    )


def run_gather_unknown(
    graph: PortGraph,
    labels: list[int],
    start_nodes: list[int] | None = None,
    wake_rounds: list[int | None] | None = None,
    omega=None,
    provider: UXSProvider | None = None,
    max_events: int | None = 50_000_000,
) -> UnknownGatherReport:
    """Simulate ``GatherUnknownUpperBound`` and validate Theorem 4.1.

    The agents receive *no* knowledge about the graph; they walk the
    enumeration ``omega`` (default: :class:`DovetailOmega`).  The
    wrapper pre-checks that the true configuration's Ω-prefix is
    executable (every earlier hypothesis has ``n_h = 2``; see
    :class:`~repro.core.unknown_parameters.InfeasibleHypothesisError`
    for why size-3 hypotheses are beyond any computer).
    """
    return prepare_gather_unknown(
        graph,
        labels,
        start_nodes=start_nodes,
        wake_rounds=wake_rounds,
        omega=omega,
        provider=provider,
        max_events=max_events,
    ).run()


def run_gossip_unknown(
    graph: PortGraph,
    labels: list[int],
    messages: list[str],
    start_nodes: list[int] | None = None,
    wake_rounds: list[int | None] | None = None,
    omega=None,
    provider: UXSProvider | None = None,
    max_events: int | None = 50_000_000,
) -> GossipReport:
    """``GossipUnknownUpperBound``: gather with no knowledge, then use
    the *learned* graph size as the bound for the gossip phase."""
    start_nodes, wake_rounds, sched, true_index = _prepare_unknown(
        graph, labels, start_nodes, wake_rounds, omega, provider
    )
    if len(messages) != len(labels):
        raise ValueError("one message per agent")
    message_of = dict(zip(labels, messages))

    def make_program(my_message: str):
        def program(ctx: AgentContext):
            gather_outcome = yield from gather_unknown_core(
                ctx, sched, max_hypotheses=true_index
            )
            params = KnownBoundParameters(gather_outcome.size, sched.provider)
            learned = yield from gossip(ctx, params, my_message)
            yield from declare(
                ctx, GossipOutcome(ctx.label, learned, gather_outcome)
            )

        return program

    specs = [
        AgentSpec(label, node, make_program(message_of[label]), wake)
        for label, node, wake in zip(labels, start_nodes, wake_rounds)
    ]
    sim = Simulation(graph, specs, max_events=max_events)
    expected: dict[str, int] = {}
    for m in messages:
        expected[m] = expected.get(m, 0) + 1
    return GossipReport(sim.run(), expected)
