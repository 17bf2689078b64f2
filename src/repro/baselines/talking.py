"""Gathering baseline in the *traditional* (talking) model.

The paper's Section 1.2 describes the model every previous gathering
algorithm assumed: co-located agents can exchange all currently
available information — in particular they see each other's labels.
This baseline implements the classic merge-and-follow-the-minimum
strategy in that model, as the reference point for the cost-of-silence
experiment (``benchmarks/bench_baselines.py``):

* phase 0: ``EXPLO(N)`` + wait (wake everybody, as in Algorithm 3);
* every agent runs ``TZ`` parameterised by the smallest label of its
  current *group*; groups with distinct minima meet within ``P(N, l)``
  rounds, merge instantly (talking!), adopt the joint minimum and
  restart;
* an agent declares as soon as its group contains the whole team.

Idealizations (this baseline is a *lower* bound on the talking model,
making the measured silence overhead an upper bound):

* agents are told the team size ``k`` (so termination detection is
  free; the paper's weak model pays for it with whole phases);
* merging, leader adoption and re-synchronization are instantaneous.
"""

from __future__ import annotations

from ..core.labels import transformed_label
from ..core.parameters import KnownBoundParameters
from ..explore.explo import explo
from ..explore.tz import tz
from ..explore.uxs import UXSProvider
from ..graphs.port_graph import PortGraph
from ..sim.agent import AgentContext, WatchTriggered, declare, wait
from ..sim.scheduler import AgentSpec, Simulation, SimulationResult
from ..sim.ops import SimulationError


class TalkingReport:
    """Validated result of a talking-baseline run."""

    __slots__ = ("sim_result", "round", "node", "leader", "events", "total_moves")

    def __init__(self, sim_result: SimulationResult, labels: list[int]) -> None:
        self.sim_result = sim_result
        if not sim_result.gathered():
            raise SimulationError(
                f"baseline failed to gather: {sim_result.outcomes}"
            )
        self.round = sim_result.declaration_round()
        self.node = sim_result.meeting_node()
        leaders = {p for p in sim_result.payloads()}
        if leaders != {min(labels)}:
            raise SimulationError(
                f"baseline leader mismatch: {leaders} vs {min(labels)}"
            )
        self.leader = min(labels)
        self.events = sim_result.events
        self.total_moves = sim_result.total_moves


class _OracleHandle:
    """Late-bound reference to the simulation's talking capability."""

    def __init__(self) -> None:
        self.sim: Simulation | None = None

    def labels_here(self, label: int) -> list[int]:
        return self.sim.colocated_labels(label)


def _talking_program(
    params: KnownBoundParameters,
    team_size: int,
    oracle: _OracleHandle,
    wake: int = 0,
    delay: int = 0,
):
    provider = params.provider
    n_bound = params.n_bound
    t_explo = params.t_explo

    block = 6 * t_explo

    def program(ctx: AgentContext):
        # Staggered wake-up: hold until the last teammate's wake round
        # (``delay = last_wake - wake``), so the protocol proper starts
        # simultaneously for the whole team.  The TZ/walk block grid is
        # anchored at *global* round 0 — ``ctx.local_time() + wake`` —
        # which makes every group compare the same stream position
        # regardless of when its members woke.
        if delay:
            yield from wait(ctx, delay)
        # Wake everyone, then let the late risers finish their tour.
        # The tours here and inside tz() are walk plans: merged groups
        # walk them in lockstep as joint scheduler segments, truncated
        # by the ("gt", c) watch at the exact meeting edge.
        yield from explo(ctx, provider, n_bound)
        yield from wait(ctx, t_explo)
        while True:
            # O(1) per call: the simulation resolves the label through
            # the index built at construction time.
            group = oracle.labels_here(ctx.label)
            if len(group) == team_size:
                yield from declare(ctx, min(group))
            stream = transformed_label(min(group))
            c = ctx.curcard()
            try:
                # Align to the global block grid, then run one TZ
                # block anchored at the global block index: all groups
                # compare the same stream position, so distinct minima
                # force a meeting.
                misaligned = (ctx.local_time() + wake) % block
                if misaligned:
                    yield from wait(ctx, block - misaligned, ("gt", c))
                yield from tz(
                    ctx,
                    provider,
                    n_bound,
                    stream,
                    block,
                    watch=("gt", c),
                    block_offset=(ctx.local_time() + wake) // block,
                )
                # Block over with no meeting: re-read the group (a
                # merge elsewhere may have changed other groups).
            except WatchTriggered:
                # Someone arrived (or we walked into them): merge by
                # falling through to re-read the co-located labels.
                pass

    return program


def resolve_wake_rounds(
    wake_rounds: list[int | None] | None, team_size: int
) -> list[int]:
    """Normalize a wake schedule for the talking baselines.

    The baselines handle arbitrary *concrete* wake rounds — each agent
    idles until the last teammate wakes, then the whole team starts
    the protocol simultaneously (still an idealization: agents are
    told when that is, which the paper's weak model must pay for).
    Only ``None`` entries are rejected: a woken-by-visit agent has no
    concrete wake round to delay to.  Infeasible combinations become
    captured failure records in scenario sweeps.
    """
    if wake_rounds is None:
        return [0] * team_size
    if len(wake_rounds) != team_size:
        raise ValueError("labels and wake_rounds must align")
    resolved: list[int] = []
    for w in wake_rounds:
        if w is None:
            raise ValueError(
                "the talking baselines need concrete wake rounds "
                f"(no dormant/None entries), got {wake_rounds}"
            )
        if w < 0:
            raise ValueError(f"wake rounds must be >= 0, got {w}")
        resolved.append(int(w))
    return resolved


def run_talking_gather(
    graph: PortGraph,
    labels: list[int],
    n_bound: int,
    start_nodes: list[int] | None = None,
    wake_rounds: list[int | None] | None = None,
    provider: UXSProvider | None = None,
    max_events: int | None = 100_000_000,
) -> TalkingReport:
    """Run the talking-model baseline.

    Arbitrary concrete wake schedules are supported: each agent idles
    until the last teammate's wake round, then the team runs the
    simultaneous protocol (``None`` entries are rejected — see
    :func:`resolve_wake_rounds`).  Returns a :class:`TalkingReport`;
    the declaration round is the quantity the silence-overhead
    experiment compares against.
    """
    if start_nodes is None:
        start_nodes = list(range(len(labels)))
    if len(labels) < 2 or len(labels) > graph.n:
        raise ValueError("need 2..n agents")
    wakes = resolve_wake_rounds(wake_rounds, len(labels))
    last_wake = max(wakes)
    params = KnownBoundParameters(n_bound, provider)
    params.provider.verify_for_graph(n_bound, graph)
    oracle = _OracleHandle()
    specs = [
        AgentSpec(
            label,
            node,
            _talking_program(
                params, len(labels), oracle,
                wake=wake, delay=last_wake - wake,
            ),
            wake_round=wake,
        )
        for label, node, wake in zip(labels, start_nodes, wakes)
    ]
    sim = Simulation(graph, specs, max_events=max_events)
    oracle.sim = sim
    return TalkingReport(sim.run(), labels)
