"""Agent-side runtime: the context object and primitive helpers.

Algorithm code is written as generator functions receiving an
:class:`AgentContext`.  The helpers below are sub-generators used with
``yield from``; each forwards one primitive op to the scheduler,
refreshes ``ctx`` with the resulting :class:`Observation` and converts
fired watches into :class:`WatchTriggered` exceptions, which gives the
pseudo-code's "interrupt this block as soon as ..." a direct and
readable translation::

    try:
        yield from wait(ctx, D, watch=("gt", c))
        yield from explo(ctx, N, watch=("gt", c))
    except WatchTriggered:
        interrupted = True
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator

from ..metrics import register_collector as _register_collector
from .ops import (
    DECLARE,
    MOVE,
    OBSERVE,
    Observation,
    PACED,
    resolve_walk_step,
    WAIT,
    WAIT_STABLE,
    WALK,
    Watch,
    watch_hit,
)

AgentGen = Generator[tuple, Observation, object]

# Walk-plan interner.  Algorithms re-derive the same plans over and
# over as fresh tuples (EXPLO backtracks, EST tree-path probes, ECE
# word sweeps); the scheduler's route cache keys chased routes by plan
# *identity*, so equal plans must be funnelled through one canonical
# tuple to hit it.  Bounded LRU; plans are graph-independent port/rule
# sequences, so sharing across agents and trials is safe.
_PLAN_INTERN: OrderedDict[tuple, tuple] = OrderedDict()
_PLAN_INTERN_CAP = 4096

# Hit/miss tallies: plain module ints on the hot path, published into
# an attached metrics registry as absolute process totals at snapshot
# time (see the collector at the bottom of this module).
_INTERN_HITS = 0
_INTERN_MISSES = 0


def intern_plan(steps: tuple) -> tuple:
    """The canonical tuple equal to ``steps`` (inserted if new)."""
    global _INTERN_HITS, _INTERN_MISSES
    hit = _PLAN_INTERN.get(steps)
    if hit is not None:
        _INTERN_HITS += 1
        _PLAN_INTERN.move_to_end(steps)
        return hit
    _INTERN_MISSES += 1
    _PLAN_INTERN[steps] = steps
    if len(_PLAN_INTERN) > _PLAN_INTERN_CAP:
        _PLAN_INTERN.popitem(last=False)
    return steps


def intern_stats() -> tuple[int, int]:
    """``(hits, misses)`` of the walk-plan interner, process-wide."""
    return _INTERN_HITS, _INTERN_MISSES


def reset_intern_stats() -> None:
    """Zero the tallies (a forked pool worker starts its own totals)."""
    global _INTERN_HITS, _INTERN_MISSES
    _INTERN_HITS = 0
    _INTERN_MISSES = 0


def _collect_intern_stats(registry) -> None:
    registry.counter("sim.plan_intern.hits").value = _INTERN_HITS
    registry.counter("sim.plan_intern.misses").value = _INTERN_MISSES


_register_collector(_collect_intern_stats)


class WatchTriggered(Exception):
    """A watched cardinality condition fired during an op."""

    def __init__(self, observation: Observation) -> None:
        super().__init__("watch triggered")
        self.observation = observation


class AgentContext:
    """Per-agent view handed to algorithm generators.

    Exposes the agent's label, its last observation and a local clock.
    Everything else (node identity, other agents' labels or positions)
    is deliberately absent, matching the paper's model.
    """

    __slots__ = ("label", "obs", "wake_round", "entries_log")

    def __init__(self, label: int) -> None:
        self.label = label
        self.obs: Observation | None = None
        self.wake_round: int | None = None
        # Optional recording of entry ports; Hypothesis() (Algorithm 6)
        # retraces every port it entered through during its first part.
        self.entries_log: list[int] | None = None

    # -- perception ----------------------------------------------------

    def curcard(self) -> int:
        """CurCard: number of agents at the current node, now."""
        return self.obs.curcard

    def degree(self) -> int:
        """Degree of the current node."""
        return self.obs.degree

    def local_time(self) -> int:
        """Rounds elapsed since this agent woke up."""
        return self.obs.round - self.wake_round

    def record_entries(self) -> None:
        """Start logging ports of entry (for Algorithm 6 line 16)."""
        self.entries_log = []

    def stop_recording_entries(self) -> list[int]:
        """Stop logging and return the recorded entry ports."""
        log = self.entries_log if self.entries_log is not None else []
        self.entries_log = None
        return log


def move(ctx: AgentContext, port: int, watch: Watch | None = None) -> AgentGen:
    """``take port p``: one round, returns the arrival observation."""
    obs = yield (MOVE, port, watch)
    ctx.obs = obs
    if ctx.entries_log is not None:
        ctx.entries_log.append(obs.entry_port)
    if watch is not None and watch_hit(watch, obs.curcard):
        raise WatchTriggered(obs)
    return obs


def walk(
    ctx: AgentContext,
    steps,
    watch: Watch | None = None,
    stop_before_invalid: bool = False,
) -> AgentGen:
    """Walk a deterministic multi-edge segment, one round per edge.

    ``steps`` is a walk plan (see :mod:`repro.sim.ops`): a tuple of
    ints where ``step >= 0`` is an absolute exit port and ``step < 0``
    is a UXS-rule step with offset ``~step``.  The scheduler may
    execute any interaction-free prefix as a single event; this helper
    loops until the whole plan has run, so agent code sees exactly the
    per-edge history of the per-step model.

    Returns a list of per-edge records ``(round, degree, entry_port,
    curcard)`` — what :func:`move` would have observed on each arrival.
    Raises :class:`WatchTriggered` on the first arrival whose CurCard
    fires ``watch``, after recording that edge (like :func:`move`).

    With ``stop_before_invalid`` the walk ends quietly *before* the
    first absolute step that is not a valid port of the current node
    (for plans hypothesised against an unknown graph, cf. Algorithm 8);
    otherwise such a step is rejected by the scheduler exactly like a
    bad ``move``.
    """
    steps = tuple(steps)
    trace: list[tuple[int, int, int, int]] = []
    entry: int | None = None  # UXS rule state along the walk
    i = 0
    total = len(steps)
    while i < total:
        degree = ctx.degree()
        port = resolve_walk_step(steps[i], entry, degree)
        if stop_before_invalid and (port < 0 or port >= degree):
            return trace
        obs = yield (WALK, port, steps, i, watch)
        ctx.obs = obs
        walked = getattr(obs, "walked", None)
        if walked is None:
            # Slow path: the scheduler executed exactly one edge with
            # the ordinary simultaneous-move machinery.
            entry = obs.entry_port
            trace.append((obs.round, obs.degree, entry, obs.curcard))
            if ctx.entries_log is not None:
                ctx.entries_log.append(entry)
            i += 1
        else:
            # Fast path: a whole segment ran as one event.
            trace.extend(walked)
            if ctx.entries_log is not None:
                ctx.entries_log.extend(rec[2] for rec in walked)
            entry = walked[-1][2]
            i += len(walked)
        if watch is not None and watch_hit(watch, obs.curcard):
            raise WatchTriggered(obs)
    return trace


def paced_walk(
    ctx: AgentContext,
    ports,
    delay: int,
    stop_degree: int | None = None,
    stop_before_invalid: bool = False,
) -> AgentGen:
    """For each port: ``wait(ctx, delay)``, then ``move(ctx, port)``.

    The slowed walks of ``BallTraversal`` and of the ``Hypothesis``
    unwind (Algorithms 6 and 7) as one op: the scheduler makes the
    waits and moves itself and resumes the agent once at the end, so
    a walk of ``L`` edges costs one program resume instead of ``2 L``.
    Events, rounds and observations are those of the literal
    alternation.  ``ports`` are absolute exit ports; ``delay >= 1``.

    The walk ends early, before the next wait, on a node of degree
    ``>= stop_degree`` (the start node included) or, with
    ``stop_before_invalid``, before a port the current node lacks;
    without it such a port is rejected like a bad :func:`move`.

    Returns the per-arrival records ``(round, degree, entry_port,
    curcard)``, like :func:`walk`, and logs the entry ports to
    ``ctx.entries_log`` when it records.
    """
    ports = tuple(ports)
    if not ports:
        return []
    degree = ctx.degree()
    if stop_degree is not None and degree >= stop_degree:
        return []
    if stop_before_invalid and not 0 <= ports[0] < degree:
        return []
    obs = yield (PACED, ports, delay, stop_degree, stop_before_invalid)
    ctx.obs = obs
    if ctx.entries_log is not None:
        ctx.entries_log.extend(obs.walked_cols[2])
    return obs.walked


def walk_cols(
    ctx: AgentContext,
    steps,
    watch: Watch | None = None,
) -> AgentGen:
    """:func:`walk`, returning column lists instead of row tuples.

    Returns ``(entries, degrees, curcards)`` — the per-edge history as
    three parallel lists.  Same op stream, same watch semantics and
    same scheduler-visible behavior as :func:`walk`; walk-dominated
    algorithms (``EXPLO``) use this to reduce whole segments with C
    primitives (``min``, slicing) instead of scanning row tuples.
    """
    steps = tuple(steps)
    ents: list[int] = []
    degs: list[int] = []
    cards: list[int] = []
    entry: int | None = None  # UXS rule state along the walk
    i = 0
    total = len(steps)
    entries_log = ctx.entries_log
    while i < total:
        degree = ctx.degree()
        port = resolve_walk_step(steps[i], entry, degree)
        obs = yield (WALK, port, steps, i, watch)
        ctx.obs = obs
        cols = getattr(obs, "walked_cols", None)
        if cols is None:
            # Slow path: exactly one edge via the ordinary machinery.
            entry = obs.entry_port
            ents.append(entry)
            degs.append(obs.degree)
            cards.append(obs.curcard)
            if entries_log is not None:
                entries_log.append(entry)
            i += 1
        else:
            # Fast path: a whole segment ran as one event.
            _rounds, cdegs, cents, ccards = cols
            ents.extend(cents)
            degs.extend(cdegs)
            cards.extend(ccards)
            if entries_log is not None:
                entries_log.extend(cents)
            entry = ents[-1]
            i += len(cents)
        if watch is not None and watch_hit(watch, obs.curcard):
            raise WatchTriggered(obs)
    return ents, degs, cards


def observe(ctx: AgentContext, rounds: int) -> AgentGen:
    """Observe CurCard for ``rounds`` consecutive rounds while waiting.

    Byte-identical to ``rounds`` iterations of ``wait(ctx, 1)`` each
    followed by a CurCard reading — same events, same round arithmetic —
    but issued as ``observe`` ops so the scheduler's segment planner
    can advance a stationary observer together with a walking cohort
    (the rank-ordered dance of ``StarCheck`` is the motivating case).

    Returns a list of per-round records ``(round, degree, entry_port,
    curcard)``; ``entry_port`` is always ``None`` (the agent does not
    move).  Does not touch ``ctx.entries_log``.  ``rounds <= 0`` is a
    no-op returning an empty list.
    """
    records: list[tuple[int, int, None, int]] = []
    remaining = rounds
    while remaining > 0:
        obs = yield (OBSERVE, remaining, None)
        ctx.obs = obs
        walked = getattr(obs, "walked", None)
        if walked is None:
            # Slow path: one round observed via the ordinary machinery.
            records.append((obs.round, obs.degree, None, obs.curcard))
            remaining -= 1
        else:
            # Fast path: a whole segment of rounds ran as one event.
            records.extend(walked)
            remaining -= len(walked)
    return records


def wait(ctx: AgentContext, rounds: int, watch: Watch | None = None) -> AgentGen:
    """``wait x rounds``; duration 0 is a no-op.

    If the watch already holds when the wait would begin, the wait is
    abandoned immediately (the paper's "as soon as").
    """
    if watch is not None and watch_hit(watch, ctx.obs.curcard):
        raise WatchTriggered(ctx.obs)
    if rounds <= 0:
        return ctx.obs
    obs = yield (WAIT, rounds, watch)
    ctx.obs = obs
    if obs.triggered:
        raise WatchTriggered(obs)
    return obs


def wait_stable(ctx: AgentContext, window: int) -> AgentGen:
    """Wait until ``window`` consecutive rounds pass with no CurCard
    variation, counting from (and including) the round of the latest
    variation — the primitive of lines 16/31 of Algorithm 3."""
    if window <= 0:
        return ctx.obs
    obs = yield (WAIT_STABLE, window, None)
    ctx.obs = obs
    return obs


def declare(ctx: AgentContext, payload: object) -> AgentGen:
    """Terminal op: declare (gathering achieved) with a result payload."""
    yield (DECLARE, payload, None)
    raise AssertionError("agent resumed after declaring")  # pragma: no cover
