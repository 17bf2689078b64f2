"""``GatherUnknownUpperBound`` (Algorithms 5-11 of the paper).

No a-priori knowledge at all: the agents walk a fixed enumeration Ω of
initial configurations and, for each index ``h``, run ``Hypothesis(h)``
— "behave as if the real configuration were phi_h".  A hypothesis is
organised as:

* **preprocessing** (``BallTraversal`` + a wait of ``S_h``): visit
  every node any interfering agent could start from, so that agents
  still working on *earlier* hypotheses have been woken long ago and
  are already past them (the paper's second scheme);
* **main part**: walk to the supposed central node
  (``MoveToCentralNode``), check the group by a movement dance
  (``StarCheck``), sweep the supposed neighbourhood twice
  (``EnsureCleanExploration``) and finally verify the graph size with
  token-based exploration (``GraphSizeCheck`` / ``EST+``);
* **unwind**: retrace every entered port behind huge slowdown waits
  (the paper's first scheme — agents on later hypotheses move so
  slowly that earlier-hypothesis dances can't be faked), then pad the
  hypothesis to exactly ``T_h`` rounds.

Every routine below is a line-by-line translation of the corresponding
algorithm; the big waits are exact big-integer rounds, executable
thanks to the event-compressed clock.
"""

from __future__ import annotations

from ..explore.est import est_plus
from ..graphs.port_graph import iter_all_walks
from ..sim.agent import (
    AgentContext,
    WatchTriggered,
    declare,
    observe,
    paced_walk,
    wait,
    walk,
)
from .results import GatherOutcome
from .unknown_parameters import UnknownBoundSchedule


class ScheduleOverrunError(RuntimeError):
    """An execution outlived its proven bound (a bug, never a model
    outcome; Lemma 4.5 proves ``Hypothesis(h)`` fits in ``T_h``)."""


class HypothesisBudgetError(RuntimeError):
    """The run used more hypotheses than the caller allowed."""


def ball_traversal(ctx: AgentContext, sched: UnknownBoundSchedule, h: int):
    """Algorithm 7: visit the ball of radius ``4 h m_h**5``.

    Enumerates every port word of that length over ``{0..n_h-2}``,
    following each as far as it exists and backtracking, with a
    slowdown wait before every edge traversal.  Returns ``False`` as
    soon as a node of degree >= ``n_h`` is seen (then phi_h is
    certainly wrong and the agent skips the main part).

    Each forward word and each backtrack is one :func:`paced_walk`,
    whose stop rules are exactly the per-edge guards: the forward walk
    ends on a node of degree >= ``n_h`` (the start included) or before
    a port the current node lacks.
    """
    n_h = sched.n(h)
    length = sched.ball_length(h)
    slow = sched.slowdown(h)
    for word in iter_all_walks(length, n_h - 1):
        trace = yield from paced_walk(
            ctx, word, slow, stop_degree=n_h, stop_before_invalid=True
        )
        # A walk stopped before an invalid port sits on a node of degree
        # < n_h (that guard runs first), so one check covers both exits.
        if ctx.degree() >= n_h:
            return False
        yield from paced_walk(ctx, [rec[2] for rec in reversed(trace)], slow)
    return True


def move_to_central(ctx: AgentContext, sched: UnknownBoundSchedule, h: int):
    """Algorithm 8: walk ``path_h(L)`` and await ``k_h`` co-agents."""
    cfg = sched.config(h)
    if not cfg.has_label(ctx.label):
        return False
    # The hypothesised path is a precomputed plan of absolute ports; it
    # may not exist on the real graph, so the walk stops quietly before
    # the first port the current node does not have (exactly the
    # per-step guard of Algorithm 8, line 2).
    path = tuple(cfg.path_to_central(ctx.label))
    reached_trace = yield from walk(ctx, path, stop_before_invalid=True)
    if len(reached_trace) < len(path):
        return False
    window = sched.s(h) + cfg.n
    reached = False
    try:
        yield from wait(ctx, window, watch=("eq", cfg.k))
    except WatchTriggered:
        reached = True
    if not reached:
        return False
    yield from wait(ctx, window)
    return ctx.curcard() == cfg.k


# Bounce plans of the StarCheck dance, by meeting-node degree.  Each
# pair ``(port, ~0)`` visits one neighbour and bounces straight back
# (the rule step with offset 0 exits by the port of entry).  Cached so
# the plan tuple keeps a stable identity, which lets the scheduler's
# route cache reuse the chased dance route across turns and trials.
_DANCE_PLANS: dict[int, tuple[int, ...]] = {}


def _dance_plan(degree: int) -> tuple[int, ...]:
    plan = _DANCE_PLANS.get(degree)
    if plan is None:
        plan = tuple(s for port in range(degree) for s in (port, ~0))
        _DANCE_PLANS[degree] = plan
    return plan


def star_check(ctx: AgentContext, sched: UnknownBoundSchedule, h: int):
    """Algorithm 9: the rank-ordered neighbourhood dance.

    The agents take turns (by rank in phi_h) visiting every neighbour
    of the meeting node and bouncing straight back, while the rest
    stand still and verify the cardinality oscillation k, k-1, k, ...
    Any outsider — or any missing insider — breaks the pattern for
    everyone.  Total duration: exactly ``4 d k_h`` rounds.

    The dance is one ``walk`` plan (out + bounce-back per neighbour)
    and the verifiers one ``observe`` per turn, so the scheduler can
    execute a whole turn as a single joint segment; the per-arrival
    records carry exactly what per-edge ``move`` / per-round ``wait``
    would have observed (odd indices: away from the meeting node; even
    indices: back on it).
    """
    cfg = sched.config(h)
    k_h = cfg.k
    my_rank = cfg.rank(ctx.label)
    degree = ctx.degree()
    good = True
    for t in (1, 2):
        for turn in range(k_h):
            if turn == my_rank and (t == 1 or good):
                trace = yield from walk(ctx, _dance_plan(degree))
                for j, rec in enumerate(trace, start=1):
                    if j % 2 == 1:
                        if t == 1 and rec[3] != 1:
                            good = False
                    elif rec[3] != k_h:
                        good = False
            else:
                records = yield from observe(ctx, 2 * degree)
                for j, rec in enumerate(records, start=1):
                    if j % 2 == 1:
                        if rec[3] != k_h - 1:
                            good = False
                    elif rec[3] != k_h:
                        good = False
    return good


def ensure_clean_exploration(
    ctx: AgentContext, sched: UnknownBoundSchedule, h: int
):
    """Algorithm 10: sweep all paths of length ``n_h**5 + 1`` twice.

    The whole group moves together; any round with a cardinality other
    than ``k_h`` exposes an interfering agent and fails the hypothesis
    immediately.  Success guarantees the upcoming ``EST+`` explorations
    are *clean* (the explorer meets agents only at its token node).
    """
    cfg = sched.config(h)
    k_h = cfg.k
    length = sched.ece_length(h)
    # "Any round with a cardinality other than k_h fails immediately"
    # is exactly a CurCard != k_h watch on the forward walks; the
    # backtracks are unchecked, as in Algorithm 10.  The whole group
    # walks the same plans in lockstep, which the scheduler executes
    # jointly as segments.
    for _sweep in (1, 2):
        for word in iter_all_walks(length, cfg.n - 1):
            try:
                trace = yield from walk(
                    ctx,
                    tuple(word),
                    watch=("ne", k_h),
                    stop_before_invalid=True,
                )
            except WatchTriggered:
                return False
            yield from walk(
                ctx, tuple(reversed([rec[2] for rec in trace]))
            )
    return True


def graph_size_check(ctx: AgentContext, sched: UnknownBoundSchedule, h: int):
    """Algorithm 11: rank-ordered ``EST+`` runs against a group token.

    Each agent in turn explores with the others as its stationary
    token; everyone pads its turn to exactly ``2 T(EST(n_h))`` rounds
    so the group stays synchronized.  Returns the explorer's verdict:
    did the map close with exactly ``n_h`` nodes?
    """
    cfg = sched.config(h)
    budget = sched.t_est(cfg.n)
    start = ctx.obs.round
    verdict = False
    for turn in range(1, cfg.k + 1):
        if turn == cfg.rank(ctx.label) + 1:
            verdict = yield from est_plus(ctx, sched.provider, cfg.n, budget)
        target = start + 2 * turn * budget
        pad = target - ctx.obs.round
        if pad < 0:
            raise ScheduleOverrunError(
                f"EST+ turn {turn} overran its 2*T(EST) slot by {-pad}"
            )
        if pad > 0:
            yield from wait(ctx, pad)
    return verdict


def hypothesis(ctx: AgentContext, sched: UnknownBoundSchedule, h: int):
    """Algorithm 6: one full hypothesis; True means gathering is done."""
    sched.assert_executable(h)
    start = ctx.obs.round
    ctx.record_entries()
    success = False
    ball_ok = yield from ball_traversal(ctx, sched, h)
    if ball_ok:
        yield from wait(ctx, sched.s(h))
        central_ok = yield from move_to_central(ctx, sched, h)
        if central_ok:
            star_ok = yield from star_check(ctx, sched, h)
            if star_ok:
                clean_ok = yield from ensure_clean_exploration(ctx, sched, h)
                if clean_ok:
                    success = yield from graph_size_check(ctx, sched, h)
    entries = ctx.stop_recording_entries()
    if success:
        return True
    # Second part (lines 16-22): retrace every entered port in reverse,
    # each move behind a slowdown wait, then pad to exactly T_h.
    yield from paced_walk(ctx, reversed(entries), sched.slowdown(h))
    spent = ctx.obs.round - start
    target = sched.t_hyp(h)
    if spent > target:
        raise ScheduleOverrunError(
            f"Hypothesis({h}) ran {spent - target} rounds past T_h"
        )
    if spent < target:
        yield from wait(ctx, target - spent)
    return False


def gather_unknown_core(
    ctx: AgentContext,
    sched: UnknownBoundSchedule,
    max_hypotheses: int | None = None,
):
    """Algorithm 5: iterate hypotheses until one returns true."""
    h = 0
    while True:
        h += 1
        if max_hypotheses is not None and h > max_hypotheses:
            raise HypothesisBudgetError(
                f"agent {ctx.label} exceeded {max_hypotheses} hypotheses"
            )
        confirmed = yield from hypothesis(ctx, sched, h)
        if confirmed:
            break
    cfg = sched.config(h)
    return GatherOutcome(
        label=ctx.label,
        leader=cfg.smallest_label(),
        phase=h,
        size=cfg.n,
    )


def gather_unknown_program(
    sched: UnknownBoundSchedule, max_hypotheses: int | None = None
):
    """Program factory for a plain ``GatherUnknownUpperBound`` agent."""

    def program(ctx: AgentContext):
        outcome = yield from gather_unknown_core(ctx, sched, max_hypotheses)
        yield from declare(ctx, outcome)

    return program
