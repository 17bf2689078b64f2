"""Event-driven scheduler for the synchronous agent model.

The model is synchronous (Section 1.2 of the paper): in every round
each awake agent performs exactly one move instruction (``take port p``
or ``wait``).  A naive simulator would iterate rounds one by one, which
is hopeless here — ``GatherUnknownUpperBound`` contains waiting periods
of ``7 * 2**64`` rounds and the known-bound algorithm waits for
millions of rounds between moves.

This scheduler exploits a simple invariant: *node occupancies only
change in rounds in which some agent moves.*  Time therefore advances
directly from one "interesting" round to the next through a priority
queue of wake events; a wait of any length is O(1).  Rounds are plain
Python integers, so clocks beyond 10**24 (reached by the unknown-bound
algorithm) are exact.

Semantics of a round ``r``:

1. every agent due at ``r`` is resumed with an observation of the
   state *at* ``r`` and yields its next op;
2. all moves issued in round ``r`` are applied simultaneously — agents
   crossing on an edge do not notice each other;
3. nodes whose cardinality changed get ``last_change = r + 1`` and
   watching agents are woken at ``r + 1``;
4. a dormant agent whose node receives an arrival in round ``r + 1``
   wakes (starts its program) at ``r + 1``.

Walk segments
-------------
The paper's algorithms are walk-dominated (one EXPLO(N) is ~4 N^2
log N edges), so deterministic walks get the same O(1) treatment as
waits: a ``walk`` op carries a whole precomputed plan of exit ports,
and the segment planner executes the longest prefix during which the
per-step model could not have diverged as a *single* event.  Round
semantics of a segment of ``m`` edges starting at round ``r``: the
walker moves in rounds ``r .. r+m-1`` exactly as if it had issued
``m`` individual moves (occupancies and ``last_change`` of every
transited node are updated accordingly, and in trace mode the segment
expands into per-edge ``move_log`` entries), and its next op is read
at round ``r+m``.  All walkers due in the same round are planned
*jointly* — their mutual meetings, and therefore the exact CurCard
each observes on every arrival, are computed by the planner — and the
segment is truncated at the first round where anything outside the
cohort could act:

* another agent's scheduled heap event falls due (``<= r+m``);
* a walker would step onto a node with a watching (``wait``-watch or
  ``wait_stable``) or dormant agent, whose wake-up needs the ordinary
  machinery (a node occupied by plain waiters is safe to transit: its
  occupants observe nothing, and their cardinality contributes to the
  walker's computed CurCard trace);
* a walker's own watch fires on a computed CurCard (that edge is the
  segment's last);
* a plan runs out, an absolute step is an invalid port, or the round /
  event budget would be crossed mid-segment.

The ``events`` counter stays bit-for-bit compatible with the per-step
model: a segment of ``m`` edges counts ``m`` (virtual) resumes.

Paced walks
-----------
A ``paced`` op (``paced_walk`` in :mod:`repro.sim.agent`) stands for
"per port: ``wait(delay)``, then ``move(port)``" — the slowed walks of
``GatherUnknownUpperBound``.  The scheduler runs that alternation
itself through the queued-move slot it also uses for blocked retries:
the move falls due ``delay`` rounds after the op or the last arrival,
and at each arrival the scheduler records what the resume would have
observed, counts that resume, and queues the next move.  Every heap
event, round and move of the literal program is kept; only the
program is not re-entered until the ports run out or a stop rule
fires, when it gets all arrivals as one :class:`WalkObservation`.

Fault injection
---------------
Crash faults, dynamic edges and the graceful round horizon (see
:mod:`repro.sim.faults` and docs/experiments.md) hang off three
constructor parameters that default to ``None``; every hot-path site
they touch costs a single ``is None`` test, keeping unfaulted runs —
and their records, traces and metrics — byte-identical to a build
without the feature.  A crash is processed at the *start* of its
round, before adversary wake-ups and resumes; a dynamics-blocked move
costs the round but not the edge (the agent retries the port next
round, one event per retry); when the horizon expires the run ends
with every live agent finalized undeclared and ``timed_out=True``.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Callable, Iterable

from ..events import stream as _event_stream
from ..metrics import registry as _metrics_registry
from ..events.types import (
    AgentMove as _EvAgentMove,
    EdgeBlocked as _EvEdgeBlocked,
    FaultInjected as _EvFaultInjected,
    RoundAdvance as _EvRoundAdvance,
    SimulationEnd as _EvSimulationEnd,
    SimulationStart as _EvSimulationStart,
    WalkSegment as _EvWalkSegment,
    WatchFired as _EvWatchFired,
)
from ..graphs.port_graph import PortGraph
from .agent import AgentContext
from .ops import (
    _WATCH_PREDICATES,
    BudgetExceededError,
    DeadlockError,
    DECLARE,
    MOVE,
    OBSERVE,
    Observation,
    PACED,
    SimulationError,
    WAIT,
    WAIT_STABLE,
    WALK,
    WalkObservation,
    watch_hit,
)

# Agent lifecycle states.
_DORMANT = 0
_RUNNING = 1
_DONE = 2

# Guard against non-advancing agent programs (zero-duration op loops).
_MAX_RESUMES_PER_ROUND = 100_000


class _PacedWalk:
    """A paced walk in flight (the ``PACED`` op), in the queued-move slot.

    ``port`` is the move due at the agent's next heap event, or
    ``None`` while the walk waits for its arrival there; ``next``
    indexes the port after it.  ``cols`` collects the per-arrival
    columns ``(rounds, degrees, entries, curcards)`` handed to the
    agent at the end.
    """

    __slots__ = ("port", "ports", "next", "delay", "stop_degree",
                 "stop_invalid", "cols")

    def __init__(self, ports: tuple, delay: int, stop_degree: int | None,
                 stop_invalid: bool) -> None:
        self.port = ports[0]
        self.ports = ports
        self.next = 1
        self.delay = delay
        self.stop_degree = stop_degree
        self.stop_invalid = stop_invalid
        self.cols: tuple = ([], [], [], [])


class AgentSpec:
    """Description of one agent given to :class:`Simulation`.

    Parameters
    ----------
    label:
        The agent's positive integer label (its algorithm parameter).
    start_node:
        Starting node (simulator-internal id; never shown to the agent).
    program:
        ``callable(ctx) -> generator`` producing the agent's op stream.
    wake_round:
        Round at which the adversary wakes the agent, or ``None`` for a
        dormant agent woken only by a visiting agent.
    """

    __slots__ = ("label", "start_node", "program", "wake_round")

    def __init__(
        self,
        label: int,
        start_node: int,
        program: Callable[[AgentContext], object],
        wake_round: int | None = 0,
    ) -> None:
        if label < 1:
            raise ValueError("agent labels are positive integers")
        if wake_round is not None and wake_round < 0:
            raise ValueError("wake_round must be >= 0")
        self.label = label
        self.start_node = start_node
        self.program = program
        self.wake_round = wake_round


class AgentOutcome:
    """Result record for one agent after the simulation ends."""

    __slots__ = (
        "label",
        "start_node",
        "wake_round",
        "finish_round",
        "finish_node",
        "payload",
        "declared",
        "crashed",
        "moves",
    )

    def __init__(self, label: int, start_node: int) -> None:
        self.label = label
        self.start_node = start_node
        self.wake_round: int | None = None
        self.finish_round: int | None = None
        self.finish_node: int | None = None
        self.payload: object = None
        self.declared = False
        self.crashed = False
        self.moves = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AgentOutcome(label={self.label}, declared={self.declared}, "
            f"crashed={self.crashed}, "
            f"finish_round={self.finish_round}, node={self.finish_node}, "
            f"moves={self.moves})"
        )


class SimulationResult:
    """Aggregate outcome of a run."""

    __slots__ = (
        "outcomes",
        "events",
        "final_round",
        "total_moves",
        "crashed_labels",
        "timed_out",
    )

    def __init__(
        self,
        outcomes: list[AgentOutcome],
        events: int,
        final_round: int,
        total_moves: int,
        crashed_labels: tuple[int, ...] = (),
        timed_out: bool = False,
    ) -> None:
        self.outcomes = outcomes
        self.events = events
        self.final_round = final_round
        self.total_moves = total_moves
        # Robustness fields (fault injection; docs/experiments.md):
        # labels crashed by the fault adversary, in spec order, and
        # whether the run ended by round-horizon expiry rather than by
        # every agent terminating on its own.
        self.crashed_labels = crashed_labels
        self.timed_out = timed_out

    def gathered(self) -> bool:
        """Did every agent declare at the same node in the same round?"""
        if not self.outcomes or not all(o.declared for o in self.outcomes):
            return False
        rounds = {o.finish_round for o in self.outcomes}
        nodes = {o.finish_node for o in self.outcomes}
        return len(rounds) == 1 and len(nodes) == 1

    def declaration_round(self) -> int:
        """The common declaration round (requires :meth:`gathered`)."""
        if not self.gathered():
            raise SimulationError("agents did not gather")
        return self.outcomes[0].finish_round

    def meeting_node(self) -> int:
        """The common declaration node (requires :meth:`gathered`)."""
        if not self.gathered():
            raise SimulationError("agents did not gather")
        return self.outcomes[0].finish_node

    def payloads(self) -> list[object]:
        """Per-agent final payloads in spec order."""
        return [o.payload for o in self.outcomes]

    def survivors_gathered(self) -> bool:
        """Did every *non-crashed* agent declare at one node, one round?

        The graceful-degradation criterion: a run whose survivors
        gathered is a success of the remainder even though
        :meth:`gathered` is false (crashed agents never declare).
        """
        survivors = [o for o in self.outcomes if not o.crashed]
        if not survivors or not all(o.declared for o in survivors):
            return False
        rounds = {o.finish_round for o in survivors}
        nodes = {o.finish_node for o in survivors}
        return len(rounds) == 1 and len(nodes) == 1

    def partial_groups(self) -> tuple[int, ...]:
        """Sizes of the final co-location groups of surviving agents.

        Group sizes are reported largest-first; a fully gathered
        remainder is ``(len(survivors),)``.  Agents that never got a
        final position (impossible today) are skipped defensively.
        """
        groups: dict[int, int] = {}
        for o in self.outcomes:
            if o.crashed or o.finish_node is None:
                continue
            groups[o.finish_node] = groups.get(o.finish_node, 0) + 1
        return tuple(sorted(groups.values(), reverse=True))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SimulationResult(agents={len(self.outcomes)}, "
            f"events={self.events}, final_round={self.final_round})"
        )


class Simulation:
    """Run a set of agents on a port-labelled graph.

    Parameters
    ----------
    graph:
        The network.
    specs:
        One :class:`AgentSpec` per agent; start nodes must be pairwise
        distinct (the paper's model) and labels pairwise distinct.
    max_events:
        Abort with :class:`BudgetExceededError` after this many agent
        resumptions (safety valve for runaway programs).
    max_round:
        Abort when the clock would pass this round.
    trace:
        When true, record every move as ``(round, agent_index,
        from_node, to_node)`` in :attr:`move_log`.
    route_cache:
        Controls the vectorized segment planner's route cache:
        ``None`` (default) shares the per-graph cache from
        :func:`repro.sim.segments.route_cache_for` when numpy is
        available, ``False`` disables the vectorized planner entirely
        (pure-scalar planning), and an explicit
        :class:`~repro.sim.segments.RouteCache` is used as given.
    events:
        An :class:`repro.events.EventDispatcher` to emit typed events
        to.  ``None`` (default) uses the process-global dispatcher
        from :mod:`repro.events.stream` — which is usually absent, in
        which case emission costs a single ``is None`` check per
        site.  ``False`` disables emission regardless of the global.
    faults:
        Crash-fault schedule: an iterable of ``(label, round)`` pairs
        (see :mod:`repro.sim.faults`).  The agent is removed at the
        *start* of its fault round — it never acts in that round, and
        unlike a declared agent it stops occupying its node, so
        watchers observe the departure.  ``None`` (default) disables
        fault handling entirely (zero hot-path cost).
    dynamics:
        An :class:`repro.sim.faults.EdgeDynamics` consulted at every
        edge traversal.  A blocked move costs the round but not the
        edge: the agent retries the same port next round (one event
        per retry round) without re-entering its program.  ``None``
        (default) keeps the graph static.
    horizon:
        Graceful-degradation round horizon: when the next event would
        fall after this round — or no agent can ever run again — the
        run ends with every live agent finalized undeclared and
        ``timed_out=True`` on the result, instead of raising.  ``None``
        (default) keeps the strict deadlock / budget behavior.
    """

    def __init__(
        self,
        graph: PortGraph,
        specs: Iterable[AgentSpec],
        max_events: int | None = None,
        max_round: int | None = None,
        trace: bool = False,
        route_cache=None,
        events=None,
        faults=None,
        dynamics=None,
        horizon: int | None = None,
    ) -> None:
        self.graph = graph
        self.specs = list(specs)
        if not self.specs:
            raise SimulationError("no agents")
        starts = [s.start_node for s in self.specs]
        if len(set(starts)) != len(starts):
            raise SimulationError("agents must start at distinct nodes")
        labels = [s.label for s in self.specs]
        if len(set(labels)) != len(labels):
            raise SimulationError("agent labels must be distinct")
        if any(s.start_node < 0 or s.start_node >= graph.n for s in self.specs):
            raise SimulationError("start node out of range")
        if all(s.wake_round is None for s in self.specs):
            raise SimulationError("at least one agent must be woken")
        self.max_events = max_events
        self.max_round = max_round
        self.trace = trace
        self.move_log: list[tuple[int, int, int, int]] = []

        k = len(self.specs)
        self._pos = list(starts)
        self._state = [_DORMANT] * k
        self._gens: list = [None] * k
        self._ctxs: list[AgentContext | None] = [None] * k
        self._epoch = [0] * k
        self._entry_port: list[int | None] = [None] * k
        self._watch: list = [None] * k  # active wait-watch, if any
        self._wait_until: list = [None] * k  # watched wait's expiry round
        self._stable: list[int | None] = [None] * k  # wait_stable window
        self._walk_trace: list = [None] * k  # pending fast-path segment
        self._label_index = {s.label: i for i, s in enumerate(self.specs)}
        self._outcomes = [AgentOutcome(s.label, s.start_node) for s in self.specs]

        self._counts = [0] * graph.n
        for s in self.specs:
            self._counts[s.start_node] += 1
        self._last_change = [0] * graph.n
        self._dormant_at: list[set[int]] = [set() for _ in range(graph.n)]
        self._watchers: list[set[int]] = [set() for _ in range(graph.n)]

        # Fault injection (docs/experiments.md, "Faults & dynamics").
        # All three stay None on unfaulted runs so the hot path pays at
        # most one ``is None`` test per site.
        self.horizon = horizon
        self.timed_out = False
        self._dynamics = dynamics
        # Moves made without resuming the agent: the port of a
        # dynamics-blocked move, retried next round, or a paced walk.
        self._queued: list[int | _PacedWalk | None] = [None] * k
        self._c_faults = _metrics_registry.Counter()
        self._c_edges_blocked = _metrics_registry.Counter()
        if faults:
            queue: list[tuple[int, int]] = []
            for label, fround in faults:
                fidx = self._label_index.get(label)
                if fidx is None:
                    raise SimulationError(
                        f"fault targets unknown agent label {label!r}"
                    )
                if fround < 0:
                    raise SimulationError(
                        f"fault rounds must be >= 0, got {fround}"
                    )
                queue.append((fround, fidx))
            queue.sort()
            self._fault_queue: list[tuple[int, int]] | None = queue
            self._fault_i = 0
            self._crashed: list[bool] | None = [False] * k
        else:
            self._fault_queue = None
            self._fault_i = 0
            self._crashed = None

        self._heap: list[tuple[int, int, int, int]] = []
        self._seq = 0
        self._events = 0
        self._active = 0  # agents not DONE (dormant agents count)
        # Fast-path diagnostics (not part of SimulationResult): how
        # many walk segments ran as single events, and how many edges
        # they covered in total.  Kept as standalone per-simulation
        # counters (the public ``segments`` / ``segment_edges``
        # attributes are thin views) and folded into the attached
        # metrics registry once, at ``result()`` — never per segment,
        # so the hot path stays registry-free.
        self._c_segments = _metrics_registry.Counter()
        self._c_segment_edges = _metrics_registry.Counter()
        self._c_watch_fires = _metrics_registry.Counter()
        self._mx = _metrics_registry.current()
        self._metrics_flushed = False
        # Vectorized planner, resolved lazily on the first walk round
        # (importing numpy / building the route cache costs nothing on
        # walk-free runs).
        self._route_cache_opt = route_cache
        self.route_cache = None
        self._planner = None
        self._planner_resolved = False

        for idx, s in enumerate(self.specs):
            self._active += 1
            self._dormant_at[s.start_node].add(idx)
            if s.wake_round is not None:
                self._push(s.wake_round, idx)

        # Typed event stream (docs/observability.md).  ``_emit`` is
        # None on the no-processor path, so every emission site is a
        # single attribute test.
        self._emit = None
        self._end_emitted = False
        if events is not False:
            dispatcher = (
                events if events is not None else _event_stream.current()
            )
            if dispatcher is not None:
                self.attach_events(dispatcher)

    def attach_events(self, dispatcher) -> None:
        """Attach an event dispatcher (emits :class:`SimulationStart`).

        Used by ``__init__`` and by tools that obtain an
        already-constructed simulation (e.g. via
        :func:`repro.core.runs.prepare_gather_known`) and want its
        event stream.
        """
        self._emit = dispatcher
        dispatcher.emit(_EvSimulationStart(
            n=self.graph.n,
            edges=tuple(self.graph.edges()),
            agents=tuple(
                (s.label, s.start_node, s.wake_round) for s in self.specs
            ),
        ))

    # ------------------------------------------------------------------
    # Traditional-model capability (baselines only).
    # ------------------------------------------------------------------

    def colocated_labels(self, label: int) -> list[int]:
        """Labels of all agents at the same node as ``label`` right now.

        This is the *traditional* model's perception ("co-located
        agents can talk"), deliberately unavailable to the paper's
        algorithms; only the baseline implementations in
        :mod:`repro.baselines` call it.  Every talking-baseline agent
        calls this on each scheduling round, so the label lookup uses
        the map built once in ``__init__`` rather than a linear scan.
        """
        idx = self._label_index[label]
        node = self._pos[idx]
        return sorted(
            s.label
            for i, s in enumerate(self.specs)
            if self._pos[i] == node
        )

    # ------------------------------------------------------------------
    # Heap helpers.
    # ------------------------------------------------------------------

    def _push(self, round_: int, idx: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (round_, self._seq, idx, self._epoch[idx]))

    def _reschedule(self, round_: int, idx: int) -> None:
        self._epoch[idx] += 1
        self._push(round_, idx)

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute until every agent terminates.

        The loop body is :meth:`step_round`; a caller that stepped some
        rounds itself may call ``run()`` to continue from the current
        state.
        """
        if self._mx is None:
            while self._active > 0:
                self.step_round()
            return self.result()
        with self._mx.timer("sim.wall_seconds"):
            while self._active > 0:
                self.step_round()
        return self.result()

    def next_event_round(self) -> int | None:
        """Round of the next real event, or ``None`` if the heap is dry.

        Drops stale heads (superseded epochs, finished agents) so the
        round budget and deadlock checks see the next *real* event,
        exactly as the reference oracle derives it.  A pending crash
        fault targeting a live agent is an event too: time jumps to
        the fault round even when every survivor waits past it.
        """
        heap = self._heap
        head: int | None = None
        while heap:
            _, _, i0, ep0 = heap[0]
            if ep0 != self._epoch[i0] or self._state[i0] == _DONE:
                heapq.heappop(heap)
            else:
                head = heap[0][0]
                break
        if self._fault_queue is not None:
            fault = self._next_fault_round()
            if fault is not None and (head is None or fault < head):
                return fault
        return head

    def _next_fault_round(self) -> int | None:
        """Round of the earliest pending fault with a live target.

        Entries whose target already terminated are skipped for good
        (termination is final), so repeated calls stay cheap.
        """
        queue = self._fault_queue
        i = self._fault_i
        while i < len(queue):
            round_, idx = queue[i]
            if self._state[idx] != _DONE:
                self._fault_i = i
                return round_
            i += 1
        self._fault_i = i
        return None

    # Back-compat thin views over the standalone fast-path counters
    # (migrated to metrics counters; see __init__).

    @property
    def segments(self) -> int:
        """Walk segments executed as single scheduler events."""
        return self._c_segments.value

    @segments.setter
    def segments(self, value: int) -> None:
        self._c_segments.value = value

    @property
    def segment_edges(self) -> int:
        """Total edges covered by batched walk segments."""
        return self._c_segment_edges.value

    @segment_edges.setter
    def segment_edges(self, value: int) -> None:
        self._c_segment_edges.value = value

    def result(self) -> SimulationResult:
        """The aggregate outcome; only valid once every agent ended."""
        if self._active > 0:
            raise SimulationError(
                f"simulation still has {self._active} active agent(s)"
            )
        final_round = max(
            (o.finish_round for o in self._outcomes if o.finish_round is not None),
            default=0,
        )
        total_moves = sum(o.moves for o in self._outcomes)
        crashed_labels = (
            tuple(o.label for o in self._outcomes if o.crashed)
            if self._crashed is not None
            else ()
        )
        result = SimulationResult(
            self._outcomes,
            self._events,
            final_round,
            total_moves,
            crashed_labels=crashed_labels,
            timed_out=self.timed_out,
        )
        if self._emit is not None and not self._end_emitted:
            self._end_emitted = True
            self._emit.emit(_EvSimulationEnd(
                final_round=final_round,
                events=self._events,
                total_moves=total_moves,
                gathered=result.gathered(),
            ))
        if self._mx is not None and not self._metrics_flushed:
            # One aggregated flush per simulation: the per-event hot
            # path never touches the registry.  Round counts are
            # deliberately not recorded (exact big ints; see
            # docs/observability.md).
            self._metrics_flushed = True
            mx = self._mx
            mx.counter("sim.runs").value += 1
            mx.counter("sim.events").value += self._events
            mx.counter("sim.walk.segments").value += self._c_segments.value
            mx.counter("sim.walk.segment_edges").value += (
                self._c_segment_edges.value
            )
            mx.counter("sim.watch.fires").value += self._c_watch_fires.value
            if self._c_faults.value:
                mx.counter("sim.faults.injected").value += (
                    self._c_faults.value
                )
            if self.timed_out:
                mx.counter("sim.faults.timeouts").value += 1
            if self._c_edges_blocked.value:
                mx.counter("sim.edges.blocked").value += (
                    self._c_edges_blocked.value
                )
        return result

    def step_round(self) -> None:
        """Drain and execute exactly one event-round."""
        heap = self._heap
        round_ = self.next_event_round()
        if round_ is None:
            if self.horizon is not None:
                self._graceful_stop()
                return
            raise DeadlockError(
                f"{self._active} agent(s) can never run again "
                "(dormant and unvisited, or waiting forever)"
            )
        if self.horizon is not None and round_ > self.horizon:
            self._graceful_stop()
            return
        if self.max_round is not None and round_ > self.max_round:
            raise BudgetExceededError(
                f"round budget exceeded: next event at round {round_}"
            )
        if self._fault_queue is not None:
            self._apply_faults(round_)
        pending_moves: list[tuple[int, int]] = []  # (idx, port)
        pending_walks: list[tuple] = []  # (idx, head, steps, pos, watch)
        pending_observes: list[tuple[int, int]] = []  # (idx, remaining)
        queued = self._queued
        resumes = 0
        while heap and heap[0][0] == round_:
            _, _, idx, epoch = heapq.heappop(heap)
            if epoch != self._epoch[idx] or self._state[idx] == _DONE:
                continue
            resumes += 1
            if resumes > _MAX_RESUMES_PER_ROUND:
                raise SimulationError(
                    f"agent resumed too often in round {round_}; "
                    "non-advancing program?"
                )
            if (
                self._state[idx] != _DORMANT
                and self._watch[idx] is not None
                and self._stable[idx] is None
                and not watch_hit(
                    self._watch[idx], self._counts[self._pos[idx]]
                )
                and round_ < self._wait_until[idx]
            ):
                # Early arrival notification whose condition a
                # start-of-round crash revoked before this resume: the
                # watched wait is still running.  Re-arm its original
                # expiry (a later occupancy change can still
                # reschedule it earlier) and charge no event — the
                # agent never acts.  Only faults open this window:
                # ordinary departures commit at round end, after every
                # resume of the round.
                self._push(self._wait_until[idx], idx)
                continue
            self._events += 1
            if self.max_events is not None and self._events > self.max_events:
                raise BudgetExceededError(
                    f"event budget exceeded at round {round_}"
                )
            q = queued[idx]
            if q is not None:
                # A queued move falls due (a blocked retry, or a paced
                # walk's edge after its wait): the program is not
                # re-entered and observes nothing.
                if q.__class__ is int:
                    queued[idx] = None
                    pending_moves.append((idx, q))
                    continue
                port = q.port
                if port is not None:
                    if (
                        not isinstance(port, int) or port < 0
                        or port >= self.graph.degree(self._pos[idx])
                    ):
                        raise self._invalid_port(idx, port)
                    q.port = None
                    pending_moves.append((idx, port))
                    continue
                if self._paced_arrival(idx, round_, q):
                    continue
                queued[idx] = None
            op = self._resume(idx, round_)
            if op is None:
                continue  # agent terminated
            kind = op[0]
            if kind == MOVE:
                pending_moves.append((idx, op[1]))
            elif kind == WALK:
                pending_walks.append((idx, op[1], op[2], op[3], op[4]))
            elif kind == WAIT:
                self._begin_wait(idx, round_, op[1], op[2])
            elif kind == PACED:
                self._begin_paced(idx, round_, op)
            elif kind == WAIT_STABLE:
                self._begin_wait_stable(idx, round_, op[1])
            elif kind == OBSERVE:
                if op[1] < 1:
                    raise SimulationError(
                        f"observe duration must be >= 1, got {op[1]}"
                    )
                pending_observes.append((idx, op[1]))
            elif kind == DECLARE:
                self._finish(idx, round_, op[1], declared=True)
            else:
                raise SimulationError(f"unknown op {op!r}")
        if pending_walks or pending_observes:
            self._exec_walks(
                pending_walks, pending_observes, round_, pending_moves
            )
        if pending_moves:
            self._apply_moves(pending_moves, round_)
        if self._emit is not None:
            self._emit.emit(_EvRoundAdvance(round=round_, resumes=resumes))

    # ------------------------------------------------------------------
    # Agent resumption.
    # ------------------------------------------------------------------

    def _make_observation(
        self, idx: int, round_: int, triggered: bool
    ) -> Observation:
        node = self._pos[idx]
        walked = self._walk_trace[idx]
        if walked is None:
            obs = Observation(
                round_,
                self.graph.degree(node),
                self._entry_port[idx],
                self._counts[node],
                triggered,
            )
        else:
            self._walk_trace[idx] = None
            obs = WalkObservation(
                round_,
                self.graph.degree(node),
                self._entry_port[idx],
                self._counts[node],
                triggered,
                walked,
            )
        self._entry_port[idx] = None
        return obs

    def _resume(self, idx: int, round_: int) -> tuple | None:
        """Advance one agent; returns its next op or None if it ended."""
        state = self._state[idx]
        triggered = False
        if state == _DORMANT:
            self._start_agent(idx, round_)
        else:
            watch = self._watch[idx]
            if watch is not None:
                triggered = watch_hit(watch, self._counts[self._pos[idx]])
                if triggered:
                    self._c_watch_fires.value += 1
                    if self._emit is not None:
                        self._emit.emit(_EvWatchFired(
                            round=round_,
                            agent=idx,
                            node=self._pos[idx],
                            count=self._counts[self._pos[idx]],
                        ))
                self._unwatch(idx)
            if self._stable[idx] is not None:
                window = self._stable[idx]
                node = self._pos[idx]
                # Re-verify stability; occupancy changes reschedule the
                # wake, so reaching here with an up-to-date epoch means
                # the window elapsed - assert the invariant cheaply.
                if round_ < self._last_change[node] + window - 1:
                    self._push(self._last_change[node] + window - 1, idx)
                    return None
                self._stable[idx] = None
                self._watchers[node].discard(idx)
        obs = self._make_observation(idx, round_, triggered)
        gen = self._gens[idx]
        try:
            if self._state[idx] == _DORMANT:
                self._state[idx] = _RUNNING
                self._ctxs[idx].obs = obs
                op = next(gen)
            else:
                op = gen.send(obs)
        except StopIteration as stop:
            self._finish(idx, round_, stop.value, declared=False)
            return None
        if op[0] == MOVE or op[0] == WALK:
            port = op[1]
            node = self._pos[idx]
            if not isinstance(port, int) or port < 0 or port >= self.graph.degree(node):
                raise self._invalid_port(idx, port)
        return op

    def _invalid_port(self, idx: int, port) -> SimulationError:
        return SimulationError(
            f"agent {self.specs[idx].label} took invalid port {port!r} "
            f"at a node of degree {self.graph.degree(self._pos[idx])}"
        )

    def _start_agent(self, idx: int, round_: int) -> None:
        spec = self.specs[idx]
        ctx = AgentContext(spec.label)
        ctx.wake_round = round_
        self._ctxs[idx] = ctx
        self._gens[idx] = spec.program(ctx)
        self._outcomes[idx].wake_round = round_
        self._dormant_at[spec.start_node].discard(idx)

    def _finish(
        self, idx: int, round_: int, payload: object, declared: bool
    ) -> None:
        self._state[idx] = _DONE
        self._active -= 1
        out = self._outcomes[idx]
        out.finish_round = round_
        out.finish_node = self._pos[idx]
        out.payload = payload
        out.declared = declared
        self._unwatch(idx)
        node = self._pos[idx]
        self._watchers[node].discard(idx)
        self._stable[idx] = None
        self._gens[idx] = None

    # ------------------------------------------------------------------
    # Fault injection and graceful degradation.
    # ------------------------------------------------------------------

    def _apply_faults(self, round_: int) -> None:
        """Crash every agent whose fault falls due at ``round_``.

        Runs before any resume of the round: a crashed agent never
        acts in its fault round.  Entries targeting already-terminated
        agents are skipped (their crash never happens).
        """
        queue = self._fault_queue
        while self._fault_i < len(queue) and queue[self._fault_i][0] <= round_:
            _, idx = queue[self._fault_i]
            self._fault_i += 1
            if self._state[idx] == _DONE:
                continue
            self._crash(idx, round_)

    def _crash(self, idx: int, round_: int) -> None:
        """Remove agent ``idx`` at the start of ``round_``.

        Unlike a *declared* agent — which keeps occupying its node —
        a crashed agent's occupancy is removed at its fault round, so
        co-located watchers observe the departure exactly as they would
        a move away: firing watches and stability windows reschedule
        precisely as :meth:`_apply_moves` would on an occupancy change.
        A dormant agent can crash too (it simply never wakes); dormant
        *neighbors* are not woken — a crash is a departure, not a visit.
        """
        self._c_faults.value += 1
        node = self._pos[idx]
        self._state[idx] = _DONE
        self._active -= 1
        self._crashed[idx] = True
        out = self._outcomes[idx]
        out.finish_round = round_
        out.finish_node = node
        out.declared = False
        out.crashed = True
        self._unwatch(idx)
        self._watchers[node].discard(idx)
        self._stable[idx] = None
        self._dormant_at[node].discard(idx)
        self._gens[idx] = None
        self._walk_trace[idx] = None
        self._queued[idx] = None
        self._counts[node] -= 1
        self._last_change[node] = round_
        if self._watchers[node]:
            new_count = self._counts[node]
            for widx in list(self._watchers[node]):
                watch = self._watch[widx]
                if watch is not None:
                    if watch_hit(watch, new_count):
                        self._reschedule(round_, widx)
                elif self._stable[widx] is not None:
                    self._reschedule(
                        round_ + self._stable[widx] - 1, widx
                    )
        if self._emit is not None:
            self._emit.emit(_EvFaultInjected(
                round=round_,
                agent=idx,
                label=self.specs[idx].label,
                node=node,
            ))

    def _graceful_stop(self) -> None:
        """Finalize every live agent undeclared: the horizon expired.

        Fault-aware termination: survivors that can no longer gather
        (a crash removed a teammate, or dynamics starved them) end
        with a structured partial outcome — ``finish_round=None``,
        final position recorded — instead of running out their event
        budget.  Also reached when no agent can ever run again, which
        without a horizon would be a :class:`DeadlockError`.
        """
        self.timed_out = True
        for idx in range(len(self.specs)):
            if self._state[idx] == _DONE:
                continue
            self._state[idx] = _DONE
            self._active -= 1
            node = self._pos[idx]
            out = self._outcomes[idx]
            out.finish_round = None
            out.finish_node = node
            out.declared = False
            self._unwatch(idx)
            self._watchers[node].discard(idx)
            self._stable[idx] = None
            self._dormant_at[node].discard(idx)
            self._gens[idx] = None
            self._walk_trace[idx] = None
        self._heap.clear()

    # ------------------------------------------------------------------
    # Op handlers.
    # ------------------------------------------------------------------

    def _begin_wait(self, idx: int, round_: int, duration, watch) -> None:
        if duration < 1:
            raise SimulationError(f"wait duration must be >= 1, got {duration}")
        self._push(round_ + duration, idx)
        if watch is not None:
            self._watch[idx] = watch
            self._wait_until[idx] = round_ + duration
            self._watchers[self._pos[idx]].add(idx)

    def _begin_paced(self, idx: int, round_: int, op: tuple) -> None:
        _kind, ports, delay, stop_degree, stop_invalid = op
        if delay < 1 or not ports:
            raise SimulationError(
                f"paced walk needs a delay >= 1 and a port, got {delay} "
                f"and {len(ports)} port(s)"
            )
        self._queued[idx] = _PacedWalk(
            ports, delay, stop_degree, stop_invalid
        )
        self._push(round_ + delay, idx)

    def _paced_arrival(self, idx: int, round_: int, q: _PacedWalk) -> bool:
        """Record a paced walk's arrival; queue its next edge if any.

        Stands in for the resume the literal ``wait`` + ``move`` program
        spends here (already counted as an event): the arrival is
        recorded as that resume would observe it, and unless the ports
        ran out or a stop rule fires, the next move is queued for
        ``round_ + delay`` and True is returned.  On False the agent is
        resumed with the whole walk as a :class:`WalkObservation`.
        """
        node = self._pos[idx]
        degree = self.graph.degree(node)
        rounds, degrees, entries, cards = q.cols
        rounds.append(round_)
        degrees.append(degree)
        entries.append(self._entry_port[idx])
        cards.append(self._counts[node])
        i = q.next
        if i < len(q.ports) and (
            q.stop_degree is None or degree < q.stop_degree
        ):
            port = q.ports[i]
            if not q.stop_invalid or 0 <= port < degree:
                q.port = port
                q.next = i + 1
                self._push(round_ + q.delay, idx)
                return True
        self._walk_trace[idx] = q.cols
        return False

    def _begin_wait_stable(self, idx: int, round_: int, window) -> None:
        if window < 1:
            raise SimulationError(f"stability window must be >= 1, got {window}")
        node = self._pos[idx]
        candidate = self._last_change[node] + window - 1
        if candidate < round_:
            candidate = round_
        self._stable[idx] = window
        self._watchers[node].add(idx)
        self._push(candidate, idx)

    def _unwatch(self, idx: int) -> None:
        if self._watch[idx] is not None:
            self._watch[idx] = None
            self._watchers[self._pos[idx]].discard(idx)

    # ------------------------------------------------------------------
    # Walk segments (the multi-edge fast path).
    # ------------------------------------------------------------------

    def _resolve_planner(self) -> None:
        """Bind the vectorized planner and route cache, if available."""
        self._planner_resolved = True
        if self._route_cache_opt is False:
            return
        if self._dynamics is not None:
            # Cached routes know nothing about per-round edge liveness;
            # dynamic-edge runs plan scalar segments (which truncate
            # before any blocked edge) instead.
            return
        from . import segments

        if not segments.HAVE_NUMPY:
            return
        self.route_cache = (
            self._route_cache_opt
            if self._route_cache_opt is not None
            else segments.route_cache_for(self.graph)
        )
        self._planner = segments.plan_segment

    def _exec_walks(
        self,
        walks: list[tuple],
        observes: list[tuple[int, int]],
        round_: int,
        pending_moves: list[tuple[int, int]],
    ) -> None:
        """Execute the round's walk/observe ops: one segment, or fall back.

        All walkers and observers due this round are planned jointly.
        When a useful segment exists (>= 2 rounds for everyone) it runs
        as a single event per cohort member; otherwise every walk
        degrades to its first edge and every observe to a one-round
        observation through the ordinary machinery, which handles
        watcher wake-ups, dormant starts and same-round movers exactly
        as the per-step model does.
        """
        if not self._planner_resolved:
            self._resolve_planner()
        if not pending_moves:
            if self._planner is not None:
                plan = self._planner(self, walks, observes, round_)
                if plan is not None:
                    self._apply_segment_vec(walks, observes, round_, plan)
                    return
            elif walks and not observes:
                scalar = self._plan_segment(walks, round_)
                if scalar is not None:
                    self._apply_segment(walks, round_, *scalar)
                    return
        # Per-edge / per-round fallback.  Observers degrade first:
        # their next-round heap events bound any later walker segment
        # exactly like the one-round waits they are equivalent to.
        for idx, _remaining in observes:
            self._push(round_ + 1, idx)
        for idx, head, _steps, _pos, _watch in walks:
            pending_moves.append((idx, head))

    def _apply_segment_vec(
        self,
        walks: list[tuple],
        observes: list[tuple[int, int]],
        round_: int,
        plan,
    ) -> None:
        """Commit a vectorized :class:`~repro.sim.segments.SegmentPlan`.

        Identical bookkeeping to :meth:`_apply_segment`, extended with
        stationary observers: an observer neither moves nor changes any
        occupancy, it just receives the per-round CurCard trace of its
        node and resumes at the segment end, exactly as ``m`` one-round
        observations would.
        """
        counts = self._counts
        m = plan.m
        end_round = round_ + m
        obs_rounds = range(round_ + 1, end_round + 1)
        self._c_segments.value += 1
        self._c_segment_edges.value += m * len(walks)
        if plan.watch_fired:
            # The segment's last edge fires a walk watch: the walk
            # helper raises WatchTriggered at the resume.
            self._c_watch_fires.value += 1
        for w, (idx, _head, _steps, _pos, _watch) in enumerate(walks):
            nodes, ents, degs, cards = plan.walkers[w]
            counts[nodes[0]] -= 1
            counts[nodes[m]] += 1
            self._pos[idx] = nodes[m]
            self._entry_port[idx] = ents[m - 1]
            self._outcomes[idx].moves += m
            self._walk_trace[idx] = (obs_rounds, degs, ents, cards)
            self._push(end_round, idx)
        for o, (idx, _remaining) in enumerate(observes):
            cards = plan.observer_cards[o]
            degree = self.graph.degree(self._pos[idx])
            # Constant columns as repeat(): zip stops at the cards.
            self._walk_trace[idx] = (
                obs_rounds, repeat(degree), repeat(None), cards
            )
            self._push(end_round, idx)
        # Virtual per-edge/per-round resumes: byte-compatible events.
        self._events += (len(walks) + len(observes)) * (m - 1)
        plan.apply_last_change(self._last_change, round_, self.graph.n)
        if self.trace and walks:
            order = sorted(range(len(walks)), key=lambda w: walks[w][0])
            for t in range(m):
                for w in order:
                    nodes = plan.walkers[w][0]
                    self.move_log.append(
                        (round_ + t, walks[w][0], nodes[t], nodes[t + 1])
                    )
        if self._emit is not None:
            self._emit_segment(
                walks, round_, m,
                [tuple(plan.walkers[w][0][: m + 1]) for w in range(len(walks))],
                [plan.walkers[w][3][m - 1] for w in range(len(walks))],
                tuple(idx for idx, _remaining in observes),
            )

    def _plan_segment(self, walks: list[tuple], round_: int):
        """Longest prefix the cohort can walk without possible divergence.

        Returns ``(m, routes, entries, degrees, curcards)`` — the
        segment length and, per walker, the node route ``[v_0 .. v_m]``
        plus the entry port, arrival degree and exact CurCard of each
        arrival — or ``None`` when no segment of at least two edges is
        safe.  This is the hot loop of walk-dominated runs, so it works
        on the graph's adjacency list directly and mutates ``_counts``
        in place (walkers off their start nodes) for the duration of
        the planning.
        """
        counts = self._counts
        heap = self._heap
        watchers = self._watchers
        dormant_at = self._dormant_at
        adj = self.graph._adj  # hot path: one indexing per step
        # Tighten the horizon: stale heap entries (superseded epochs,
        # finished agents) would otherwise truncate segments for free.
        while heap:
            _, _, i0, ep0 = heap[0]
            if ep0 != self._epoch[i0] or self._state[i0] == _DONE:
                heapq.heappop(heap)
            else:
                break
        m = min(len(steps) - pos for _, _, steps, pos, _ in walks)
        if heap:
            m = min(m, heap[0][0] - round_)
        if self.max_round is not None:
            # Truncating here reproduces the per-step budget raise: the
            # segment-end resume lands at max_round + 1 and the main
            # loop rejects it with the exact per-step message.
            m = min(m, self.max_round - round_ + 1)
        if self.max_events is not None:
            # Cap so the virtual resumes cannot cross the budget inside
            # the segment; the violating resume then happens (and
            # raises) at the segment-end round, as per-step execution
            # would.
            m = min(
                m, (self.max_events - self._events) // len(walks) + 1
            )
        if self._fault_queue is not None:
            # No segment may reach a fault round: a crash is processed
            # at the *start* of its round (unlike moves, which commit
            # at the end), so planned arrival cards would go stale the
            # moment the segment's last observation landed on it.  End
            # strictly before, so every walker is back in the ordinary
            # machinery when the crash hits (a crashed walker vanishes
            # mid-walk; survivors replan around the hole).
            fault = self._next_fault_round()
            if fault is not None:
                m = min(m, fault - round_ - 1)
        if m < 2:
            return None
        # A departure from a watched start node must notify the
        # watchers through the ordinary machinery.
        for idx, _head, _steps, _pos, _watch in walks:
            if watchers[self._pos[idx]]:
                return None
        dyn = self._dynamics
        if dyn is not None:
            # A blocked head edge goes through the per-edge retry path.
            for idx, head, _steps, _pos, _watch in walks:
                if dyn.blocked(self._pos[idx], head, round_):
                    return None
        # Walkers leave their start nodes in the first round; every
        # other agent (waiting, finished, dormant) is static for the
        # whole segment.  Taking the walkers out of ``_counts`` while
        # planning makes ``counts[v]`` the static occupancy directly
        # (restored before returning).
        for idx, _head, _steps, _pos, _watch in walks:
            counts[self._pos[idx]] -= 1
        try:
            # Pass 1 — structural: simulate each route, truncating
            # before any node whose occupants the ordinary machinery
            # must wake.
            routes: list[list[int]] = []
            entries: list[list[int]] = []
            degrees: list[list[int]] = []
            for idx, head, steps, pos, _watch in walks:
                node = self._pos[idx]
                route = [node]
                ents: list[int] = []
                degs: list[int] = []
                node, entry = adj[node][head]  # head validated by _resume
                t = 0
                while True:
                    if watchers[node] or dormant_at[node]:
                        m = t  # stop before waking anyone
                        break
                    route.append(node)
                    ents.append(entry)
                    ports = adj[node]
                    degree = len(ports)
                    degs.append(degree)
                    t += 1
                    if t >= m:
                        break
                    step = steps[pos + t]
                    if step >= 0:
                        if step >= degree:
                            m = t  # invalid step ends the joint segment
                            break
                        port = step
                    else:
                        port = (entry + ~step) % degree
                    if dyn is not None and dyn.blocked(node, port, round_ + t):
                        m = t  # stop before the blocked edge: the
                        break  # walker retries it through _apply_moves
                    node, entry = ports[port]
                if m < 2:
                    return None
                routes.append(route)
                entries.append(ents)
                degrees.append(degs)
            # Pass 2 — exact CurCard per arrival (statics + cohort
            # co-location), truncating at the first firing walk watch.
            # Watch predicates are resolved once per walker, with the
            # CurCard-1 verdict precomputed (the overwhelmingly common
            # cardinality on walk-dominated runs).
            if len(walks) == 1:
                route = routes[0]
                watch = walks[0][4]
                cards = [counts[route[t]] + 1 for t in range(1, m + 1)]
                if watch is not None:
                    hit = _WATCH_PREDICATES[watch[0]]
                    value = watch[1]
                    hit1 = hit(1, value)
                    for t, card in enumerate(cards):
                        if hit1 if card == 1 else hit(card, value):
                            m = t + 1  # the firing edge is the last
                            del cards[m:]
                            break
                if m < 2:
                    return None
                curcards = [cards]
            elif len(walks) == 2:
                # The dominant cohort: a pair — either a merged group
                # touring in lockstep or two groups exploring in
                # parallel.  No per-round allocation.
                route_a, route_b = routes
                watch_a, watch_b = walks[0][4], walks[1][4]
                if watch_a is not None:
                    hit_a = _WATCH_PREDICATES[watch_a[0]]
                    val_a = watch_a[1]
                    hit1_a = hit_a(1, val_a)
                else:
                    hit_a = None
                    val_a = 0
                    hit1_a = False
                if watch_b is not None:
                    hit_b = _WATCH_PREDICATES[watch_b[0]]
                    val_b = watch_b[1]
                    hit1_b = hit_b(1, val_b)
                else:
                    hit_b = None
                    val_b = 0
                    hit1_b = False
                cards_a: list[int] = []
                cards_b: list[int] = []
                for t in range(1, m + 1):
                    va = route_a[t]
                    vb = route_b[t]
                    if va == vb:
                        card_a = card_b = counts[va] + 2
                    else:
                        card_a = counts[va] + 1
                        card_b = counts[vb] + 1
                    cards_a.append(card_a)
                    cards_b.append(card_b)
                    fired_a = (
                        hit1_a
                        if card_a == 1
                        else hit_a is not None and hit_a(card_a, val_a)
                    )
                    fired_b = (
                        hit1_b
                        if card_b == 1
                        else hit_b is not None and hit_b(card_b, val_b)
                    )
                    if fired_a or fired_b:
                        m = t  # the firing edge is the segment's last
                        break
                if m < 2:
                    return None
                curcards = [cards_a, cards_b]
            else:
                curcards = [[] for _ in walks]
                for t in range(1, m + 1):
                    occ: dict[int, int] = {}
                    for route in routes:
                        v = route[t]
                        occ[v] = occ.get(v, 0) + 1
                    fired = False
                    for w, (idx, _head, _steps, _pos, watch) in enumerate(
                        walks
                    ):
                        v = routes[w][t]
                        card = counts[v] + occ[v]
                        curcards[w].append(card)
                        if watch is not None and watch_hit(watch, card):
                            fired = True
                    if fired:
                        m = t  # the firing edge is the segment's last
                        break
                if m < 2:
                    return None
        finally:
            for idx, _head, _steps, _pos, _watch in walks:
                counts[self._pos[idx]] += 1
        return m, routes, entries, degrees, curcards

    def _apply_segment(
        self,
        walks: list[tuple],
        round_: int,
        m: int,
        routes: list[list[int]],
        entries: list[list[int]],
        degrees: list[list[int]],
        curcards: list[list[int]],
    ) -> None:
        """Commit an ``m``-edge segment for every walker as one event.

        Performs the per-step model's bookkeeping for the whole
        traversed prefix — occupancies, ``last_change`` of every
        transited node, move counts, virtual ``events`` and (in trace
        mode) per-edge ``move_log`` entries — then schedules each
        walker's next resume at ``round_ + m`` with its per-edge
        observation history attached.
        """
        counts = self._counts
        last_change = self._last_change
        end_round = round_ + m
        obs_rounds = range(round_ + 1, end_round + 1)
        self._c_segments.value += 1
        self._c_segment_edges.value += m * len(walks)
        for w, (idx, _head, _steps, _pos, _watch) in enumerate(walks):
            route = routes[w]
            ents = entries[w]
            counts[route[0]] -= 1
            counts[route[m]] += 1
            self._pos[idx] = route[m]
            self._entry_port[idx] = ents[m - 1]
            self._outcomes[idx].moves += m
            self._walk_trace[idx] = (obs_rounds, degrees[w], ents, curcards[w])
            self._push(end_round, idx)
        # Virtual per-edge resumes: byte-compatible events accounting.
        self._events += len(walks) * (m - 1)
        # last_change per transited node, exactly as _apply_moves would
        # have set it round by round (zero-delta rounds excluded: a
        # node where arrivals balanced departures shows no CurCard
        # variation, Section 1.4).
        if len(walks) == 1:
            route = routes[0]
            for t in range(m):
                src, dst = route[t], route[t + 1]
                if src != dst:
                    last_change[src] = round_ + t + 1
                    last_change[dst] = round_ + t + 1
        elif len(walks) == 2:
            route_a, route_b = routes
            for t in range(m):
                rd = round_ + t + 1
                sa, da = route_a[t], route_a[t + 1]
                sb, db = route_b[t], route_b[t + 1]
                if sa == sb and da == db:  # lockstep pair
                    if sa != da:
                        last_change[sa] = rd
                        last_change[da] = rd
                elif (
                    sa != da and sb != db and sa != sb
                    and da != db and sa != db and sb != da
                ):  # fully disjoint moves
                    last_change[sa] = rd
                    last_change[sb] = rd
                    last_change[da] = rd
                    last_change[db] = rd
                else:  # crossings / self-loops: exact per-node deltas
                    deltas = {sa: -1}
                    deltas[da] = deltas.get(da, 0) + 1
                    deltas[sb] = deltas.get(sb, 0) - 1
                    deltas[db] = deltas.get(db, 0) + 1
                    for v, delta in deltas.items():
                        if delta:
                            last_change[v] = rd
        else:
            for t in range(m):
                deltas2: dict[int, int] = {}
                for route in routes:
                    src, dst = route[t], route[t + 1]
                    deltas2[src] = deltas2.get(src, 0) - 1
                    deltas2[dst] = deltas2.get(dst, 0) + 1
                for v, delta in deltas2.items():
                    if delta:
                        last_change[v] = round_ + t + 1
        if self.trace:
            order = sorted(range(len(walks)), key=lambda w: walks[w][0])
            for t in range(m):
                for w in order:
                    route = routes[w]
                    self.move_log.append(
                        (round_ + t, walks[w][0], route[t], route[t + 1])
                    )
        if self._emit is not None:
            self._emit_segment(
                walks, round_, m,
                [tuple(route) for route in routes],
                [cards[m - 1] for cards in curcards], (),
            )

    def _emit_segment(
        self, walks, round_, m, routes, final_cards, observers
    ) -> None:
        """Emit one :class:`WalkSegment` (plus any firing walk watch).

        A walk watch that fires does so on the segment's last edge (the
        planners truncate there); the walker observes it at the
        segment-end resume, so the :class:`WatchFired` round is
        ``round_ + m`` — exactly where :meth:`repro.sim.agent.Agent.walk`
        raises ``WatchTriggered`` when replaying the history.
        """
        emit = self._emit
        emit.emit(_EvWalkSegment(
            round=round_,
            length=m,
            walkers=tuple(idx for idx, _h, _s, _p, _w in walks),
            routes=tuple(routes),
            observers=observers,
        ))
        for w, (idx, _head, _steps, _pos, watch) in enumerate(walks):
            if watch is not None and watch_hit(watch, final_cards[w]):
                emit.emit(_EvWatchFired(
                    round=round_ + m,
                    agent=idx,
                    node=routes[w][m],
                    count=final_cards[w],
                ))

    # ------------------------------------------------------------------
    # Move application (end of round).
    # ------------------------------------------------------------------

    def _apply_moves(
        self, pending: list[tuple[int, int]], round_: int
    ) -> None:
        graph = self.graph
        counts = self._counts
        next_round = round_ + 1
        # Canonical per-round order (by agent index): moves are
        # simultaneous, so this only fixes the trace order, making it
        # comparable across schedulers.
        pending.sort()
        deltas: dict[int, int] = {}
        arrivals: set[int] = set()
        emit = self._emit
        dyn = self._dynamics
        for idx, port in pending:
            src = self._pos[idx]
            if dyn is not None and dyn.blocked(src, port, round_):
                # A blocked move costs the round but not the edge: the
                # agent stays put (no occupancy change, nothing to
                # observe) and retries the same port next round.
                self._c_edges_blocked.value += 1
                q = self._queued[idx]
                if q is None:
                    self._queued[idx] = port
                else:
                    q.port = port
                if emit is not None:
                    emit.emit(_EvEdgeBlocked(
                        round=round_, agent=idx, node=src, port=port
                    ))
                self._push(next_round, idx)
                continue
            dst, entry = graph.neighbor(src, port)
            counts[src] -= 1
            counts[dst] += 1
            deltas[src] = deltas.get(src, 0) - 1
            deltas[dst] = deltas.get(dst, 0) + 1
            arrivals.add(dst)
            self._pos[idx] = dst
            self._entry_port[idx] = entry
            self._outcomes[idx].moves += 1
            if self.trace:
                self.move_log.append((round_, idx, src, dst))
            if emit is not None:
                emit.emit(_EvAgentMove(
                    round=round_, agent=idx, src=src, dst=dst
                ))
            self._push(next_round, idx)
        # A node where arrivals exactly balanced departures shows no
        # CurCard variation: agents there notice nothing (the paper's
        # Section 1.4 makes this point explicitly).
        for node, delta in deltas.items():
            if delta == 0:
                continue
            self._last_change[node] = next_round
            if self._watchers[node]:
                new_count = counts[node]
                for widx in list(self._watchers[node]):
                    watch = self._watch[widx]
                    if watch is not None:
                        if watch_hit(watch, new_count):
                            self._reschedule(next_round, widx)
                    elif self._stable[widx] is not None:
                        self._reschedule(
                            next_round + self._stable[widx] - 1, widx
                        )
        # A dormant agent is woken by the first agent that *visits* its
        # starting node, even if the node's cardinality is unchanged.
        for node in arrivals:
            if self._dormant_at[node]:
                for didx in list(self._dormant_at[node]):
                    if self._state[didx] == _DORMANT:
                        self._reschedule(next_round, didx)
                        # Leave the agent in _dormant_at; _start_agent
                        # removes it, and the epoch bump above already
                        # invalidated any later adversary wake entry.
