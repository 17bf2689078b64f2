"""The numpy-vectorized segment planner and its route cache.

The scalar planner in :mod:`repro.sim.scheduler` re-chases every walk
route step by step in Python on every segment.  Routes, however, are
pure functions of ``(graph, plan, position in plan, node, exit port)``
— so a :class:`RouteCache` chases each distinct start state once,
registers every suffix of the chase (the continuation from any
mid-plan state is a suffix of the same chase), and serves numpy array
views thereafter.  :func:`plan_segment` then computes truncation
bounds, exact per-arrival CurCards, watch evaluation and
``last_change`` updates as vector operations over those views.  A
lockstep cohort (merged agents walking one plan from one state) is
planned as a single route.  The planner also understands stationary
``observe`` cohort members (see :mod:`repro.sim.ops`), which is what
lets ``StarCheck``'s waiters share a segment with the dancing agent.

numpy is a declared dependency, and the scheduler uses this planner
for every run on static edges; dynamic-edge runs (and
``route_cache=False``) use the scalar planner instead.  Both are bound
by the same contract: **byte-identity** with per-step execution,
checked by the differential suite against :mod:`repro.sim.reference`
under both planners.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

try:
    import numpy as np
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]

from ..graphs.port_graph import PortGraph
from .scheduler import _DONE, Simulation

HAVE_NUMPY = np is not None


# ----------------------------------------------------------------------
# Route cache: chased walk routes keyed by plan identity.
# ----------------------------------------------------------------------

class _PlanRoutes:
    """Chased routes of one walk plan on one graph.

    A walk's future is a pure function of its *state* ``(position in
    plan, node, exit port)``: the exit port determines the next edge,
    the traversed edge determines the entry port, and every later step
    resolves from entry ports alone.  Each chase therefore registers
    all of its intermediate states, so a walk resuming anywhere along a
    previously chased route is an O(1) dict hit returning array views.
    """

    __slots__ = ("steps", "_suffix", "_chases")

    def __init__(self, steps: tuple[int, ...]) -> None:
        # Strong reference: keeps id(steps) valid for the cache key.
        self.steps = steps
        self._suffix: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._chases: list[tuple] = []

    def route(self, graph: PortGraph, pos: int, node: int, port: int):
        """Arrays ``(nodes, entries, degrees)`` of the remaining route.

        ``nodes`` has the start node at index 0; ``entries[j]`` /
        ``degrees[j]`` describe the arrival at ``nodes[j + 1]``.  The
        route ends at the plan's end or just before the first invalid
        absolute step, exactly like the scalar planner's walk-out.
        """
        key = (pos, node, port)
        hit = self._suffix.get(key)
        if hit is None:
            self._chase(graph, pos, node, port)
            hit = self._suffix[key]
        ci, off = hit
        nodes, ents, degs = self._chases[ci]
        return nodes[off:], ents[off:], degs[off:]

    def _chase(self, graph: PortGraph, pos: int, node: int, port: int) -> None:
        steps = self.steps
        adj = graph._adj
        total = len(steps)
        nodes = [node]
        ents: list[int] = []
        degs: list[int] = []
        states = [(pos, node, port)]
        t = pos
        while True:
            node, entry = adj[node][port]
            nodes.append(node)
            ents.append(entry)
            degree = len(adj[node])
            degs.append(degree)
            t += 1
            if t >= total:
                break
            step = steps[t]
            if step >= 0:
                if step >= degree:
                    break  # invalid absolute step ends the route
                port = step
            else:
                port = (entry + ~step) % degree
            states.append((t, node, port))
        ci = len(self._chases)
        self._chases.append((
            np.asarray(nodes, dtype=np.int64),
            np.asarray(ents, dtype=np.int64),
            np.asarray(degs, dtype=np.int64),
        ))
        suffix = self._suffix
        for off, key in enumerate(states):
            # A state reached by two chases has identical continuations
            # (the walk is deterministic), so first registration wins.
            suffix.setdefault(key, (ci, off))


class RouteCache:
    """Per-graph cache of :class:`_PlanRoutes`, keyed by plan identity.

    Plans are keyed by ``id(steps)`` with a strong reference kept in
    the entry, so a hit is only served for the *same tuple object*
    (providers return cached tuples; fresh tuples simply miss and pay
    one chase).  Bounded LRU so ad-hoc plans cannot grow it forever.
    """

    __slots__ = ("graph", "_plans")
    _MAX_PLANS = 64

    def __init__(self, graph: PortGraph) -> None:
        self.graph = graph
        self._plans: OrderedDict[int, _PlanRoutes] = OrderedDict()

    def route(self, steps: tuple[int, ...], pos: int, node: int, port: int):
        key = id(steps)
        pr = self._plans.get(key)
        if pr is None or pr.steps is not steps:
            pr = _PlanRoutes(steps)
            self._plans[key] = pr
            if len(self._plans) > self._MAX_PLANS:
                self._plans.popitem(last=False)
        else:
            self._plans.move_to_end(key)
        return pr.route(self.graph, pos, node, port)


# Shared per-graph caches: trials executed on the same graph object
# (the pipelined backend's batches) reuse chased routes automatically.
# Keyed by id with a strong graph reference — PortGraph has no
# __weakref__ slot — and LRU-bounded.
_GRAPH_CACHES: OrderedDict[int, tuple[PortGraph, RouteCache]] = OrderedDict()
_GRAPH_CACHE_CAP = 8


def route_cache_for(graph: PortGraph) -> RouteCache:
    """The shared :class:`RouteCache` of ``graph`` (created on demand)."""
    key = id(graph)
    hit = _GRAPH_CACHES.get(key)
    if hit is not None and hit[0] is graph:
        _GRAPH_CACHES.move_to_end(key)
        return hit[1]
    cache = RouteCache(graph)
    _GRAPH_CACHES[key] = (graph, cache)
    if len(_GRAPH_CACHES) > _GRAPH_CACHE_CAP:
        _GRAPH_CACHES.popitem(last=False)
    return cache


# ----------------------------------------------------------------------
# Vectorized joint segment planning.
# ----------------------------------------------------------------------

class SegmentPlan:
    """Output of :func:`plan_segment`, consumed by the scheduler.

    ``walkers[w]`` is ``(nodes, entries, degrees, curcards)`` as plain
    Python lists (``tolist()`` keeps observations and traces free of
    numpy scalars); walkers of a lockstep cohort share one tuple.
    ``observer_cards[o]`` is the per-round CurCard trace of the o-th
    observer.  ``_nodes`` retains the distinct walker routes as an
    ``(R, m+1)`` int64 matrix for the last_change update: one row per
    walker, or a single row for a lockstep cohort.
    ``watch_fired`` marks a segment whose last edge fires a walk
    watch — the walk helper will raise :class:`WatchTriggered` at the
    resume.
    """

    __slots__ = ("m", "walkers", "observer_cards", "_nodes", "watch_fired")

    def __init__(
        self, m, walkers, observer_cards, nodes_matrix,
        watch_fired=False,
    ) -> None:
        self.m = m
        self.walkers = walkers
        self.observer_cards = observer_cards
        self._nodes = nodes_matrix
        self.watch_fired = watch_fired

    def apply_last_change(self, last_change: list, round_: int, n: int) -> None:
        """Set ``last_change`` exactly as m rounds of per-step moves would.

        Per round, a node's cardinality changed iff its arrivals minus
        departures are non-zero; the latest such round wins.  Observers
        never move, so a pure-observe segment changes nothing.  A
        lockstep cohort's k walkers share one row, which is exact: k
        times a delta is non-zero iff the delta is.
        """
        arr = self._nodes
        if arr is None:
            return
        m = self.m
        src = arr[:, :m]
        dst = arr[:, 1:]
        if len(arr) == 1 and not (src == dst).any():
            # One route without a self-loop changes both endpoints of
            # every round, so a node's last change is its last visit.
            visit = np.arange(m + 1)
            visit[m] = m - 1
            lastr = np.full(n, -1, dtype=np.int64)
            np.maximum.at(lastr, arr[0], visit)
        else:
            # Arrivals minus departures per (node, round) cell; a
            # node's last change is its last non-zero column.
            cols = np.arange(m)
            size = n * m
            changed = (
                np.bincount((dst * m + cols).ravel(), minlength=size)
                != np.bincount((src * m + cols).ravel(), minlength=size)
            ).reshape(n, m)
            lastr = np.where(
                changed.any(axis=1),
                m - 1 - changed[:, ::-1].argmax(axis=1),
                -1,
            )
        # Python ints: rounds can exceed int64.
        base = round_ + 1
        for v, t in enumerate(lastr.tolist()):
            if t >= 0:
                last_change[v] = base + t


def plan_segment(
    sim: Simulation,
    walks: list[tuple],
    observes: list[tuple[int, int]],
    round_: int,
) -> SegmentPlan | None:
    """Vectorized twin of ``Simulation._plan_segment``.

    Same contract, same truncation rules (documented in
    ``scheduler.py``), plus stationary observers: the longest joint
    prefix during which the per-step model could not have diverged, or
    ``None`` when no segment of at least two rounds is safe.  All
    truncation bounds are order-independent minima, so per-walker
    bounds are intersected instead of re-scanned sequentially.
    """
    heap = sim._heap
    epoch = sim._epoch
    state = sim._state
    while heap:
        _, _, i0, ep0 = heap[0]
        if ep0 != epoch[i0] or state[i0] == _DONE:
            heapq.heappop(heap)
        else:
            break
    cohort = len(walks) + len(observes)
    bounds = [len(steps) - pos for _i, _h, steps, pos, _w in walks]
    bounds.extend(rem for _i, rem in observes)
    m = min(bounds)
    if heap:
        gap = heap[0][0] - round_
        if gap < m:
            m = gap
    if sim.max_round is not None:
        # Truncating here reproduces the per-step budget raise at the
        # segment-end resume (see the scalar planner).
        gap = sim.max_round - round_ + 1
        if gap < m:
            m = gap
    if sim.max_events is not None:
        gap = (sim.max_events - sim._events) // cohort + 1
        if gap < m:
            m = gap
    if sim._fault_queue is not None:
        # A crash is processed at the *start* of its round (unlike
        # moves, which commit at the end), so any arrival card planned
        # for the fault round would go stale the moment the crash hit.
        # End the segment strictly before it; the per-step machinery
        # then observes the crash with live counts.
        fault = sim._next_fault_round()
        if fault is not None:
            gap = fault - round_ - 1
            if gap < m:
                m = gap
    if m < 2:
        return None
    pos_of = sim._pos
    watchers = sim._watchers
    for idx, _h, _s, _p, _w in walks:
        # Departures from a watched node notify through the ordinary
        # machinery.
        if watchers[pos_of[idx]]:
            return None
    n = sim.graph.n
    cache = sim.route_cache
    W = len(walks)
    # A lockstep cohort — every walker at one node with the same exit
    # port, plan object and plan position, like merged agents after
    # the stability wait — walks one route: chase, card and list it
    # once.
    shared = walks
    if W > 1:
        i0, h0, s0, p0, _w0 = walks[0]
        v0 = pos_of[i0]
        if all(h == h0 and s is s0 and p == p0 and pos_of[i] == v0
               for i, h, s, p, _w in walks):
            shared = walks[:1]
    # Structural pass: cached routes; a route ending early (plan end
    # was already bounded above, so this is an invalid absolute step)
    # truncates the joint segment.
    routes = []
    for idx, head, steps, pos, _w in shared:
        nodes, ents, degs = cache.route(steps, pos, pos_of[idx], head)
        avail = len(ents)
        if avail < m:
            m = avail
        routes.append((nodes, ents, degs))
    if m < 2:
        return None
    dormant_at = sim._dormant_at
    blocked = [v for v in range(n) if watchers[v] or dormant_at[v]]
    if blocked and routes:
        mask = np.zeros(n, dtype=bool)
        mask[blocked] = True
        for nodes, _e, _d in routes:
            hits = mask[nodes[1:m + 1]]
            if hits.any():
                t = int(hits.argmax())  # stop before waking anyone
                if t < m:
                    m = t
                    if m < 2:
                        return None
    # Card pass: statics are _counts minus the walkers (observers are
    # static and stay in); cohort co-location comes from the occupancy
    # matrix.  Exact per-arrival CurCards, truncated at the first
    # firing walk watch (that edge is the segment's last).
    counts_np = np.array(sim._counts, dtype=np.int64)
    R = len(routes)
    nodes_matrix = None
    body = None
    occ = None
    walkers: list[tuple] = []
    watch_fired = False
    if W:
        for i, _h, _s, _p, _w in walks:
            counts_np[pos_of[i]] -= 1
        nodes_matrix = np.array([nodes[:m + 1] for nodes, _e, _d in routes])
        body = nodes_matrix[:, 1:]
        if R == 1:
            # One route: the whole cohort arrives together.
            cards = counts_np[body] + W
        elif W == 2:
            # Pair cohort: co-location is a single equality row, no
            # occupancy matrix needed.
            together = body[0] == body[1]
            cards = counts_np[body] + 1
            cards[0] += together
            cards[1] += together
        else:
            cols = np.arange(m)
            occ = np.zeros((n, m), dtype=np.int64)
            np.add.at(occ, (body, cols), 1)
            cards = counts_np[body] + occ[body, cols]
        fired = None
        for w, (_i, _h, _s, _p, watch) in enumerate(walks):
            if watch is None:
                continue
            kind, value = watch
            row = cards[w if R > 1 else 0]
            if kind == "gt":
                f = row > value
            elif kind == "ne":
                f = row != value
            elif kind == "eq":
                f = row == value
            else:  # "lt"
                f = row < value
            fired = f if fired is None else (fired | f)
        if fired is not None and fired.any():
            watch_fired = True
            m = int(fired.argmax()) + 1  # the firing edge is the last
            if m < 2:
                return None
            nodes_matrix = nodes_matrix[:, :m + 1]
            body = nodes_matrix[:, 1:]
            if occ is not None:
                occ = occ[:, :m]
        walkers = [
            (nodes[:m + 1].tolist(), ents[:m].tolist(), degs[:m].tolist(),
             row[:m].tolist())
            for (nodes, ents, degs), row in zip(routes, cards)
        ]
        # Lockstep walkers share their column lists, which are
        # read-only (the walk helpers copy them).
        walkers *= W // R
    observer_cards: list[list[int]] = []
    if observes:
        obs_nodes = np.array([pos_of[i] for i, _r in observes],
                             dtype=np.int64)
        base = counts_np[obs_nodes][:, None]
        if not W:
            ocards = np.broadcast_to(base, (len(observes), m))
        elif occ is not None:
            ocards = base + occ[obs_nodes]
        else:
            # One route or a pair: per-round co-walker occupancy of
            # each observer's node is a direct equality test against
            # the routes.
            here = body[0] == obs_nodes[:, None]
            if R == 1:
                ocards = base + W * here
            else:
                ocards = base + here + (body[1] == obs_nodes[:, None])
        observer_cards = [row.tolist() for row in ocards]
    return SegmentPlan(
        m, walkers, observer_cards, nodes_matrix, watch_fired
    )
