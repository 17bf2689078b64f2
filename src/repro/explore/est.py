"""``EST`` / ``EST+``: exploration with a stationary token.

The paper (Section 2 and Section 4.2) borrows from [10, 12] a
procedure that lets an agent learn the map — and hence the exact size —
of an unknown anonymous graph, given a stationary token at its start
node; in ``GraphSizeCheck`` the token is played by the ``k_h - 1``
waiting co-located agents, so "the token is here" is exactly
``CurCard > 1`` (a *clean* exploration guarantees the explorer meets
agents only at the token node).

The paper uses that procedure as a black box with an ``n**5`` bound;
our construction — **UXS-signature map building** — reuses the
certified exploration sequences of :mod:`repro.explore.uxs` instead:

* The *signature* of a node ``v`` is the trace ``(degree, entry_port,
  token_flag)`` observed while walking the exploration sequence
  ``U(n_hat)`` from ``v`` and backtracking to ``v``.
* If ``U(n_hat)`` is universal for the real graph, the walk from any
  node visits the token node; by reversibility of port walks, two
  nodes with equal signatures must then coincide (walk both traces to
  the first token visit and reverse: a deterministic reverse walk from
  the token node cannot end at two places).  Signatures are therefore
  *perfect node identifiers*, and a BFS over (node signature, port)
  probes reconstructs the map exactly.
* If the real graph is larger than ``n_hat``, the BFS either discovers
  more than ``n_hat`` signatures, runs into an inconsistency, or
  exceeds its round budget — all reported as failure.

``EST+`` (Section 4.2) wraps a budgeted ``EST`` run followed by an
exact backtrack of every traversed edge, and succeeds iff the map
closed within budget with learned size equal to ``n_hat``.
"""

from __future__ import annotations

from collections import deque

from ..sim.agent import AgentContext, intern_plan as _intern_plan, walk
from .uxs import UXSProvider

Signature = tuple


class ESTResult:
    """Outcome of a (budgeted) EST run."""

    __slots__ = ("completed", "size", "entries", "rounds", "reason")

    def __init__(
        self,
        completed: bool,
        size: int | None,
        entries: list[int],
        rounds: int,
        reason: str,
    ) -> None:
        self.completed = completed
        self.size = size
        self.entries = entries
        self.rounds = rounds
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ESTResult(completed={self.completed}, size={self.size}, "
            f"rounds={self.rounds}, reason={self.reason!r})"
        )


def est_budget(n_hat: int, provider: UXSProvider) -> int:
    """Our explicit ``T(EST(n_hat))`` bound (paper shape: O(n^5)).

    Worst case: one signature at the root plus one probe per directed
    port (at most ``n_hat * (n_hat - 1)`` of them under the degree cap
    enforced by ``BallTraversal``); each probe costs a tree walk (at
    most ``n_hat`` hops each way), one probe edge each way and one
    signature walk (``2 L`` moves).
    """
    length = provider.length(n_hat)
    probes = n_hat * n_hat + 1
    return 2 * length + probes * (2 * n_hat + 2 * length + 4)


def est(
    ctx: AgentContext,
    provider: UXSProvider,
    n_hat: int,
    budget: int,
):
    """Budgeted map construction from the current (token) node.

    Yields move ops only; consumes at most ``budget`` rounds.  Returns
    an :class:`ESTResult` whose ``entries`` lists the entry port of
    every move made (callers backtrack with it).
    """
    sequence = provider.sequence(n_hat)
    signature_steps = provider.walk_plan(n_hat)
    entries: list[int] = []
    state = {"moves": 0}

    def do_walk(steps):
        """Walk a plan, logging entry ports and the move count."""
        trace = yield from walk(ctx, _intern_plan(tuple(steps)))
        entries.extend(rec[2] for rec in trace)
        state["moves"] += len(trace)
        return trace

    def take_signature():
        """Signature of the current node: U-walk out and back.

        Each half is one walk plan; during ``GraphSizeCheck`` the
        waiting token group are plain statics, so the scheduler
        typically runs the whole 2L-edge walk as two events while
        still reporting the exact per-edge CurCard trace (the
        ``token_flag`` bits below).
        """
        sig: list[tuple[int, int, bool]] = [
            (ctx.degree(), -1, ctx.curcard() > 1)
        ]
        forward = yield from do_walk(signature_steps)
        walk_entries = [rec[2] for rec in forward]
        sig.extend((rec[1], rec[2], rec[3] > 1) for rec in forward)
        yield from do_walk(tuple(reversed(walk_entries)))
        return tuple(sig)

    def result(completed: bool, size: int | None, reason: str) -> ESTResult:
        return ESTResult(completed, size, entries, state["moves"], reason)

    length = len(sequence)
    sig_cost = 2 * length
    if state["moves"] + sig_cost > budget:
        return result(False, None, "budget")
    home_sig = yield from take_signature()
    known: dict[Signature, int] = {home_sig: 0}
    tree_path: dict[int, tuple[int, ...]] = {0: ()}
    degrees: dict[int, int] = {0: ctx.degree()}
    edge_map: dict[tuple[int, int], tuple[int, int]] = {}
    pending: deque[tuple[int, int]] = deque(
        (0, p) for p in range(ctx.degree())
    )
    while pending:
        x, port = pending.popleft()
        if (x, port) in edge_map:
            continue
        path = tree_path[x]
        probe_cost = 2 * (len(path) + 1) + sig_cost
        if state["moves"] + probe_cost > budget:
            return result(False, None, "budget")
        probe = yield from do_walk(tuple(path) + (port,))
        nav_entries = [rec[2] for rec in probe[:-1]]
        back_port = probe[-1][2]
        sig = yield from take_signature()
        y = known.get(sig)
        if y is None:
            if len(known) >= n_hat:
                # More nodes than hypothesised: walk home and stop.
                yield from do_walk(
                    tuple(reversed(nav_entries + [back_port]))
                )
                return result(False, len(known) + 1, "too-many-nodes")
            y = len(known)
            known[sig] = y
            tree_path[y] = path + (port,)
            degrees[y] = sig[0][0]
            pending.extend((y, p) for p in range(sig[0][0]) if p != back_port)
        edge_map[(x, port)] = (y, back_port)
        yield from do_walk(tuple(reversed(nav_entries + [back_port])))
    # Consistency: every recorded edge must be symmetric.
    for (x, port), (y, back_port) in edge_map.items():
        other = edge_map.get((y, back_port))
        if other is not None and other != (x, port):
            return result(False, len(known), "inconsistent")
    return result(True, len(known), "complete")


def est_plus(
    ctx: AgentContext,
    provider: UXSProvider,
    n_hat: int,
    budget: int,
):
    """``EST+(n_hat)``: budgeted EST then exact backtrack.

    Returns ``True`` iff the map closed within ``budget`` rounds and
    the learned size equals ``n_hat``.  Total duration is at most
    ``2 * budget`` rounds (the caller pads to an exact schedule, cf.
    Algorithm 11 line 7).
    """
    outcome = yield from est(ctx, provider, n_hat, budget)
    yield from walk(ctx, _intern_plan(tuple(reversed(outcome.entries))))
    return outcome.completed and outcome.size == n_hat
