"""The doubly-exponential schedule of ``GatherUnknownUpperBound``.

Section 4.2 of the paper defines, for each hypothesis index ``h`` (with
``n_h`` the supposed size, ``k_h`` the supposed team size and ``m_h``
the largest supposed size so far):

* ``T(BallTraversal(h)) = 64**h * m_h**(7 h m_h**5)`` — bound on the
  ball traversal;
* ``S_h = T(BallTraversal(h)) + sum_{i<h} T_i`` — bound on "everything
  before the main part of hypothesis h";
* ``T_h = 8 m_h**(2 m_h**5) (3 S_h + 2 T(BallTraversal(h)))`` — exact
  duration of a failed ``Hypothesis(h)``;
* slowdown waits of ``7 m_h**(2 m_h**5)`` rounds around every edge
  traversal outside the sensitive windows;
* ball paths of length ``4 h m_h**5`` and clean-exploration paths of
  length ``n_h**5 + 1``.

These numbers are astronomically large (``T_1`` is about ``2**295``
already) — the event-driven clock, which runs a multi-round wait as
one scheduler event (:mod:`repro.sim.ops`), is what makes them
executable.  The one substitution is ``T(EST(n))``: the paper
assumes a black-box bound ``n**5`` from [12]; we use the explicit
budget of our EST implementation (:func:`repro.explore.est.est_budget`,
same ``O(n**5)`` shape).  ``check_invariants`` asserts every dominance
relation the correctness proofs need.
"""

from __future__ import annotations

from ..explore.est import est_budget
from ..explore.uxs import UXSProvider
from .configurations import Configuration


class InfeasibleHypothesisError(RuntimeError):
    """Executing this hypothesis would need more moves than any
    computer can perform: for ``n_h >= 3`` the ball traversal alone
    enumerates ``(n_h - 1)**(4 h m_h**5)`` paths, and the event-driven
    clock compresses waits, not moves."""


class UnknownBoundSchedule:
    """Derived timing quantities for a given enumeration Ω."""

    #: Executing a hypothesis is refused above this many enumerated
    #: ball paths (1 for n_h = 2; astronomically more for n_h >= 3).
    MAX_EXECUTABLE_PATHS = 10_000

    def __init__(self, omega, provider: UXSProvider | None = None) -> None:
        self.omega = omega
        self.provider = provider if provider is not None else UXSProvider()
        self._t_ball: dict[int, int] = {}
        self._t_hyp: dict[int, int] = {}
        self._s: dict[int, int] = {}
        self._m: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Configuration shorthands.
    # ------------------------------------------------------------------

    def config(self, h: int) -> Configuration:
        """phi_h."""
        return self.omega.config(h)

    def n(self, h: int) -> int:
        """``n_h``: size of the hypothesised graph."""
        return self.config(h).n

    def k(self, h: int) -> int:
        """``k_h``: number of labelled nodes in phi_h."""
        return self.config(h).k

    def m(self, h: int) -> int:
        """``m_h = max(n_1, ..., n_h)``."""
        cached = self._m.get(h)
        if cached is None:
            cached = self.n(h) if h == 1 else max(self.m(h - 1), self.n(h))
            self._m[h] = cached
        return cached

    # ------------------------------------------------------------------
    # The paper's schedule.
    # ------------------------------------------------------------------

    def ball_length(self, h: int) -> int:
        """Length ``4 h m_h**5`` of each enumerated ball path."""
        return 4 * h * self.m(h) ** 5

    def slowdown(self, h: int) -> int:
        """The inter-move waiting period ``7 m_h**(2 m_h**5)``."""
        m = self.m(h)
        return 7 * m ** (2 * m**5)

    def t_ball(self, h: int) -> int:
        """``T(BallTraversal(h)) = 64**h * m_h**(7 h m_h**5)``."""
        cached = self._t_ball.get(h)
        if cached is None:
            m = self.m(h)
            cached = 64**h * m ** (7 * h * m**5)
            self._t_ball[h] = cached
        return cached

    def s(self, h: int) -> int:
        """``S_h``: ball traversal bound plus all previous ``T_i``."""
        cached = self._s.get(h)
        if cached is None:
            cached = self.t_ball(h) + sum(self.t_hyp(i) for i in range(1, h))
            self._s[h] = cached
        return cached

    def t_hyp(self, h: int) -> int:
        """``T_h``: exact duration of a failed ``Hypothesis(h)``."""
        cached = self._t_hyp.get(h)
        if cached is None:
            m = self.m(h)
            cached = 8 * m ** (2 * m**5) * (3 * self.s(h) + 2 * self.t_ball(h))
            self._t_hyp[h] = cached
        return cached

    def ece_length(self, h: int) -> int:
        """Clean-exploration path length ``n_h**5 + 1``."""
        return self.n(h) ** 5 + 1

    def t_est(self, n: int) -> int:
        """Our explicit ``T(EST(n))`` (paper shape ``n**5``)."""
        return est_budget(n, self.provider)

    def start_round_bound(self, h: int) -> int:
        """Latest wake-relative round at which Hypothesis(h) can start."""
        return sum(self.t_hyp(i) for i in range(1, h))

    # ------------------------------------------------------------------
    # Feasibility and proof-invariant checks.
    # ------------------------------------------------------------------

    def ball_path_count(self, h: int) -> int:
        """Number of ball paths: ``(n_h - 1)**ball_length(h)``."""
        return (self.n(h) - 1) ** self.ball_length(h)

    def ece_path_count(self, h: int) -> int:
        """Number of clean-exploration paths: ``(n_h-1)**(n_h**5+1)``."""
        return (self.n(h) - 1) ** self.ece_length(h)

    def assert_executable(self, h: int) -> None:
        """Refuse hypotheses whose move count is physically impossible."""
        paths = self.ball_path_count(h)
        if paths > self.MAX_EXECUTABLE_PATHS:
            raise InfeasibleHypothesisError(
                f"Hypothesis({h}) has n_h = {self.n(h)}: its ball "
                f"traversal enumerates {paths:.3e}"
                if paths < 10**300
                else f"Hypothesis({h}) has n_h = {self.n(h)}: its ball "
                f"traversal enumerates more than 10**300 paths"
            )

    def sensitive_duration_bound(self, h: int) -> int:
        """Worst-case rounds for StarCheck + EnsureCleanExploration +
        GraphSizeCheck of hypothesis ``h`` (our implementations).

        The paper's Lemma 4.4 bounds this by ``7 n_h**(2 n_h**5)``,
        which the slowdown waits must dominate; ``check_invariants``
        asserts our bound stays below the slowdown.
        """
        n = self.n(h)
        k = self.k(h)
        star = 4 * (n - 1) * k
        ece = 2 * self.ece_path_count(h) * 2 * self.ece_length(h)
        gsc = 2 * k * self.t_est(n)
        return star + ece + gsc

    def first_part_duration_bound(self, h: int) -> int:
        """Worst-case duration of lines 3-14 of Algorithm 6."""
        ball = self.actual_ball_duration_bound(h)
        mtcn = (self.n(h) - 1) + 2 * (self.s(h) + self.n(h))
        return ball + self.s(h) + mtcn + self.sensitive_duration_bound(h)

    def actual_ball_duration_bound(self, h: int) -> int:
        """Worst-case duration of our BallTraversal(h) execution."""
        per_path = 2 * self.ball_length(h) * (1 + self.slowdown(h))
        return self.ball_path_count(h) * per_path

    def first_part_moves_bound(self, h: int) -> int:
        """Bound on edge traversals during the first part (the second
        part retraces each of them behind a slowdown wait)."""
        ball_moves = self.ball_path_count(h) * 2 * self.ball_length(h)
        mtcn_moves = self.n(h) - 1
        sensitive_moves = self.sensitive_duration_bound(h)
        return ball_moves + mtcn_moves + sensitive_moves

    def check_invariants(self, h: int) -> None:
        """Assert every dominance relation the proofs rely on.

        * the slowdown wait exceeds the sensitive windows of every
          hypothesis up to ``h`` (Lemma 4.9's separation argument);
        * ``T(BallTraversal(h))`` dominates our actual ball traversal;
        * ``T_h`` dominates first part + retrace (so a failed
          hypothesis can always pad to exactly ``T_h``, Lemma 4.5).
        """
        for x in range(1, h + 1):
            if self.slowdown(h) < self.sensitive_duration_bound(x):
                raise AssertionError(
                    f"slowdown({h}) < sensitive bound of hypothesis {x}"
                )
        if self.t_ball(h) < self.actual_ball_duration_bound(h):
            raise AssertionError(f"T(BallTraversal({h})) too small")
        retrace = (1 + self.slowdown(h)) * self.first_part_moves_bound(h)
        if self.t_hyp(h) < self.first_part_duration_bound(h) + retrace:
            raise AssertionError(f"T_{h} smaller than a worst-case run")
