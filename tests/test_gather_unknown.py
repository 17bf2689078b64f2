"""End-to-end tests for GatherUnknownUpperBound (Theorem 4.1).

The agents receive no knowledge whatsoever; the theorem promises that
all of them declare gathering in the same round at the same node, and
that each finishes knowing the graph size and the (smallest-label)
leader.  The run wrapper validates all of that; these tests exercise
the feasibility envelope (2-node networks; see
``InfeasibleHypothesisError`` for why size 3 is out of reach)
across label choices, enumerations and wake-up schedules.
"""

from __future__ import annotations

import pytest

from repro.core import (
    DovetailOmega,
    TwoNodeDenseOmega,
    run_gather_unknown,
    run_gossip_unknown,
)
from repro.core.unknown_parameters import UnknownBoundSchedule
from repro.graphs import path_graph, single_edge


class TestFeasibleRuns:
    def test_labels_1_2_confirm_first_hypothesis(self):
        report = run_gather_unknown(single_edge(), [1, 2])
        assert report.hypothesis == 1
        assert report.leader == 1
        assert report.size == 2

    def test_labels_1_3(self):
        report = run_gather_unknown(single_edge(), [1, 3])
        assert report.leader == 1
        assert report.size == 2
        assert report.hypothesis > 1

    def test_labels_2_3(self):
        report = run_gather_unknown(single_edge(), [2, 3])
        assert report.leader == 2
        assert report.hypothesis > 1

    def test_swapped_start_nodes(self):
        a = run_gather_unknown(single_edge(), [1, 2], start_nodes=[0, 1])
        b = run_gather_unknown(single_edge(), [1, 2], start_nodes=[1, 0])
        assert a.hypothesis == b.hypothesis
        assert a.round == b.round  # the 2-node graph is symmetric

    def test_declaration_clock_is_astronomical(self):
        """The whole point of the feasibility theorem: the algorithm
        finishes — after a number of rounds far beyond 10**60."""
        report = run_gather_unknown(single_edge(), [1, 2])
        assert report.round > 10**60
        # ... simulated with a modest number of events.
        assert report.events < 100_000

    def test_wrong_hypotheses_cost_exact_t_h(self):
        """Between hypotheses everything is exact: declaration for
        labels {2,3} happens after hypotheses 1..true_index-1 have
        taken exactly T_1 + ... each (Lemma 4.5)."""
        report = run_gather_unknown(single_edge(), [2, 3])
        sched = UnknownBoundSchedule(DovetailOmega())
        floor = sum(sched.t_hyp(i) for i in range(1, report.hypothesis))
        assert report.round > floor

    def test_round_exceeds_schedule_prefix(self):
        report = run_gather_unknown(single_edge(), [1, 3])
        sched = UnknownBoundSchedule(DovetailOmega())
        assert report.round >= sched.start_round_bound(report.hypothesis)


class TestWakeSchedules:
    def test_dormant_partner(self):
        report = run_gather_unknown(
            single_edge(), [1, 2], wake_rounds=[0, None]
        )
        assert report.leader == 1

    def test_delayed_partner(self):
        report = run_gather_unknown(
            single_edge(), [1, 2], wake_rounds=[0, 1000]
        )
        assert report.leader == 1

    def test_huge_delay(self):
        # Delay beyond T_1: the early agent is already in hypothesis 2.
        sched = UnknownBoundSchedule(DovetailOmega())
        delay = sched.t_hyp(1) + 12345
        report = run_gather_unknown(
            single_edge(), [1, 2], wake_rounds=[0, delay]
        )
        assert report.leader == 1


class TestDenseOmega:
    def test_large_labels_feasible(self):
        report = run_gather_unknown(
            single_edge(), [4, 9], omega=TwoNodeDenseOmega()
        )
        assert report.leader == 4
        assert report.size == 2

    def test_hypothesis_index_matches_omega(self):
        omega = TwoNodeDenseOmega()
        idx = omega.index_of(single_edge(), {0: 5, 1: 7})
        report = run_gather_unknown(
            single_edge(), [5, 7], omega=TwoNodeDenseOmega()
        )
        assert report.hypothesis == idx


class TestGuards:
    def test_infeasible_prefix_rejected(self):
        """A 3-node network's true configuration sits behind 3-node
        hypotheses: the wrapper must refuse loudly, not hang."""
        from repro.core import InfeasibleHypothesisError

        with pytest.raises(InfeasibleHypothesisError):
            run_gather_unknown(path_graph(3), [1, 2])

    def test_unreachable_configuration_rejected(self):
        with pytest.raises(ValueError):
            run_gather_unknown(path_graph(5), [1, 2])


class TestGossipUnknown:
    def test_messages_delivered_and_size_learned(self):
        report = run_gossip_unknown(
            single_edge(), [1, 2], ["111", "000"]
        )
        assert report.messages == {"111": 1, "000": 1}

    def test_identical_messages_counted(self):
        report = run_gossip_unknown(single_edge(), [1, 2], ["10", "10"])
        assert report.messages == {"10": 2}

    def test_empty_messages(self):
        report = run_gossip_unknown(single_edge(), [2, 3], ["", "1"])
        assert report.messages == {"": 1, "1": 1}
