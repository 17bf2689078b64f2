"""Certification tests for the universal exploration sequences.

These are the tests that make the UXS substitution (certified
sequences instead of Reingold's construction) sound: the pinned
sequences are re-verified exhaustively, the sampled defaults are
re-verified against the benchmark families, and the early-exit
coverage check is pinned to the full-walk definition.
"""

from __future__ import annotations

import pytest

from repro.explore.uxs import (
    SAMPLED_LENGTHS,
    UniversalityError,
    UXSProvider,
    generate_sequence,
    is_universal_for,
    nodes_visited,
    verify_exhaustive,
    walk_ports,
)
from repro.graphs import (
    family_for_size,
    iter_all_port_graphs,
    random_connected_graph,
    single_edge,
)
from repro.runner.spec import ExperimentSpec
from repro.runner.trial import _build_graph


def _covered_from_every_start(graph, sequence) -> bool:
    """The definition ``is_universal_for`` must match: full walks."""
    return all(
        len(nodes_visited(graph, start, sequence)) == graph.n
        for start in graph.nodes()
    )


class TestWalkMechanics:
    def test_walk_on_single_edge(self):
        g = single_edge()
        assert walk_ports(g, 0, (0,)) == [0]
        assert nodes_visited(g, 0, (0,)) == {0, 1}

    def test_offsets_reduced_mod_degree(self):
        g = single_edge()
        # Offset 7 at a degree-1 node is port 0.
        assert walk_ports(g, 0, (7,)) == [0]

    def test_empty_sequence_visits_start_only(self):
        g = single_edge()
        assert nodes_visited(g, 0, ()) == {0}


class TestPinnedCertification:
    def test_pinned_2_exhaustive(self, provider):
        verify_exhaustive(provider.sequence(2), 2)

    def test_pinned_3_exhaustive(self, provider):
        verify_exhaustive(provider.sequence(3), 3)

    @pytest.mark.slow
    def test_pinned_4_exhaustive(self, provider):
        verify_exhaustive(provider.sequence(4), 4)

    def test_pinned_4_covers_all_4_node_graphs(self, provider):
        seq = provider.sequence(4)
        for g in iter_all_port_graphs(4):
            assert is_universal_for(g, seq)

    def test_verify_exhaustive_rejects_too_short(self):
        with pytest.raises(UniversalityError):
            verify_exhaustive((), 2)


class TestSampledCertification:
    @pytest.mark.parametrize("n", sorted(SAMPLED_LENGTHS))
    def test_families_covered(self, provider, n):
        seq = provider.sequence(n)
        for size in range(2, n + 1):
            for _name, g in family_for_size(size):
                assert is_universal_for(g, seq), f"{_name} size {size}"

    @pytest.mark.parametrize("n", sorted(SAMPLED_LENGTHS))
    def test_random_graphs_covered(self, provider, n):
        seq = provider.sequence(n)
        for seed in range(25):
            g = random_connected_graph(n, seed=seed)
            assert is_universal_for(g, seq)


class TestProvider:
    def test_durations(self, provider):
        assert provider.explo_duration(2) == 2
        assert provider.explo_duration(3) == 6
        assert provider.length(4) == 8

    def test_cache_stability(self, provider):
        assert provider.sequence(5) is provider.sequence(5)

    def test_generated_for_large_n(self):
        p = UXSProvider(factor=2)
        assert p.length(7) > 0

    def test_explicit_length_override(self):
        p = UXSProvider(lengths={6: 77})
        assert p.length(6) == 77

    def test_pin_custom_sequence(self):
        p = UXSProvider()
        p.pin(9, (1, 2, 3))
        assert p.sequence(9) == (1, 2, 3)

    def test_generation_deterministic(self):
        assert generate_sequence(50, 7) == generate_sequence(50, 7)
        assert generate_sequence(50, 7) != generate_sequence(50, 8)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            UXSProvider(factor=0)

    def test_rejects_bad_n(self, provider):
        with pytest.raises(ValueError):
            provider.sequence(0)

    def test_preflight_accepts_covered_graph(self, provider):
        provider.verify_for_graph(2, single_edge())

    def test_preflight_rejects_oversized_graph(self, provider):
        with pytest.raises(UniversalityError):
            provider.verify_for_graph(2, random_connected_graph(4, seed=0))

    def test_preflight_rejects_uncovered_graph(self):
        p = UXSProvider()
        p.pin(4, (0,))  # far too short for 4-node graphs
        with pytest.raises(UniversalityError):
            p.verify_for_graph(4, random_connected_graph(4, seed=1))


class TestCoverageCheckStrictness:
    """An early exit that skips a start node must not pass."""

    @staticmethod
    def _talking_graph_2503():
        # The N=12 sampled sequence covers this random 3-regular graph
        # from every start node except node 8.
        spec = ExperimentSpec(
            algorithm="talking",
            family="random_regular",
            sizes=(12,),
            label_sets=((1, 2),),
            seeds=(2503,),
        )
        (trial,) = spec.trials()
        return _build_graph(trial)

    def test_single_uncovered_start_rejects(self):
        g = self._talking_graph_2503()
        seq = UXSProvider().sequence(12)
        uncovered = [
            v for v in g.nodes() if len(nodes_visited(g, v, seq)) < g.n
        ]
        assert uncovered == [8]
        assert not is_universal_for(g, seq)

    def test_single_uncovered_start_fails_preflight(self):
        g = self._talking_graph_2503()
        with pytest.raises(UniversalityError):
            UXSProvider().verify_for_graph(12, g)

    def test_matches_full_walk_on_every_small_port_graph(self):
        sequences = [generate_sequence(length, 7919 + length)
                     for length in range(13)]
        for n in range(2, 5):
            for g in iter_all_port_graphs(n):
                for seq in sequences:
                    assert is_universal_for(g, seq) == (
                        _covered_from_every_start(g, seq)
                    ), (g.describe(), seq)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_full_walk_on_random_graphs(self, n):
        # From never covering (empty) to the certified default, so
        # both verdicts occur at every size.
        sequences = [UXSProvider().sequence(n)] + [
            generate_sequence(length, 104729 + length)
            for length in (0, n, n * n, 2 * n * n)
        ]
        verdicts = set()
        for seed in range(20):
            g = random_connected_graph(n, seed=seed)
            for seq in sequences:
                expected = _covered_from_every_start(g, seq)
                assert is_universal_for(g, seq) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}
