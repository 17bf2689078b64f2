"""Tests for the TZ rendezvous construction.

The central property (used by Lemma 3.3's proof):
two groups running ``TZ`` with *distinct* transformed labels, started
at most ``T(EXPLO(N))/2`` rounds apart, meet within ``P(N, i)`` rounds
— where both labels fit the phase-``i`` bound.  The property test
below drives it across graphs, label pairs and offsets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import transformed_label
from repro.core.parameters import KnownBoundParameters
from repro.explore.tz import tz, tz_schedule_bits
from repro.explore.uxs import UXSProvider
from repro.graphs import family_for_size, random_connected_graph
from repro.sim import AgentSpec, Simulation, WatchTriggered
from repro.sim.agent import wait


def tz_meeting_round(graph, n_bound, label_a, label_b, offset, provider):
    """Run two TZ agents; return the meeting round or None.

    ``label_a``/``label_b`` are the TZ *parameters*; the simulator
    agents get fresh distinct identity labels, so equal parameters can
    be exercised too.
    """
    params = KnownBoundParameters(n_bound, provider)
    phase = max(
        len(transformed_label(label_a)), len(transformed_label(label_b))
    )
    duration = params.d(phase)

    def make(label, delay):
        def program(ctx):
            if delay:
                yield from wait(ctx, delay)
            try:
                yield from tz(
                    ctx,
                    provider,
                    n_bound,
                    transformed_label(label),
                    duration,
                    watch=("gt", 1),
                )
            except WatchTriggered as trig:
                return trig.observation.round
            return None

        return program

    start_b = graph.n - 1
    sim = Simulation(
        graph,
        [
            AgentSpec(1, 0, make(label_a, 0)),
            AgentSpec(2, start_b, make(label_b, offset)),
        ],
    )
    result = sim.run()
    rounds = [o.payload for o in result.outcomes if o.payload is not None]
    return min(rounds) if rounds else None


class TestSchedule:
    def test_bit_stream_is_periodic(self):
        assert tz_schedule_bits("10", 6) == "101010"

    def test_distinct_code_streams_differ_early(self):
        """Fine-Wilf: distinct code words give periodic streams that
        differ within p + q indices."""
        for a in range(1, 30):
            for b in range(a + 1, 31):
                sa = transformed_label(a)
                sb = transformed_label(b)
                horizon = len(sa) + len(sb)
                assert tz_schedule_bits(sa, horizon) != tz_schedule_bits(
                    sb, horizon
                )

    def test_rejects_empty_label(self, provider):
        gen = tz(None, provider, 2, "", 10)
        with pytest.raises(ValueError):
            next(gen)

    def test_rejects_non_binary(self, provider):
        gen = tz(None, provider, 2, "10x", 10)
        with pytest.raises(ValueError):
            next(gen)

    def test_duration_exact(self, provider):
        def program(ctx):
            yield from tz(ctx, provider, 3, transformed_label(5), 1234)
            return ctx.obs.round

        from repro.graphs import ring

        sim = Simulation(ring(3), [AgentSpec(1, 0, program)])
        result = sim.run()
        assert result.outcomes[0].payload == 1234


class TestMeetingGuarantee:
    @pytest.mark.parametrize("offset_kind", ["zero", "half"])
    @pytest.mark.parametrize("labels", [(1, 2), (2, 3), (1, 6), (5, 13)])
    def test_meets_on_families(self, provider, labels, offset_kind):
        a, b = labels
        for n in (3, 4, 5):
            offset = 0 if offset_kind == "zero" else provider.length(n)
            params = KnownBoundParameters(n, provider)
            phase = max(
                len(transformed_label(a)), len(transformed_label(b))
            )
            bound = params.p_bound(phase) + offset
            for name, g in family_for_size(n):
                met = tz_meeting_round(g, n, a, b, offset, provider)
                assert met is not None, f"{name} n={n} {labels}"
                assert met <= bound, f"{name} n={n} {labels}"

    def test_same_label_groups_may_never_meet(self, provider):
        """No guarantee for equal labels (the algorithm never relies
        on one): on the symmetric 2-node graph they mirror forever."""
        from repro.graphs import single_edge

        met = tz_meeting_round(single_edge(), 2, 7, 7, 0, provider)
        assert met is None

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 6),
        seed=st.integers(0, 15),
        label_a=st.integers(1, 40),
        shift=st.integers(1, 40),
        offset_fraction=st.integers(0, 2),
    )
    def test_meeting_property(self, n, seed, label_a, shift, offset_fraction):
        """Property: distinct labels always meet within P(N, i) on
        random graphs, for any offset up to T(EXPLO(N))/2."""
        provider = UXSProvider()
        label_b = label_a + shift
        graph = random_connected_graph(n, seed=seed)
        provider.verify_for_graph(n, graph)
        offset = (provider.length(n) * offset_fraction) // 2
        params = KnownBoundParameters(n, provider)
        phase = max(
            len(transformed_label(label_a)), len(transformed_label(label_b))
        )
        bound = params.p_bound(phase) + offset
        met = tz_meeting_round(graph, n, label_a, label_b, offset, provider)
        assert met is not None
        assert met <= bound
