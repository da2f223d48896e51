"""Tests for open-loop arrivals and the open-vs-closed experiment."""

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.openloop import open_vs_closed
from repro.simulator.runner import STANDALONE, simulate


class TestOpenArrivals:
    def test_throughput_tracks_offered_rate_below_capacity(self, shopping_spec):
        result = simulate(
            shopping_spec,
            shopping_spec.replication_config(1),
            design=STANDALONE,
            seed=11,
            warmup=4.0,
            duration=30.0,
            arrival_rate=10.0,
        )
        assert result.throughput == pytest.approx(10.0, rel=0.15)

    def test_response_grows_past_capacity(self, shopping_spec):
        below = simulate(
            shopping_spec, shopping_spec.replication_config(1),
            design=STANDALONE, seed=12, warmup=4.0, duration=25.0,
            arrival_rate=15.0,
        ).response_time
        above = simulate(
            shopping_spec, shopping_spec.replication_config(1),
            design=STANDALONE, seed=12, warmup=4.0, duration=25.0,
            arrival_rate=32.0,
        ).response_time
        assert above > 3.0 * below

    def test_open_arrivals_work_on_replicated_designs(self, shopping_spec):
        result = simulate(
            shopping_spec, shopping_spec.replication_config(2),
            design="multi-master", seed=13, warmup=4.0, duration=20.0,
            arrival_rate=30.0,
        )
        assert result.throughput == pytest.approx(30.0, rel=0.2)

    def test_zero_rate_rejected(self, shopping_spec):
        with pytest.raises(ConfigurationError, match="must be positive"):
            simulate(
                shopping_spec, shopping_spec.replication_config(1),
                design=STANDALONE, warmup=1.0, duration=5.0,
                arrival_rate=0.0,
            )

    def test_deterministic_given_seed(self, shopping_spec):
        kwargs = dict(
            design=STANDALONE, seed=14, warmup=2.0, duration=10.0,
            arrival_rate=12.0,
        )
        a = simulate(shopping_spec, shopping_spec.replication_config(1), **kwargs)
        b = simulate(shopping_spec, shopping_spec.replication_config(1), **kwargs)
        assert a.throughput == b.throughput


class TestOpenVsClosedExperiment:
    def test_structure_and_contrast(self, shopping_spec, tiny_settings):
        import dataclasses

        # The open queue's divergence under overload accumulates over the
        # window: give it enough simulated time to separate clearly.
        settings = dataclasses.replace(tiny_settings, sim_duration=30.0)
        result = open_vs_closed(
            shopping_spec, settings, load_fractions=(0.5, 1.1)
        )
        assert len(result.rows) == 2
        assert result.capacity > 0
        light, overload = result.rows
        # Past capacity the open queue is much worse than the closed loop.
        assert overload.open_response > 2.0 * overload.closed_response
        # At half load they broadly agree.
        assert light.open_response == pytest.approx(
            light.closed_response, rel=0.8
        )

    def test_empty_fractions_rejected(self, shopping_spec, tiny_settings):
        with pytest.raises(ConfigurationError):
            open_vs_closed(shopping_spec, tiny_settings, load_fractions=())

    def test_to_text_renders(self, shopping_spec, tiny_settings):
        result = open_vs_closed(
            shopping_spec, tiny_settings, load_fractions=(0.5,)
        )
        assert "open vs closed" in result.to_text()
