"""Tests for the autoscaling controller policies."""

import math

import pytest

from repro.control.controller import (
    ControlObservation,
    FeedforwardPolicy,
    ReactivePolicy,
    StaticPeakPolicy,
    _ModelSizer,
    make_controller,
)
from repro.control.trace import DiurnalTrace
from repro.core.errors import ConfigurationError, ConvergenceError
from repro.core.params import ReplicationConfig
from repro.models import planning
from repro.models.api import MULTI_MASTER, predict


def _observation(now=0.0, members=4, p95=0.1, utilization=0.5, commits=100):
    return ControlObservation(
        now=now, members=members, attached=members, offered_rate=50.0,
        commits=commits, throughput=50.0, mean_response=p95 * 0.7,
        p95_response=p95, max_utilization=utilization,
    )


@pytest.fixture
def trace():
    return DiurnalTrace(base_rate=20.0, peak_rate=150.0, period=200.0)


class TestFeedforwardController:
    def test_tracks_the_forecast(self, simple_profile, simple_config, trace):
        controller = make_controller(
            FeedforwardPolicy(horizon=10.0, headroom=0.1),
            design=MULTI_MASTER, trace=trace, slo_response=2.0,
            config=simple_config, profile=simple_profile, max_replicas=32,
        )
        trough = controller.target(_observation(now=0.0))
        crest = controller.target(_observation(now=90.0))  # crest at t=100
        assert crest > trough >= 1
        # The sized deployment actually serves the forecast load.
        forecast = trace.peak_between(90.0, 100.0)
        capacity = predict(
            MULTI_MASTER, simple_profile, simple_config.with_replicas(crest)
        ).throughput
        assert capacity >= forecast

    def test_initial_target_sizes_the_first_window(self, simple_profile,
                                                   simple_config, trace):
        controller = make_controller(
            FeedforwardPolicy(horizon=10.0), design=MULTI_MASTER,
            trace=trace, slo_response=2.0, config=simple_config,
            profile=simple_profile, max_replicas=32,
        )
        assert controller.initial_target() >= 1

    def test_requires_a_profile(self, simple_config, trace):
        with pytest.raises(ConfigurationError):
            make_controller(
                FeedforwardPolicy(), design=MULTI_MASTER, trace=trace,
                slo_response=2.0, config=simple_config, profile=None,
            )

    def test_unreachable_window_saturates_at_max(self, simple_profile,
                                                 simple_config):
        huge = DiurnalTrace(base_rate=1e6, peak_rate=2e6, period=100.0)
        controller = make_controller(
            FeedforwardPolicy(horizon=10.0), design=MULTI_MASTER,
            trace=huge, slo_response=2.0, config=simple_config,
            profile=simple_profile, max_replicas=6,
        )
        assert controller.target(_observation()) == 6


class TestModelSizer:
    """The sizer against a plain scan that predicts every replica count,
    with the deployment at N=2 diverging mid-scan."""

    SLO, HEADROOM, MAX = 0.11, 0.1, 5

    @pytest.fixture
    def diverging(self, monkeypatch):
        attempts = []

        def flaky(design, profile, config, **kwargs):
            attempts.append(config.replicas)
            if config.replicas == 2:
                raise ConvergenceError("abort fixed point diverged", 50)
            return predict(design, profile, config, **kwargs)

        monkeypatch.setattr(planning, "predict", flaky)
        return attempts

    def _linear_size(self, profile, config, load):
        exponent = math.floor(math.log10(load))
        quantum = 10.0 ** (exponent - 2)
        required = math.ceil(load / quantum) * quantum / (1.0 - self.HEADROOM)
        for n in (1, 3, 4, 5):  # N=2 diverges: skipped, not fatal
            prediction = predict(MULTI_MASTER, profile, config.with_replicas(n))
            if (prediction.throughput >= required
                    and prediction.response_time <= self.SLO):
                return n
        return self.MAX

    def test_diverged_deployment_is_skipped_like_the_linear_scan(
            self, simple_profile, simple_config, diverging):
        sizer = _ModelSizer(MULTI_MASTER, simple_profile, simple_config,
                            self.SLO, self.HEADROOM, 1, self.MAX)
        # Loads straddling every capacity step (18n tps), the 20n
        # population bound, the SLO (met up to N=4) and the fleet's reach.
        loads = (3.0, 16.2, 16.5, 17.9, 18.1, 30.0, 36.1, 48.7, 49.0,
                 64.0, 65.0, 80.0, 100.0, 1e5)
        sized = [sizer.size_for(load) for load in loads]
        assert sized == [
            self._linear_size(simple_profile, simple_config, load)
            for load in loads
        ]
        assert {1, 3, 4, 5} <= set(sized) and 2 not in sized
        # Each replica count, the diverging one included, predicted once.
        assert sorted(diverging) == [1, 2, 3, 4, 5]
        assert sizer.size_for(0.0) == 1

    def test_min_replicas_floors_the_answer(self, simple_profile,
                                            simple_config):
        sizer = _ModelSizer(MULTI_MASTER, simple_profile, simple_config,
                            self.SLO, self.HEADROOM, 3, self.MAX)
        assert sizer.size_for(3.0) == 3


class TestReactiveController:
    def _controller(self, **policy_kwargs):
        policy = ReactivePolicy(**policy_kwargs)
        return make_controller(
            policy, design=MULTI_MASTER,
            trace=DiurnalTrace(base_rate=1.0, peak_rate=2.0, period=10.0),
            slo_response=1.0,
            config=ReplicationConfig(replicas=1, clients_per_replica=10),
            min_replicas=1, max_replicas=8,
        )

    def test_scales_up_on_high_utilization(self):
        controller = self._controller(up_patience=1)
        assert controller.target(_observation(utilization=0.9)) == 5

    def test_scales_up_on_slo_breach(self):
        controller = self._controller(up_patience=1)
        assert controller.target(_observation(p95=1.5, utilization=0.5)) == 5

    def test_down_needs_sustained_cold(self):
        controller = self._controller(down_patience=3)
        cold = _observation(utilization=0.1, p95=0.05)
        assert controller.target(cold) == 4   # 1st cold interval: hold
        assert controller.target(cold) == 4   # 2nd: hold
        assert controller.target(cold) == 3   # 3rd: scale down

    def test_hold_in_the_comfort_band(self):
        controller = self._controller()
        assert controller.target(_observation(utilization=0.5)) == 4

    def test_respects_bounds(self):
        controller = self._controller(up_patience=1)
        top = _observation(members=8, utilization=0.99)
        assert controller.target(top) == 8
        controller = self._controller(down_patience=1)
        floor = _observation(members=1, utilization=0.01, p95=0.01)
        assert controller.target(floor) == 1


class TestStaticPeakController:
    def test_never_moves(self, simple_profile, simple_config, trace):
        controller = make_controller(
            StaticPeakPolicy(headroom=0.1), design=MULTI_MASTER,
            trace=trace, slo_response=2.0, config=simple_config,
            profile=simple_profile, max_replicas=32,
        )
        size = controller.initial_target()
        assert size >= 1
        assert controller.target(_observation(utilization=0.01)) == size
        assert controller.target(_observation(utilization=0.99)) == size
        # Sized for the trace peak: predicted capacity covers it.
        capacity = predict(
            MULTI_MASTER, simple_profile, simple_config.with_replicas(size)
        ).throughput
        assert capacity >= trace.max_rate


class TestPolicyValidation:
    def test_policy_field_validation(self):
        with pytest.raises(ConfigurationError):
            FeedforwardPolicy(horizon=0.0)
        with pytest.raises(ConfigurationError):
            FeedforwardPolicy(headroom=1.0)
        with pytest.raises(ConfigurationError):
            ReactivePolicy(high_utilization=0.3, low_utilization=0.5)
        with pytest.raises(ConfigurationError):
            ReactivePolicy(up_patience=0)
        with pytest.raises(ConfigurationError):
            StaticPeakPolicy(headroom=-0.1)

    def test_make_controller_validates_bounds(self, simple_profile,
                                              simple_config, trace):
        with pytest.raises(ConfigurationError):
            make_controller(
                StaticPeakPolicy(), design=MULTI_MASTER, trace=trace,
                slo_response=0.0, config=simple_config,
                profile=simple_profile,
            )
        with pytest.raises(ConfigurationError):
            make_controller(
                StaticPeakPolicy(), design=MULTI_MASTER, trace=trace,
                slo_response=1.0, config=simple_config,
                profile=simple_profile, min_replicas=5, max_replicas=2,
            )
