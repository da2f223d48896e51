"""Tests for the capacity-planning and provisioning helpers."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.params import ReplicationConfig
from repro.models import planning
from repro.models.api import (
    MULTI_MASTER,
    SINGLE_MASTER,
    predict,
    replicas_for_throughput,
)
from repro.models.planning import (
    DeploymentPlan,
    plan_deployment,
    provisioning_schedule,
    replicas_for_response_time,
)


class TestReplicasForResponseTime:
    def test_finds_minimum(self, simple_profile, simple_config):
        # Pick an SLA between the N=1 and a larger deployment's latency.
        r1 = predict(MULTI_MASTER, simple_profile,
                     simple_config.with_replicas(1)).response_time
        n = replicas_for_response_time(
            MULTI_MASTER, simple_profile, simple_config,
            max_response_time=r1 * 1.5,
        )
        assert n == 1

    def test_unreachable_sla_returns_none(self, simple_profile, simple_config):
        n = replicas_for_response_time(
            MULTI_MASTER, simple_profile, simple_config,
            max_response_time=1e-6, max_replicas=4,
        )
        assert n is None

    def test_rejects_nonpositive_sla(self, simple_profile, simple_config):
        with pytest.raises(ConfigurationError):
            replicas_for_response_time(
                MULTI_MASTER, simple_profile, simple_config, 0.0
            )


class TestPlanDeployment:
    def test_meets_throughput_target(self, simple_profile, simple_config):
        x1 = predict(MULTI_MASTER, simple_profile,
                     simple_config.with_replicas(1)).throughput
        plan = plan_deployment(simple_profile, simple_config,
                               target_throughput=3 * x1)
        assert plan is not None
        assert plan.predicted_throughput >= 3 * x1
        assert plan.load_factor <= 1.0

    def test_headroom_buys_more_replicas(self, simple_profile, simple_config):
        x1 = predict(MULTI_MASTER, simple_profile,
                     simple_config.with_replicas(1)).throughput
        tight = plan_deployment(simple_profile, simple_config, 3 * x1)
        roomy = plan_deployment(simple_profile, simple_config, 3 * x1,
                                headroom=0.3)
        assert roomy.replicas >= tight.replicas

    def test_latency_constraint_filters(self, simple_profile, simple_config):
        x1 = predict(MULTI_MASTER, simple_profile,
                     simple_config.with_replicas(1)).throughput
        plan = plan_deployment(
            simple_profile, simple_config, 2 * x1,
            max_response_time=1e-6, max_replicas=8,
        )
        assert plan is None

    def test_unreachable_target_returns_none(self, simple_profile,
                                             simple_config):
        plan = plan_deployment(simple_profile, simple_config, 1e9,
                               max_replicas=4)
        assert plan is None

    def test_rejects_bad_inputs(self, simple_profile, simple_config):
        with pytest.raises(ConfigurationError):
            plan_deployment(simple_profile, simple_config, 0.0)
        with pytest.raises(ConfigurationError):
            plan_deployment(simple_profile, simple_config, 10.0, headroom=1.0)

    def test_prefers_fewest_replicas_across_designs(self, simple_demands):
        # Write-heavy at scale: MM needs fewer replicas than SM for high
        # targets, so the plan should come back multi-master.
        from repro.core.params import (
            ReplicationConfig,
            StandaloneProfile,
            WorkloadMix,
        )

        profile = StandaloneProfile(
            mix=WorkloadMix(read_fraction=0.5, write_fraction=0.5),
            demands=simple_demands,
            abort_rate=0.0002,
            update_response_time=0.05,
            update_rate=10.0,
        )
        config = ReplicationConfig(replicas=1, clients_per_replica=50)
        sm_ceiling = max(
            predict(SINGLE_MASTER, profile, config.with_replicas(n)).throughput
            for n in (1, 2, 4, 8, 16)
        )
        plan = plan_deployment(profile, config, sm_ceiling * 1.5,
                               max_replicas=32)
        assert plan is not None
        assert plan.design == MULTI_MASTER


class TestProvisioningSchedule:
    FORECAST = [("00h", 40.0), ("06h", 120.0), ("12h", 260.0), ("18h", 180.0)]

    def test_schedule_covers_all_periods(self, simple_profile, simple_config):
        schedule = provisioning_schedule(
            MULTI_MASTER, simple_profile, simple_config, self.FORECAST
        )
        assert len(schedule.periods) == 4
        labels = [label for label, _, _ in schedule.periods]
        assert labels == ["00h", "06h", "12h", "18h"]

    def test_sizes_match_loads(self, simple_profile, simple_config):
        schedule = provisioning_schedule(
            MULTI_MASTER, simple_profile, simple_config, self.FORECAST
        )
        sizes = {label: n for label, _, n in schedule.periods}
        assert sizes["00h"] < sizes["12h"]
        assert sizes["12h"] == schedule.static_replicas

    def test_each_period_meets_its_load(self, simple_profile, simple_config):
        headroom = 0.1
        schedule = provisioning_schedule(
            MULTI_MASTER, simple_profile, simple_config, self.FORECAST,
            headroom=headroom,
        )
        for _, load, n in schedule.periods:
            capacity = predict(
                MULTI_MASTER, simple_profile, simple_config.with_replicas(n)
            ).throughput
            assert capacity >= load / (1 - headroom) - 1e-9

    def test_savings_positive_for_diurnal_load(self, simple_profile,
                                               simple_config):
        schedule = provisioning_schedule(
            MULTI_MASTER, simple_profile, simple_config, self.FORECAST
        )
        assert schedule.savings_fraction > 0.2
        assert schedule.replica_periods < schedule.static_replica_periods

    def test_unreachable_load_raises(self, simple_profile, simple_config):
        with pytest.raises(ConfigurationError):
            provisioning_schedule(
                MULTI_MASTER, simple_profile, simple_config,
                [("peak", 1e9)], max_replicas=4,
            )

    def test_empty_forecast_rejected(self, simple_profile, simple_config):
        with pytest.raises(ConfigurationError):
            provisioning_schedule(
                MULTI_MASTER, simple_profile, simple_config, []
            )

    def test_to_text_renders(self, simple_profile, simple_config):
        schedule = provisioning_schedule(
            MULTI_MASTER, simple_profile, simple_config, self.FORECAST
        )
        text = schedule.to_text()
        assert "replica-periods" in text
        assert "00h" in text


class TestProvisioningScheduleEdgeCases:
    def test_zero_load_periods_get_minimum_provisioning(self, simple_profile,
                                                        simple_config):
        """An idle period still needs one replica, never zero or an error."""
        forecast = [("night", 0.0), ("day", 120.0), ("off", 0.0)]
        schedule = provisioning_schedule(
            MULTI_MASTER, simple_profile, simple_config, forecast
        )
        sizes = {label: n for label, _, n in schedule.periods}
        assert sizes["night"] == 1
        assert sizes["off"] == 1
        assert sizes["day"] >= 1
        # Zero-load periods contribute their floor to the totals.
        assert schedule.replica_periods == sum(sizes.values())
        assert schedule.static_replicas == sizes["day"]

    def test_all_zero_forecast(self, simple_profile, simple_config):
        schedule = provisioning_schedule(
            MULTI_MASTER, simple_profile, simple_config,
            [("a", 0.0), ("b", 0.0)],
        )
        assert [n for _, _, n in schedule.periods] == [1, 1]
        assert schedule.static_replicas == 1
        assert schedule.savings_fraction == 0.0

    def test_sla_below_zero_load_service_time_is_unreachable(
            self, simple_profile, simple_config):
        """No replica count can beat the zero-load service time."""
        floor = (simple_profile.mix.read_fraction
                 * simple_profile.demands.read.total
                 + simple_profile.mix.write_fraction
                 * simple_profile.demands.write.total)
        n = replicas_for_response_time(
            MULTI_MASTER, simple_profile, simple_config,
            max_response_time=floor * 0.5, max_replicas=16,
        )
        assert n is None
        plan = plan_deployment(
            simple_profile, simple_config, target_throughput=1.0,
            max_response_time=floor * 0.5, designs=(MULTI_MASTER,),
            max_replicas=16,
        )
        assert plan is None

    def test_headroom_rounding_at_max_replicas_boundary(self, simple_profile,
                                                        simple_config):
        """Loads right at the boundary either fit exactly at max_replicas
        or raise — the head-room division must not mis-round either way."""
        headroom = 0.1
        max_replicas = 4
        capacity = predict(
            MULTI_MASTER, simple_profile,
            simple_config.with_replicas(max_replicas),
        ).throughput
        # Exactly fillable: the largest load max_replicas can serve with
        # head-room.  size_for must pick max_replicas, not raise.
        fits = capacity * (1.0 - headroom)
        schedule = provisioning_schedule(
            MULTI_MASTER, simple_profile, simple_config,
            [("edge", fits)], headroom=headroom, max_replicas=max_replicas,
        )
        assert schedule.periods[0][2] == max_replicas
        assert schedule.static_replicas == max_replicas
        # A hair past the boundary must raise, not silently under-provision.
        with pytest.raises(ConfigurationError):
            provisioning_schedule(
                MULTI_MASTER, simple_profile, simple_config,
                [("over", fits * 1.001)], headroom=headroom,
                max_replicas=max_replicas,
            )


# ---------------------------------------------------------------------
# The shared smallest-n scan: bound skipping, memo, validation
# ---------------------------------------------------------------------


def _linear_plan(profile, config, target, max_response_time=None,
                 headroom=0.0, max_replicas=64):
    """``plan_deployment`` as a plain scan: every n predicted, none skipped."""
    required = target / (1.0 - headroom)
    best = None
    for design in (MULTI_MASTER, SINGLE_MASTER):
        for n in range(1, max_replicas + 1):
            prediction = predict(design, profile, config.with_replicas(n))
            if prediction.throughput < required:
                continue
            if (max_response_time is not None
                    and prediction.response_time > max_response_time):
                continue
            if best is None or n < best.replicas:
                best = DeploymentPlan(
                    design=design,
                    replicas=n,
                    predicted_throughput=prediction.throughput,
                    predicted_response_time=prediction.response_time,
                    load_factor=target / prediction.throughput,
                )
            break
    return best


@pytest.fixture
def counted_predict(monkeypatch):
    """Count the replica counts the planner actually predicts."""
    seen = []

    def counting(design, profile, config, **kwargs):
        seen.append((design, config.replicas))
        return predict(design, profile, config, **kwargs)

    monkeypatch.setattr(planning, "predict", counting)
    return seen


class TestSmallestDeploymentScan:
    MAX = 6
    #: 20 clients per replica thinking 1 s: the population bound is 20n tps
    #: and the predicted capacity about 18n, so these straddle both at
    #: every n, and the reach of six replicas (107.9 tps).
    TARGETS = (5.0, 18.0, 18.2, 19.9, 20.1, 36.3, 54.3, 61.0, 72.2, 90.0,
               107.5, 108.0, 119.0, 120.2, 500.0, 1e6)

    @pytest.mark.parametrize("max_response_time", [None, 0.105])
    @pytest.mark.parametrize("headroom", [0.0, 0.2])
    def test_bound_skipping_plan_equals_the_linear_scan(
            self, simple_profile, simple_config, max_response_time, headroom):
        reached = set()
        for target in self.TARGETS:
            plan = plan_deployment(
                simple_profile, simple_config, target,
                max_response_time=max_response_time, headroom=headroom,
                max_replicas=self.MAX,
            )
            assert plan == _linear_plan(
                simple_profile, simple_config, target, max_response_time,
                headroom, self.MAX,
            )
            reached.add(plan is not None)
        assert reached == {True, False}

    def test_zero_think_time_disables_the_bound(
            self, simple_profile, counted_predict):
        config = ReplicationConfig(
            replicas=1, clients_per_replica=20, think_time=0.0
        )
        for target in (10.0, 40.0, 1e6):
            assert plan_deployment(
                simple_profile, config, target, max_replicas=3
            ) == _linear_plan(simple_profile, config, target, max_replicas=3)
        # The unreachable target had every deployment predicted.
        assert counted_predict[-6:] == [
            (design, n) for design in (MULTI_MASTER, SINGLE_MASTER)
            for n in (1, 2, 3)
        ]

    def test_ruled_out_deployments_are_never_predicted(
            self, simple_profile, simple_config, counted_predict):
        assert plan_deployment(
            simple_profile, simple_config, 1e6, max_replicas=self.MAX
        ) is None
        assert counted_predict == []
        # 61 tps needs more than 3 replicas' 60 clients: n <= 3 is skipped.
        replicas_for_throughput(
            MULTI_MASTER, simple_profile, simple_config, 61.0,
            max_replicas=self.MAX,
        )
        assert counted_predict[0] == (MULTI_MASTER, 4)

    def test_a_forecast_predicts_each_replica_count_once(
            self, simple_profile, simple_config, counted_predict):
        provisioning_schedule(
            MULTI_MASTER, simple_profile, simple_config,
            [("a", 30.0), ("b", 70.0), ("c", 30.0), ("d", 70.0)],
            max_replicas=self.MAX,
        )
        assert len(counted_predict) == len(set(counted_predict))

    def test_max_replicas_below_one_is_one_error(
            self, simple_profile, simple_config):
        message = "max_replicas must be >= 1, got 0"
        with pytest.raises(ConfigurationError, match=message):
            plan_deployment(simple_profile, simple_config, 10.0, max_replicas=0)
        with pytest.raises(ConfigurationError, match=message):
            replicas_for_response_time(
                MULTI_MASTER, simple_profile, simple_config, 1.0, max_replicas=0
            )
        with pytest.raises(ConfigurationError, match=message):
            replicas_for_throughput(
                MULTI_MASTER, simple_profile, simple_config, 10.0, max_replicas=0
            )
        with pytest.raises(ConfigurationError, match=message):
            provisioning_schedule(
                MULTI_MASTER, simple_profile, simple_config, [("a", 10.0)],
                max_replicas=0,
            )

    def test_unknown_design_is_rejected_even_when_every_n_is_skipped(
            self, simple_profile, simple_config):
        with pytest.raises(ConfigurationError, match="unknown design"):
            plan_deployment(simple_profile, simple_config, 1e6,
                            designs=("multi-mister",), max_replicas=3)
