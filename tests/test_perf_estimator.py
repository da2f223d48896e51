"""Performance observability: estimator math, gray-failure detection,
model drift, brownout faults, and the capacity-source switch.

The load-bearing contracts:

* the estimator is a pure observer — a DES run with it engaged is
  bit-identical to one without (telemetry/perf fields aside);
* the effective-capacity estimate tracks an injected slowdown
  monotonically and crosses the hysteresis band exactly once per
  transition (no flapping);
* ``capacity_source="estimated"`` re-weights the LB and inflates the
  controller target only after an actual gray detection.
"""

import dataclasses
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.autoscale import autoscale_sim
from repro.control.controller import FixedPolicy
from repro.control.estimator import (
    DETECT_RATIO,
    ESTIMATED,
    FleetCapacityEstimator,
    ModelDriftMonitor,
    PerfMonitor,
    resolve_capacity_source,
)
from repro.control.trace import DiurnalTrace
from repro.core.errors import ConfigurationError
from repro.ops.events import OpsEvent, summarize
from repro.ops.plan import OpsPlan
from repro.simulator.faults import (
    BROWNOUT,
    FAULT_KINDS,
    brownout_fault,
    crash_fault,
)
from repro.simulator.systems import check_supported
from repro.telemetry import Telemetry, TelemetryConfig, schema
from repro.telemetry.perf import Ewma, WindowedQuantile
from repro.workloads import tpcw


# ---------------------------------------------------------------------
# Estimator math
# ---------------------------------------------------------------------

class TestEwma:
    def test_seeded_value_then_half_life_decay(self):
        ewma = Ewma(half_life=2.0, initial=1.0)
        ewma.update(0.0, dt=2.0)  # one half-life: halfway to the target
        assert ewma.value == pytest.approx(0.5)

    def test_unseeded_first_update_sets_value(self):
        ewma = Ewma(half_life=1.0)
        assert ewma.value is None
        assert ewma.update(3.0, dt=10.0) == pytest.approx(3.0)

    def test_rejects_nonpositive_half_life(self):
        with pytest.raises(ConfigurationError):
            Ewma(half_life=0.0)

    @given(
        rate=st.floats(min_value=0.1, max_value=10.0),
        start=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_converges_to_a_constant_rate(self, rate, start):
        # Satellite property: feeding a constant observation stream
        # converges geometrically to it, from any starting estimate.
        ewma = Ewma(half_life=1.0, initial=start)
        for _ in range(30):
            ewma.update(rate, dt=1.0)
        assert ewma.value == pytest.approx(rate, rel=1e-6, abs=1e-6)


class TestWindowedQuantile:
    def test_empty_window_is_zero(self):
        assert WindowedQuantile().quantile(0.95) == 0.0

    def test_exact_quantiles_on_small_window(self):
        q = WindowedQuantile(window=10)
        for value in (1.0, 2.0, 3.0, 4.0):
            q.observe(value)
        assert q.quantile(0.5) == 2.0
        assert q.quantile(1.0) == 4.0

    def test_oldest_falls_off_the_window(self):
        q = WindowedQuantile(window=3)
        for value in (100.0, 1.0, 2.0, 3.0):
            q.observe(value)
        assert len(q) == 3
        assert q.quantile(1.0) == 3.0


class TestResolveCapacitySource:
    def test_declared_and_none_normalise_to_none(self):
        assert resolve_capacity_source(None) is None
        assert resolve_capacity_source("declared") is None

    def test_estimated_passes_through(self):
        assert resolve_capacity_source("estimated") == ESTIMATED

    def test_unknown_source_hints(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            resolve_capacity_source("estimatd")


# ---------------------------------------------------------------------
# Brownout faults and plan semantics
# ---------------------------------------------------------------------

class TestBrownoutFault:
    def test_brownout_is_a_registered_kind(self):
        assert BROWNOUT in FAULT_KINDS

    def test_helper_builds_a_valid_fault(self):
        fault = brownout_fault(1, 10.0, 5.0, severity=0.5)
        assert fault.kind == BROWNOUT
        assert fault.severity == 0.5
        assert fault.downtime == 5.0

    def test_severity_must_be_a_true_slowdown(self):
        for severity in (0.0, 1.0, 1.5, -0.5):
            with pytest.raises(ConfigurationError):
                brownout_fault(0, 1.0, 1.0, severity=severity)

    def test_brownout_needs_a_duration(self):
        with pytest.raises(ConfigurationError):
            brownout_fault(0, 1.0, 0.0)

    def test_single_master_master_may_brown_out_but_not_crash(self):
        # A brownout never changes membership, so degrading the master
        # is legal where crashing it is not (no failover support).
        check_supported("single-master", replicas=2,
                        faults=(brownout_fault(0, 1.0, 1.0),))
        with pytest.raises(ConfigurationError):
            check_supported("single-master", replicas=2,
                            faults=(crash_fault(0, 1.0),))


class TestOpsPlanMembership:
    def test_brownout_only_plan_leaves_controller_in_charge(self):
        plan = OpsPlan(faults=(brownout_fault(1, 5.0, 5.0),))
        assert plan.active
        assert not plan.manages_membership

    def test_crash_self_heal_and_rolling_take_authority(self):
        assert OpsPlan(faults=(crash_fault(1, 5.0),)).manages_membership
        assert OpsPlan(self_heal=True).manages_membership
        assert OpsPlan(rolling_start=1.0).manages_membership


class TestSummarizeGray:
    def _result(self, events):
        return SimpleNamespace(
            ops_events=events, timeline=(), control_interval=1.0
        )

    def test_pairs_each_brownout_with_first_later_detect(self):
        summary = summarize(self._result([
            OpsEvent(10.0, BROWNOUT, "replica1"),
            OpsEvent(13.0, "gray-detect", "replica1"),
            OpsEvent(40.0, BROWNOUT, "replica1"),
            OpsEvent(46.0, "gray-detect", "replica1"),
        ]))
        assert summary.gray_failures == 2
        assert summary.gray_detected == 2
        assert summary.mean_gray_detection_latency == pytest.approx(4.5)

    def test_undetected_brownout_is_counted_loudly(self):
        summary = summarize(self._result([
            OpsEvent(10.0, BROWNOUT, "replica1"),
            OpsEvent(5.0, "gray-detect", "replica2"),  # wrong replica
        ]))
        assert summary.gray_failures == 1
        assert summary.gray_detected == 0
        assert summary.mean_gray_detection_latency is None
        assert "UNDETECTED" in summary.to_text()


# ---------------------------------------------------------------------
# Fleet estimation on fake replicas
# ---------------------------------------------------------------------

class _FakeResource:
    """A live-pillar-shaped resource: bare counters, no stats object."""

    def __init__(self, name):
        self.name = name
        self.busy = 0.0
        self.work_done = 0.0
        self.completions = 0

    def busy_time_now(self):
        return self.busy


class _FakeReplica:
    def __init__(self, name, capacity=1.0):
        self.name = name
        self.capacity = capacity
        self.failed = False
        self.cpu = _FakeResource(f"{name}.cpu")
        self.disk = _FakeResource(f"{name}.disk")

    def advance(self, dt, rate):
        """Busy for the whole interval delivering *rate* work/second."""
        for resource in (self.cpu, self.disk):
            resource.busy += dt
            resource.work_done += dt * rate
            resource.completions += 5


def _tick(estimator, now, replicas):
    return estimator.observe_fleet(now, replicas)


class TestFleetCapacityEstimator:
    def test_detects_and_clears_with_hysteresis(self):
        estimator = FleetCapacityEstimator(interval=1.0)
        replica = _FakeReplica("replica0")
        _tick(estimator, 0.0, [replica])  # baseline counters
        events = []
        for step in range(1, 4):
            replica.advance(1.0, 1.0)
            _, fresh = _tick(estimator, float(step), [replica])
            events.extend(fresh)
        assert events == []  # healthy: no transitions
        for step in range(4, 12):
            replica.advance(1.0, 0.4)
            _, fresh = _tick(estimator, float(step), [replica])
            events.extend(fresh)
        assert [e.kind for e in events] == ["gray-detect"]
        assert estimator.any_degraded()
        for step in range(12, 24):
            replica.advance(1.0, 1.0)
            _, fresh = _tick(estimator, float(step), [replica])
            events.extend(fresh)
        assert [e.kind for e in events] == ["gray-detect", "gray-clear"]
        assert not estimator.any_degraded()

    def test_idle_windows_hold_the_last_estimate(self):
        estimator = FleetCapacityEstimator(interval=1.0)
        replica = _FakeReplica("replica0")
        _tick(estimator, 0.0, [replica])
        replica.advance(1.0, 1.0)
        snap, _ = _tick(estimator, 1.0, [replica])
        before = snap.ratio_for("replica0")
        # Ten ticks with no work at all: a silent replica is not evidence
        # of a slow replica.
        for step in range(2, 12):
            snap, _ = _tick(estimator, float(step), [replica])
        assert snap.ratio_for("replica0") == pytest.approx(before)

    def test_declared_capacity_captured_before_mutation(self):
        estimator = FleetCapacityEstimator(interval=1.0)
        replica = _FakeReplica("replica0", capacity=2.0)
        _tick(estimator, 0.0, [replica])
        replica.capacity = 1.3  # apply-mode mutation must not re-anchor
        replica.advance(1.0, 2.0)
        snap, _ = _tick(estimator, 1.0, [replica])
        cap = snap.capacities[0]
        assert cap.declared == 2.0
        assert cap.ratio == pytest.approx(1.0)

    def test_health_is_fleet_estimated_over_declared(self):
        estimator = FleetCapacityEstimator(interval=1.0)
        healthy = _FakeReplica("replica0")
        slow = _FakeReplica("replica1")
        _tick(estimator, 0.0, [healthy, slow])
        for step in range(1, 12):
            healthy.advance(1.0, 1.0)
            slow.advance(1.0, 0.5)
            _tick(estimator, float(step), [healthy, slow])
        assert estimator.health() == pytest.approx(0.75, abs=0.02)

    @given(slowdown=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_estimate_monotone_in_injected_slowdown(self, slowdown):
        # Satellite property: a replica made strictly slower never
        # estimates higher than a faster one after the same history.
        def final_estimate(rate):
            estimator = FleetCapacityEstimator(interval=1.0)
            replica = _FakeReplica("replica0")
            _tick(estimator, 0.0, [replica])
            for step in range(1, 10):
                replica.advance(1.0, rate)
                _tick(estimator, float(step), [replica])
            return estimator.estimate_for("replica0")

        assert final_estimate(slowdown) <= final_estimate(
            min(1.0, slowdown + 0.1)
        ) + 1e-9

    def test_attribution_ranks_resources(self):
        estimator = FleetCapacityEstimator(interval=1.0)
        replica = _FakeReplica("replica0")
        _tick(estimator, 0.0, [replica])
        replica.advance(1.0, 1.0)
        replica.disk.busy -= 0.6  # CPU ran hotter than disk
        _tick(estimator, 1.0, [replica])
        signals = estimator.attribution(top=2)
        assert [s.component for s in signals] == [
            "replica0.cpu", "replica0.disk",
        ]


# ---------------------------------------------------------------------
# Drift monitoring and the perf monitor glue
# ---------------------------------------------------------------------

def _drift_monitor(predicted_throughput):
    monitor = ModelDriftMonitor("multi-master", object(), object())
    monitor._predictions = SimpleNamespace(at=lambda members: SimpleNamespace(
        throughput=predicted_throughput, response_time=0.1
    ))
    return monitor


class TestModelDriftMonitor:
    def test_on_model_ticks_never_conclude_drift(self):
        monitor = _drift_monitor(100.0)
        for tick in range(5):
            point = monitor.observe(float(tick), 2, 120.0, 98.0, 0.2)
            assert point is not None and not point.breach
        assert not any(p.verdict for p in monitor.points)

    def test_offered_load_caps_the_prediction(self):
        monitor = _drift_monitor(100.0)
        point = monitor.observe(0.0, 2, 40.0, 39.0, 0.2)
        assert point.predicted_throughput == pytest.approx(40.0)
        assert not point.breach

    def test_verdict_needs_consecutive_breaches(self):
        monitor = _drift_monitor(100.0)
        first = monitor.observe(0.0, 2, 120.0, 50.0, 0.2)
        assert first.breach and not first.verdict
        second = monitor.observe(1.0, 2, 120.0, 50.0, 0.2)
        assert second.verdict  # patience = 2 consecutive breaches

    def test_recovery_resets_the_streak(self):
        monitor = _drift_monitor(100.0)
        monitor.observe(0.0, 2, 120.0, 50.0, 0.2)
        monitor.observe(1.0, 2, 120.0, 99.0, 0.2)
        third = monitor.observe(2.0, 2, 120.0, 50.0, 0.2)
        assert third.breach and not third.verdict

    def test_empty_fleet_is_skipped(self):
        monitor = _drift_monitor(100.0)
        assert monitor.observe(0.0, 0, 120.0, 0.0, 0.0) is None


class TestPerfMonitor:
    def _degrade(self, monitor, replica, rate, ticks=8):
        for step in range(1, ticks + 1):
            replica.advance(1.0, rate)
            monitor.on_tick(
                float(step), [replica], members=1,
                offered_rate=10.0, throughput=10.0, p95=0.1,
            )

    def test_observe_only_mode_never_touches_capacity(self):
        monitor = PerfMonitor(interval=1.0, pillar="simulator", apply=False)
        replica = _FakeReplica("replica0")
        monitor.on_tick(0.0, [replica], members=1,
                        offered_rate=10.0, throughput=10.0, p95=0.1)
        self._degrade(monitor, replica, 0.4)
        assert replica.capacity == 1.0
        assert monitor.adjust_target(4) == 4

    def test_apply_mode_pushes_estimates_into_lb_weights(self):
        monitor = PerfMonitor(interval=1.0, pillar="simulator", apply=True)
        replica = _FakeReplica("replica0")
        monitor.on_tick(0.0, [replica], members=1,
                        offered_rate=10.0, throughput=10.0, p95=0.1)
        self._degrade(monitor, replica, 0.4)
        assert replica.capacity < DETECT_RATIO

    def test_target_inflation_is_gated_on_detection(self):
        monitor = PerfMonitor(interval=1.0, pillar="simulator", apply=True)
        replica = _FakeReplica("replica0")
        monitor.on_tick(0.0, [replica], members=1,
                        offered_rate=10.0, throughput=10.0, p95=0.1)
        # Mild measurement noise (95% of declared) must not inflate.
        self._degrade(monitor, replica, 0.95)
        assert monitor.adjust_target(4) == 4
        self._degrade(monitor, replica, 0.4)
        health = monitor.estimator.health()
        assert monitor.adjust_target(4) == int(math.ceil(4 / health))

    def test_event_sink_receives_detections(self):
        seen = []
        monitor = PerfMonitor(
            interval=1.0, pillar="simulator", apply=True,
            event_sink=lambda t, kind, name: seen.append((kind, name)),
        )
        replica = _FakeReplica("replica0")
        monitor.on_tick(0.0, [replica], members=1,
                        offered_rate=10.0, throughput=10.0, p95=0.1)
        self._degrade(monitor, replica, 0.4)
        assert ("gray-detect", "replica0") in seen

    def test_drift_points_reach_telemetry(self):
        telemetry = Telemetry(TelemetryConfig(), pillar="simulator")
        monitor = PerfMonitor(interval=1.0, pillar="simulator",
                              drift=_drift_monitor(100.0),
                              telemetry=telemetry)
        replica = _FakeReplica("replica0")
        for tick in range(3):
            replica.advance(1.0, 1.0)
            monitor.on_tick(float(tick), [replica], members=2,
                            offered_rate=120.0, throughput=50.0, p95=0.2)
        samples = {sample.name: sample.value
                   for sample in telemetry.registry.snapshot()}
        assert samples[schema.MODEL_RESIDUAL] == pytest.approx(-0.5)
        # Patience 2: the second and the third breach are verdicts.
        assert samples[schema.MODEL_DRIFT] == 2.0

    def test_report_freezes_source_and_detections(self):
        monitor = PerfMonitor(interval=1.0, pillar="simulator", apply=True)
        replica = _FakeReplica("replica0")
        monitor.on_tick(0.0, [replica], members=1,
                        offered_rate=10.0, throughput=10.0, p95=0.1)
        self._degrade(monitor, replica, 0.4)
        report = monitor.report()
        assert report.source == ESTIMATED
        assert report.detection_latency(0.0, "replica0") is not None
        assert "gray-failure detections" in report.to_text()


# ---------------------------------------------------------------------
# End-to-end: the estimator rides a real autoscale run
# ---------------------------------------------------------------------

def _autoscale(seed, capacity_source=None, telemetry=None):
    spec = tpcw.SHOPPING
    config = spec.replication_config(1)
    rate = 40.0
    trace = DiurnalTrace(base_rate=rate, peak_rate=rate, period=24.0)
    plan = OpsPlan(faults=(brownout_fault(1, 10.0, 10.0, severity=0.5),))
    return autoscale_sim(
        spec, trace, FixedPolicy(replicas=2),
        design="multi-master", seed=seed, warmup=4.0, duration=24.0,
        control_interval=2.0, slo_response=3.0, max_replicas=4,
        config=config, ops=plan,
        capacity_source=capacity_source, telemetry=telemetry,
    )


class TestEstimatorOnAutoscaleRuns:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=3, deadline=None)
    def test_observing_estimator_keeps_des_bit_identical(self, seed):
        # Satellite property: engaging the estimator (via telemetry)
        # must not move a single event in the deterministic run.
        from repro.telemetry import TelemetryConfig

        on = _autoscale(seed, telemetry=TelemetryConfig())
        off = _autoscale(seed)
        assert on.perf is not None and off.perf is None
        assert dataclasses.replace(on, telemetry=None, perf=None) == (
            dataclasses.replace(off, telemetry=None, perf=None)
        )

    def test_estimated_mode_detects_the_brownout(self):
        result = _autoscale(7, capacity_source="estimated")
        assert result.perf is not None
        assert result.perf.source == ESTIMATED
        assert result.perf.detection_latency(10.0, "replica1") is not None
        kinds = {event.kind for event in result.ops_events}
        assert {"brownout", "gray-detect"} <= kinds
        summary = summarize(result)
        assert summary.gray_failures == 1
        assert summary.gray_detected == 1
        assert summary.mean_gray_detection_latency is not None

    def test_estimated_mode_scales_out_around_the_brownout(self):
        declared = _autoscale(7)
        estimated = _autoscale(7, capacity_source="estimated")
        peak = max(p.members for p in estimated.timeline)
        assert peak > max(p.members for p in declared.timeline)
