"""Tests for the simulation runner and curve measurement."""

import dataclasses
import gc

import pytest

from repro.core.errors import ConfigurationError
from repro.profiling.profiler import measure_class_demand
from repro.sidb.certifier_api import CertifierSpec
from repro.simulator.runner import (
    MULTI_MASTER,
    SINGLE_MASTER,
    STANDALONE,
    measure_curve,
    simulate,
)
from repro.telemetry import TelemetryConfig


class TestSimulateValidation:
    def test_unknown_design_rejected(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            simulate(shopping_spec, shopping_spec.replication_config(1),
                     design="sharded")

    def test_unknown_distribution_rejected(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            simulate(shopping_spec, shopping_spec.replication_config(1),
                     design=STANDALONE, distribution="pareto")

    def test_zero_duration_rejected(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            simulate(shopping_spec, shopping_spec.replication_config(1),
                     design=STANDALONE, duration=0.0)

    def test_negative_warmup_rejected(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            simulate(shopping_spec, shopping_spec.replication_config(1),
                     design=STANDALONE, warmup=-1.0)


class TestSimulationResult:
    @pytest.fixture(scope="class")
    def result(self, shopping_spec):
        return simulate(
            shopping_spec,
            shopping_spec.replication_config(2),
            design=MULTI_MASTER,
            seed=9,
            warmup=3.0,
            duration=15.0,
        )

    def test_window_recorded(self, result):
        assert result.window == pytest.approx(15.0)

    def test_committed_count_consistent_with_throughput(self, result):
        assert result.committed_transactions == pytest.approx(
            result.throughput * result.window, rel=1e-6
        )

    def test_class_throughputs_sum_to_total(self, result):
        assert result.read_throughput + result.update_throughput == (
            pytest.approx(result.throughput, rel=1e-6)
        )

    def test_mix_close_to_spec(self, result):
        fraction = result.update_throughput / result.throughput
        assert fraction == pytest.approx(0.2, abs=0.05)

    def test_point_utilization_by_kind(self, result):
        assert set(result.point.utilization) == {"cpu", "disk"}

    def test_per_replica_utilizations_present(self, result):
        assert "replica0.cpu" in result.utilizations
        assert "replica1.disk" in result.utilizations


def _simulator_objects_left_by(run) -> list:
    """Names of the simulator objects *run* creates that reference
    counting does not free: a collection under ``DEBUG_SAVEALL`` keeps
    the cyclic ones, and objects a finalizer resurrects stay alive."""
    def simulator_objects():
        return {id(obj): type(obj).__qualname__ for obj in gc.get_objects()
                if str(type(obj).__module__).startswith("repro.simulator")}

    gc.collect()
    before = simulator_objects()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted({name for key, name in simulator_objects().items()
                       if key not in before})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


class TestNoReferenceCycles:
    """A finished run frees its suspended processes, pending events,
    resources and event loop by reference counting, not at the next
    full garbage collection."""

    @pytest.mark.parametrize("design", [MULTI_MASTER, SINGLE_MASTER,
                                        STANDALONE])
    def test_simulate(self, ordering_spec, design):
        # Four slots for 50 clients per replica: processes are parked on
        # the admission semaphores as well as on the CPU and disk.
        replicas = 1 if design == STANDALONE else 2
        config = dataclasses.replace(
            ordering_spec.replication_config(replicas), max_concurrency=4
        )
        assert _simulator_objects_left_by(lambda: simulate(
            ordering_spec, config, design=design, warmup=1.0, duration=3.0,
        )) == []

    @pytest.mark.parametrize("telemetry", [
        TelemetryConfig(), TelemetryConfig(audit=True),
    ], ids=["telemetry", "audit"])
    def test_observed_simulate(self, ordering_spec, telemetry):
        # The fleet holds the recorder; the recorder's clock must not
        # hold the fleet.
        assert _simulator_objects_left_by(lambda: simulate(
            ordering_spec, ordering_spec.replication_config(2),
            warmup=1.0, duration=3.0, telemetry=telemetry,
        )) == []

    def test_sharded_certifier_with_service_time(self, ordering_spec):
        spec = ordering_spec.with_partitions(8, 0.1)
        assert _simulator_objects_left_by(lambda: simulate(
            spec, spec.replication_config(2), warmup=1.0, duration=3.0,
            certifier=CertifierSpec("sharded", service_time=0.004),
        )) == []

    def test_profiler_replay(self, ordering_spec):
        assert _simulator_objects_left_by(lambda: measure_class_demand(
            ordering_spec, "read", duration=5.0,
        )) == []


class TestMeasureCurve:
    def test_curve_shape(self, shopping_spec):
        curve = measure_curve(
            shopping_spec, MULTI_MASTER, (1, 2), seed=5,
            warmup=2.0, duration=8.0,
        )
        assert list(curve.replica_counts) == [1, 2]
        assert curve.throughputs[1] > curve.throughputs[0]

    def test_empty_counts_rejected(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            measure_curve(shopping_spec, SINGLE_MASTER, ())
