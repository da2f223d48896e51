"""Tests for failure injection and the failover experiment."""

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.failover import failover_experiment
from repro.simulator.faults import (
    CRASH,
    ReplicaFault,
    crash_fault,
    install_faults,
)
from repro.simulator.runner import MULTI_MASTER, SINGLE_MASTER, simulate
from repro.simulator.systems import check_supported


class TestReplicaFault:
    def test_end_time(self):
        fault = ReplicaFault(replica_index=1, start=10.0, downtime=5.0)
        assert fault.end == 15.0

    def test_rejects_negative_index(self):
        with pytest.raises(ConfigurationError):
            ReplicaFault(replica_index=-1, start=0.0, downtime=1.0)

    def test_rejects_zero_downtime(self):
        with pytest.raises(ConfigurationError):
            ReplicaFault(replica_index=0, start=0.0, downtime=0.0)

    def test_validate_rejects_out_of_range_replica(self):
        fault = ReplicaFault(replica_index=5, start=0.0, downtime=1.0)
        with pytest.raises(ConfigurationError):
            check_supported(MULTI_MASTER, faults=[fault], replicas=4)

    def test_validate_rejects_master_fault(self):
        fault = ReplicaFault(replica_index=0, start=0.0, downtime=1.0)
        with pytest.raises(ConfigurationError):
            check_supported(SINGLE_MASTER, faults=[fault], replicas=4)

    def test_validate_allows_slave_fault(self):
        fault = ReplicaFault(replica_index=1, start=0.0, downtime=1.0)
        assert check_supported(SINGLE_MASTER, faults=[fault], replicas=4)

    def test_validate_rejects_standalone(self):
        fault = ReplicaFault(replica_index=0, start=0.0, downtime=1.0)
        with pytest.raises(ConfigurationError):
            check_supported("standalone", faults=[fault], replicas=1)


class TestFaultedSimulation:
    def test_throughput_dips_during_outage(self, shopping_spec):
        config = shopping_spec.replication_config(3)
        fault = ReplicaFault(replica_index=0, start=14.0, downtime=12.0)
        result = simulate(
            shopping_spec, config, design=MULTI_MASTER, seed=3,
            warmup=4.0, duration=32.0, faults=[fault],
        )
        timeline = list(result.throughput_timeline)
        # Fault covers window seconds [10, 22).
        healthy = sum(timeline[0:9]) / 9
        degraded = sum(timeline[12:21]) / 9
        assert degraded < 0.85 * healthy

    def test_throughput_recovers_after_outage(self, shopping_spec):
        config = shopping_spec.replication_config(3)
        fault = ReplicaFault(replica_index=0, start=10.0, downtime=8.0)
        result = simulate(
            shopping_spec, config, design=MULTI_MASTER, seed=4,
            warmup=4.0, duration=40.0, faults=[fault],
        )
        timeline = list(result.throughput_timeline)
        healthy = sum(timeline[0:5]) / 5
        recovered = sum(timeline[22:40]) / 18
        assert recovered > 0.9 * healthy

    def test_replica_catches_up_after_recovery(self, shopping_spec):
        from repro.simulator.des import Environment
        from repro.simulator.stats import MetricsCollector
        from repro.simulator.systems import MultiMasterSystem

        env = Environment()
        metrics = MetricsCollector()
        config = shopping_spec.replication_config(3)
        system = MultiMasterSystem(env, shopping_spec, config, 5, metrics)
        system.start_clients(config.total_clients)
        victim = system.replicas[1]
        env.schedule(5.0, lambda: setattr(victim, "available", False))
        env.schedule(15.0, lambda: setattr(victim, "available", True))
        env.run_until(12.0)
        backlog_while_down = victim.apply_backlog
        env.run_until(40.0)
        assert backlog_while_down > 0  # missed writesets queued while down
        # Caught up after recovery, modulo the few writesets always in
        # flight (propagation delay + application time).
        assert victim.apply_backlog <= 10
        assert victim.apply_backlog < backlog_while_down

    def test_fault_in_standalone_rejected(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            simulate(
                shopping_spec,
                shopping_spec.replication_config(1),
                design="standalone",
                faults=[ReplicaFault(0, 1.0, 1.0)],
                warmup=1.0,
                duration=2.0,
            )

    def test_timeline_present_without_faults(self, shopping_spec):
        result = simulate(
            shopping_spec, shopping_spec.replication_config(1),
            design="standalone", seed=6, warmup=2.0, duration=10.0,
        )
        timeline = list(result.throughput_timeline)
        assert len(timeline) == 10
        assert sum(timeline) == result.committed_transactions


class TestFaultEdgeCases:
    def test_fault_after_run_end_has_no_effect(self, shopping_spec):
        config = shopping_spec.replication_config(2)
        kwargs = dict(design=MULTI_MASTER, seed=11, warmup=2.0,
                      duration=10.0)
        baseline = simulate(shopping_spec, config, **kwargs)
        late = simulate(
            shopping_spec, config,
            faults=[ReplicaFault(0, start=500.0, downtime=5.0)],
            **kwargs,
        )
        # The callbacks never fire inside the horizon: byte-identical run.
        assert late.committed_transactions == baseline.committed_transactions
        assert late.throughput == baseline.throughput

    def test_overlapping_faults_nest(self, shopping_spec):
        from repro.simulator.des import Environment
        from repro.simulator.stats import MetricsCollector
        from repro.simulator.systems import MultiMasterSystem

        env = Environment()
        system = MultiMasterSystem(
            env, shopping_spec, shopping_spec.replication_config(3), 2,
            MetricsCollector(),
        )
        victim = system.replicas[1]
        install_faults(env, system, [
            ReplicaFault(1, start=5.0, downtime=10.0),   # [5, 15)
            ReplicaFault(1, start=10.0, downtime=10.0),  # [10, 20)
        ])
        env.run_until(12.0)
        assert not victim.available
        env.run_until(17.0)
        # The first fault ended at 15, but the second is still open: the
        # replica must stay down until the *last* overlapping outage ends.
        assert not victim.available
        env.run_until(21.0)
        assert victim.available

    def test_single_master_master_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            check_supported(
                SINGLE_MASTER, faults=[crash_fault(0, 5.0)], replicas=4
            )

    def test_single_master_slave_crash_allowed(self):
        checked = check_supported(
            SINGLE_MASTER, faults=[crash_fault(2, 5.0)], replicas=4
        )
        assert checked[0].kind == CRASH

    def test_crash_fault_needs_no_downtime(self):
        fault = crash_fault(1, 3.0)
        assert fault.downtime == 0.0

    def test_drain_fault_still_requires_downtime(self):
        with pytest.raises(ConfigurationError):
            ReplicaFault(1, start=3.0, downtime=0.0, kind="drain")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicaFault(1, start=3.0, downtime=1.0, kind="meteor")

    def test_crashed_replica_drops_writesets(self, shopping_spec):
        from repro.simulator.des import Environment
        from repro.simulator.stats import MetricsCollector
        from repro.simulator.systems import MultiMasterSystem

        env = Environment()
        system = MultiMasterSystem(
            env, shopping_spec, shopping_spec.replication_config(3), 3,
            MetricsCollector(),
        )
        system.start_clients(system.config.total_clients)
        victim = system.replicas[1]
        install_faults(env, system, [crash_fault(1, 5.0)])
        env.run_until(30.0)
        assert victim.failed
        assert not victim.available
        # Crash = stopped consuming writesets: nothing was deferred for
        # catch-up, and the applied watermark froze at crash time.
        assert victim._deferred == []
        assert victim.applied_version < system.certifier.latest_version


class TestFailoverExperiment:
    @pytest.fixture(scope="class")
    def result(self, shopping_spec, tiny_settings):
        return failover_experiment(
            shopping_spec, replicas=4, settings=tiny_settings,
            phase_length=18.0,
        )

    def test_dip_and_recovery(self, result):
        assert result.during < result.before
        assert result.recovered

    def test_model_tracks_both_phases(self, result):
        assert result.before == pytest.approx(result.predicted_healthy, rel=0.15)
        assert result.during == pytest.approx(result.predicted_degraded, rel=0.15)

    def test_dip_fraction_reasonable(self, result):
        # Losing 1 of 4 replicas costs roughly a quarter of capacity.
        assert 0.10 < result.dip_fraction < 0.40

    def test_to_text_renders(self, result):
        text = result.to_text()
        assert "failover" in text
        assert "recovered" in text

    def test_requires_two_replicas(self, shopping_spec, tiny_settings):
        with pytest.raises(ConfigurationError):
            failover_experiment(shopping_spec, replicas=1,
                                settings=tiny_settings)
