"""Unit and integration tests for replicas and the simulated systems."""

import pytest

from repro.core import rng as rng_util
from repro.core.errors import ConfigurationError, SimulationError
from repro.simulator.des import Environment
from repro.simulator.replica import SimReplica
from repro.simulator.runner import (
    MULTI_MASTER,
    SINGLE_MASTER,
    STANDALONE,
    simulate,
)
from repro.simulator.sampling import WorkloadSampler
from repro.simulator.stats import MetricsCollector
from repro.simulator.systems import MultiMasterSystem, SingleMasterSystem


def make_replica(spec, seed=1):
    env = Environment()
    sampler = WorkloadSampler(spec, rng_util.make_rng(seed))
    return env, SimReplica(env, "r0", sampler)


class TestReplicaWatermark:
    def test_applied_version_advances_contiguously(self, shopping_spec):
        env, replica = make_replica(shopping_spec)
        replica.enqueue_writeset(1, charged=False)
        assert replica.applied_version == 1
        replica.enqueue_writeset(2, charged=False)
        replica.enqueue_writeset(3, charged=False)
        assert replica.applied_version == 3

    def test_charged_writeset_takes_time(self, shopping_spec):
        env, replica = make_replica(shopping_spec)
        replica.enqueue_writeset(1, charged=True)
        assert replica.applied_version == 0  # not applied yet
        env.run_until(5.0)
        assert replica.applied_version == 1
        assert replica.writesets_applied == 1

    def test_watermark_waits_for_gap(self, shopping_spec):
        env, replica = make_replica(shopping_spec)
        replica.enqueue_writeset(1, charged=True)  # slow (needs service)
        replica.enqueue_writeset(2, charged=False)  # instant, but gapped
        assert replica.applied_version == 0
        env.run_until(5.0)
        assert replica.applied_version == 2

    def test_out_of_order_enqueue_rejected(self, shopping_spec):
        env, replica = make_replica(shopping_spec)
        replica.enqueue_writeset(1, charged=False)
        replica.enqueue_writeset(2, charged=False)
        with pytest.raises(SimulationError):
            replica.enqueue_writeset(1, charged=False)

    def test_skipped_version_rejected(self, shopping_spec):
        # A gap would stall the watermark for good: refused on arrival.
        env, replica = make_replica(shopping_spec)
        replica.enqueue_writeset(1, charged=False)
        with pytest.raises(SimulationError, match="out of order"):
            replica.enqueue_writeset(3, charged=False)
        assert replica.apply_backlog == 0

    def test_duplicate_version_rejected(self, shopping_spec):
        env, replica = make_replica(shopping_spec)
        replica.enqueue_writeset(1, charged=False)
        with pytest.raises(SimulationError):
            replica.enqueue_writeset(1, charged=False)

    def test_backlog_counts_unapplied(self, shopping_spec):
        env, replica = make_replica(shopping_spec)
        replica.enqueue_writeset(1, charged=True)
        replica.enqueue_writeset(2, charged=True)
        assert replica.apply_backlog == 2
        env.run_until(10.0)
        assert replica.apply_backlog == 0


def quick_sim(spec, design, replicas=2, seed=7, duration=8.0, **kwargs):
    config = spec.replication_config(replicas)
    return simulate(
        spec, config, design=design, seed=seed, warmup=2.0,
        duration=duration, **kwargs,
    )


class TestStandaloneSimulation:
    def test_throughput_within_capacity(self, shopping_spec):
        result = quick_sim(shopping_spec, STANDALONE, replicas=1)
        demand = (
            shopping_spec.mix.read_fraction * shopping_spec.demands.read.cpu
            + shopping_spec.mix.write_fraction * shopping_spec.demands.write.cpu
        )
        # Capacity bound with ~10% sampling allowance.
        assert result.throughput <= 1.1 / demand

    def test_read_only_workload_has_no_aborts(self, rubis_browsing_spec):
        result = quick_sim(rubis_browsing_spec, STANDALONE, replicas=1)
        assert result.abort_rate == 0.0
        assert result.update_throughput == 0.0

    def test_littles_law_consistency(self, shopping_spec):
        result = quick_sim(shopping_spec, STANDALONE, replicas=1, duration=30.0)
        implied_clients = result.throughput * (1.0 + result.response_time)
        assert implied_clients == pytest.approx(
            shopping_spec.clients_per_replica, rel=0.15
        )

    def test_standalone_rejects_multiple_replicas(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            quick_sim(shopping_spec, STANDALONE, replicas=2)

    def test_deterministic_given_seed(self, shopping_spec):
        a = quick_sim(shopping_spec, STANDALONE, replicas=1, seed=5)
        b = quick_sim(shopping_spec, STANDALONE, replicas=1, seed=5)
        assert a.throughput == b.throughput
        assert a.response_time == b.response_time

    def test_different_seeds_differ(self, shopping_spec):
        a = quick_sim(shopping_spec, STANDALONE, replicas=1, seed=5)
        b = quick_sim(shopping_spec, STANDALONE, replicas=1, seed=6)
        assert a.throughput != b.throughput


class TestMultiMasterSimulation:
    def test_replication_increases_throughput(self, shopping_spec):
        x2 = quick_sim(shopping_spec, MULTI_MASTER, replicas=2).throughput
        x4 = quick_sim(shopping_spec, MULTI_MASTER, replicas=4).throughput
        assert x4 > x2

    def test_writesets_propagate_to_all_other_replicas(self, shopping_spec):
        env = Environment()
        metrics = MetricsCollector()
        config = shopping_spec.replication_config(3)
        system = MultiMasterSystem(env, shopping_spec, config, 11, metrics)
        system.start_clients(config.total_clients)
        metrics.begin_window(0.0)
        env.run_until(10.0)
        metrics.end_window(10.0)
        commits = system.certifier.commits
        assert commits > 0
        for replica in system.replicas:
            # Every replica hears about every commit, except the handful
            # still inside the 12 ms certification delay at the horizon.
            assert replica._enqueued_version >= commits - 10
            assert replica._enqueued_version <= commits

    def test_snapshot_age_is_observed(self, shopping_spec):
        result = quick_sim(shopping_spec, MULTI_MASTER, replicas=4)
        assert result.mean_snapshot_age >= 0.0

    def test_certifier_rate_close_to_update_rate(self, shopping_spec):
        result = quick_sim(shopping_spec, MULTI_MASTER, replicas=2, duration=20.0)
        # Certifications = update attempts >= update commits.
        assert result.certifier_request_rate >= result.update_throughput * 0.9

    def test_utilizations_bounded(self, shopping_spec):
        result = quick_sim(shopping_spec, MULTI_MASTER, replicas=2)
        for value in result.utilizations.values():
            assert 0.0 <= value <= 1.0 + 1e-6

    def test_admission_cap_limits_residency(self, shopping_spec):
        env = Environment()
        metrics = MetricsCollector()
        config = shopping_spec.replication_config(1).with_replicas(1)
        config = shopping_spec.replication_config(1)
        import dataclasses

        config = dataclasses.replace(config, max_concurrency=4)
        system = MultiMasterSystem(env, shopping_spec, config, 3, metrics)
        system.start_clients(config.total_clients)
        env.run_until(5.0)
        for replica in system.replicas:
            assert replica.admission.in_use <= 4


class TestSingleMasterSimulation:
    def test_updates_only_execute_on_master(self, shopping_spec):
        env = Environment()
        metrics = MetricsCollector()
        config = shopping_spec.replication_config(3)
        system = SingleMasterSystem(env, shopping_spec, config, 13, metrics)
        system.start_clients(config.total_clients)
        metrics.begin_window(0.0)
        env.run_until(10.0)
        metrics.end_window(10.0)
        # Slaves apply writesets but never certify their own updates.
        assert system.certifier.commits > 0
        for slave in system.slaves:
            assert slave.writesets_applied > 0
        assert system.master.writesets_applied == 0

    def test_read_only_mix_uses_all_replicas(self, rubis_browsing_spec):
        env = Environment()
        metrics = MetricsCollector()
        config = rubis_browsing_spec.replication_config(3)
        system = SingleMasterSystem(env, rubis_browsing_spec, config, 17, metrics)
        system.start_clients(config.total_clients)
        env.run_until(5.0)
        busy = [r.cpu.stats.completions for r in system.replicas]
        assert all(count > 0 for count in busy)

    def test_sm_throughput_grows_with_slaves(self, shopping_spec):
        x2 = quick_sim(shopping_spec, SINGLE_MASTER, replicas=2).throughput
        x4 = quick_sim(shopping_spec, SINGLE_MASTER, replicas=4).throughput
        assert x4 > x2


class TestLBPolicies:
    def test_unknown_policy_rejected(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            quick_sim(shopping_spec, MULTI_MASTER, lb_policy="sticky")

    def test_policies_produce_similar_throughput(self, shopping_spec):
        results = {
            policy: quick_sim(
                shopping_spec, MULTI_MASTER, replicas=2, lb_policy=policy
            ).throughput
            for policy in ("least-loaded", "pinned", "random")
        }
        base = results["least-loaded"]
        for value in results.values():
            assert value == pytest.approx(base, rel=0.25)

    def test_least_loaded_response_not_worse_than_random(self, shopping_spec):
        fast = quick_sim(
            shopping_spec, MULTI_MASTER, replicas=4, duration=16.0,
            lb_policy="least-loaded",
        ).response_time
        slow = quick_sim(
            shopping_spec, MULTI_MASTER, replicas=4, duration=16.0,
            lb_policy="random",
        ).response_time
        assert fast <= slow * 1.05
