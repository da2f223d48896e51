"""Partial replication on the live cluster: scoped installs, convergence."""

import pytest

from repro.cluster import run_cluster
from repro.core.errors import ConfigurationError
from repro.core.params import ConflictProfile, WorkloadMix
from repro.partition import PartitionMap
from repro.simulator.runner import MULTI_MASTER, SINGLE_MASTER
from repro.simulator.systems import PARTITION_AWARE, RunOptions
from repro.workloads.spec import WorkloadSpec, demands_ms


@pytest.fixture(scope="module")
def live_spec():
    """A fast millisecond-scale partitioned mix for live tests."""
    return WorkloadSpec(
        benchmark="micro",
        mix_name="partition-test",
        mix=WorkloadMix(read_fraction=0.6, write_fraction=0.4),
        demands=demands_ms(
            read_cpu=4.0, read_disk=2.0,
            write_cpu=4.0, write_disk=2.0,
            writeset_cpu=2.0, writeset_disk=1.0,
        ),
        clients_per_replica=4,
        think_time=0.05,
        conflict=ConflictProfile(db_update_size=900,
                                 updates_per_transaction=2),
        partitions=3,
        cross_partition_fraction=0.1,
        description="partitioned live-cluster test mix",
    )


@pytest.fixture(scope="module")
def live_map():
    return PartitionMap.ring(3, 3, 2)


def run_live(spec, pm, design=MULTI_MASTER, seed=5):
    return run_cluster(
        spec,
        spec.replication_config(3),
        design=design,
        seed=seed,
        warmup=1.0,
        duration=6.0,
        time_scale=0.05,
        lb_policy=PARTITION_AWARE,
        partition_map=pm,
    )


class TestLivePartialReplication:
    def test_multimaster_converges_with_identical_versions(
        self, live_spec, live_map
    ):
        result = run_live(live_spec, live_map)
        assert result.committed_transactions > 0
        # Zero lost or duplicated committed writesets: every replica's
        # final version equals the certifier's commit count.
        assert result.converged
        assert len(set(result.final_versions)) == 1
        expected = (result.total_certifications
                    - result.total_certification_aborts)
        assert result.final_versions[0] == expected

    def test_single_master_converges(self, live_spec, live_map):
        result = run_live(live_spec, live_map, design=SINGLE_MASTER)
        assert result.committed_transactions > 0
        assert result.state_converged

    def test_run_cluster_validates_map(self, live_spec):
        with pytest.raises(ConfigurationError):
            run_live(live_spec, PartitionMap.ring(3, 4, 2))


class TestScopedInstalls:
    def test_non_hosts_skip_payloads_but_track_versions(
        self, live_spec, live_map
    ):
        """Drive a cluster directly and inspect per-replica stores."""
        from repro.cluster.clock import VirtualClock
        from repro.cluster.cluster import MultiMasterCluster
        from repro.core import rng as rng_util
        from repro.simulator.sampling import WorkloadSampler
        from repro.simulator.stats import MetricsCollector

        config = live_spec.replication_config(3)
        cluster = MultiMasterCluster(
            live_spec, config, 9, VirtualClock(0.02), MetricsCollector(),
            RunOptions(lb_policy=PARTITION_AWARE, partition_map=live_map
                       ).validate(live_spec, config),
        )
        cluster.start()
        try:
            sampler = WorkloadSampler(
                live_spec, rng_util.make_rng(17), partition_map=live_map
            )
            for i in range(40):
                cluster.execute(sampler, True, i)
            assert cluster.quiesce(timeout=20.0)

            latest = cluster.certifier.latest_version
            assert latest > 0
            total_payloads = 0
            for index, replica in enumerate(cluster.replicas):
                # Version clock is global even where data is absent.
                assert replica.db.latest_version == latest
                hosted = live_map.hosted_by(index)
                for key in replica.db.store.keys():
                    table, partition, row = key
                    # Scoped propagation: a replica only ever stores
                    # rows of partitions it hosts.
                    assert partition in hosted, (
                        f"{replica.name} stores partition {partition}, "
                        f"hosts only {sorted(hosted)}"
                    )
                total_payloads += replica.writesets_applied
            commits = cluster.certifier.commits
            # Factor-2 placement: each writeset is installed at ~2 of 3
            # replicas (origin included); full replication would be 3.
            assert total_payloads < 3 * commits
        finally:
            cluster.shutdown()

    def test_elastic_membership_rejected_under_partial_map(
        self, live_spec, live_map
    ):
        from repro.cluster.clock import VirtualClock
        from repro.cluster.cluster import MultiMasterCluster
        from repro.simulator.stats import MetricsCollector

        config = live_spec.replication_config(3)
        cluster = MultiMasterCluster(
            live_spec, config, 9, VirtualClock(0.02), MetricsCollector(),
            RunOptions(lb_policy=PARTITION_AWARE, partition_map=live_map
                       ).validate(live_spec, config),
        )
        cluster.start()
        try:
            with pytest.raises(ConfigurationError):
                cluster.add_replica()
            with pytest.raises(ConfigurationError):
                cluster.remove_replica()
        finally:
            cluster.shutdown()
