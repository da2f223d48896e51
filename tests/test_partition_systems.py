"""Partial replication on the simulator pillar: routing, propagation, churn."""

import pytest

from repro.core import rng as rng_util
from repro.core.errors import ConfigurationError
from repro.partition import PartitionMap
from repro.simulator.des import Environment
from repro.simulator.faults import ReplicaFault
from repro.simulator.runner import MULTI_MASTER, SINGLE_MASTER, simulate
from repro.simulator.sampling import WorkloadSampler
from repro.simulator.stats import MetricsCollector
from repro.simulator.systems import (
    ELASTIC_NEEDS_FULL_REPLICATION,
    PARTITION_AWARE,
    MultiMasterSystem,
    select_replica,
)
from repro.workloads import tpcw


@pytest.fixture(scope="module")
def part_spec():
    """TPC-W shopping split into 4 partitions with 10% cross traffic."""
    return tpcw.SHOPPING.with_partitions(4, 0.1)


@pytest.fixture(scope="module")
def ring_map():
    return PartitionMap.ring(4, 4, 2)


def run_partial(spec, pm, design=MULTI_MASTER, replicas=4, seed=7,
                faults=()):
    return simulate(
        spec,
        spec.replication_config(replicas),
        design=design,
        seed=seed,
        warmup=2.0,
        duration=10.0,
        lb_policy=PARTITION_AWARE,
        partition_map=pm,
        faults=faults,
    )


class TestSamplerPartitions:
    def test_unpartitioned_spec_draws_nothing(self, shopping_spec):
        sampler = WorkloadSampler(shopping_spec, rng_util.make_rng(1))
        assert sampler.sample_partition_set(True) == ()
        ws = sampler.sample_writeset(0)
        assert ws.partitions == ()

    def test_unpartitioned_rng_stream_is_byte_identical(self, shopping_spec):
        # The partition plumbing must not perturb existing workloads:
        # the same seed yields the same writesets with and without the
        # new code paths armed.
        a = WorkloadSampler(shopping_spec, rng_util.make_rng(3))
        b = WorkloadSampler(shopping_spec, rng_util.make_rng(3))
        a.sample_partition_set(True)  # no-op draw
        assert a.sample_writeset(0).keys == b.sample_writeset(0).keys

    def test_partitioned_updates_get_partition_sets(self, part_spec, ring_map):
        sampler = WorkloadSampler(part_spec, rng_util.make_rng(2),
                                  partition_map=ring_map)
        seen_sizes = set()
        for _ in range(300):
            pset = sampler.sample_partition_set(True)
            assert 1 <= len(pset) <= 2
            seen_sizes.add(len(pset))
            for p in pset:
                assert 0 <= p < 4
            if len(pset) == 2:
                # Cross-partition pairs are co-located under the map.
                assert ring_map.common_hosts(pset)
        assert seen_sizes == {1, 2}  # cross fraction > 0 actually fires

    def test_reads_touch_one_partition(self, part_spec, ring_map):
        sampler = WorkloadSampler(part_spec, rng_util.make_rng(2),
                                  partition_map=ring_map)
        for _ in range(50):
            assert len(sampler.sample_partition_set(False)) == 1

    def test_partitioned_writeset_keys_are_qualified(self, part_spec):
        sampler = WorkloadSampler(part_spec, rng_util.make_rng(2))
        ws = sampler.sample_writeset(0, (1, 2))
        assert ws.partitions == (1, 2)
        per_partition = part_spec.conflict.db_update_size // 4
        for key in ws.keys:
            table, partition, row = key
            assert table == "updatable"
            assert partition in (1, 2)
            assert 0 <= row < per_partition

    def test_weighted_primary_draws(self):
        spec = tpcw.SHOPPING.with_partitions(
            2, partition_weights=(10.0, 1.0)
        )
        sampler = WorkloadSampler(spec, rng_util.make_rng(5))
        counts = [0, 0]
        for _ in range(400):
            (p,) = sampler.sample_partition_set(False)
            counts[p] += 1
        assert counts[0] > 5 * counts[1]


class TestPartitionRouting:
    class _FakeReplica:
        def __init__(self, name, hosted, active=0):
            self.name = name
            self.hosted_partitions = hosted
            self.active = active
            self.available = True
            self.applied_version = 0
            self.capacity = 1.0

    def test_routes_to_common_host(self):
        rng = rng_util.make_rng(1)
        replicas = [
            self._FakeReplica("r0", frozenset({0, 1})),
            self._FakeReplica("r1", frozenset({1, 2})),
            self._FakeReplica("r2", frozenset({2, 3})),
        ]
        pick = select_replica(PARTITION_AWARE, replicas, 0, True, rng,
                              partitions=(1, 2))
        assert pick.name == "r1"

    def test_falls_back_to_any_host(self):
        rng = rng_util.make_rng(1)
        replicas = [
            self._FakeReplica("r0", frozenset({0})),
            self._FakeReplica("r1", frozenset({1})),
        ]
        pick = select_replica(PARTITION_AWARE, replicas, 0, True, rng,
                              partitions=(0, 1))
        assert pick.name in ("r0", "r1")

    def test_least_loaded_among_hosts(self):
        rng = rng_util.make_rng(1)
        replicas = [
            self._FakeReplica("r0", frozenset({0}), active=5),
            self._FakeReplica("r1", frozenset({0}), active=1),
            self._FakeReplica("r2", frozenset({1}), active=0),
        ]
        pick = select_replica(PARTITION_AWARE, replicas, 0, False, rng,
                              partitions=(0,))
        assert pick.name == "r1"

    def test_filter_applies_to_every_policy(self):
        rng = rng_util.make_rng(1)
        replicas = [
            self._FakeReplica("r0", frozenset({0}), active=0),
            self._FakeReplica("r1", frozenset({1}), active=9),
        ]
        for policy in ("least-loaded", "pinned", "random",
                       "capacity-weighted"):
            pick = select_replica(policy, replicas, 3, False, rng,
                                  partitions=(1,))
            assert pick.name == "r1", policy


class TestPartialPropagationSim:
    def _build(self, spec, pm, seed=11):
        env = Environment()
        metrics = MetricsCollector()
        system = MultiMasterSystem(
            env, spec, spec.replication_config(4), seed, metrics,
            lb_policy=PARTITION_AWARE, partition_map=pm,
        )
        return env, system

    def test_partial_applies_fewer_writesets_than_full(self, part_spec,
                                                       ring_map):
        env, system = self._build(part_spec, ring_map)
        system.start_clients(system.config.total_clients)
        env.run_until(20.0)
        commits = system.certifier.commits
        assert commits > 0
        applied = sum(r.writesets_applied for r in system.replicas)
        # Full replication would apply each writeset at N-1 = 3 remote
        # replicas; a factor-2 ring applies at about h-1 ~ 1.1 of them.
        assert applied < 2.0 * commits
        assert applied >= commits  # at least one remote application each

    def test_all_watermarks_converge(self, part_spec, ring_map):
        env, system = self._build(part_spec, ring_map)
        system.start_clients(system.config.total_clients)
        env.run_until(20.0)
        system.stop_arrivals()
        env.run_until(30.0)
        latest = system.certifier.latest_version
        for replica in system.replicas:
            assert replica.applied_version == latest

    def test_partial_beats_full_on_update_heavy_mix(self):
        spec = tpcw.ORDERING.with_partitions(4, 0.1)
        pm = PartitionMap.ring(4, 4, 2)
        full = run_partial(spec, None)
        partial = run_partial(spec, pm)
        assert partial.throughput >= full.throughput

    def test_churned_routing_loses_nothing(self, part_spec, ring_map):
        # A drain fault takes one replica out mid-run; deferred
        # writesets must flush on recovery and every watermark converge.
        fault = ReplicaFault(replica_index=1, start=4.0, downtime=3.0)
        result = run_partial(part_spec, ring_map, faults=(fault,))
        assert result.throughput > 0

    def test_crash_faults_rejected_under_partial_map(self, part_spec,
                                                     ring_map):
        # A crash permanently loses the replica's partition copies and
        # replacement cannot run (elastic membership is rejected), so the
        # combination must fail loudly instead of silently dropping data.
        crash = ReplicaFault(replica_index=1, start=4.0, kind="crash")
        with pytest.raises(ConfigurationError):
            run_partial(part_spec, ring_map, faults=(crash,))
        # Full replication keeps crash faults available.
        result = run_partial(part_spec, None, faults=(crash,))
        assert result.throughput > 0

    def test_elastic_membership_rejected_under_partial_map(
        self, part_spec, ring_map, fleets, refusals
    ):
        # Both substrates refuse joins and leaves with one type and one
        # message, before anything changes.
        pair = fleets("multi-master", part_spec, 4,
                      lb_policy=PARTITION_AWARE, partition_map=ring_map)
        for change in (lambda fleet: fleet.add_replica(),
                       lambda fleet: fleet.remove_replica()):
            assert refusals(change, pair) == {ELASTIC_NEEDS_FULL_REPLICATION}
        for fleet in pair:
            assert [r.name for r in fleet.replicas] == [
                f"replica{i}" for i in range(4)
            ]
            assert fleet.member_count == 4

    def test_full_map_keeps_membership_elastic(self, part_spec):
        env, system = self._build(part_spec, None)  # defaults to full
        replica = system.add_replica()
        assert replica in system.replicas


class TestPartialSingleMasterSim:
    def test_single_master_runs_partitioned(self, part_spec, ring_map):
        result = run_partial(part_spec, ring_map, design=SINGLE_MASTER)
        assert result.throughput > 0

    def test_simulate_validates_map(self, part_spec):
        with pytest.raises(ConfigurationError):
            run_partial(part_spec, PartitionMap.ring(4, 5, 2))
