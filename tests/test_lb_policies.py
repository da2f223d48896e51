"""Load-balancer policy tests under skewed load — simulator and cluster.

Covers the four routing policies (least-loaded, pinned, random,
conflict-aware) at the unit level with synthetic skew, and end-to-end in
both the discrete-event simulator and the live cluster runtime.  The key
property: the conflict-aware policy never routes an update to a lagging
replica (one whose ``applied_version`` trails the freshest available
replica).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster import LoadBalancer, run_cluster
from repro.cluster.balancer import CONFLICT_AWARE, LEAST_LOADED, PINNED, RANDOM
from repro.core import rng as rng_util
from repro.core.params import ConflictProfile, ReplicationConfig, WorkloadMix
from repro.simulator.des import Environment
from repro.simulator.runner import simulate
from repro.simulator.stats import MetricsCollector
from repro.simulator.systems import LB_POLICIES, MultiMasterSystem, RunOptions
from repro.workloads.spec import WorkloadSpec, demands_ms


@pytest.fixture(scope="module")
def tiny_spec():
    return WorkloadSpec(
        benchmark="micro",
        mix_name="lb-tiny",
        mix=WorkloadMix(read_fraction=0.6, write_fraction=0.4),
        demands=demands_ms(
            read_cpu=3.0, read_disk=1.0,
            write_cpu=2.0, write_disk=1.0,
            writeset_cpu=0.5, writeset_disk=0.3,
        ),
        clients_per_replica=6,
        think_time=0.05,
        conflict=ConflictProfile(db_update_size=500, updates_per_transaction=2),
    )


def _config(spec, replicas):
    return ReplicationConfig(
        replicas=replicas,
        clients_per_replica=spec.clients_per_replica,
        think_time=spec.think_time,
        load_balancer_delay=0.0005,
        certifier_delay=0.002,
    )


def _fake_replicas(actives, applied, available=None):
    available = available or [True] * len(actives)
    return [
        SimpleNamespace(
            name=f"r{i}", active=a, applied_version=v, available=alive
        )
        for i, (a, v, alive) in enumerate(zip(actives, applied, available))
    ]


# ----------------------------------------------------------------------
# Cluster LoadBalancer unit behaviour under skew
# ----------------------------------------------------------------------

class TestClusterBalancer:
    def _balancer(self, policy):
        return LoadBalancer(policy, rng_util.spawn(7, "test-lb"))

    def test_least_loaded_avoids_hot_replica(self):
        # Skew: replica 0 is saturated, the others idle.
        replicas = _fake_replicas([25, 0, 1], [5, 5, 5])
        lb = self._balancer(LEAST_LOADED)
        for client_id in range(10):
            assert lb.select(replicas, client_id).name == "r1"

    def test_pinned_ignores_load_skew(self):
        replicas = _fake_replicas([25, 0, 1], [5, 5, 5])
        lb = self._balancer(PINNED)
        for client_id in range(9):
            assert lb.select(replicas, client_id).name == f"r{client_id % 3}"

    def test_random_spreads_over_all_replicas(self):
        replicas = _fake_replicas([25, 0, 1], [5, 5, 5])
        lb = self._balancer(RANDOM)
        chosen = {lb.select(replicas, 0).name for _ in range(200)}
        assert chosen == {"r0", "r1", "r2"}

    def test_conflict_aware_never_routes_update_to_lagging_replica(self):
        # Replica 1 is most caught up but busier; the policy still prefers
        # it for updates (freshness beats load) and never picks a laggard.
        replicas = _fake_replicas([3, 8, 1], [10, 42, 41])
        lb = self._balancer(CONFLICT_AWARE)
        for client_id in range(20):
            assert lb.select(replicas, client_id, is_update=True).name == "r1"
        # Reads fall back to least-loaded (the laggard is fine for reads).
        assert lb.select(replicas, 0, is_update=False).name == "r2"

    def test_conflict_aware_skips_unavailable_freshest(self):
        replicas = _fake_replicas(
            [0, 0, 0], [50, 40, 30], available=[False, True, True]
        )
        lb = self._balancer(CONFLICT_AWARE)
        assert lb.select(replicas, 0, is_update=True).name == "r1"

    def test_routes_somewhere_during_total_outage(self):
        replicas = _fake_replicas([1, 2], [5, 5], available=[False, False])
        lb = self._balancer(LEAST_LOADED)
        assert lb.select(replicas, 0).name == "r0"


# ----------------------------------------------------------------------
# Simulator route() under skew
# ----------------------------------------------------------------------

class TestSimulatorRoute:
    def _system(self, spec, lb_policy, replicas=3):
        env = Environment()
        config = _config(spec, replicas)
        return MultiMasterSystem(
            env, spec, config, seed=11, metrics=MetricsCollector(),
            options=RunOptions(lb_policy=lb_policy).validate(spec, config),
        )

    def test_least_loaded_avoids_hot_replica(self, tiny_spec):
        system = self._system(tiny_spec, "least-loaded")
        system.replicas[0].active = 25
        system.replicas[2].active = 2
        for client_id in range(10):
            assert system.route(system.replicas, client_id) is system.replicas[1]

    def test_pinned_ignores_load_skew(self, tiny_spec):
        system = self._system(tiny_spec, "pinned")
        system.replicas[0].active = 25
        for client_id in range(9):
            chosen = system.route(system.replicas, client_id)
            assert chosen is system.replicas[client_id % 3]

    def test_random_spreads_over_all_replicas(self, tiny_spec):
        system = self._system(tiny_spec, "random")
        names = {
            system.route(system.replicas, 0).name for _ in range(200)
        }
        assert names == {"replica0", "replica1", "replica2"}

    def test_conflict_aware_never_routes_update_to_lagging_replica(
        self, tiny_spec
    ):
        system = self._system(tiny_spec, "conflict-aware")
        system.replicas[0].applied_version = 3
        system.replicas[1].applied_version = 9
        system.replicas[2].applied_version = 9
        system.replicas[1].active = 5
        for client_id in range(20):
            chosen = system.route(system.replicas, client_id, is_update=True)
            assert chosen.applied_version == 9
            # Tie on freshness broken by load.
            assert chosen is system.replicas[2]
        # Reads may still use the laggard (it is the least loaded).
        system.replicas[0].active = 0
        assert (
            system.route(system.replicas, 0, is_update=False)
            is system.replicas[0]
        )


# ----------------------------------------------------------------------
# End-to-end: every policy works in both execution engines
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", LB_POLICIES)
def test_simulator_runs_under_every_policy(tiny_spec, policy):
    result = simulate(
        tiny_spec, _config(tiny_spec, 3), design="multi-master",
        warmup=2.0, duration=8.0, lb_policy=policy,
    )
    assert result.committed_transactions > 50
    assert result.abort_rate < 0.5


@pytest.mark.parametrize("policy", LB_POLICIES)
def test_cluster_runs_under_every_policy(tiny_spec, policy):
    result = run_cluster(
        tiny_spec, _config(tiny_spec, 2), design="multi-master",
        warmup=0.3, duration=1.5, time_scale=1.0, lb_policy=policy,
    )
    assert result.committed_transactions > 20
    assert result.state_converged


def test_cluster_conflict_aware_routing_live(tiny_spec):
    """In a real run, every update routes to a maximally caught-up replica.

    The balancer is wrapped to observe each decision: the chosen replica's
    applied version (read after selection; versions only grow) must be at
    least the freshest version visible among available replicas just
    before selection — i.e. never a lagging replica.
    """
    from repro.cluster.cluster import MultiMasterCluster

    violations = []
    decisions = []
    original_init = MultiMasterCluster.__init__

    class RecordingBalancer(LoadBalancer):
        def select(self, candidates, client_id, is_update=False,
                   partitions=()):
            alive = [r for r in candidates if r.available] or list(candidates)
            freshest_before = max(r.applied_version for r in alive)
            chosen = super().select(candidates, client_id, is_update,
                                    partitions)
            if is_update:
                decisions.append(chosen.name)
                if chosen.applied_version < freshest_before:
                    violations.append((chosen.name, freshest_before))
            return chosen

    def patched_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.balancer = RecordingBalancer(
            self.balancer.policy, rng_util.spawn(7, "recording-lb")
        )

    MultiMasterCluster.__init__ = patched_init
    try:
        result = run_cluster(
            tiny_spec, _config(tiny_spec, 3), design="multi-master",
            warmup=0.3, duration=1.5, time_scale=1.0,
            lb_policy="conflict-aware",
        )
    finally:
        MultiMasterCluster.__init__ = original_init

    assert result.state_converged
    assert decisions, "no update was routed"
    assert violations == []
