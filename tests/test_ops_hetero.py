"""Heterogeneous-capacity pools: resource rates, routing, and planning."""

import pytest

from repro.core.errors import ConfigurationError
from repro.models.planning import plan_deployment, plan_mixed_fleet
from repro.simulator.des import Environment
from repro.simulator.resources import FIFOResource, ProcessorSharingResource
from repro.simulator.runner import MULTI_MASTER, simulate
from repro.simulator.systems import CAPACITY_WEIGHTED, RunOptions, select_replica
from repro.workloads import tpcw


def _capacities(capacities, replicas):
    """*capacities* as :meth:`RunOptions.validate` normalises them for a
    *replicas*-strong multi-master fleet."""
    return RunOptions(capacities=capacities).validate(
        tpcw.SHOPPING, tpcw.SHOPPING.replication_config(replicas)
    ).capacities


class TestCapacityRates:
    def test_ps_resource_rate_halves_service_time(self):
        env = Environment()
        fast = ProcessorSharingResource(env, "fast", rate=2.0)
        done = []
        fast.submit(1.0, lambda: done.append(env.now))
        env.run_until(10.0)
        assert done == [pytest.approx(0.5)]

    def test_fifo_resource_rate_halves_service_time(self):
        env = Environment()
        fast = FIFOResource(env, "fast", rate=2.0)
        done = []
        fast.submit(1.0, lambda: done.append(env.now))
        env.run_until(10.0)
        assert done == [pytest.approx(0.5)]

    def test_rate_must_be_positive(self):
        env = Environment()
        with pytest.raises(Exception):
            ProcessorSharingResource(env, "bad", rate=0.0)

    def test_validate_refuses_capacities_of_the_wrong_length(self):
        with pytest.raises(ConfigurationError, match="names 2 replicas"):
            _capacities((1.0, 2.0), replicas=3)

    def test_validate_refuses_a_non_positive_capacity(self):
        with pytest.raises(ConfigurationError, match="must be positive"):
            _capacities((1.0, 0.0, 1.0), replicas=3)

    def test_validate_keeps_no_capacities_uniform(self):
        assert _capacities(None, replicas=4) is None
        assert _capacities([2, 1], replicas=2) == (2.0, 1.0)


class _FakeReplica:
    def __init__(self, name, active, capacity):
        self.name = name
        self.active = active
        self.capacity = capacity
        self.available = True
        self.applied_version = 0


class TestCapacityWeightedRouting:
    def test_prefers_fast_box_at_equal_queue(self):
        fast = _FakeReplica("fast", active=2, capacity=2.0)
        slow = _FakeReplica("slow", active=2, capacity=1.0)
        pick = select_replica(
            CAPACITY_WEIGHTED, [slow, fast], 0, False, rng=None
        )
        assert pick is fast

    def test_slow_box_wins_when_truly_idle(self):
        fast = _FakeReplica("fast", active=4, capacity=2.0)
        slow = _FakeReplica("slow", active=0, capacity=1.0)
        pick = select_replica(
            CAPACITY_WEIGHTED, [slow, fast], 0, False, rng=None
        )
        assert pick is slow


class TestHeterogeneousSimulation:
    @pytest.fixture(scope="class")
    def results(self, shopping_spec):
        # Open-loop load: a closed loop's think-time feedback would let
        # even capacity-oblivious policies self-correct.
        config = shopping_spec.replication_config(3)
        kwargs = dict(
            design=MULTI_MASTER, seed=3, warmup=5.0, duration=30.0,
            capacities=(2.0, 1.0, 0.5), arrival_rate=60.0,
        )
        return {
            policy: simulate(shopping_spec, config, lb_policy=policy,
                             **kwargs)
            for policy in ("least-loaded", CAPACITY_WEIGHTED, "random")
        }

    def test_capacity_weighted_cuts_response_time(self, results):
        # Least-loaded partially adapts through queue feedback but still
        # trails capacity weighting; a capacity-oblivious policy
        # saturates the half-speed box outright.
        assert (results[CAPACITY_WEIGHTED].response_time
                < results["least-loaded"].response_time)
        assert (results[CAPACITY_WEIGHTED].response_time
                < 0.25 * results["random"].response_time)

    def test_fast_box_carries_more_load(self, results):
        cpu = {
            name: busy for name, busy in
            results[CAPACITY_WEIGHTED].utilizations.items()
            if name.endswith(".cpu")
        }
        # Utilizations equalize under capacity weighting (each box runs
        # at its share), while the oblivious policy pins the slow box.
        assert max(cpu.values()) - min(cpu.values()) < 0.2
        random_cpu = results["random"].utilizations["replica2.cpu"]
        assert random_cpu > 0.9

    def test_capacities_rejected_for_standalone(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            simulate(
                shopping_spec, shopping_spec.replication_config(1),
                design="standalone", warmup=1.0, duration=2.0,
                capacities=(1.0,),
            )

    def test_capacities_length_checked(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            simulate(
                shopping_spec, shopping_spec.replication_config(3),
                design=MULTI_MASTER, warmup=1.0, duration=2.0,
                capacities=(1.0, 2.0),
            )


class TestMixedFleetPlanning:
    def test_takes_largest_machines_first(self, shopping_spec,
                                          shopping_profile):
        config = shopping_spec.replication_config(1)
        homogeneous = plan_deployment(
            shopping_profile, config, target_throughput=40.0,
            designs=(MULTI_MASTER,),
        )
        assert homogeneous is not None
        plan = plan_mixed_fleet(
            shopping_profile, config, target_throughput=40.0,
            capacities=(0.5, 2.0, 1.0, 1.0), design=MULTI_MASTER,
        )
        assert plan is not None
        assert plan.capacities[0] == 2.0  # largest first
        assert list(plan.capacities) == sorted(plan.capacities,
                                               reverse=True)
        # The mixed fleet needs no more machines than identical boxes.
        assert plan.machines <= homogeneous.replicas + 1

    def test_none_when_inventory_too_small(self, shopping_spec,
                                           shopping_profile):
        plan = plan_mixed_fleet(
            shopping_profile, shopping_spec.replication_config(1),
            target_throughput=1e6, capacities=(1.0, 1.0),
            design=MULTI_MASTER,
        )
        assert plan is None

    def test_effective_replicas_is_capacity_sum(self, shopping_spec,
                                                shopping_profile):
        plan = plan_mixed_fleet(
            shopping_profile, shopping_spec.replication_config(1),
            target_throughput=10.0, capacities=(2.0, 1.0),
            design=MULTI_MASTER,
        )
        assert plan is not None
        assert plan.effective_replicas == pytest.approx(
            sum(plan.capacities)
        )
        assert plan.load_factor <= 1.0
        assert "machines" in plan.to_text()

    def test_validation(self, shopping_spec, shopping_profile):
        config = shopping_spec.replication_config(1)
        with pytest.raises(ConfigurationError):
            plan_mixed_fleet(shopping_profile, config, 0.0, (1.0,))
        with pytest.raises(ConfigurationError):
            plan_mixed_fleet(shopping_profile, config, 10.0, ())
        with pytest.raises(ConfigurationError):
            plan_mixed_fleet(shopping_profile, config, 10.0, (1.0, -1.0))
        with pytest.raises(ConfigurationError):
            plan_mixed_fleet(shopping_profile, config, 10.0, (1.0,),
                             headroom=1.0)
