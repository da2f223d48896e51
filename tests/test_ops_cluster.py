"""Live-cluster operations: crash semantics, replacement, rolling cycles."""

import threading

import pytest

from repro.cluster.clock import VirtualClock
from repro.cluster.cluster import MultiMasterCluster, SingleMasterCluster
from repro.cluster.replica import ClusterReplica
from repro.cluster.runner import ClusterRun, run_cluster
from repro.control.autoscale import autoscale_cluster
from repro.control.controller import FixedPolicy
from repro.control.scenarios import LIVE_SPEC
from repro.control.trace import DiurnalTrace
from repro.core.errors import ConfigurationError, SimulationError
from repro.ops import OpsPlan, summarize
from repro.simulator.faults import crash_fault
from repro.simulator.stats import MetricsCollector


def _mm_cluster(replicas=3, capacities=None):
    clock = VirtualClock(0.02)
    cluster = MultiMasterCluster(
        LIVE_SPEC, LIVE_SPEC.replication_config(replicas), 1, clock,
        MetricsCollector(), capacities=capacities,
    )
    cluster.start()
    return cluster


class TestCrashSemantics:
    def test_crashed_replica_stops_consuming_writesets(self):
        cluster = _mm_cluster()
        try:
            victim = cluster.replicas[1]
            victim.crash()
            assert victim.failed
            assert not victim.available
            before = victim.apply_backlog
            # Publishes after the crash are dropped, not deferred.
            from repro.sidb.writeset import Writeset

            ws = Writeset.from_dict(1, 0, {("updatable", 1): 1})
            victim.enqueue_writeset(ws.committed(1), charged=True)
            assert victim.apply_backlog == before
        finally:
            cluster.shutdown()

    def test_crash_is_permanent(self):
        cluster = _mm_cluster()
        try:
            victim = cluster.replicas[1]
            victim.crash()
            victim.available = True  # fault recovery must not revive it
            assert not victim.available
            assert cluster.member_count == 2
        finally:
            cluster.shutdown()

    def test_force_remove_detaches_immediately(self):
        cluster = _mm_cluster()
        try:
            victim = cluster.replicas[1]
            victim.crash()
            removed = cluster.remove_replica(replica=victim, force=True)
            assert removed is victim
            assert victim not in cluster.replicas
            assert len(cluster.replicas) == 2
        finally:
            cluster.shutdown()

    def test_cannot_force_remove_last_healthy(self):
        cluster = _mm_cluster(replicas=2)
        try:
            cluster.replicas[0].crash()
            with pytest.raises(ConfigurationError):
                cluster.remove_replica(
                    replica=cluster.replicas[1], force=True
                )
        finally:
            cluster.shutdown()

    def test_single_master_master_not_removable(self):
        clock = VirtualClock(0.02)
        cluster = SingleMasterCluster(
            LIVE_SPEC, LIVE_SPEC.replication_config(2), 1, clock,
            MetricsCollector(),
        )
        cluster.start()
        try:
            with pytest.raises(ConfigurationError):
                cluster.remove_replica(replica=cluster.master, force=True)
        finally:
            cluster.shutdown()

    def test_heterogeneous_capacities_reach_resources(self):
        cluster = _mm_cluster(capacities=(2.0, 1.0, 0.5))
        try:
            assert [r.capacity for r in cluster.replicas] == [2.0, 1.0, 0.5]
            assert cluster.replicas[0].cpu.rate == 2.0
        finally:
            cluster.shutdown()


class TestMembershipRollbacks:
    """The two live rollbacks, driven deterministically: the clusters are
    never started, so no traffic, applier or join thread runs."""

    @staticmethod
    def _idle_cluster(replicas):
        return MultiMasterCluster(
            LIVE_SPEC, LIVE_SPEC.replication_config(replicas), 1,
            VirtualClock(0.02), MetricsCollector(),
        )

    def test_join_without_a_healthy_donor_leaves_no_trace(self):
        cluster = self._idle_cluster(2)
        for replica in cluster.replicas:
            replica.crash()
        for _ in range(2):  # a controller retrying every tick
            with pytest.raises(ConfigurationError, match="no healthy donor"):
                cluster.add_replica()
        assert [r.name for r in cluster.replicas] == ["replica0", "replica1"]
        assert not [key for key in cluster.metrics._resources
                    if key.startswith("replica2.")]
        # The joiner's name was released for the next attempt.
        assert cluster._next_member() == ("replica2", 2)

    def test_drain_that_outlasts_the_timeout_rolls_back(self):
        cluster = self._idle_cluster(2)
        victim = cluster.replicas[1]
        victim.enter()  # one resident transaction that never finishes
        with pytest.raises(SimulationError, match="did not drain"):
            cluster.remove_replica(replica=victim, drain_timeout=0)
        # Back in rotation, fully functional, still a member.
        assert victim in cluster.replicas
        assert victim.available and victim.removable
        assert cluster.member_count == 2


def _steady(rate, period=20.0):
    return DiurnalTrace(base_rate=rate, peak_rate=rate, period=period)


class TestLiveSelfHeal:
    @pytest.fixture(scope="class")
    def result(self):
        plan = OpsPlan(
            faults=(crash_fault(1, 5.0),), self_heal=True,
            transfer_writesets=4,
        )
        return autoscale_cluster(
            LIVE_SPEC, _steady(10.0), FixedPolicy(replicas=3),
            design="multi-master", seed=5, warmup=2.0, duration=12.0,
            control_interval=1.0, slo_response=1.5, time_scale=0.2,
            max_replicas=6, ops=plan,
        )

    def test_replacement_completed(self, result):
        summary = summarize(result)
        assert summary.crashes == 1
        assert summary.replacements == 1
        assert summary.mttr is not None and summary.mttr < 10.0

    def test_membership_restored(self, result):
        assert result.final_members == 3

    def test_no_lost_or_duplicated_writesets(self, result):
        assert result.converged
        assert len(set(result.final_versions)) <= 1


class TestLiveRollingUpgrade:
    @pytest.fixture(scope="class")
    def result(self):
        plan = OpsPlan(
            rolling_start=4.0, rolling_settle=1.0, transfer_writesets=4,
        )
        return autoscale_cluster(
            LIVE_SPEC, _steady(8.0), FixedPolicy(replicas=3),
            design="multi-master", seed=6, warmup=2.0, duration=14.0,
            control_interval=1.0, slo_response=1.5, time_scale=0.2,
            max_replicas=6, ops=plan,
        )

    def test_whole_fleet_cycled(self, result):
        assert summarize(result).upgrades == 3
        assert any(e.kind == "rolling-complete"
                   for e in result.ops_events)

    def test_fleet_never_more_than_one_short(self, result):
        assert min(p.members for p in result.timeline) >= 2
        assert result.final_members == 3

    def test_converged(self, result):
        assert result.converged
        assert len(set(result.final_versions)) <= 1


def _run_threads():
    """Threads a live run starts: drivers, appliers, join workers."""
    return {t for t in threading.enumerate() if t is not threading.main_thread()}


def _assert_all_stopped(before):
    started = _run_threads() - before
    for thread in started:
        thread.join(timeout=5.0)
    assert not [t.name for t in started if t.is_alive()]


class TestLiveEpilogue:
    """The one live epilogue both `run_cluster` and the elastic loop use."""

    @pytest.mark.parametrize("entry_point", ["run_cluster",
                                             "autoscale_cluster"])
    def test_dead_applier_fails_the_run_and_leaves_no_thread(
            self, monkeypatch, entry_point):
        def die(self, writeset):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(ClusterReplica, "hosts_writeset", die)
        before = _run_threads()
        with pytest.raises(SimulationError, match="applier thread of"):
            if entry_point == "run_cluster":
                run_cluster(LIVE_SPEC, LIVE_SPEC.replication_config(2),
                            seed=4, warmup=0.5, duration=2.0, time_scale=0.1)
            else:
                autoscale_cluster(
                    LIVE_SPEC, _steady(10.0), FixedPolicy(replicas=2),
                    seed=4, warmup=0.5, duration=2.0, control_interval=1.0,
                    time_scale=0.1,
                )
        _assert_all_stopped(before)

    def test_spawned_task_is_never_resumed_after_the_run_stops(self):
        resumed = []

        def task():
            yield 1000.0  # far past the end of the run
            resumed.append(True)

        before = _run_threads()
        run = ClusterRun("multi-master", LIVE_SPEC,
                         LIVE_SPEC.replication_config(2), 4,
                         MetricsCollector(), 0.1)
        run.spawn(task(), "sleeper")
        converged, versions = run.measure(0.2, 0.5)
        assert converged and len(set(versions)) <= 1
        _assert_all_stopped(before)
        assert not resumed
