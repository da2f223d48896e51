"""Tests for the autoscale harness on the (deterministic) simulator pillar.

A millisecond-scale workload keeps each elastic run around a second while
still committing thousands of transactions, so the assertions cover the
acceptance criteria directly: feedforward beats static-peak on
replica-hours at equal-or-fewer SLO violations, timelines are exactly
reproducible, membership churn never loses or duplicates a writeset, and
the engine produces identical artifacts serially and fanned out.
"""

import contextlib
import pickle

import pytest

from repro.control import (
    DiurnalTrace,
    FeedforwardPolicy,
    ReactivePolicy,
    StaticPeakPolicy,
    autoscale_sim,
    render_timeline,
)
from repro.control.autoscale import _run_elastic
from repro.control.controller import FixedPolicy
from repro.control.trace import PiecewiseTrace
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.params import ConflictProfile, WorkloadMix
from repro.ops import OpsPlan
from repro.simulator.faults import brownout_fault, crash_fault
from repro.simulator.des import Environment
from repro.simulator.stats import MetricsCollector
from repro.simulator.systems import (
    LAST_HEALTHY_REPLICA,
    MASTER_IS_NOT_REMOVABLE,
    STANDALONE_IS_NOT_ELASTIC,
    MultiMasterSystem,
    SingleMasterSystem,
)
from repro.workloads.spec import WorkloadSpec, demands_ms


@pytest.fixture(scope="module")
def tiny_spec():
    """Millisecond-scale mix: elastic sim runs finish in about a second."""
    return WorkloadSpec(
        benchmark="micro",
        mix_name="autoscale-sim-tiny",
        mix=WorkloadMix(read_fraction=0.7, write_fraction=0.3),
        demands=demands_ms(
            read_cpu=30.0, read_disk=10.0,
            write_cpu=20.0, write_disk=10.0,
            writeset_cpu=2.0, writeset_disk=1.0,
        ),
        clients_per_replica=10,
        think_time=0.5,
        conflict=ConflictProfile(db_update_size=2000,
                                 updates_per_transaction=2),
        description="tiny mix for autoscale simulator tests",
    )


@pytest.fixture(scope="module")
def tiny_profile(tiny_spec):
    return tiny_spec.ground_truth_profile(
        abort_rate=0.0005, update_response_time=0.06
    )


@pytest.fixture(scope="module")
def diurnal():
    # Per-replica capacity of the tiny mix is ~37 tps; this swings a
    # multi-replica deployment between idle and busy.
    return DiurnalTrace(base_rate=12.0, peak_rate=110.0, period=120.0)


def _run(spec, trace, policy, profile, design="multi-master", **overrides):
    kwargs = dict(
        profile=profile, seed=7, warmup=20.0, duration=240.0,
        control_interval=5.0, slo_response=0.8, max_replicas=10,
        transfer_writesets=8,
    )
    kwargs.update(overrides)
    return autoscale_sim(spec, trace, policy, design, **kwargs)


@pytest.fixture(scope="module")
def policy_runs(tiny_spec, tiny_profile, diurnal):
    """The three policies on the diurnal trace (shared by assertions)."""
    return {
        "feedforward": _run(tiny_spec, diurnal,
                            FeedforwardPolicy(horizon=10.0, headroom=0.25),
                            tiny_profile),
        "reactive": _run(tiny_spec, diurnal,
                         ReactivePolicy(initial_replicas=2),
                         tiny_profile),
        "static-peak": _run(tiny_spec, diurnal,
                            StaticPeakPolicy(headroom=0.25),
                            tiny_profile),
    }


class TestPolicyComparison:
    def test_feedforward_saves_replica_hours_at_equal_slo(self, policy_runs):
        """The acceptance criterion, on the simulator pillar."""
        feedforward = policy_runs["feedforward"]
        static = policy_runs["static-peak"]
        assert feedforward.savings_vs(static) >= 0.20
        assert (feedforward.slo_violation_fraction
                <= static.slo_violation_fraction + 1e-9)

    def test_static_peak_never_scales(self, policy_runs):
        static = policy_runs["static-peak"]
        assert static.scale_events == 0
        members = {p.members for p in static.timeline}
        assert len(members) == 1

    def test_feedforward_tracks_the_cycle(self, policy_runs):
        timeline = policy_runs["feedforward"].timeline
        members = [p.members for p in timeline]
        assert max(members) - min(members) >= 2  # actually elastic
        # Membership correlates with offered load: the busiest tick runs
        # more replicas than the quietest one.
        by_load = sorted(timeline, key=lambda p: p.offered_rate)
        assert by_load[-1].members > by_load[0].members

    def test_all_policies_converge(self, policy_runs):
        for result in policy_runs.values():
            assert result.converged, result.policy
            assert len(set(result.final_versions)) == 1

    def test_timeline_and_totals_are_consistent(self, policy_runs):
        result = policy_runs["feedforward"]
        assert result.window == 240.0
        assert result.committed > 1000
        assert 0.0 <= result.slo_violation_fraction <= 1.0
        assert result.replica_seconds > 0
        assert result.mean_members == pytest.approx(
            result.replica_seconds / result.window
        )
        assert len(result.timeline) == 48  # 240s / 5s interval
        assert render_timeline(result).count("\n") >= len(result.timeline)


class TestDeterminism:
    @pytest.mark.parametrize("design", ["multi-master", "single-master"])
    @pytest.mark.parametrize("ops", [
        None,
        OpsPlan(faults=(crash_fault(1, 40.0),), self_heal=True,
                transfer_writesets=8),
        OpsPlan(rolling_start=30.0, rolling_settle=5.0, transfer_writesets=8),
    ], ids=["no-ops", "self-heal", "rolling"])
    def test_identical_runs_identical_timelines(self, tiny_spec, tiny_profile,
                                                diurnal, design, ops):
        policy = (FeedforwardPolicy(horizon=10.0) if ops is None
                  else FixedPolicy(replicas=3))
        first = _run(tiny_spec, diurnal, policy, tiny_profile, design=design,
                     duration=120.0, ops=ops)
        second = _run(tiny_spec, diurnal, policy, tiny_profile, design=design,
                      duration=120.0, ops=ops)
        assert first == second
        assert (ops is None) == (not first.ops_events)
        assert pickle.dumps(first.timeline) == pickle.dumps(second.timeline)

    def test_seed_changes_the_run(self, tiny_spec, tiny_profile, diurnal):
        first = _run(tiny_spec, diurnal, FeedforwardPolicy(horizon=10.0),
                     tiny_profile, duration=120.0)
        other = _run(tiny_spec, diurnal, FeedforwardPolicy(horizon=10.0),
                     tiny_profile, duration=120.0, seed=8)
        assert first.committed != other.committed


class TestSingleMasterElasticity:
    def test_single_master_scales_slaves(self, tiny_spec, tiny_profile,
                                         diurnal):
        result = _run(tiny_spec, diurnal, FeedforwardPolicy(horizon=10.0),
                      tiny_profile, design="single-master", duration=120.0)
        assert result.converged
        assert result.scale_events > 0
        members = [p.members for p in result.timeline]
        assert min(members) >= 1  # the master is never removed


class TestElasticMembershipChurn:
    """add/remove under load never loses or duplicates a writeset."""

    def test_churn_converges_multi_master(self, tiny_spec):
        env = Environment()
        metrics = MetricsCollector()
        system = MultiMasterSystem(
            env, tiny_spec, tiny_spec.replication_config(2), 11, metrics
        )
        trace = PiecewiseTrace(points=((0.0, 40.0),))
        system.start_trace_arrivals(trace)
        # Aggressive churn: grow to 5, shrink to 2, twice, mid-traffic.
        t = 2.0
        for _ in range(2):
            for _ in range(3):
                env.schedule(t, system.add_replica, 4)
                t += 1.5
            for _ in range(3):
                env.schedule(t, lambda: system.remove_replica())
                t += 1.5
        env.schedule(1.0, metrics.begin_window, 1.0)
        env.run_until(t + 5.0)
        metrics.end_window(env.now)
        system.stop_arrivals()
        env.run_until(t + 25.0)

        assert metrics.committed > 100
        survivors = [r for r in system.replicas if not r.draining]
        assert len(survivors) == 2
        latest = system.certifier.latest_version
        assert latest > 0
        # No lost writesets: every survivor applied every commit;
        # no duplicates: enqueue_writeset would have raised.
        for replica in survivors:
            assert replica.applied_version == latest
            assert replica.apply_backlog == 0

    def test_churn_converges_single_master(self, tiny_spec):
        env = Environment()
        metrics = MetricsCollector()
        system = SingleMasterSystem(
            env, tiny_spec, tiny_spec.replication_config(2), 13, metrics
        )
        system.start_trace_arrivals(PiecewiseTrace(points=((0.0, 30.0),)))
        for i in range(3):
            env.schedule(2.0 + i, system.add_replica, 4)
        for i in range(3):
            env.schedule(8.0 + i, lambda: system.remove_replica())
        env.schedule(1.0, metrics.begin_window, 1.0)
        env.run_until(15.0)
        metrics.end_window(env.now)
        system.stop_arrivals()
        env.run_until(35.0)

        latest = system.certifier.latest_version
        assert latest > 0
        for replica in system.replicas:
            if not replica.draining:
                assert replica.applied_version == latest

    def test_cannot_remove_last_replica(self, tiny_spec, fleets, refusals):
        # Both substrates refuse with one type and one message.
        lone = fleets("multi-master", tiny_spec, 1)
        assert refusals(lambda fleet: fleet.remove_replica(), lone) == {
            LAST_HEALTHY_REPLICA
        }
        assert all(len(fleet.replicas) == 1 for fleet in lone)

    def test_master_is_never_removable(self, tiny_spec, fleets, refusals):
        # Neither as the default target of a master-only fleet nor by name.
        assert refusals(
            lambda fleet: fleet.remove_replica(),
            fleets("single-master", tiny_spec, 1),
        ) == {LAST_HEALTHY_REPLICA}
        assert refusals(
            lambda fleet: fleet.remove_replica(replica=fleet.master),
            fleets("single-master", tiny_spec, 2),
        ) == {MASTER_IS_NOT_REMOVABLE}


class _FakeResource:
    def __init__(self, name):
        self.name = name

    def busy_time_now(self):
        return 0.0


class _FakeReplica:
    def __init__(self, name):
        self.name, self.capacity = name, 1.0
        self.failed, self.available = False, True
        self.cpu = _FakeResource(f"{name}.cpu")
        self.disk = _FakeResource(f"{name}.disk")


class _FakeFleet:
    """In-memory fleet: membership operations are instant and logged;
    the first *refused_adds* joins raise (a donor too stale to copy)."""

    def __init__(self, size, refused_adds=0):
        self.replicas = [_FakeReplica(f"replica{i}") for i in range(size)]
        self.refused_adds, self.calls = refused_adds, []

    member_count = property(lambda self: len(self.replicas))

    def add_replica(self, transfer_writesets=0, capacity=1.0):
        self.calls.append("add")
        if self.refused_adds > 0:
            self.refused_adds -= 1
            raise SimulationError("no donor retains the history")
        self.replicas = self.replicas + [_FakeReplica(f"new{len(self.calls)}")]
        return self.replicas[-1]

    def remove_replica(self, replica=None, force=False):
        self.calls.append("remove")
        self.replicas = self.replicas[:-1]


class _FakeRun:
    """Scripted third implementation of the run seam: no Environment, no
    threads — tasks are stepped in virtual time by :meth:`measure`."""

    pillar, recorder = "fake", None
    metrics_lock = contextlib.nullcontext()

    def __init__(self, fleet):
        self.fleet, self.time, self.tasks, self.faults = fleet, 0.0, [], ()

    def now(self):
        return self.time

    def install_faults(self, faults, record=None):
        self.faults = tuple(faults)

    def spawn(self, task, name=""):
        self.tasks.append([next(task), task])

    def measure(self, warmup, duration, on_close=None):
        while self.tasks:
            entry = min(self.tasks, key=lambda e: e[0])  # ties: spawn order
            if entry[0] > warmup + duration:
                break
            self.time = entry[0]
            try:
                entry[0] += next(entry[1])
            except StopIteration:
                self.tasks.remove(entry)
        self.time = warmup + duration
        on_close()
        return True, ()

    def close(self):
        self.tasks = []


def _fake_elastic(spec, fleet, ops=None):
    """FixedPolicy(3) on *fleet*: ticks at 10, 20, 30 (and never 40) of
    a (10, 35] window, one 0.1 s commit per virtual second."""
    def assemble(config, metrics):
        run = _FakeRun(fleet)

        def traffic():
            while True:
                yield 1.0
                metrics.record_commit(False, 0.1, 0, now=run.now())

        run.spawn(traffic())
        return run

    return _run_elastic(
        assemble, spec, PiecewiseTrace([(0.0, 5.0)]), FixedPolicy(replicas=3),
        "multi-master", profile=None, seed=1, warmup=10.0, duration=25.0,
        control_interval=10.0, slo_response=1.0, min_replicas=1,
        max_replicas=8, transfer_writesets=4, distribution="exponential",
        lb_policy="least-loaded", config=None, ops=ops, capacities=None,
        capacity_source=None,
    )


class TestLoopOnScriptedFake:
    """The one elastic loop against a scripted run object and fleet —
    behaviour otherwise reachable only through full DES or live runs."""

    def test_refused_join_is_retried_and_window_is_clipped(self, tiny_spec):
        fleet = _FakeFleet(2, refused_adds=1)
        result = _fake_elastic(tiny_spec, fleet)
        # Tick 10: the join is refused — reconciliation ends, nothing is
        # counted; tick 20 retries and succeeds; tick 30 has nothing to do.
        assert fleet.calls == ["add", "add"]
        assert result.scale_events == 1
        assert result.final_members == 3
        # Exactly the ticks with window_start < now <= window_end.
        assert [p.time for p in result.timeline] == [20.0, 30.0]
        assert [p.attached for p in result.timeline] == [3, 3]
        assert [p.commits for p in result.timeline] == [10, 10]
        # 2 replicas over (10, 20], 3 over (20, 30], and the final
        # partial interval (30, 35] at 3.
        assert result.replica_seconds == 2 * 10 + 3 * 10 + 3 * 5
        # Commits at t = 10, 11, ..., 35: the window is closed at both ends.
        assert result.committed == 26 and result.pillar == "fake"

    def test_membership_plan_stops_reconciliation(self, tiny_spec):
        fleet = _FakeFleet(2)
        result = _fake_elastic(tiny_spec, fleet, ops=OpsPlan(self_heal=True))
        assert fleet.calls == [] and result.scale_events == 0
        assert [p.members for p in result.timeline] == [2, 2]

    def test_brownout_only_plan_still_reconciles(self, tiny_spec):
        fleet = _FakeFleet(2)
        plan = OpsPlan(faults=(brownout_fault(0, 12.0, 5.0),))
        result = _fake_elastic(tiny_spec, fleet, ops=plan)
        assert fleet.calls == ["add"] and result.scale_events == 1


class TestValidation:
    def test_rejects_bad_inputs(self, tiny_spec, tiny_profile, diurnal):
        # The membership refusal wins over the model-driven policy, which
        # cannot size a standalone design.
        with pytest.raises(ConfigurationError,
                           match=STANDALONE_IS_NOT_ELASTIC):
            autoscale_sim(tiny_spec, diurnal, StaticPeakPolicy(),
                          "standalone", profile=tiny_profile)
        with pytest.raises(ConfigurationError):
            _run(tiny_spec, diurnal, StaticPeakPolicy(), tiny_profile,
                 control_interval=0.0)
        with pytest.raises(ConfigurationError):
            _run(tiny_spec, diurnal, StaticPeakPolicy(), tiny_profile,
                 slo_response=-1.0)
        with pytest.raises(ConfigurationError):
            _run(tiny_spec, diurnal, FeedforwardPolicy(), profile=None)


class TestEngineIntegration:
    def test_autoscale_scenario_serial_equals_parallel(self, tiny_spec,
                                                       tiny_profile, diurnal):
        """Engine fan-out must not change autoscale artifacts."""
        from repro.engine import (
            autoscale_point,
            clear_memo,
            execute_points,
        )

        def points():
            return [
                autoscale_point(
                    tiny_spec, tiny_spec.replication_config(1),
                    "multi-master", seed=7, trace=diurnal, policy=policy,
                    slo_response=0.8, warmup=10.0, duration=60.0,
                    control_interval=5.0, max_replicas=8,
                    transfer_writesets=8, profile=tiny_profile,
                )
                for policy in (FeedforwardPolicy(horizon=10.0),
                               StaticPeakPolicy())
            ]

        clear_memo()
        serial = execute_points(points(), jobs=1, cache=None)
        clear_memo()
        parallel = execute_points(points(), jobs=2, cache=None)
        assert serial == parallel
        texts = [r.to_text() for r in serial]
        assert texts == [r.to_text() for r in parallel]

    def test_autoscale_points_are_cacheable_and_keyed(self, tiny_spec,
                                                      tiny_profile, diurnal):
        from repro.engine import autoscale_point, point_key

        def make(policy, pillar="simulator"):
            return autoscale_point(
                tiny_spec, tiny_spec.replication_config(1), "multi-master",
                seed=7, trace=diurnal, policy=policy, slo_response=0.8,
                warmup=10.0, duration=60.0, control_interval=5.0,
                pillar=pillar, profile=tiny_profile,
            )

        a = make(FeedforwardPolicy(horizon=10.0))
        b = make(FeedforwardPolicy(horizon=10.0))
        c = make(FeedforwardPolicy(horizon=20.0))
        assert point_key(a) == point_key(b)
        assert point_key(a) != point_key(c)  # policy is part of the key
        assert a.cacheable
        assert not make(StaticPeakPolicy(), pillar="cluster").cacheable
