"""Rolling upgrades: cycle every replica through drain → detach → rejoin."""

import pytest

from repro.control.autoscale import autoscale_sim
from repro.control.controller import FixedPolicy
from repro.control.trace import DiurnalTrace
from repro.ops import OpsPlan, rolling_restart, summarize
from repro.simulator.runner import MULTI_MASTER, SINGLE_MASTER


def _steady(rate, period=100.0):
    return DiurnalTrace(base_rate=rate, peak_rate=rate, period=period)


def _rolling_run(spec, design, rate=25.0):
    return autoscale_sim(
        spec,
        _steady(rate),
        FixedPolicy(replicas=3),
        design=design,
        seed=9,
        warmup=10.0,
        duration=110.0,
        control_interval=5.0,
        slo_response=1.5,
        max_replicas=6,
        ops=OpsPlan(rolling_start=25.0, rolling_settle=5.0),
    )


class TestRollingUpgradeSim:
    @pytest.fixture(scope="class", params=[MULTI_MASTER, SINGLE_MASTER])
    def result(self, request, shopping_spec):
        return _rolling_run(shopping_spec, request.param)

    def test_whole_fleet_cycled(self, result):
        # Multi-master cycles all 3 replicas; single-master its 2 slaves.
        expected = 3 if result.design == MULTI_MASTER else 2
        assert summarize(result).upgrades == expected
        assert any(e.kind == "rolling-complete" for e in result.ops_events)

    def test_one_at_a_time(self, result):
        # The fleet is never more than one replica short of its target.
        assert min(p.members for p in result.timeline) >= 2
        assert result.final_members == 3

    def test_drain_precedes_rejoin_each_cycle(self, result):
        ordered = [e.kind for e in result.ops_events
                   if e.kind in ("drain", "detach", "rejoin", "upgraded")]
        for i in range(0, len(ordered), 4):
            assert ordered[i:i + 4] == ["drain", "detach", "rejoin",
                                        "upgraded"]

    def test_converged_after_upgrade(self, result):
        assert result.converged
        assert len(set(result.final_versions)) <= 1

    def test_slo_unharmed_at_modest_load(self, result):
        # At ~45% load a single-replica-out fleet still clears the SLO,
        # so the rolling sweep must not produce a violation spike.
        assert result.slo_violation_fraction <= 0.02


class TestRollingIsSerialized:
    def test_no_overlapping_cycles(self, shopping_spec):
        result = _rolling_run(shopping_spec, MULTI_MASTER)
        out = 0
        for event in result.ops_events:
            if event.kind == "drain":
                out += 1
                assert out == 1  # never two replicas leaving at once
            elif event.kind == "upgraded":
                out -= 1


class _Replica:
    def __init__(self, name, available=True):
        self.name, self.available = name, available
        self.capacity, self.failed = 1.0, False


class _StuckJoinFleet:
    """One-replica fleet whose replacement never finishes its join."""

    def __init__(self):
        self.replicas = [_Replica("replica0")]

    def upgrade_targets(self):
        return list(self.replicas)

    def remove_replica(self, replica=None, force=False):
        self.replicas = [r for r in self.replicas if r is not replica]

    def add_replica(self, transfer_writesets, capacity=1.0):
        self.replicas.append(_Replica("replica1", available=False))
        return self.replicas[-1]


class TestCycleCutShortByEndOfRun:
    def test_no_upgraded_event_for_a_join_still_in_flight(self):
        """A run that stops mid-join never resumes the task, so the
        replacement that never entered rotation is not logged as
        upgraded (the threaded cycle used to fall out of its wait loop
        on the stop event and log it anyway)."""
        events, clock = [], [0.0]
        task = rolling_restart(_StuckJoinFleet(), lambda: clock[0], events,
                               start=4.0, settle=1.0)
        for _ in range(6):  # the start delay, then five join polls
            clock[0] += next(task)
        task.close()  # end of run: the task is dropped, not resumed
        assert [e.kind for e in events] == ["drain", "detach", "rejoin"]
