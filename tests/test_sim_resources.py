"""Unit tests for the processor-sharing CPU and FIFO disk models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.des import Environment
from repro.simulator.resources import (
    _EPSILON,
    FIFOResource,
    ProcessorSharingResource,
    ResourceStats,
)


def run_jobs(resource_cls, jobs, horizon=100.0):
    """Submit (start_time, work) jobs; return list of completion times."""
    env = Environment()
    resource = resource_cls(env, "r")
    completions = {}

    def submit(job_id, work):
        resource.submit(work, lambda: completions.__setitem__(job_id, env.now))

    for job_id, (start, work) in enumerate(jobs):
        env.schedule(start, submit, job_id, work)
    env.run_until(horizon)
    return env, resource, completions


class TestFIFO:
    def test_single_job_takes_its_work(self):
        _, _, completions = run_jobs(FIFOResource, [(0.0, 2.0)])
        assert completions[0] == pytest.approx(2.0)

    def test_jobs_served_in_arrival_order(self):
        _, _, completions = run_jobs(
            FIFOResource, [(0.0, 2.0), (0.5, 1.0), (0.6, 0.5)]
        )
        assert completions[0] == pytest.approx(2.0)
        assert completions[1] == pytest.approx(3.0)
        assert completions[2] == pytest.approx(3.5)

    def test_idle_gap_then_service(self):
        _, _, completions = run_jobs(FIFOResource, [(0.0, 1.0), (5.0, 1.0)])
        assert completions[1] == pytest.approx(6.0)

    def test_busy_time_equals_total_work(self):
        _, resource, _ = run_jobs(
            FIFOResource, [(0.0, 1.0), (0.2, 2.0), (10.0, 0.5)]
        )
        assert resource.stats.busy_time == pytest.approx(3.5)
        assert resource.stats.completions == 3

    def test_zero_work_completes_immediately(self):
        _, resource, completions = run_jobs(FIFOResource, [(1.0, 0.0)])
        assert completions[0] == pytest.approx(1.0)


class TestProcessorSharing:
    def test_single_job_takes_its_work(self):
        _, _, completions = run_jobs(ProcessorSharingResource, [(0.0, 2.0)])
        assert completions[0] == pytest.approx(2.0)

    def test_two_equal_jobs_finish_together_at_double_time(self):
        _, _, completions = run_jobs(
            ProcessorSharingResource, [(0.0, 1.0), (0.0, 1.0)]
        )
        assert completions[0] == pytest.approx(2.0)
        assert completions[1] == pytest.approx(2.0)

    def test_short_job_overtakes_long_job(self):
        # Long job (10s) arrives first; a 0.1s job arrives at t=1 and should
        # finish long before the big one (PS, unlike FIFO).
        _, _, completions = run_jobs(
            ProcessorSharingResource, [(0.0, 10.0), (1.0, 0.1)], horizon=30.0
        )
        # Short job: 0.1 of work at half speed -> done at t = 1.2.
        # Long job: 1.0 alone + 0.1 shared + 8.9 alone -> done at t = 10.1.
        assert completions[1] == pytest.approx(1.2)
        assert completions[0] == pytest.approx(10.1)

    def test_hand_computed_three_job_schedule(self):
        # t=0: A(3.0); t=1: B(1.0).  A alone 1s (2 left), shared until B done
        # at t=1+2 -> B gets 1.0 by t=3; A has 1 left, finishes t=4.
        _, _, completions = run_jobs(
            ProcessorSharingResource, [(0.0, 3.0), (1.0, 1.0)]
        )
        assert completions[1] == pytest.approx(3.0)
        assert completions[0] == pytest.approx(4.0)

    def test_busy_time_counts_wall_clock_while_active(self):
        env, resource, completions = run_jobs(
            ProcessorSharingResource, [(0.0, 1.0), (0.0, 1.0)]
        )
        # Two 1s jobs share: busy 2 seconds of wall clock.
        assert resource.busy_time_now() == pytest.approx(2.0)

    def test_work_conservation(self):
        # Total busy time equals total submitted work when jobs never idle.
        jobs = [(0.0, 0.5), (0.0, 1.5), (0.1, 1.0)]
        _, resource, completions = run_jobs(ProcessorSharingResource, jobs)
        assert len(completions) == 3
        assert resource.busy_time_now() == pytest.approx(3.0, abs=1e-6)

    def test_completions_counted(self):
        _, resource, _ = run_jobs(
            ProcessorSharingResource, [(0.0, 1.0), (0.5, 1.0)]
        )
        assert resource.stats.completions == 2

    def test_zero_work_completes_immediately(self):
        _, _, completions = run_jobs(ProcessorSharingResource, [(2.0, 0.0)])
        assert completions[0] == pytest.approx(2.0)

    def test_many_jobs_slow_each_other(self):
        # 10 unit jobs arriving together all complete at t=10.
        jobs = [(0.0, 1.0)] * 10
        _, _, completions = run_jobs(ProcessorSharingResource, jobs, horizon=20.0)
        for job_id in range(10):
            assert completions[job_id] == pytest.approx(10.0)

    def test_zero_work_submit_leaves_the_pending_completion_alone(self):
        env = Environment()
        resource = ProcessorSharingResource(env, "r")
        resource.submit(1.0, lambda: None)
        pending = resource._completion
        resource.submit(0.0, lambda: None)
        assert resource._completion is pending
        assert pending[2] is not None  # the entry was not cancelled


class ReferenceProcessorSharing:
    """The direct processor-sharing bookkeeping, kept as the oracle for the
    virtual-time resource: every event decrements each resident job's
    remaining work, then rescans them all for the shortest and the
    finished ones (O(n) per event)."""

    def __init__(self, env, name, rate=1.0):
        self._env = env
        self.name = name
        self.rate = rate
        self.stats = ResourceStats()
        self._remaining = {}
        self._resume = {}
        self._demand = {}
        self._next_job_id = 0
        self._last_sync = env.now
        self._completion = None

    def busy_time_now(self):
        self._sync()
        return self.stats.busy_time

    def submit(self, work, resume):
        self._sync()
        demand = work
        work = work / self.rate
        if work <= _EPSILON:
            self._env.schedule(0.0, resume)
            self._reschedule()
            return
        job_id = self._next_job_id
        self._next_job_id += 1
        self._remaining[job_id] = work
        self._resume[job_id] = resume
        self._demand[job_id] = demand
        self._reschedule()

    def _sync(self):
        now = self._env.now
        elapsed = now - self._last_sync
        self._last_sync = now
        if elapsed <= 0.0 or not self._remaining:
            return
        share = elapsed / len(self._remaining)
        for job_id in self._remaining:
            self._remaining[job_id] -= share
        self.stats.busy_time += elapsed

    def _reschedule(self):
        if self._completion is not None:
            self._env.cancel(self._completion)
            self._completion = None
        if not self._remaining:
            return
        shortest = min(self._remaining.values())
        delay = max(0.0, shortest) * len(self._remaining)
        self._completion = self._env.schedule(delay, self._complete)

    def _complete(self):
        self._completion = None
        self._sync()
        finished = [job_id for job_id, remaining in self._remaining.items()
                    if remaining <= _EPSILON]
        if not finished:
            closest = min(self._remaining, key=self._remaining.get)
            finished = [closest]
        resumes = []
        for job_id in finished:
            del self._remaining[job_id]
            self.stats.work_done += self._demand.pop(job_id)
            resumes.append(self._resume.pop(job_id))
        self._reschedule()
        for resume in resumes:
            self.stats.completions += 1
            resume()


#: One step of a schedule: wait *gap* seconds, then submit *work* (0 is a
#: zero-work submit) or, for a float *rate*, change the server's rate.
_steps = st.one_of(
    st.tuples(st.floats(0.0, 2.0), st.just("submit"),
              st.one_of(st.just(0.0), st.floats(0.001, 3.0))),
    st.tuples(st.floats(0.0, 2.0), st.just("rate"), st.floats(0.25, 4.0)),
    # A long idle gap: the virtual-time clock restarts from zero.
    st.tuples(st.floats(50.0, 500.0), st.just("submit"),
              st.floats(0.001, 3.0)),
)


def _replay(resource_class, initial_rate, steps):
    """Drive *steps* on a fresh resource; return its completion events as
    ``[(time, job ids)]``, the ``busy_time_now()`` read after every step
    and at the end, and the final stats."""
    env = Environment()
    resource = resource_class(env, "r", rate=initial_rate)
    events = []
    busy = []

    def done(job_id):
        if events and events[-1][0] == env.now:
            events[-1][1].add(job_id)
        else:
            events.append((env.now, {job_id}))

    def step(job_id, kind, value):
        if kind == "rate":
            resource.rate = value
        else:
            resource.submit(value, lambda: done(job_id))
        busy.append(resource.busy_time_now())

    at = 0.0
    for job_id, (gap, kind, value) in enumerate(steps):
        at += gap
        env.schedule(at, step, job_id, kind, value)
    env.run_until(at + 1000.0)
    busy.append(resource.busy_time_now())
    return events, busy, resource.stats


def _close(a, b):
    return abs(a - b) <= 1e-9 * (1.0 + abs(a))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.floats(0.25, 4.0), st.lists(_steps, min_size=1, max_size=30))
def test_virtual_time_ps_matches_the_reference(initial_rate, steps):
    got, busy, stats = _replay(ProcessorSharingResource, initial_rate, steps)
    want, want_busy, want_stats = _replay(
        ReferenceProcessorSharing, initial_rate, steps
    )
    assert [jobs for _, jobs in got] == [jobs for _, jobs in want]
    assert all(_close(t, u) for (t, _), (u, _) in zip(got, want))
    assert all(_close(b, c) for b, c in zip(busy, want_busy))
    assert stats.completions == want_stats.completions
    assert _close(stats.work_done, want_stats.work_done)
