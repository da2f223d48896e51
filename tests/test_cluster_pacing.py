"""The live pillar's deadline pacing, on a fake clock.

``time.monotonic`` and ``time.sleep`` as seen by
:mod:`repro.cluster.clock` are replaced by :class:`FakeTime`, so nothing
really sleeps: a sleep advances the fake wall clock by what was asked
plus a chosen lateness, and the test reads back every sleep asked for.
Threads are used only to put a job in a server's queue while another
holds it; events order them, so every step is deterministic.  The
traffic drivers run on the test's own thread against stub clusters.
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.cluster import clock as clock_module
from repro.cluster import runner
from repro.cluster.clock import VirtualClock
from repro.cluster.resources import LiveResource
from repro.core import rng as rng_util


class FakeTime:
    """Stands in for the ``time`` module inside ``repro.cluster.clock``."""

    def __init__(self) -> None:
        self.wall = 100.0
        #: Wake-up overshoot (wall seconds) added to every sleep.
        self.late = 0.0
        #: Every sleep asked for, in wall seconds.
        self.asked = []
        #: Set on every clock read.
        self.read = threading.Event()
        #: ``(entered, release, late)``: the next sleep sets *entered*,
        #: waits for *release*, then wakes *late* wall seconds late.
        self.hold = None

    def monotonic(self) -> float:
        self.read.set()
        return self.wall

    def sleep(self, seconds: float) -> None:
        self.asked.append(seconds)
        hold, self.hold = self.hold, None
        late = self.late
        if hold is not None:
            entered, release, late = hold
            entered.set()
            assert release.wait(5.0)
        self.wall += seconds + late


@pytest.fixture
def fake_time(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(clock_module, "time", fake)
    return fake


def _queue_behind_holder(fake, resource, holder_demand, queued, late):
    """Serve *holder_demand* at virtual time 0 and, while it holds the
    server, let each demand in *queued* arrive (read its arrival time)
    and queue; the holder then wakes *late* wall seconds late."""
    entered, release = threading.Event(), threading.Event()
    fake.hold = (entered, release, late)
    threads = [threading.Thread(target=resource.serve, args=(holder_demand,))]
    threads[0].start()
    assert entered.wait(5.0)
    for demand in queued:
        fake.read.clear()
        thread = threading.Thread(target=resource.serve, args=(demand,))
        thread.start()
        # The holder is asleep, so the only clock read is this arrival.
        assert fake.read.wait(5.0)
        threads.append(thread)
    release.set()
    for thread in threads:
        thread.join(5.0)
        assert not thread.is_alive()


def test_late_wakeup_shortens_the_next_queued_sleep(fake_time):
    resource = LiveResource(VirtualClock(0.5), "cpu")
    _queue_behind_holder(fake_time, resource, 1.0, [1.0], late=0.1)
    # The holder is due at virtual 1 (0.5 wall s) and wakes 0.1 wall s
    # late; the queued job is still due at virtual 2, so it sleeps the
    # lateness less.
    assert fake_time.asked == pytest.approx([0.5, 0.4])
    assert resource.completions == 2
    assert resource.work_done == pytest.approx(2.0)


def test_idle_server_starts_at_the_arrival(fake_time):
    clock = VirtualClock(0.5)
    resource = LiveResource(clock, "cpu")
    fake_time.late = 0.1
    resource.serve(1.0)  # due at virtual 1, ends 0.1 wall s late
    fake_time.late = 0.0
    fake_time.wall += 2.0  # idle: the next job arrives at virtual 5.2
    resource.serve(1.0)
    # No credit for the first job's lateness crosses the idle period.
    assert fake_time.asked == pytest.approx([0.5, 0.5])
    assert clock.now() == pytest.approx(6.2)
    # Busy time is measured, overshoot included.
    assert resource.busy_time_now() == pytest.approx(2.2)


def test_past_due_time_sleeps_zero_and_keeps_the_chain(fake_time):
    resource = LiveResource(VirtualClock(0.5), "cpu")
    # The holder wakes at virtual 2.5 (0.75 wall s late).  The first
    # queued job was due at virtual 2: it does not sleep at all, and the
    # second is due at virtual 3, not 2.5 + 1.
    _queue_behind_holder(fake_time, resource, 1.0, [1.0, 1.0], late=0.75)
    assert fake_time.asked == pytest.approx([0.5, 0.25])
    assert resource.completions == 3


def test_closed_loop_client_thinks_from_its_completion(fake_time,
                                                       monkeypatch):
    clock = VirtualClock(0.5)
    begins, completions = [], []

    def one_shot(cluster, sampler, client_id):
        begins.append(clock.now())
        fake_time.wall += 0.5  # the transaction: 1 virtual second
        completions.append(clock.now())
        fake_time.wall += 0.25  # harness work after the completion
        if len(begins) == 2:
            drivers.stop.set()
        return completions[-1]

    class Sampler:
        def think_time(self):
            return 3.0

    class Cluster:
        pass

    class Drivers:
        stop = threading.Event()

    cluster, drivers = Cluster(), Drivers()
    cluster.clock = clock
    monkeypatch.setattr(runner, "_one_shot", one_shot)
    runner._closed_loop_client(cluster, Sampler(), 0, drivers)
    assert begins == pytest.approx([3.0, 7.0])
    assert begins[1] == pytest.approx(completions[0] + 3.0)


class _Trace:
    """Accepts every candidate and records the time it was judged at."""

    max_rate = 4.0

    def __init__(self) -> None:
        self.judged = []

    def accept_arrival(self, rng, t):
        self.judged.append(t)
        return True


@pytest.mark.parametrize("trace", [None, _Trace()], ids=["rate", "trace"])
def test_open_loop_arrivals_keep_their_deadlines(fake_time, monkeypatch,
                                                 trace):
    clock = VirtualClock(0.5)
    fake_time.late = 0.1  # every wake-up: 0.2 virtual seconds late
    launched = []

    class Drivers:
        stop = threading.Event()

        def launch(self, target, name):
            launched.append(clock.now())
            if len(launched) == 5:
                self.stop.set()

    cluster = SimpleNamespace(clock=clock, spec=None, partition_map=None,
                              options=SimpleNamespace(distribution=None))
    monkeypatch.setattr(runner, "WorkloadSampler", lambda *a, **k: None)
    runner._open_loop_source(cluster, 4.0, 7, Drivers(), trace=trace)
    stream = "live-open-arrivals" if trace is None else "live-trace-arrivals"
    rng = rng_util.spawn(7, stream)
    deadlines, expected, t, now = [], [], 0.0, 0.0
    for _ in launched:
        t += float(rng.exponential(1.0 / 4.0))
        deadlines.append(t)
        # A deadline still ahead is met one lateness late; one already
        # passed launches at once.  Earlier lateness never accumulates.
        if t > now:
            now = t + 0.2
        expected.append(now)
    assert launched == pytest.approx(expected)
    # Seed 7 draws a gap shorter than the lateness: the catch-up is hit.
    assert any(a == b for a, b in zip(expected[1:], expected))
    if trace is not None:
        assert trace.judged == pytest.approx(deadlines)


def test_contended_timeline_never_outruns_capacity():
    """Many threads on one server, on the real clock: the timeline is
    only updated under the server's lock, so however the wake-ups fall
    the server never finishes its work faster than its demand allows."""
    clock = VirtualClock(1e-4)
    resource = LiveResource(clock, "cpu")
    threads_n, jobs = 8, 25

    def client():
        for _ in range(jobs):
            resource.serve(1.0)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = clock.now()
        threads = [threading.Thread(target=client) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        elapsed = clock.now() - start
    finally:
        sys.setswitchinterval(switch)
    assert resource.completions == threads_n * jobs
    assert resource.work_done == pytest.approx(threads_n * jobs)
    assert elapsed >= threads_n * jobs - 1e-6
    assert resource.busy_time_now() <= elapsed
