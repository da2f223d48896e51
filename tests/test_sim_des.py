"""Unit tests for the discrete-event kernel."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.simulator.des import (
    Acquire,
    Environment,
    Semaphore,
    Service,
    Timeout,
)
from repro.simulator.resources import FIFOResource, ProcessorSharingResource


class TestScheduling:
    def test_events_fire_in_time_order(self):
        env = Environment()
        order = []
        env.schedule(2.0, order.append, "b")
        env.schedule(1.0, order.append, "a")
        env.schedule(3.0, order.append, "c")
        env.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        env = Environment()
        order = []
        env.schedule(1.0, order.append, 1)
        env.schedule(1.0, order.append, 2)
        env.schedule(1.0, order.append, 3)
        env.run_until(2.0)
        assert order == [1, 2, 3]

    def test_now_advances_to_event_times(self):
        env = Environment()
        seen = []
        env.schedule(1.5, lambda: seen.append(env.now))
        env.run_until(5.0)
        assert seen == [1.5]
        assert env.now == 5.0

    def test_events_beyond_horizon_not_fired(self):
        env = Environment()
        fired = []
        env.schedule(10.0, fired.append, True)
        env.run_until(5.0)
        assert fired == []
        env.run_until(15.0)
        assert fired == [True]

    def test_cancelled_event_skipped(self):
        env = Environment()
        fired = []
        entry = env.schedule(1.0, fired.append, True)
        env.cancel(entry)
        env.run_until(2.0)
        assert fired == []

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule(-1.0, lambda: None)

    def test_run_until_past_rejected(self):
        env = Environment()
        env.schedule(1.0, lambda: None)
        env.run_until(2.0)
        with pytest.raises(SimulationError):
            env.run_until(1.0)


class TestProcesses:
    def test_timeout_resumes_after_delay(self):
        env = Environment()
        trace = []

        def process():
            trace.append(("start", env.now))
            yield Timeout(2.5)
            trace.append(("resumed", env.now))

        env.start(process())
        env.run_until(10.0)
        assert trace == [("start", 0.0), ("resumed", 2.5)]

    def test_nested_generators_compose(self):
        env = Environment()
        trace = []

        def inner():
            yield Timeout(1.0)
            return "inner-done"

        def outer():
            result = yield from inner()
            trace.append((result, env.now))

        env.start(outer())
        env.run_until(5.0)
        assert trace == [("inner-done", 1.0)]

    def test_invalid_yield_rejected(self):
        env = Environment()

        def bad():
            yield "not-an-effect"

        with pytest.raises(SimulationError):
            env.start(bad())

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_negative_service_rejected(self):
        env = Environment()
        resource = FIFOResource(env, "disk")
        with pytest.raises(SimulationError):
            Service(resource, -0.5)

    def test_service_effect_completes_work(self):
        env = Environment()
        resource = FIFOResource(env, "disk")
        done = []

        def process():
            yield Service(resource, 0.5)
            done.append(env.now)

        env.start(process())
        env.run_until(2.0)
        assert done == [0.5]


class TestSemaphore:
    def test_capacity_enforced(self):
        env = Environment()
        sem = Semaphore(env, capacity=2)
        inside = []

        def worker(i):
            yield Acquire(sem)
            inside.append((i, env.now))
            yield Timeout(1.0)
            sem.release()

        for i in range(4):
            env.start(worker(i))
        env.run_until(0.5)
        assert len(inside) == 2  # only two admitted at t=0
        env.run_until(1.5)
        assert len(inside) == 4  # the rest admitted when slots freed

    def test_fifo_admission_order(self):
        env = Environment()
        sem = Semaphore(env, capacity=1)
        admitted = []

        def worker(i):
            yield Acquire(sem)
            admitted.append(i)
            yield Timeout(1.0)
            sem.release()

        for i in range(3):
            env.start(worker(i))
        env.run_until(10.0)
        assert admitted == [0, 1, 2]

    def test_in_use_and_waiting_counters(self):
        env = Environment()
        sem = Semaphore(env, capacity=1)

        def holder():
            yield Acquire(sem)
            yield Timeout(5.0)
            sem.release()

        env.start(holder())
        env.start(holder())
        env.run_until(1.0)
        assert sem.in_use == 1
        assert sem.waiting == 1

    def test_over_release_rejected(self):
        env = Environment()
        sem = Semaphore(env, capacity=1)
        with pytest.raises(SimulationError):
            sem.release()

    def test_zero_capacity_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Semaphore(env, capacity=0)


class TestHeapCompaction:
    def test_cancelled_events_compacted_out(self):
        env = Environment()
        live = env.schedule(1000.0, lambda: None)
        entries = [env.schedule(2000.0, lambda: None) for _ in range(500)]
        assert env.pending_events == 501
        for entry in entries:
            env.cancel(entry)
        # More than half the heap was tombstones, so it was compacted.
        assert env.pending_events < 500
        assert live[2] is not None  # not cancelled

    def test_compaction_preserves_event_order(self):
        fired = []
        env = Environment()
        entries = [env.schedule(float(i), fired.append, i) for i in range(500)]
        for i in range(500):
            if i % 5:
                env.cancel(entries[i])
        # 400 of 500 cancelled: well past the half-tombstone threshold, so
        # compaction (heapify of the filtered list) ran mid-loop.
        assert env.pending_events < 250
        env.run_until(600.0)
        # The surviving events must still fire in exact time order.
        assert fired == list(range(0, 500, 5))

    def test_cancel_is_idempotent_in_counter(self):
        env = Environment()
        entries = [env.schedule(10.0, lambda: None) for _ in range(200)]
        for entry in entries[:150]:
            env.cancel(entry)
            env.cancel(entry)  # double-cancel must not over-count
        env.run_until(20.0)
        assert env.pending_events == 0

    def test_small_heaps_not_compacted(self):
        env = Environment()
        entries = [env.schedule(10.0, lambda: None) for _ in range(10)]
        for entry in entries:
            env.cancel(entry)
        # Below the compaction threshold the tombstones just sit there.
        assert env.pending_events == 10
        env.run_until(20.0)
        assert env.pending_events == 0


# ---------------------------------------------------------------------------
# The kernel against its previous form
# ---------------------------------------------------------------------------


class ReferenceHandle:
    """A scheduled callback of the reference kernel: one object per event,
    cancelled through its own method."""

    def __init__(self, time, callback, args, env):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._env = env

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            self._env._note_cancelled()


class ReferenceEnvironment:
    """The previous kernel, kept as the oracle for the current one:
    ``(time, sequence, handle)`` tuples on the heap and a fresh closure
    per ``Service`` or ``Acquire`` effect.  ``cancel`` adapts the
    handle-method API to the entry API the resources call."""

    _COMPACT_MIN = 64

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._sequence = 0
        self._cancelled = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        handle = ReferenceHandle(self._now + delay, callback, args, self)
        self._sequence += 1
        heapq.heappush(self._heap, (handle.time, self._sequence, handle))
        return handle

    def cancel(self, handle):
        handle.cancel()

    def _note_cancelled(self):
        self._cancelled += 1
        if (len(self._heap) > self._COMPACT_MIN
                and self._cancelled * 2 > len(self._heap)):
            self._heap = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def run_until(self, end_time):
        while self._heap and self._heap[0][0] <= end_time:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            self._now = time
            handle.callback(*handle.args)
        self._now = end_time

    def register(self, holder):
        pass

    def start(self, process):
        self._resume(process, None)

    def _resume(self, process, value):
        try:
            effect = process.send(value)
        except StopIteration:
            return
        effect.apply(self, process)


class ReferenceTimeout:
    def __init__(self, delay):
        self.delay = delay

    def apply(self, env, process):
        env.schedule(self.delay, env._resume, process, None)


class ReferenceService:
    def __init__(self, resource, work):
        self.resource = resource
        self.work = work

    def apply(self, env, process):
        self.resource.submit(self.work, lambda: env._resume(process, None))


class ReferenceSemaphore:
    def __init__(self, env, capacity):
        self._env = env
        self.capacity = capacity
        self._available = capacity
        self._waiters = []

    def _acquire(self, resume):
        if self._available > 0:
            self._available -= 1
            self._env.schedule(0.0, resume)
        else:
            self._waiters.append(resume)

    def release(self):
        if self._waiters:
            self._env.schedule(0.0, self._waiters.pop(0))
        else:
            self._available += 1


class ReferenceAcquire:
    def __init__(self, semaphore):
        self.semaphore = semaphore

    def apply(self, env, process):
        self.semaphore._acquire(lambda: env._resume(process, None))


_KERNELS = {
    "reference": (ReferenceEnvironment, ReferenceTimeout, ReferenceService,
                  ReferenceAcquire, ReferenceSemaphore),
    "current": (Environment, Timeout, Service, Acquire, Semaphore),
}

_work = st.one_of(st.just(0.0), st.floats(0.001, 2.0))
#: One step of a process: a timeout, a service on the CPU or the disk,
#: or holding one of two semaphore slots for a while.
_op = st.one_of(
    st.tuples(st.just("timeout"), st.floats(0.0, 2.0)),
    st.tuples(st.sampled_from(["cpu", "disk"]), _work),
    st.tuples(st.just("hold"), st.floats(0.0, 1.0)),
)
#: A process: its start time and its steps.
_process = st.tuples(st.floats(0.0, 3.0), st.lists(_op, max_size=6))
#: A burst of labelled callbacks scheduled at one instant, and the time
#: they are all cancelled at (``None``: never) — bursts push the heap
#: past the compaction threshold.
_burst = st.tuples(st.floats(0.0, 8.0), st.integers(1, 40),
                   st.one_of(st.none(), st.floats(0.0, 8.0)))


def _firing_trace(kernel, processes, bursts):
    """Drive *processes* and *bursts* on *kernel*; return every step
    completion and callback firing as ``(time, label)``."""
    environment, timeout, service, acquire, semaphore = _KERNELS[kernel]
    env = environment()
    cpu = ProcessorSharingResource(env, "cpu")
    disk = FIFOResource(env, "disk")
    slots = semaphore(env, 2)
    trace = []

    def fire(label):
        trace.append((env.now, label))

    def body(pid, ops):
        for step, (kind, value) in enumerate(ops):
            if kind == "timeout":
                yield timeout(value)
            elif kind == "hold":
                yield acquire(slots)
                fire(f"p{pid}.{step} admitted")
                yield timeout(value)
                slots.release()
            else:
                yield service(cpu if kind == "cpu" else disk, value)
            fire(f"p{pid}.{step}")

    for pid, (start, ops) in enumerate(processes):
        env.schedule(start, env.start, body(pid, ops))
    for bid, (at, count, cancel_at) in enumerate(bursts):
        entries = [env.schedule(at, fire, f"b{bid}.{i}") for i in range(count)]
        if cancel_at is not None:
            for entry in entries:
                env.schedule(cancel_at, env.cancel, entry)
    env.run_until(60.0)
    return trace


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(_process, max_size=8), st.lists(_burst, max_size=6))
def test_kernel_fires_exactly_like_the_reference(processes, bursts):
    want = _firing_trace("reference", processes, bursts)
    assert _firing_trace("current", processes, bursts) == want
