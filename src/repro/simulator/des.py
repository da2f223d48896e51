"""A small discrete-event simulation kernel.

Processes are Python generators that yield *effects*; the kernel resumes a
process when its current effect completes.  Two effects exist:

* :class:`Timeout` — resume after a fixed simulated delay (think times,
  network and certification latencies);
* :class:`Service` — resume after a resource (CPU, disk) has performed a
  given amount of work for this process, including any queueing imposed by
  the resource's scheduling discipline.

Sub-activities compose with ``yield from``, so a transaction's life cycle
reads top-to-bottom in the system assemblies.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional

from ..core.errors import SimulationError

#: Type alias for simulator processes.
Process = Generator


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time", "callback", "args", "cancelled", "_env")

    def __init__(
        self, time: float, callback: Callable, args: tuple, env=None
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._env = env

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if self._env is not None:
                self._env._note_cancelled()


class Environment:
    """Event loop: a time-ordered heap of callbacks.

    Cancelled events stay in the heap as tombstones (cancellation is O(1))
    and are normally discarded when popped; when they come to outnumber the
    live events the heap is lazily compacted, so long runs whose resources
    reschedule constantly (a processor-sharing CPU cancels its pending
    completion at every arrival, since each one slows every resident job)
    hold memory proportional to the *live* event count instead of the
    cancellation history.

    ``compact_min`` tunes how small a heap is left uncompacted.  The
    default suits fixed sweeps; long *elastic* runs (autoscaling churns
    membership and cancels events far more aggressively) may lower it to
    reclaim memory sooner, or raise it to trade memory for fewer
    re-heapifications.
    """

    #: Default for ``compact_min``: don't bother compacting smaller heaps.
    _COMPACT_MIN = 64

    def __init__(self, compact_min: Optional[int] = None) -> None:
        self._now = 0.0
        self._heap: List = []
        self._sequence = 0
        self._cancelled = 0
        #: Resources and semaphores built on this loop (see :meth:`close`).
        self._holders: List = []
        if compact_min is None:
            compact_min = self._COMPACT_MIN
        if compact_min < 0:
            raise SimulationError(
                f"compact_min must be >= 0, got {compact_min}"
            )
        self.compact_min = compact_min

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Heap entries, cancelled tombstones included (diagnostics)."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable, *args) -> EventHandle:
        """Run ``callback(*args)`` after *delay* seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        handle = EventHandle(self._now + delay, callback, args, self)
        self._sequence += 1
        heapq.heappush(self._heap, (handle.time, self._sequence, handle))
        return handle

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (len(self._heap) > self.compact_min
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones and restore the heap invariant.

        Entries are (time, sequence, handle) tuples, so re-heapifying the
        filtered list reproduces exactly the pop order the tombstoned heap
        would have produced — determinism is unaffected.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def run_until(self, end_time: float) -> None:
        """Process events until simulated time reaches *end_time*."""
        if end_time < self._now:
            raise SimulationError("end_time is in the past")
        while self._heap and self._heap[0][0] <= end_time:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            if time < self._now:
                raise SimulationError("event heap went backwards in time")
            self._now = time
            handle.callback(*handle.args)
        self._now = end_time

    def register(self, holder) -> None:
        """Note a resource or semaphore that parks processes on this loop.

        *holder* has an ``_unpark()`` method that empties its waiting
        containers and returns what it removed (see :meth:`close`).
        """
        self._holders.append(holder)

    def close(self) -> None:
        """Drop every pending event and every process parked on a
        registered resource or semaphore.

        At the end of a run the suspended processes, their pending
        events, and the resources and the loop they wait on reference one
        another in cycles that only a full garbage collection reclaims.
        Dropping the parked callbacks frees them by reference counting
        instead.  A freed suspended process runs its ``finally`` blocks
        (releasing slots and snapshot pins), so call this only once
        everything the run reports, telemetry included, is assembled.
        The loop cannot be run again.
        """
        parked = [self._heap]
        parked.extend(holder._unpark() for holder in self._holders)
        self._heap, self._holders, self._cancelled = [], [], 0
        # Every container is already empty when the processes' finally
        # blocks run, so a release wakes no one; anything they schedule
        # is dropped with the heap below.
        del parked
        self._heap = []

    def start(self, process: Process) -> None:
        """Begin driving a generator process."""
        self._resume(process, None)

    def _resume(self, process: Process, value: Any) -> None:
        try:
            effect = process.send(value)
        except StopIteration:
            return
        if not isinstance(effect, _Effect):
            raise SimulationError(
                f"process yielded {effect!r}; expected Timeout or Service"
            )
        effect.apply(self, process)


class _Effect:
    """Base class for things a process may yield."""

    def apply(self, env: Environment, process: Process) -> None:
        raise NotImplementedError


class Timeout(_Effect):
    """Suspend the process for a fixed simulated duration."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay

    def apply(self, env: Environment, process: Process) -> None:
        env.schedule(self.delay, env._resume, process, None)


class Service(_Effect):
    """Suspend the process until *resource* completes *work* seconds for it."""

    __slots__ = ("resource", "work")

    def __init__(self, resource, work: float) -> None:
        if work < 0:
            raise SimulationError(f"negative service demand {work}")
        self.resource = resource
        self.work = work

    def apply(self, env: Environment, process: Process) -> None:
        self.resource.submit(self.work, lambda: env._resume(process, None))


class Semaphore:
    """A counting semaphore with a FIFO waiter queue.

    Models admission control: the database executes at most ``capacity``
    client transactions concurrently (the connection-pool /
    multiprogramming limit); excess clients wait *before* the transaction
    begins, i.e. before it receives a snapshot.
    """

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"semaphore capacity must be >= 1, got {capacity}")
        self._env = env
        self.capacity = capacity
        self._available = capacity
        self._waiters: List[Callable] = []
        env.register(self)

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self.capacity - self._available

    @property
    def waiting(self) -> int:
        """Processes queued for admission."""
        return len(self._waiters)

    def _acquire(self, resume: Callable) -> None:
        if self._available > 0:
            self._available -= 1
            self._env.schedule(0.0, resume)
        else:
            self._waiters.append(resume)

    def _unpark(self) -> List[Callable]:
        waiters, self._waiters = self._waiters, []
        return waiters

    def release(self) -> None:
        """Return a slot, admitting the longest-waiting process if any."""
        if self._waiters:
            self._env.schedule(0.0, self._waiters.pop(0))
        else:
            if self._available >= self.capacity:
                raise SimulationError("semaphore released more than acquired")
            self._available += 1


class Acquire(_Effect):
    """Suspend the process until it is granted a slot of *semaphore*."""

    __slots__ = ("semaphore",)

    def __init__(self, semaphore: Semaphore) -> None:
        self.semaphore = semaphore

    def apply(self, env: Environment, process: Process) -> None:
        self.semaphore._acquire(lambda: env._resume(process, None))
