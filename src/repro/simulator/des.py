"""A small discrete-event simulation kernel.

Processes are Python generators that yield *effects*; the kernel resumes a
process when its current effect completes.  Three effects exist:

* :class:`Timeout` — resume after a fixed simulated delay (think times,
  network and certification latencies);
* :class:`Service` — resume after a resource (CPU, disk) has performed a
  given amount of work for this process, including any queueing imposed by
  the resource's scheduling discipline;
* :class:`Acquire` — resume once a :class:`Semaphore` grants a slot
  (admission control, certifier occupancy).

Sub-activities compose with ``yield from``, so a transaction's life cycle
reads top-to-bottom in the system assemblies.

Cost model: one heap entry per event and no allocation per effect beyond
the effect itself.  :meth:`Environment.start` wraps each generator once in
a :class:`_Process`, which *is* the callback every effect resumes it
through.  On a ``Timeout`` the process pushes itself straight onto the
heap (a ``Timeout`` has no ``apply``); a ``Service`` hands it to the
resource, an ``Acquire`` to the semaphore.  A heap entry
is the list ``[time, sequence, callback, args]`` and doubles as the
event's handle: :meth:`Environment.cancel` clears its callback.

Not everything timed is a process.  A resource resumes any callable, so
a fixed chain of services can be one slotted object that is its own
callback: writeset application at a replica is one such object
(:class:`~repro.simulator.replica._Apply`), not a process — no generator
or :class:`_Process` per propagated writeset, and the same heap entries.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable, Deque, Generator, List

from ..core.errors import SimulationError

#: Type alias for simulator processes.
Process = Generator

#: A scheduled event, ``[time, sequence, callback, args]``: what
#: :meth:`Environment.schedule` returns and :meth:`Environment.cancel`
#: takes.  A cancelled entry's callback is ``None``.
Event = list

#: Heaps at most this large are never compacted.
_COMPACT_MIN = 64


class Environment:
    """Event loop: a time-ordered heap of callbacks.

    Entries order by ``(time, sequence)`` — the sequence number breaks
    ties in scheduling order, so a run is deterministic.  Cancelled
    entries stay in the heap as tombstones (cancellation is O(1)) and are
    normally discarded when popped; when they come to outnumber the live
    entries of a heap larger than ``_COMPACT_MIN`` the heap is compacted,
    so long runs whose resources reschedule constantly (a
    processor-sharing CPU cancels its pending completion at every
    positive-work arrival, since each one slows every resident job) hold
    memory proportional to the *live* event count instead of the
    cancellation history.
    """

    def __init__(self) -> None:
        #: Current simulated time in seconds (only the loop advances it).
        self.now = 0.0
        self._heap: List[Event] = []
        self._sequence = 0
        self._cancelled = 0
        #: Resources and semaphores built on this loop (see :meth:`close`).
        self._holders: List = []

    @property
    def pending_events(self) -> int:
        """Heap entries, cancelled tombstones included (diagnostics)."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable, *args) -> Event:
        """Run ``callback(*args)`` after *delay* seconds of simulated time;
        returns the event's entry, which :meth:`cancel` takes."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        entry = [self.now + delay, self._sequence, callback, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Event) -> None:
        """Prevent a scheduled event from firing (idempotent)."""
        if entry[2] is None:
            return
        entry[2] = None
        self._cancelled += 1
        heap = self._heap
        if len(heap) > _COMPACT_MIN and self._cancelled * 2 > len(heap):
            # Entries order by (time, sequence), so re-heapifying the
            # filtered list reproduces exactly the pop order the
            # tombstoned heap would have produced.  In place: a running
            # loop holds the list.
            heap[:] = [e for e in heap if e[2] is not None]
            heapify(heap)
            self._cancelled = 0

    def run_until(self, end_time: float) -> None:
        """Process events until simulated time reaches *end_time*."""
        if end_time < self.now:
            raise SimulationError("end_time is in the past")
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            time, _, callback, args = heappop(heap)
            if callback is None:
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            if time < self.now:
                raise SimulationError("event heap went backwards in time")
            self.now = time
            callback(*args)
        self.now = end_time

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
        _Process(self, process)()


class _Process:
    """A generator under the kernel's control, and its resume callback.

    Calling the object sends the generator ``None`` and acts on the
    effect it yields next.  It holds the generator's ``send``, never a
    bound method of itself: that would be a cycle through the object
    alone, which :meth:`Environment.close` could not break.
    """

    __slots__ = ("_env", "_send")

    def __init__(self, env: Environment, process: Process) -> None:
        self._env = env
        self._send = process.send

    def __call__(self) -> None:
        try:
            effect = self._send(None)
        except StopIteration:
            return
        if type(effect) is Timeout:
            env = self._env
            env._sequence += 1
            heappush(env._heap,
                     [env.now + effect.delay, env._sequence, self, ()])
        elif isinstance(effect, _Effect):
            effect.apply(self._env, self)
        else:
            raise SimulationError(
                f"process yielded {effect!r}; expected Timeout, Service "
                f"or Acquire"
            )


class _Effect:
    """Base class for things a process may yield."""

    __slots__ = ()

    def apply(self, env: Environment, resume: Callable[[], None]) -> None:
        """Arrange for ``resume()`` to be called when the effect completes."""
        raise NotImplementedError


class Timeout(_Effect):
    """Suspend the process for a fixed simulated duration."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay


class Service(_Effect):
    """Suspend the process until *resource* completes *work* seconds for it."""

    __slots__ = ("resource", "work")

    def __init__(self, resource, work: float) -> None:
        if work < 0:
            raise SimulationError(f"negative service demand {work}")
        self.resource = resource
        self.work = work

    def apply(self, env: Environment, resume: Callable[[], None]) -> None:
        self.resource.submit(self.work, resume)


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
        self._waiters: Deque[Callable[[], None]] = deque()
        env.register(self)

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self.capacity - self._available

    @property
    def waiting(self) -> int:
        """Processes queued for admission."""
        return len(self._waiters)

    def _acquire(self, resume: Callable[[], None]) -> None:
        if self._available > 0:
            self._available -= 1
            self._env.schedule(0.0, resume)
        else:
            self._waiters.append(resume)

    def _unpark(self) -> Deque[Callable[[], None]]:
        waiters, self._waiters = self._waiters, deque()
        return waiters

    def release(self) -> None:
        """Return a slot, admitting the longest-waiting process if any."""
        if self._waiters:
            self._env.schedule(0.0, self._waiters.popleft())
        else:
            if self._available >= self.capacity:
                raise SimulationError("semaphore released more than acquired")
            self._available += 1


class Acquire(_Effect):
    """Suspend the process until it is granted a slot of *semaphore*."""

    __slots__ = ("semaphore",)

    def __init__(self, semaphore: Semaphore) -> None:
        self.semaphore = semaphore

    def apply(self, env: Environment, resume: Callable[[], None]) -> None:
        self.semaphore._acquire(resume)
