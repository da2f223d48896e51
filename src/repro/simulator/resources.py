"""Timed resources: processor-sharing CPU and FIFO disk.

The CPU runs all resident jobs simultaneously at equal shares (processor
sharing — how an OS scheduler behaves at the timescale of transactions);
the disk serves one request at a time in arrival order.  Both disciplines
have the same mean residence time under MVA's assumptions, so the analytical
model applies to either; simulating the realistic disciplines lets the
validation probe that insensitivity.

Both resources track a *busy-time integral* so the profiler can apply the
Utilization Law, and a completion count for throughput accounting.

Cost per event: the disk is O(1).  The CPU keeps processor sharing in its
virtual-time formulation — one attained-service clock shared by every
resident job, and the jobs in a heap keyed by the clock value at which
each one finishes — so an arrival or departure is O(log n) in the ``n``
resident jobs instead of a pass over all of them.  That matters on the
multi-master write path, where concurrently applied writesets keep tens
of jobs resident on every CPU.

Heterogeneous capacity: both servers take a ``rate`` multiplier (default
1.0) — a rate-2 CPU finishes the same sampled work in half the time.  The
scaling happens once, at submit, so the processor-sharing bookkeeping and
the busy-time accounting are untouched: utilization remains the fraction
of time the (faster) server is busy.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..core.errors import SimulationError
from .des import Environment, Event

#: Work below this threshold is no work; a processor-sharing job whose
#: finish tag is this close to the virtual clock has finished (near-ties
#: finish together, and float drift is absorbed).
_EPSILON = 1e-12


class ResourceStats:
    """Shared accounting: busy time, completions, and unscaled work.

    ``work_done`` accumulates the *unscaled* service demand of completed
    jobs.  Dividing a window's ``work_done`` delta by its busy-time delta
    recovers the server's effective rate multiplier exactly, independent
    of the transaction mix — the signal the online capacity estimator
    needs to notice a replica that has silently slowed down.
    """

    def __init__(self) -> None:
        self.busy_time = 0.0
        self.completions = 0
        self.work_done = 0.0


def _check_rate(rate: float, name: str) -> float:
    if rate <= 0.0:
        raise SimulationError(f"{name}: capacity rate must be positive")
    return rate


class ProcessorSharingResource:
    """A single server shared equally among all resident jobs (the CPU).

    Virtual-time form: ``_virtual`` is the service every resident job has
    received since the server was last idle — it advances by
    ``elapsed / n`` while ``n`` jobs are resident — and each job sits in a
    heap keyed by its finish tag, the clock's value at submit plus its
    scaled work.  The job with the smallest tag finishes first, after
    ``(tag - clock) * n`` more seconds.  An arrival or a departure is one
    heap operation and one rescheduled completion event: O(log n), with
    no pass over the resident jobs.  The clock restarts at zero whenever
    the server goes idle, so its precision does not decay over long runs.
    """

    def __init__(self, env: Environment, name: str, rate: float = 1.0) -> None:
        self._env = env
        self.name = name
        self.rate = _check_rate(rate, name)
        self.stats = ResourceStats()
        #: Resident jobs as ``(finish tag, sequence, demand, resume)``.
        self._jobs: List[Tuple[float, int, float, Callable]] = []
        self._sequence = 0
        self._virtual = 0.0
        self._last_sync = env.now
        self._completion: Optional[Event] = None
        env.register(self)

    def busy_time_now(self) -> float:
        """Busy time up to the current instant (forces an accounting sync)."""
        self._sync()
        return self.stats.busy_time

    def submit(self, work: float, resume: Callable) -> None:
        """Add a job needing *work* seconds of service; call *resume* when done."""
        scaled = work / self.rate
        env = self._env
        if scaled <= _EPSILON:
            # Zero-cost work completes immediately (but asynchronously, to
            # keep process resumption ordering consistent); it changes no
            # one's share, so the pending completion stands.
            env.schedule(0.0, resume)
            return
        # The clock sync and the completion reschedule, written out: this
        # runs on every arrival.
        jobs = self._jobs
        now = env.now
        elapsed = now - self._last_sync
        self._last_sync = now
        if elapsed > 0.0 and jobs:
            self._virtual += elapsed / len(jobs)
            self.stats.busy_time += elapsed
        self._sequence += 1
        heapq.heappush(jobs, (self._virtual + scaled, self._sequence, work, resume))
        if self._completion is not None:
            env.cancel(self._completion)
        ahead = jobs[0][0] - self._virtual
        self._completion = env.schedule(
            (ahead if ahead > 0.0 else 0.0) * len(jobs), self._complete
        )

    def _unpark(self) -> List[Tuple[float, int, float, Callable]]:
        # The completion entry's callback is this resource: drop it too.
        jobs, self._jobs = self._jobs, []
        self._completion = None
        return jobs

    def _sync(self) -> None:
        """Advance the virtual clock by each resident job's equal share."""
        now = self._env.now
        elapsed = now - self._last_sync
        self._last_sync = now
        if elapsed <= 0.0 or not self._jobs:
            return
        self._virtual += elapsed / len(self._jobs)
        self.stats.busy_time += elapsed

    def _complete(self) -> None:
        # _sync, written out; a completion always has resident jobs.
        jobs = self._jobs
        now = self._env.now
        elapsed = now - self._last_sync
        self._last_sync = now
        if elapsed > 0.0:
            self._virtual += elapsed / len(jobs)
            self.stats.busy_time += elapsed
        # Every job the clock has reached finishes now, near-ties included;
        # when float drift leaves even the first one epsilon short, it
        # finishes anyway (this event was scheduled for it).
        finished = [heapq.heappop(jobs)]
        horizon = self._virtual + _EPSILON
        while jobs and jobs[0][0] <= horizon:
            finished.append(heapq.heappop(jobs))
        if jobs:
            ahead = jobs[0][0] - self._virtual
            self._completion = self._env.schedule(
                (ahead if ahead > 0.0 else 0.0) * len(jobs), self._complete
            )
        else:
            self._completion = None
            self._virtual = 0.0
        for _, _, demand, _ in finished:
            self.stats.work_done += demand
        for _, _, _, resume in finished:
            self.stats.completions += 1
            resume()


class FIFOResource:
    """A single server with a first-come-first-served queue (the disk)."""

    def __init__(self, env: Environment, name: str, rate: float = 1.0) -> None:
        self._env = env
        self.name = name
        self.rate = _check_rate(rate, name)
        self.stats = ResourceStats()
        self._queue: Deque[Tuple[float, float, Callable]] = deque()
        self._busy = False
        self._current_start = 0.0
        self._current_work = 0.0
        self._current_demand = 0.0
        env.register(self)

    def submit(self, work: float, resume: Callable) -> None:
        """Enqueue a job needing *work* seconds; call *resume* when done."""
        demand = work
        work = work / self.rate
        if work <= _EPSILON:
            self._env.schedule(0.0, resume)
            return
        if self._busy:
            self._queue.append((work, demand, resume))
            return
        self._begin(work, demand, resume)

    def _unpark(self) -> Deque[Tuple[float, float, Callable]]:
        # The job in service is parked in the loop's heap, not here.
        queue, self._queue = self._queue, deque()
        return queue

    def _begin(self, work: float, demand: float, resume: Callable) -> None:
        self._busy = True
        self._current_start = self._env.now
        self._current_work = work
        self._current_demand = demand
        self._env.schedule(work, self._finish, resume)

    def _finish(self, resume: Callable) -> None:
        self.stats.busy_time += self._current_work
        self.stats.completions += 1
        self.stats.work_done += self._current_demand
        self._busy = False
        if self._queue:
            next_work, next_demand, next_resume = self._queue.popleft()
            self._begin(next_work, next_demand, next_resume)
        resume()

    def busy_time_now(self) -> float:
        """Busy time including the partially-served current job."""
        total = self.stats.busy_time
        if self._busy:
            total += self._env.now - self._current_start
        return total
