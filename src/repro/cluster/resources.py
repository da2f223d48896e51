"""Wall-clock emulation of a replica's CPU and disk.

Each resource is a single server: holding its mutex for the (scaled)
service duration *is* the service, so queueing delay under contention is
real waiting on a real lock rather than a formula.  The service ends at a
deadline on the server's own virtual timeline (see
:mod:`repro.cluster.clock`), so the server keeps its true capacity
however late its holders wake.

Service order is the lock's acquisition order — effectively FIFO, which
matches the simulator's FIFO disk exactly.  Against the simulator's
processor-sharing CPU only a single class, or classes of equal mean
demand, see the same mean response (BCMP); TPC-W's classes differ
(shopping: 41 ms of CPU per read, 13 ms per update attempt), and the
per-class split shows it.  On tpcw/shopping at N=2 (time_scale 0.05,
seed 20090401) live reads respond in 447 ms against the DES's 541 ms and
updates in 442 ms against 176 ms.  The CPU is saturated there, so the
all-class mean follows throughput (R = N/X - Z) rather than the
discipline: a simulator run with a FIFO CPU moves it by under 3%.

Busy time is tracked in virtual seconds from *measured* elapsed time, so
sleep overshoot shows up honestly in the reported utilizations.  The class
exposes ``busy_time_now()`` with the same contract as the simulator's
resources, letting :class:`~repro.simulator.stats.MetricsCollector` watch
live and simulated resources interchangeably.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..core.errors import ConfigurationError
from .clock import VirtualClock


class LiveResource:
    """A single-server resource emulated with a mutex and scaled sleeps.

    ``rate`` models heterogeneous capacity exactly as the simulator's
    resources do: a rate-2 server finishes the same sampled work in half
    the (virtual) time.
    """

    def __init__(self, clock: VirtualClock, name: str,
                 rate: float = 1.0) -> None:
        if rate <= 0.0:
            raise ConfigurationError(f"{name}: capacity rate must be positive")
        self._clock = clock
        self.name = name
        self.rate = rate
        # Held for the duration of each service (the queue is this lock's
        # wait list); _meta guards only the busy-time accounting.
        self._service_lock = threading.Lock()
        self._meta = threading.Lock()
        self._busy_virtual = 0.0
        # Virtual time the last service was due to end (guarded by
        # _service_lock).
        self._free_at = 0.0
        self._busy_since: Optional[float] = None
        self.completions = 0
        # Unscaled service demand of completed services: the delta ratio
        # work_done / busy_time over a window recovers the effective rate
        # multiplier, mix-independently (mirrors the simulator's
        # ResourceStats.work_done, so the capacity estimator watches live
        # and simulated resources interchangeably).
        self.work_done = 0.0

    def serve(self, virtual_duration: float) -> None:
        """Occupy the resource for *virtual_duration* virtual seconds of
        sampled work (scaled down by the capacity ``rate``)."""
        demand = virtual_duration
        virtual_duration = virtual_duration / self.rate
        if virtual_duration <= 0.0:
            return
        arrival = self._clock.now()
        with self._service_lock:
            started = self._clock.now()
            with self._meta:
                self._busy_since = started
            # Pace on the server's own timeline: a queued job starts at
            # its predecessor's *due* time, not at its late wake-up, so
            # overshoot inside a busy period is absorbed instead of
            # compounding.  An idle server starts at the arrival.
            due = max(arrival, self._free_at) + virtual_duration
            self._clock.sleep_until(due)
            self._free_at = due
            ended = self._clock.now()
            with self._meta:
                self._busy_virtual += ended - started
                self._busy_since = None
                self.completions += 1
                self.work_done += demand

    def busy_time_now(self) -> float:
        """Cumulative busy time in virtual seconds, including any
        in-progress service up to now."""
        with self._meta:
            busy = self._busy_virtual
            if self._busy_since is not None:
                busy += max(0.0, self._clock.now() - self._busy_since)
            return busy
