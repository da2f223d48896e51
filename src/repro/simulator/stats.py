"""Measurement collection for simulation runs.

Mirrors the paper's methodology (§6.1): a warm-up period is discarded, then
sustained throughput and mean response time are measured over a steady-state
window.  Resource busy times are snapshotted at the window boundaries so the
Utilization Law applies exactly to the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.errors import SimulationError


class RunningStats:
    """Numerically stable streaming mean/variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        """Sample mean (0 for an empty series)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 with fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.count < 2:
            return 0.0
        return self.stddev / math.sqrt(self.count)


@dataclass
class ResourceWindow:
    """Busy time and completions of one resource within the window."""

    name: str
    busy_time: float = 0.0
    completions: int = 0


class MetricsCollector:
    """Accumulates transaction and resource measurements for one run."""

    def __init__(self) -> None:
        self.measuring = False
        self.window_start = 0.0
        self.window_end = 0.0
        # Committed transaction counts by class.
        self.read_commits = 0
        self.update_commits = 0
        # Update attempts that were aborted (each abort triggers a retry).
        self.update_abort_attempts = 0
        # Response times of committed transactions (including retry time).
        self.response_all = RunningStats()
        self.response_read = RunningStats()
        self.response_update = RunningStats()
        # GSI snapshot staleness in versions, sampled at update begin.
        self.snapshot_age = RunningStats()
        # Certifier requests observed in the window.
        self.certifier_requests = 0
        # Commit counts bucketed per second of the window (timeline).
        self._timeline: Dict[int, int] = {}
        self._now = 0.0
        # Busy-time snapshots: resource key -> busy time at window start.
        self._busy_at_start: Dict[str, float] = {}
        self._busy_at_end: Dict[str, float] = {}
        self._resources: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def watch_resource(self, key: str, resource) -> None:
        """Register a resource whose utilization should be reported."""
        if key in self._resources:
            raise SimulationError(f"resource {key!r} registered twice")
        self._resources[key] = resource

    def forget_resource(self, key: str) -> None:
        """Unregister a resource (a failed elastic join rolls back its
        registration so retries don't accumulate dead entries)."""
        self._resources.pop(key, None)
        self._busy_at_start.pop(key, None)
        self._busy_at_end.pop(key, None)

    def begin_window(self, now: float) -> None:
        """Start the measurement window (end of warm-up)."""
        self.measuring = True
        self.window_start = now
        for key, resource in self._resources.items():
            self._busy_at_start[key] = resource.busy_time_now()

    def end_window(self, now: float) -> None:
        """Close the measurement window."""
        if not self.measuring:
            raise SimulationError("measurement window was never started")
        self.measuring = False
        self.window_end = now
        for key, resource in self._resources.items():
            self._busy_at_end[key] = resource.busy_time_now()

    # ------------------------------------------------------------------
    # Recording (no-ops outside the measurement window)
    # ------------------------------------------------------------------

    def record_commit(
        self, is_update: bool, response_time: float, aborts: int,
        now: Optional[float] = None,
    ) -> None:
        """Record a committed transaction and its retry count."""
        if not self.measuring:
            return
        if now is not None:
            bucket = int(now - self.window_start)
            self._timeline[bucket] = self._timeline.get(bucket, 0) + 1
        self.response_all.add(response_time)
        if is_update:
            self.update_commits += 1
            self.update_abort_attempts += aborts
            self.response_update.add(response_time)
        else:
            self.read_commits += 1
            self.response_read.add(response_time)

    def record_snapshot_age(self, age_versions: float) -> None:
        """Record the staleness (in versions) of a GSI snapshot."""
        if self.measuring:
            self.snapshot_age.add(age_versions)

    def record_certification(self) -> None:
        """Count one certification request."""
        if self.measuring:
            self.certifier_requests += 1

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def window(self) -> float:
        """Length of the measurement window in seconds."""
        return self.window_end - self.window_start

    @property
    def committed(self) -> int:
        """Total committed transactions in the window."""
        return self.read_commits + self.update_commits

    def throughput(self) -> float:
        """Committed transactions per second."""
        if self.window <= 0:
            raise SimulationError("empty measurement window")
        return self.committed / self.window

    def read_throughput(self) -> float:
        """Committed read-only transactions per second."""
        return self.read_commits / self.window if self.window > 0 else 0.0

    def update_throughput(self) -> float:
        """Committed update transactions per second."""
        return self.update_commits / self.window if self.window > 0 else 0.0

    def abort_rate(self) -> float:
        """Fraction of update attempts that aborted."""
        attempts = self.update_commits + self.update_abort_attempts
        if attempts == 0:
            return 0.0
        return self.update_abort_attempts / attempts

    def mean_response_time(self) -> float:
        """Mean response time of committed transactions."""
        return self.response_all.mean

    def utilizations(self) -> Dict[str, float]:
        """Per-resource utilization over the window."""
        if self.window <= 0:
            return {}
        result = {}
        for key in self._resources:
            busy = self._busy_at_end.get(key, 0.0) - self._busy_at_start.get(key, 0.0)
            result[key] = busy / self.window
        return result

    def certifier_request_rate(self) -> float:
        """Certification requests per second in the window."""
        return self.certifier_requests / self.window if self.window > 0 else 0.0

    def throughput_timeline(self) -> List[float]:
        """Committed transactions per second, bucketed per window second.

        Bucket ``i`` covers window time ``[i, i+1)``; failure-injection
        experiments read the throughput dip and recovery off this series.
        """
        if self.window <= 0:
            return []
        buckets = int(self.window)
        return [float(self._timeline.get(i, 0)) for i in range(buckets)]
