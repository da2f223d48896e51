"""Result types produced by the analytical models and the simulator.

Both sides of the validation (prediction and measurement) report the same
:class:`OperatingPoint` shape so that experiments can compare them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .errors import ConfigurationError


@dataclass(frozen=True)
class OperatingPoint:
    """Steady-state performance of one configuration.

    ``throughput`` counts *committed* transactions per second for the whole
    system; ``response_time`` is the mean end-to-end latency (in seconds) a
    client observes, excluding think time.
    """

    throughput: float
    response_time: float
    #: Abort probability of update transactions (AN or A'N); 0 when the
    #: workload has no updates.
    abort_rate: float = 0.0
    #: Per-resource utilization of the busiest replica, keyed by resource
    #: name ("cpu", "disk").  Optional diagnostic output.
    utilization: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.throughput < 0.0:
            raise ConfigurationError("throughput must be non-negative")
        if self.response_time < 0.0:
            raise ConfigurationError("response time must be non-negative")
        if not 0.0 <= self.abort_rate <= 1.0:
            raise ConfigurationError("abort rate must be in [0, 1]")


@dataclass(frozen=True)
class ReplicaBreakdown:
    """Diagnostic detail for one replica role in a prediction."""

    role: str
    throughput: float
    clients: float
    utilization: Dict[str, float] = field(default_factory=dict)
    residence_times: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Prediction:
    """Output of an analytical model for one (workload, N) configuration."""

    replicas: int
    point: OperatingPoint
    #: Conflict window CW(N) in seconds (multi-master only; 0 otherwise).
    conflict_window: float = 0.0
    #: Per-role detail: one entry for multi-master ("replica"), two for
    #: single-master ("master", "slave").
    breakdown: Sequence[ReplicaBreakdown] = ()
    #: Read-only transactions per second routed to the master (E in §3.3.3);
    #: only meaningful for single-master predictions.
    master_extra_reads: float = 0.0

    @property
    def throughput(self) -> float:
        """System throughput in committed transactions per second."""
        return self.point.throughput

    @property
    def response_time(self) -> float:
        """Mean response time (seconds, excluding think time)."""
        return self.point.response_time

    @property
    def abort_rate(self) -> float:
        """Predicted update-transaction abort probability."""
        return self.point.abort_rate


@dataclass(frozen=True)
class ScalabilityCurve:
    """A series of predictions or measurements across replica counts."""

    label: str
    replica_counts: Sequence[int]
    points: Sequence[OperatingPoint]

    def __post_init__(self) -> None:
        if len(self.replica_counts) != len(self.points):
            raise ConfigurationError(
                "replica_counts and points must have the same length"
            )
        if list(self.replica_counts) != sorted(set(self.replica_counts)):
            raise ConfigurationError(
                "replica_counts must be strictly increasing"
            )

    @property
    def throughputs(self) -> List[float]:
        """Throughput values in replica-count order."""
        return [p.throughput for p in self.points]

    @property
    def response_times(self) -> List[float]:
        """Response-time values in replica-count order."""
        return [p.response_time for p in self.points]

    def point_at(self, replicas: int) -> OperatingPoint:
        """Return the operating point measured/predicted at *replicas*."""
        try:
            index = list(self.replica_counts).index(replicas)
        except ValueError:
            raise ConfigurationError(
                f"curve {self.label!r} has no point at N={replicas}"
            ) from None
        return self.points[index]

    def speedup(self) -> List[float]:
        """Throughput of each point relative to the first point."""
        if not self.points:
            return []
        base = self.points[0].throughput
        if base <= 0.0:
            raise ConfigurationError("cannot compute speedup from zero throughput")
        return [p.throughput / base for p in self.points]

    def peak(self) -> int:
        """Replica count at which throughput is maximal."""
        if not self.points:
            raise ConfigurationError("curve is empty")
        best = max(range(len(self.points)), key=lambda i: self.points[i].throughput)
        return list(self.replica_counts)[best]


def relative_error(predicted: float, measured: float) -> float:
    """|predicted - measured| / measured, the paper's error metric (§6.2)."""
    if measured == 0.0:
        raise ConfigurationError("measured value is zero; relative error undefined")
    return abs(predicted - measured) / abs(measured)


@dataclass(frozen=True)
class ValidationPoint:
    """One (N, predicted, measured) comparison row."""

    replicas: int
    predicted: OperatingPoint
    measured: OperatingPoint

    @property
    def throughput_error(self) -> float:
        """Relative throughput error against the measurement."""
        return relative_error(self.predicted.throughput, self.measured.throughput)

    @property
    def response_time_error(self) -> float:
        """Relative response-time error against the measurement."""
        return relative_error(
            self.predicted.response_time, self.measured.response_time
        )


@dataclass(frozen=True)
class ValidationSeries:
    """All comparison rows for one (workload mix, system design) figure."""

    label: str
    rows: Sequence[ValidationPoint]

    def max_throughput_error(self) -> float:
        """Largest relative throughput error across the series."""
        if not self.rows:
            raise ConfigurationError("validation series is empty")
        return max(row.throughput_error for row in self.rows)

    def mean_throughput_error(self) -> float:
        """Mean relative throughput error across the series."""
        if not self.rows:
            raise ConfigurationError("validation series is empty")
        return sum(row.throughput_error for row in self.rows) / len(self.rows)

    def max_response_time_error(self) -> float:
        """Largest relative response-time error across the series."""
        if not self.rows:
            raise ConfigurationError("validation series is empty")
        return max(row.response_time_error for row in self.rows)

    def predicted_curve(self) -> ScalabilityCurve:
        """The predicted side as a :class:`ScalabilityCurve`."""
        return ScalabilityCurve(
            label=f"{self.label} (predicted)",
            replica_counts=[r.replicas for r in self.rows],
            points=[r.predicted for r in self.rows],
        )

    def measured_curve(self) -> ScalabilityCurve:
        """The measured side as a :class:`ScalabilityCurve`."""
        return ScalabilityCurve(
            label=f"{self.label} (measured)",
            replica_counts=[r.replicas for r in self.rows],
            points=[r.measured for r in self.rows],
        )
