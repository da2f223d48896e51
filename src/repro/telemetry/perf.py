"""Performance-observability primitives: estimator math and the report.

The paper predicts replicated scalability from a standalone profile, but
a deployed system has to *keep checking* that prediction while it runs:
a machine silently operating at partial speed (a gray failure) breaks
both the capacity-weighted load balancer's declared weights and the
feedforward controller's sizing, and neither the health monitor (which
only sees crashes) nor the end-to-end SLO (which lags) will say why.

This module holds the math and the frozen report types; the control-side
glue that feeds them from live runs lives in
:mod:`repro.control.estimator`.  Everything here is pure bookkeeping on
values the caller reads — no clocks, no RNG, no event scheduling — so an
engaged estimator can never perturb a deterministic run (the same
zero-cost contract as the rest of the telemetry layer).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from ..core.errors import ConfigurationError


class Ewma:
    """Half-life exponentially weighted moving average.

    Time-aware: an update after ``dt`` seconds weighs the old value by
    ``0.5 ** (dt / half_life)``, so irregular observation intervals
    (live control ticks jitter) still decay at a fixed wall rate.
    ``value`` is ``None`` until the first update unless seeded with
    *initial* — the estimator seeds with the declared capacity so a
    replica is presumed healthy until measured.
    """

    def __init__(self, half_life: float,
                 initial: Optional[float] = None) -> None:
        if half_life <= 0.0:
            raise ConfigurationError("EWMA half-life must be positive")
        self.half_life = half_life
        self.value = initial

    def update(self, value: float, dt: float = 1.0) -> float:
        """Fold one observation taken *dt* seconds after the previous."""
        if self.value is None:
            self.value = float(value)
        else:
            weight = 0.5 ** (max(dt, 0.0) / self.half_life)
            self.value = weight * self.value + (1.0 - weight) * float(value)
        return self.value


class WindowedQuantile:
    """Exact empirical quantiles over a bounded sliding window."""

    def __init__(self, window: int = 64) -> None:
        if window <= 0:
            raise ConfigurationError("quantile window must be positive")
        self._values: Deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        """Add one observation (the oldest falls off the window)."""
        self._values.append(float(value))

    def quantile(self, q: float) -> float:
        """The q-th empirical quantile (0.0 while the window is empty)."""
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        index = min(len(ordered) - 1,
                    max(0, int(round(q * len(ordered))) - 1))
        return ordered[index]

    def __len__(self) -> int:
        return len(self._values)


# ---------------------------------------------------------------------
# Frozen report types
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveCapacity:
    """One replica's live capacity estimate at one observation."""

    time: float
    replica: str
    #: Capacity multiplier the fleet was configured with.
    declared: float
    #: What the replica is measured to deliver right now (same units).
    estimated: float
    #: Bottleneck (max of CPU/disk) utilization over the last window.
    utilization: float = 0.0

    @property
    def ratio(self) -> float:
        """Estimated over declared: 1.0 healthy, 0.5 a halved machine."""
        if self.declared <= 0.0:
            return 1.0
        return self.estimated / self.declared


@dataclass(frozen=True)
class CapacitySnapshot:
    """The whole fleet's capacity estimates at one control tick."""

    time: float
    capacities: Tuple[EffectiveCapacity, ...]

    def ratio_for(self, replica: str) -> Optional[float]:
        """One replica's estimated/declared ratio (None if absent)."""
        for cap in self.capacities:
            if cap.replica == replica:
                return cap.ratio
        return None


@dataclass(frozen=True)
class DriftPoint:
    """Model-vs-observed comparison at one control tick."""

    time: float
    members: int
    offered_rate: float
    #: min(offered, model capacity at this member count) — what the
    #: analytic model says this tick should have delivered.
    predicted_throughput: float
    observed_throughput: float
    #: Relative residual: (observed - predicted) / predicted.
    residual: float
    #: Diagnostic p95 comparison (predicted is 3x the model's mean
    #: response — an exponential-tail rule of thumb, not a fit).
    predicted_p95: float = 0.0
    observed_p95: float = 0.0
    #: This tick fell outside the crossval envelope.
    breach: bool = False
    #: Enough consecutive breaches: the model is declared drifted.
    verdict: bool = False


@dataclass(frozen=True)
class GrayEvent:
    """A gray-failure detection or recovery on one replica."""

    time: float
    replica: str
    ratio: float
    kind: str  # "gray-detect" | "gray-clear"


@dataclass(frozen=True)
class ComponentSignal:
    """One component's standing in the slowest-component ranking."""

    component: str
    #: Utilization-like score in [0, ~1]: resource utilization for
    #: CPU/disk, normalised residence for queues.
    score: float
    detail: str = ""


@dataclass(frozen=True)
class PerfReport:
    """Everything the performance observer saw during one run."""

    pillar: str
    #: Capacity source the run consumed: ``declared`` (observe-only) or
    #: ``estimated`` (LB weights and controller sizing followed it).
    source: str
    snapshots: Tuple[CapacitySnapshot, ...] = ()
    drift: Tuple[DriftPoint, ...] = ()
    detections: Tuple[GrayEvent, ...] = ()
    attribution: Tuple[ComponentSignal, ...] = ()

    @property
    def drift_verdict(self) -> bool:
        """Did any tick conclude the analytic model has drifted?"""
        return any(point.verdict for point in self.drift)

    def detection_latency(self, onset: float,
                          replica: Optional[str] = None) -> Optional[float]:
        """Seconds from a brownout *onset* to the first detection at or
        after it (optionally restricted to one replica)."""
        for event in self.detections:
            if event.kind != "gray-detect" or event.time < onset:
                continue
            if replica is not None and event.replica != replica:
                continue
            return event.time - onset
        return None

    # -- rendering -----------------------------------------------------

    def to_text(self, max_rows: int = 24) -> str:
        """Render the capacity timeline, detections, drift verdict and
        slowest-component attribution as one text report."""
        lines = [
            f"performance observability — {self.pillar} pillar, "
            f"capacity source: {self.source}"
        ]
        lines.extend(self._capacity_lines(max_rows))
        lines.extend(self._detection_lines())
        lines.extend(self._drift_lines())
        lines.extend(self._attribution_lines())
        return "\n".join(lines)

    def _replica_names(self) -> List[str]:
        names: List[str] = []
        for snap in self.snapshots:
            for cap in snap.capacities:
                if cap.replica not in names:
                    names.append(cap.replica)
        return names

    def _capacity_lines(self, max_rows: int) -> List[str]:
        if not self.snapshots:
            return ["  no capacity snapshots recorded"]
        names = self._replica_names()
        lines = ["  effective capacity (estimated/declared; '!' = degraded):"]
        width = max(8, max(len(n) for n in names))
        header = "    " + f"{'t(s)':>8s}  " + "  ".join(
            f"{name:>{width}s}" for name in names
        )
        lines.append(header)
        stride = max(1, (len(self.snapshots) + max_rows - 1) // max_rows)
        shown = list(self.snapshots[::stride])
        if self.snapshots[-1] not in shown:
            shown.append(self.snapshots[-1])
        for snap in shown:
            cells = []
            for name in names:
                ratio = snap.ratio_for(name)
                if ratio is None:
                    cells.append(f"{'—':>{width}s}")
                else:
                    mark = "!" if ratio < 0.8 else " "
                    cells.append(f"{ratio:>{width - 1}.2f}{mark}")
            lines.append(f"    {snap.time:>8.1f}  " + "  ".join(cells))
        return lines

    def _detection_lines(self) -> List[str]:
        lines = ["  gray-failure detections:"]
        if not self.detections:
            lines.append("    none — no replica fell below the threshold")
            return lines
        for event in self.detections:
            what = ("degraded" if event.kind == "gray-detect"
                    else "recovered")
            lines.append(
                f"    t={event.time:7.1f}  {event.replica} {what} "
                f"(estimated {event.ratio:.2f}x declared)"
            )
        return lines

    def _drift_lines(self) -> List[str]:
        if not self.drift:
            return ["  model drift: not evaluated (no profile attached)"]
        breaches = sum(1 for p in self.drift if p.breach)
        worst = max(self.drift, key=lambda p: abs(p.residual))
        verdict = "DRIFT" if self.drift_verdict else "on-model"
        lines = [
            f"  model drift: {verdict} — {len(self.drift)} ticks "
            f"evaluated, {breaches} outside the envelope, worst residual "
            f"{worst.residual:+.1%} at t={worst.time:.1f}"
        ]
        last = self.drift[-1]
        lines.append(
            f"    last tick: predicted {last.predicted_throughput:.1f} "
            f"tps, observed {last.observed_throughput:.1f} tps "
            f"({last.residual:+.1%}); p95 predicted "
            f"{last.predicted_p95 * 1000:.0f} ms, observed "
            f"{last.observed_p95 * 1000:.0f} ms"
        )
        return lines

    def _attribution_lines(self) -> List[str]:
        if not self.attribution:
            return []
        lines = ["  slowest components:"]
        for rank, signal in enumerate(self.attribution, start=1):
            detail = f"  ({signal.detail})" if signal.detail else ""
            lines.append(
                f"    {rank}. {signal.component:<20s} "
                f"score {signal.score:.2f}{detail}"
            )
        return lines
