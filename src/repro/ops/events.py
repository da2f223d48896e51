"""Operations events and the availability summary derived from them.

Every action the operations layer takes — a fault firing, a crash being
detected, a forced detach, a replacement joining, a rolling cycle — is
stamped into the run's event log as an :class:`OpsEvent`.
:func:`summarize` folds the log and the run timeline into the numbers an
operator actually asks about: mean time to repair, how long the fleet ran
degraded, and how much throughput the outage cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# The fault layer stamps crash/brownout events with its own kind
# constants; one definition keeps summarize()'s matching and the
# recorder in lockstep.
from ..simulator.faults import BROWNOUT, CRASH
from ..telemetry.events import TelemetryEvent

#: Event kinds, in roughly the order they occur in a replacement.
DETECT = "detect"
DETACH = "detach"
REPLACE = "replace"
RESTORED = "restored"
DRAIN = "drain"
REJOIN = "rejoin"
UPGRADED = "upgraded"
ROLLING_DONE = "rolling-complete"
#: Gray-failure detections stamped by the online capacity estimator.
GRAY_DETECT = "gray-detect"
GRAY_CLEAR = "gray-clear"
#: Stamped by the fault layer when a brownout ends.
BROWNOUT_END = "brownout-end"


class OpsEvent(TelemetryEvent):
    """One timestamped operations action.

    Originally its own dataclass; now a
    :class:`~repro.telemetry.events.TelemetryEvent` so the ops scenarios'
    and ``repro metrics`` timelines share one event schema and renderer.
    The historical ``replica`` field survives as an alias of
    ``subject`` — third positional constructor argument included — so
    existing call sites, tests, and cached results keep working.
    """

    def __init__(self, time: float, kind: str, replica: str = "",
                 detail: str = "", *, subject: Optional[str] = None) -> None:
        TelemetryEvent.__init__(
            self, time=time, kind=kind,
            subject=replica if subject is None else subject,
            detail=detail,
        )

    @property
    def replica(self) -> str:
        """The replica the event concerns (alias of ``subject``)."""
        return self.subject

    def __setstate__(self, state):
        # Pickles from before the telemetry layer stored the subject
        # under the old field name.
        if isinstance(state, dict) and "replica" in state:
            state = dict(state)
            state.setdefault("subject", state.pop("replica"))
        self.__dict__.update(state)


@dataclass(frozen=True)
class OpsSummary:
    """Availability arithmetic of one operations run."""

    #: Replicas crashed / replacements that completed (back in rotation).
    crashes: int
    replacements: int
    #: Mean and worst crash-to-back-in-rotation repair time (seconds);
    #: ``None`` when no replacement completed.
    mttr: Optional[float]
    worst_mttr: Optional[float]
    #: Total time some replica was crashed and its replacement was not
    #: yet serving (overlapping windows merged).
    unavailability: float
    #: Committed throughput shortfall during the repair windows, against
    #: the pre-fault baseline (transactions, >= 0).
    lost_throughput: float
    #: Mean committed throughput before the first crash and after the
    #: last repair (tps); recovery_ratio is their quotient.
    baseline_throughput: float
    recovered_throughput: float
    #: Rolling-restart cycles completed.
    upgrades: int
    #: MTTR breakdown: mean crash-to-detect and detect-to-restored times
    #: (seconds; ``None`` without completed repairs).  Detection latency
    #: is bounded by the monitor's detect interval, repair latency by
    #: state-transfer time — the split the ``detect_interval`` knob of
    #: :class:`~repro.ops.plan.OpsPlan` exists to expose.
    mean_detection_latency: Optional[float] = None
    mean_repair_latency: Optional[float] = None
    #: Gray failures: brownout faults injected, how many the capacity
    #: estimator caught, and the mean brownout-onset-to-gray-detect
    #: latency (seconds; ``None`` when nothing was caught).  Defaults
    #: keep summaries from older cached runs loading unchanged.
    gray_failures: int = 0
    gray_detected: int = 0
    mean_gray_detection_latency: Optional[float] = None

    @property
    def recovery_ratio(self) -> float:
        """Post-repair throughput as a fraction of the pre-fault baseline."""
        if self.baseline_throughput <= 0:
            return 1.0
        return self.recovered_throughput / self.baseline_throughput

    def to_text(self) -> str:
        """Render the operator-facing summary."""
        lines = [
            f"ops summary: {self.crashes} crash(es), "
            f"{self.replacements} replacement(s), {self.upgrades} "
            f"rolling upgrade(s)"
        ]
        if self.mttr is not None:
            lines.append(
                f"  MTTR {self.mttr:.1f}s (worst {self.worst_mttr:.1f}s), "
                f"degraded for {self.unavailability:.1f}s"
            )
        if (self.mean_detection_latency is not None
                and self.mean_repair_latency is not None):
            lines.append(
                f"  breakdown: {self.mean_detection_latency:.1f}s "
                f"detection + {self.mean_repair_latency:.1f}s repair"
            )
        if self.crashes:
            lines.append(
                f"  lost ~{self.lost_throughput:.0f} committed txns during "
                f"repair; throughput recovered to "
                f"{self.recovery_ratio:.0%} of the pre-fault "
                f"{self.baseline_throughput:.1f} tps"
            )
        if self.gray_failures:
            if self.mean_gray_detection_latency is not None:
                latency = (
                    f"mean detection latency "
                    f"{self.mean_gray_detection_latency:.1f}s"
                )
            else:
                latency = "UNDETECTED"
            lines.append(
                f"  gray failures: {self.gray_detected}/"
                f"{self.gray_failures} brownout(s) caught by the "
                f"capacity estimator, {latency}"
            )
        return "\n".join(lines)


def _merged_windows(
    pairs: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Merge overlapping (start, end) repair windows."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(pairs):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def summarize(result) -> OpsSummary:
    """Fold an :class:`~repro.control.autoscale.AutoscaleResult`'s event
    log and timeline into an :class:`OpsSummary`.

    Crash-to-repair pairs are matched by replica name: a ``restored``
    event's detail names the member it replaced.  A crash whose
    replacement never completed contributes an open window ending at the
    last timeline point.
    """
    events = list(getattr(result, "ops_events", ()) or ())
    timeline = list(getattr(result, "timeline", ()) or ())
    horizon = timeline[-1].time if timeline else (
        events[-1].time if events else 0.0
    )

    crash_at: Dict[str, float] = {}
    detect_at: Dict[str, float] = {}
    repairs: List[Tuple[float, float]] = []
    detection_legs: List[float] = []
    repair_legs: List[float] = []
    brownouts: List[Tuple[str, float]] = []
    gray_detects: Dict[str, List[float]] = {}
    upgrades = 0
    for event in events:
        if event.kind == CRASH:
            crash_at.setdefault(event.replica, event.time)
        elif event.kind == BROWNOUT:
            brownouts.append((event.replica, event.time))
        elif event.kind == GRAY_DETECT:
            gray_detects.setdefault(event.replica, []).append(event.time)
        elif event.kind == DETECT:
            detect_at.setdefault(event.replica, event.time)
        elif event.kind == RESTORED and event.detail.startswith("replaces "):
            name = event.detail[len("replaces "):]
            if name in crash_at:
                crashed = crash_at.pop(name)
                repairs.append((crashed, event.time))
                detected = detect_at.pop(name, None)
                if detected is not None:
                    detection_legs.append(detected - crashed)
                    repair_legs.append(event.time - detected)
        elif event.kind == UPGRADED:
            upgrades += 1
    # Pair each brownout onset with the first gray-detect on the same
    # replica at or after it (each detection credits one brownout).
    gray_latencies: List[float] = []
    for name, onset in sorted(brownouts, key=lambda pair: pair[1]):
        times = gray_detects.get(name, [])
        match = next((t for t in times if t >= onset), None)
        if match is not None:
            times.remove(match)
            gray_latencies.append(match - onset)
    crashes = len(repairs) + len(crash_at)
    open_windows = [(t, max(t, horizon)) for t in crash_at.values()]

    durations = [end - start for start, end in repairs]
    mttr = sum(durations) / len(durations) if durations else None
    worst = max(durations) if durations else None
    windows = _merged_windows(repairs + open_windows)
    unavailability = sum(end - start for start, end in windows)

    first_crash = min(
        (start for start, _ in repairs + open_windows), default=None
    )
    last_repair = max((end for _, end in repairs), default=None)
    before = [
        p for p in timeline
        if first_crash is None or p.time <= first_crash
    ]
    after = [
        p for p in timeline
        if last_repair is not None and p.time > last_repair
    ]
    baseline = (
        sum(p.throughput for p in before) / len(before) if before else 0.0
    )
    recovered = (
        sum(p.throughput for p in after) / len(after) if after else baseline
    )

    lost = 0.0
    for point in timeline:
        for start, end in windows:
            if start < point.time <= end + result.control_interval:
                lost += max(0.0, baseline - point.throughput) * (
                    result.control_interval
                )
                break

    return OpsSummary(
        crashes=crashes,
        replacements=len(repairs),
        mttr=mttr,
        worst_mttr=worst,
        unavailability=unavailability,
        lost_throughput=lost,
        baseline_throughput=baseline,
        recovered_throughput=recovered,
        upgrades=upgrades,
        mean_detection_latency=(
            sum(detection_legs) / len(detection_legs)
            if detection_legs else None
        ),
        mean_repair_latency=(
            sum(repair_legs) / len(repair_legs) if repair_legs else None
        ),
        gray_failures=len(brownouts),
        gray_detected=len(gray_latencies),
        mean_gray_detection_latency=(
            sum(gray_latencies) / len(gray_latencies)
            if gray_latencies else None
        ),
    )
