"""Online capacity estimation, model-drift monitoring, and gray-failure
detection for the control plane.

Three cooperating pieces, all fed from counters the executable pillars
already maintain (busy time, completions, and the unscaled ``work_done``
integral both resource implementations accumulate):

* :class:`FleetCapacityEstimator` — per replica, the delta ratio
  ``work_done / busy_time`` over a control interval *is* the effective
  rate multiplier the machine currently delivers, independent of the
  transaction mix.  An EWMA (seeded with the declared capacity) smooths
  it into a live :class:`~repro.telemetry.perf.EffectiveCapacity`, and a
  hysteresis band turns ratio crossings into gray-detect/gray-clear
  events.
* :class:`ModelDriftMonitor` — at every control tick, compares observed
  throughput against ``min(offered, predicted capacity at the current
  member count)`` from the analytic model and declares drift after
  enough consecutive ticks outside the crossval envelope.
* :class:`PerfMonitor` — the harness-facing glue: observes the fleet
  each tick, optionally *applies* estimates (``capacity_source
  estimated``: LB weights follow the estimates and the controller's
  target is inflated by the fleet health factor, so a brownout triggers
  compensating scale-up), stamps telemetry gauges and ops events, and
  freezes everything into a :class:`~repro.telemetry.perf.PerfReport`.

Observation is pure: when the source is ``declared`` the monitor only
reads counters and writes to its own buffers (and telemetry gauges), so
DES results stay bit-identical with the estimator on or off.
"""

from __future__ import annotations

import math
from difflib import get_close_matches
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..telemetry.perf import (
    CapacitySnapshot,
    ComponentSignal,
    DriftPoint,
    EffectiveCapacity,
    Ewma,
    GrayEvent,
    PerfReport,
    WindowedQuantile,
)

#: Where the load balancer and controller take capacities from.
DECLARED = "declared"
ESTIMATED = "estimated"
CAPACITY_SOURCES = (DECLARED, ESTIMATED)

#: Estimated/declared ratio below which a replica is declared degraded,
#: and the (higher) ratio at which it is declared recovered — the gap is
#: the hysteresis band that stops a noisy estimate from flapping.
DETECT_RATIO = 0.8
CLEAR_RATIO = 0.9

#: The crossval envelope: relative model residuals beyond this are
#: breaches (matches the |error| < 15% the offline crossval tolerates).
DRIFT_ENVELOPE = 0.15
#: Consecutive breaching ticks before the loud drift verdict.
DRIFT_PATIENCE = 2


def resolve_capacity_source(source) -> Optional[str]:
    """Normalise a capacity-source argument to ``None`` or ``ESTIMATED``.

    ``None`` and ``"declared"`` both mean the pre-estimator behaviour and
    normalise to ``None``, so scenario options — and therefore cache
    keys — are byte-identical to omitting the switch entirely.
    """
    if source is None or source == DECLARED:
        return None
    if source == ESTIMATED:
        return ESTIMATED
    hint = get_close_matches(str(source), CAPACITY_SOURCES, n=1)
    suffix = f"; did you mean {hint[0]}?" if hint else ""
    raise ConfigurationError(
        f"unknown capacity source {source!r}; one of "
        f"{'|'.join(CAPACITY_SOURCES)}{suffix}"
    )


def _resource_counters(resource) -> Tuple[float, float, int]:
    """(busy_time, work_done, completions) for either pillar's resource."""
    busy = resource.busy_time_now()
    stats = getattr(resource, "stats", None)
    if stats is not None:
        return busy, stats.work_done, stats.completions
    return busy, resource.work_done, resource.completions


class _ReplicaTracker:
    """Windowed counter deltas and the capacity EWMA for one replica."""

    def __init__(self, name: str, declared: float,
                 half_life: float) -> None:
        self.name = name
        self.declared = declared
        self.rate = Ewma(half_life, initial=declared)
        self.service_times = WindowedQuantile(64)
        self.utilization: Dict[str, Ewma] = {}
        self.last_utilization = 0.0
        self.degraded = False
        self._totals: Dict[str, Tuple[float, float, int]] = {}
        self._last_time: Optional[float] = None

    def observe(self, now: float, replica) -> EffectiveCapacity:
        elapsed = (now - self._last_time
                   if self._last_time is not None else 0.0)
        self._last_time = now
        d_busy = d_work = 0.0
        d_completions = 0
        bottleneck = 0.0
        for resource in (replica.cpu, replica.disk):
            busy, work, completions = _resource_counters(resource)
            prev = self._totals.get(resource.name, (busy, work, completions))
            self._totals[resource.name] = (busy, work, completions)
            d_busy += busy - prev[0]
            d_work += work - prev[1]
            d_completions += completions - prev[2]
            if elapsed > 0.0:
                utilization = max(0.0, (busy - prev[0]) / elapsed)
                ewma = self.utilization.get(resource.name)
                if ewma is None:
                    ewma = self.utilization[resource.name] = Ewma(
                        self.rate.half_life, initial=utilization
                    )
                else:
                    ewma.update(utilization, dt=elapsed)
                bottleneck = max(bottleneck, utilization)
        self.last_utilization = bottleneck
        if elapsed > 0.0:
            # Hold the last estimate through idle windows: a replica that
            # served almost nothing provides no rate evidence.
            if d_busy > 0.01 * elapsed and d_work > 0.0:
                self.rate.update(d_work / d_busy, dt=elapsed)
            if d_completions > 0:
                self.service_times.observe(d_work / d_completions)
        return EffectiveCapacity(
            time=now,
            replica=self.name,
            declared=self.declared,
            estimated=self.rate.value,
            utilization=bottleneck,
        )


class FleetCapacityEstimator:
    """Live per-replica effective-capacity estimates for a whole fleet.

    Call :meth:`observe_fleet` once per control tick; trackers are
    created on first sight of a replica (capturing its *declared*
    capacity before anything mutates it) and survive membership churn
    by name.
    """

    def __init__(self, interval: float, half_life: Optional[float] = None,
                 detect_ratio: float = DETECT_RATIO,
                 clear_ratio: float = CLEAR_RATIO) -> None:
        if interval <= 0.0:
            raise ConfigurationError(
                "estimator interval must be positive"
            )
        if not 0.0 < detect_ratio <= clear_ratio:
            raise ConfigurationError(
                "detect ratio must be in (0, clear_ratio]"
            )
        self.half_life = half_life if half_life is not None else interval
        self.detect_ratio = detect_ratio
        self.clear_ratio = clear_ratio
        self._trackers: Dict[str, _ReplicaTracker] = {}
        self.snapshots: List[CapacitySnapshot] = []
        self.events: List[GrayEvent] = []

    def observe_fleet(
        self, now: float, replicas
    ) -> Tuple[CapacitySnapshot, Tuple[GrayEvent, ...]]:
        """Sample every live replica; returns the snapshot and any
        detection transitions this tick produced."""
        capacities = []
        fresh: List[GrayEvent] = []
        for replica in replicas:
            if getattr(replica, "failed", False):
                continue
            tracker = self._trackers.get(replica.name)
            if tracker is None:
                tracker = self._trackers[replica.name] = _ReplicaTracker(
                    replica.name,
                    float(getattr(replica, "capacity", 1.0)),
                    self.half_life,
                )
            capacity = tracker.observe(now, replica)
            capacities.append(capacity)
            if not tracker.degraded and capacity.ratio < self.detect_ratio:
                tracker.degraded = True
                fresh.append(GrayEvent(
                    now, tracker.name, capacity.ratio, "gray-detect"
                ))
            elif tracker.degraded and capacity.ratio >= self.clear_ratio:
                tracker.degraded = False
                fresh.append(GrayEvent(
                    now, tracker.name, capacity.ratio, "gray-clear"
                ))
        snapshot = CapacitySnapshot(time=now, capacities=tuple(capacities))
        self.snapshots.append(snapshot)
        self.events.extend(fresh)
        return snapshot, tuple(fresh)

    def estimate_for(self, name: str) -> Optional[float]:
        """The current smoothed capacity estimate for one replica."""
        tracker = self._trackers.get(name)
        return None if tracker is None else tracker.rate.value

    def any_degraded(self) -> bool:
        """Is some replica currently inside the gray-detect band?"""
        return any(t.degraded for t in self._trackers.values())

    def health(self) -> float:
        """Fleet health factor: estimated over declared capacity of the
        latest snapshot, clamped to (0, 1] (a fleet can be degraded, it
        is never credited beyond what was declared)."""
        if not self.snapshots:
            return 1.0
        latest = self.snapshots[-1].capacities
        declared = sum(cap.declared for cap in latest)
        estimated = sum(cap.estimated for cap in latest)
        if declared <= 0.0 or estimated <= 0.0:
            return 1.0
        return max(1e-3, min(1.0, estimated / declared))

    def attribution(self, top: int = 3) -> Tuple[ComponentSignal, ...]:
        """Rank resources by smoothed utilization: the run's slowest
        components, annotated with the owner's p95 service demand."""
        signals: List[ComponentSignal] = []
        for tracker in self._trackers.values():
            p95 = tracker.service_times.quantile(0.95)
            for resource_name, ewma in tracker.utilization.items():
                signals.append(ComponentSignal(
                    component=resource_name,
                    score=ewma.value or 0.0,
                    detail=(
                        f"capacity {tracker.rate.value:.2f}/"
                        f"{tracker.declared:.2f}, p95 demand "
                        f"{p95 * 1000:.1f} ms"
                    ),
                ))
        signals.sort(key=lambda s: s.score, reverse=True)
        return tuple(signals[:top])


class ModelDriftMonitor:
    """Compare the analytic model against observed behaviour, live.

    The offline crossval already bounds the model's error on clean runs;
    this monitor re-evaluates the same comparison at every control tick,
    so a deployment learns *while running* when reality leaves the
    envelope (a gray failure, an unmodelled bottleneck, a stale
    profile).  Predictions are kept per member count — a tick costs one
    dict lookup once the fleet has been seen at that size.
    """

    def __init__(self, design: str, profile, config,
                 envelope: float = DRIFT_ENVELOPE,
                 patience: int = DRIFT_PATIENCE) -> None:
        from ..models.planning import ReplicaScan

        self._predictions = ReplicaScan(design, profile, config)
        self.envelope = envelope
        self.patience = patience
        self._streak = 0
        self.points: List[DriftPoint] = []

    def observe(self, now: float, members: int, offered_rate: float,
                throughput: float, p95: float) -> Optional[DriftPoint]:
        """Score one control tick; returns the drift point (None when
        the tick carries no signal — an empty fleet or no offered load).
        """
        if members <= 0:
            return None
        prediction = self._predictions.at(members)
        predicted = min(offered_rate, prediction.throughput)
        if predicted <= 1e-9:
            return None
        residual = (throughput - predicted) / predicted
        breach = abs(residual) > self.envelope
        self._streak = self._streak + 1 if breach else 0
        point = DriftPoint(
            time=now,
            members=members,
            offered_rate=offered_rate,
            predicted_throughput=predicted,
            observed_throughput=throughput,
            residual=residual,
            predicted_p95=3.0 * prediction.response_time,
            observed_p95=p95,
            breach=breach,
            verdict=self._streak >= self.patience,
        )
        self.points.append(point)
        return point


class PerfMonitor:
    """Harness glue: one object the control loop ticks every interval.

    *apply* selects the capacity source: ``False`` is pure observation
    (capacity estimates and drift points are recorded but change
    nothing); ``True`` makes the capacity-weighted LB read the estimates
    (``replica.capacity`` is updated in place — both pillars route on
    that attribute) and :meth:`adjust_target` inflate the controller's
    replica target by the inverse fleet-health factor, which is what
    recovers throughput under a brownout.
    """

    def __init__(self, *, interval: float, pillar: str,
                 apply: bool = False,
                 drift: Optional[ModelDriftMonitor] = None,
                 telemetry=None,
                 event_sink: Optional[Callable[[float, str, str],
                                               None]] = None) -> None:
        self.estimator = FleetCapacityEstimator(interval)
        self.drift = drift
        self.apply = apply
        self.telemetry = telemetry
        self.event_sink = event_sink
        self.pillar = pillar
        #: Detection latency evidence: (onset-relative) detections are
        #: derived from the report; the raw events live on the estimator.

    def on_tick(self, now: float, replicas, *, members: int,
                offered_rate: float, throughput: float,
                p95: float) -> None:
        """Observe the fleet and (in apply mode) push estimates out."""
        snapshot, fresh = self.estimator.observe_fleet(now, replicas)
        if self.telemetry is not None:
            for capacity in snapshot.capacities:
                self.telemetry.observe_capacity(
                    capacity.replica, capacity.ratio
                )
            for event in fresh:
                if event.kind == "gray-detect":
                    self.telemetry.count_gray_detection(event.replica)
        if self.event_sink is not None:
            for event in fresh:
                self.event_sink(event.time, event.kind, event.replica)
        if self.apply:
            for replica in replicas:
                if getattr(replica, "failed", False):
                    continue
                estimated = self.estimator.estimate_for(replica.name)
                if estimated is not None and estimated > 0.0:
                    # Both routers read `capacity` at dispatch time; the
                    # configured rate multipliers are untouched.
                    replica.capacity = estimated
        if self.drift is not None:
            point = self.drift.observe(
                now, members, offered_rate, throughput, p95
            )
            if point is not None and self.telemetry is not None:
                self.telemetry.observe_model_residual(point.residual)
                if point.verdict:
                    self.telemetry.count_drift_verdict()

    def adjust_target(self, target: int) -> int:
        """Inflate the controller's target by the fleet health factor.

        A fleet at health ``h`` delivers ``h`` times its declared
        capacity, so meeting the controller's sizing takes
        ``ceil(target / h)`` attached replicas.  The adjustment is
        gated on an actual gray detection: ordinary measurement noise
        (the live pillar's timers systematically overshoot a few
        percent) must not inflate a healthy fleet.  Declared mode
        returns the target unchanged (the estimator stays an observer).
        """
        if not self.apply or not self.estimator.any_degraded():
            return target
        health = self.estimator.health()
        if health >= 0.999:
            return target
        return int(math.ceil(target / health))

    def report(self) -> PerfReport:
        """Freeze everything observed into the run's perf report."""
        return PerfReport(
            pillar=self.pillar,
            source=ESTIMATED if self.apply else DECLARED,
            snapshots=tuple(self.estimator.snapshots),
            drift=tuple(self.drift.points) if self.drift else (),
            detections=tuple(self.estimator.events),
            attribution=self.estimator.attribution(),
        )
