"""Registered operations scenarios: availability under churn.

Three scenario families, each with a deterministic simulator cell and a
live-cluster validation cell:

* ``selfheal-crashstorm`` — two staggered replica crashes under steady
  load; the health monitor force-detaches each casualty and rejoins a
  replacement via state transfer.  The artifact carries MTTR, the
  unavailability window, and the lost throughput per design.
* ``rolling-upgrade`` — a rolling restart sweeps the whole fleet (drain →
  detach → rejoin) mid-run while the SLO accounting keeps scoring; the
  fleet is never more than one replica short.
* ``hetero-fleet`` — a mixed-capacity fleet served by the plain
  least-loaded policy vs the capacity-weighted one, plus the model's
  :func:`~repro.models.planning.plan_mixed_fleet` sizing of the same
  inventory.

All cells are ordinary engine sweep points: simulator cells are cached
and fan out over ``--jobs``; live cells re-execute (they measure real
wall-clock behaviour).  The CLI front end is ``repro ops``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..control.autoscale import AutoscaleResult
from ..control.controller import FeedforwardPolicy, FixedPolicy
from ..control.estimator import ESTIMATED
from ..control.scenarios import (
    LIVE_PEAK_REPLICAS,
    LIVE_SPEC,
    SLO_RESPONSE,
    _design_capacity,
    _live_design_capacity,
)
from ..control.trace import DiurnalTrace
from ..engine import CLUSTER, Scenario, register_scenario
from ..engine.scenario import (
    autoscale_point,
    cluster_point,
    profile_point,
    profile_task,
    sim_point,
)
from ..simulator.faults import brownout_fault, crash_fault
from ..simulator.runner import MULTI_MASTER, SINGLE_MASTER
from ..simulator.systems import CAPACITY_WEIGHTED, LEAST_LOADED, RANDOM
from ..workloads import tpcw
from .events import OpsSummary, summarize
from .plan import OpsPlan

#: Fleet size the self-heal and rolling scenarios pin (FixedPolicy).
FLEET = 4
#: Offered load as a fraction of the model-predicted fleet capacity.
SELFHEAL_LOAD = 0.50
ROLLING_LOAD = 0.45
#: Capacity inventory of the heterogeneous-fleet scenarios, and the
#: open-loop offered load as a fraction of the fleet's predicted
#: capacity.  Open-loop matters: a closed loop's think-time feedback lets
#: even capacity-oblivious policies self-correct, hiding the difference.
HETERO_CAPACITIES = (2.0, 1.0, 1.0, 0.5)
HETERO_LOAD = 0.75

#: Gray-failure scenarios: the brownout runs every resource on the
#: afflicted replica at this fraction of its declared rate.
BROWNOUT_SEVERITY = 0.5
BROWNOUT_LOAD = 0.50
#: Capacity-estimation recovery scenario: a two-replica anchor fleet is
#: offered 95% of its predicted capacity with almost no feedforward
#: head-room, so silently losing half a replica saturates the
#: declared-capacity arm while the estimated arm detects the shortfall
#: and scales out around it.
CAPEST_FLEET = 2
CAPEST_LOAD = 0.95
CAPEST_HEADROOM = 0.05
#: Brownout onset and span as fractions of the run horizon, and the
#: recovery window (post-onset settle to end, fractions of the horizon)
#: over which the two arms' throughput is compared.
BROWNOUT_START = 0.35
BROWNOUT_SPAN = 0.55
RECOVERY_SETTLE = 0.15
RECOVERY_END = 0.90

#: Live-cell dimensions (the live workload is millisecond-scale).
LIVE_FLEET = 3
LIVE_TIME_SCALE = 0.25
LIVE_WARMUP = 2.0
LIVE_DURATION = 24.0
LIVE_CONTROL_INTERVAL = 1.0
LIVE_HETERO_CAPACITIES = (1.5, 1.0, 0.5)
#: Live capacity-estimation cell: offered load as a multiple of the
#: model-predicted two-replica capacity.  The analytic model is
#: deliberately conservative about the millisecond-scale live pillar
#: (thread scheduling overlaps it cannot see), so saturating the live
#: anchor fleet takes ~1.5x its predicted capacity — calibrated so the
#: declared arm is genuinely capacity-bound during the brownout.
LIVE_CAPEST_LOAD = 1.5


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OpsRunReport:
    """One ops run plus its availability summary."""

    result: AutoscaleResult
    summary: OpsSummary

    @property
    def converged(self) -> bool:
        """Replication correctness of the underlying run."""
        return self.result.converged


@dataclass(frozen=True)
class OpsComparison:
    """The artifact of a self-heal / rolling-upgrade scenario."""

    name: str
    workload: str
    pillar: str
    results: Tuple[OpsRunReport, ...]

    def report_for(self, design: str) -> Optional[OpsRunReport]:
        """Look up one design's run."""
        for report in self.results:
            if report.result.design == design:
                return report
        return None

    def to_text(self) -> str:
        """Render per-design run lines and availability summaries."""
        lines = [f"{self.name} — {self.workload}, {self.pillar} pillar"]
        for report in self.results:
            lines.append("  " + report.result.to_text())
            for line in report.summary.to_text().splitlines():
                lines.append("  " + line)
        return "\n".join(lines)


@dataclass(frozen=True)
class HeteroFleetComparison:
    """The artifact of a heterogeneous-fleet scenario."""

    workload: str
    pillar: str
    capacities: Tuple[float, ...]
    #: (lb policy, result) per cell; results are SimulationResult or
    #: ClusterResult (field-compatible where it matters here).
    cells: Tuple[Tuple[str, object], ...]
    #: Model sizing of the same inventory (``None`` when unavailable).
    plan_text: str = ""

    @property
    def results(self) -> Tuple[object, ...]:
        """The raw per-policy results (for convergence screening)."""
        return tuple(result for _, result in self.cells)

    def cell(self, policy: str) -> Optional[object]:
        """Result of one load-balancing policy."""
        for name, result in self.cells:
            if name == policy:
                return result
        return None

    def to_text(self) -> str:
        """Render the policy comparison table."""
        fleet = " + ".join(f"{c:g}x" for c in self.capacities)
        lines = [
            f"heterogeneous fleet [{fleet}] — {self.workload}, "
            f"{self.pillar} pillar",
            f"  {'lb policy':<18s} {'throughput':>11s} {'response':>9s} "
            f"{'aborts':>7s}",
        ]
        for name, result in self.cells:
            lines.append(
                f"  {name:<18s} {result.throughput:>7.1f} tps "
                f"{result.response_time * 1000:>6.0f} ms "
                f"{result.abort_rate:>6.2%}"
            )
        if self.plan_text:
            lines.append(f"  model sizing: {self.plan_text}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CapacityRecoveryComparison:
    """The artifact of a capacity-estimation scenario: the same brownout
    run twice, once routing/scaling on declared capacities and once on
    the online estimator's live values."""

    name: str
    workload: str
    pillar: str
    #: Brownout rate multiplier and onset time (virtual seconds).
    severity: float
    onset: float
    #: Recovery window (start, end) the arms are compared over.
    window: Tuple[float, float]
    declared: OpsRunReport
    estimated: OpsRunReport

    @property
    def results(self) -> Tuple[AutoscaleResult, ...]:
        """The raw per-arm results (for convergence screening)."""
        return (self.declared.result, self.estimated.result)

    def _window_throughput(self, report: OpsRunReport) -> float:
        lo, hi = self.window
        points = [p for p in report.result.timeline if lo <= p.time <= hi]
        if not points:
            return 0.0
        return sum(p.throughput for p in points) / len(points)

    @property
    def declared_throughput(self) -> float:
        """Mean committed throughput of the declared arm in the window."""
        return self._window_throughput(self.declared)

    @property
    def estimated_throughput(self) -> float:
        """Mean committed throughput of the estimated arm in the window."""
        return self._window_throughput(self.estimated)

    @property
    def recovery(self) -> float:
        """Relative throughput gained by estimating capacities."""
        base = self.declared_throughput
        if base <= 0:
            return 0.0
        return (self.estimated_throughput - base) / base

    @property
    def detection_latency(self) -> Optional[float]:
        """Brownout onset to the estimator's gray-detect (seconds)."""
        perf = self.estimated.result.perf
        if perf is None:
            return None
        return perf.detection_latency(self.onset)

    @property
    def drift_verdict(self) -> bool:
        """Did the estimated arm's drift monitor flag the model?"""
        perf = self.estimated.result.perf
        return bool(perf is not None and perf.drift_verdict)

    def to_text(self) -> str:
        """Render the two-arm recovery comparison."""
        lo, hi = self.window
        lines = [
            f"{self.name} — {self.workload}, {self.pillar} pillar",
            f"  {self.severity:g}x brownout at t={self.onset:.0f}s; "
            f"recovery window [{lo:.0f}s, {hi:.0f}s]",
            f"  declared  capacities: {self.declared_throughput:7.1f} tps",
            f"  estimated capacities: {self.estimated_throughput:7.1f} tps "
            f"({self.recovery:+.1%} recovery)",
        ]
        if self.detection_latency is not None:
            lines.append(
                f"  gray failure detected {self.detection_latency:.1f}s "
                f"after onset"
            )
        else:
            lines.append("  gray failure UNDETECTED")
        lines.append(
            "  model drift: "
            + ("DRIFT (prediction off-envelope)" if self.drift_verdict
               else "on-model")
        )
        for label, report in (("declared", self.declared),
                              ("estimated", self.estimated)):
            lines.append(f"  [{label}] " + report.result.to_text())
            for line in report.summary.to_text().splitlines():
                lines.append("    " + line)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Simulator cells
# ----------------------------------------------------------------------

def _steady_trace(rate: float, duration: float) -> DiurnalTrace:
    """A constant-rate trace (a diurnal curve with zero swing)."""
    return DiurnalTrace(base_rate=rate, peak_rate=rate, period=duration)


def _ops_sim_points(settings, spec, load_fraction: float, plan_for,
                    capacity_source: Optional[str] = None,
                    with_profile: bool = False) -> List:
    points = []
    duration = settings.autoscale_duration
    task = profile_task(spec, settings) if with_profile else None
    for design in (MULTI_MASTER, SINGLE_MASTER):
        capacity = _design_capacity(design, spec, settings)
        trace = _steady_trace(load_fraction * capacity, duration)
        points.append(autoscale_point(
            spec,
            spec.replication_config(
                1,
                load_balancer_delay=settings.load_balancer_delay,
                certifier_delay=settings.certifier_delay,
            ),
            design,
            seed=settings.seed,
            trace=trace,
            policy=FixedPolicy(replicas=FLEET),
            slo_response=SLO_RESPONSE,
            warmup=settings.autoscale_warmup,
            duration=duration,
            control_interval=settings.autoscale_control_interval,
            max_replicas=2 * FLEET,
            ops=plan_for(settings),
            telemetry=settings.telemetry,
            capacity_source=(
                capacity_source if capacity_source is not None
                else settings.capacity_source
            ),
            profile=task,
            tag=design,
        ))
    return points


def _selfheal_plan(settings) -> OpsPlan:
    # Two staggered crashes (replica indices 1 and 2 are valid for both
    # designs: index 0 is the single-master master), each detected and
    # replaced before the next lands.
    horizon = settings.autoscale_warmup + settings.autoscale_duration
    return OpsPlan(
        faults=(
            crash_fault(1, 0.30 * horizon),
            crash_fault(2, 0.60 * horizon),
        ),
        self_heal=True,
        transfer_writesets=16,
    )


def _rolling_plan(settings) -> OpsPlan:
    horizon = settings.autoscale_warmup + settings.autoscale_duration
    return OpsPlan(
        rolling_start=0.25 * horizon,
        rolling_settle=settings.autoscale_control_interval,
        transfer_writesets=16,
    )


def _assemble_ops(name, spec, pillar, results) -> OpsComparison:
    reports = tuple(
        OpsRunReport(result=result, summary=summarize(result))
        for result in results
    )
    return OpsComparison(
        name=name, workload=spec.name, pillar=pillar, results=reports
    )


def _register_ops_sim(name: str, title: str, load_fraction: float,
                      plan_for, aliases=(),
                      metrics=("mttr", "unavailability",
                               "slo_violation_fraction"),
                      capacity_source: Optional[str] = None,
                      with_profile: bool = False) -> Scenario:
    spec = tpcw.SHOPPING

    return register_scenario(Scenario(
        name=name,
        title=title,
        kind="ops",
        metrics=metrics,
        points=lambda settings: _ops_sim_points(
            settings, spec, load_fraction, plan_for,
            capacity_source=capacity_source, with_profile=with_profile,
        ),
        assemble=lambda settings, pts, results: _assemble_ops(
            name, spec, "simulator", results
        ),
        aliases=aliases,
    ))


SELFHEAL = _register_ops_sim(
    "selfheal-crashstorm",
    "Self-healing: crash storm with automatic replica replacement",
    SELFHEAL_LOAD,
    _selfheal_plan,
    aliases=("selfheal",),
)

ROLLING = _register_ops_sim(
    "rolling-upgrade",
    "Rolling upgrade: cycle every replica through drain/rejoin under load",
    ROLLING_LOAD,
    _rolling_plan,
    aliases=("rolling",),
)


def _brownout_plan(settings) -> OpsPlan:
    # One replica silently degrades to half speed mid-run and recovers
    # before the end; nothing crashes, so membership never changes and
    # only the capacity estimator can notice.
    horizon = settings.autoscale_warmup + settings.autoscale_duration
    return OpsPlan(faults=(brownout_fault(
        1, 0.30 * horizon, BROWNOUT_SPAN * horizon,
        severity=BROWNOUT_SEVERITY,
    ),))


BROWNOUT_DETECTION = _register_ops_sim(
    "brownout-detection",
    "Gray failure: a silent brownout caught by the capacity estimator",
    BROWNOUT_LOAD,
    _brownout_plan,
    aliases=("brownout",),
    metrics=("gray_detected", "mean_gray_detection_latency",
             "slo_violation_fraction"),
    capacity_source=ESTIMATED,
    with_profile=True,
)


def _capest_policy(settings) -> FeedforwardPolicy:
    return FeedforwardPolicy(
        horizon=2.0 * settings.autoscale_control_interval,
        headroom=CAPEST_HEADROOM,
    )


def _capest_plan(warmup: float, duration: float) -> OpsPlan:
    horizon = warmup + duration
    return OpsPlan(faults=(brownout_fault(
        1, BROWNOUT_START * horizon, BROWNOUT_SPAN * horizon,
        severity=BROWNOUT_SEVERITY,
    ),))


def _capest_sim_points(settings) -> List:
    spec = tpcw.SHOPPING
    task = profile_task(spec, settings)
    warmup = settings.autoscale_warmup
    duration = settings.autoscale_duration
    capacity = CAPEST_FLEET * _design_capacity(
        MULTI_MASTER, spec, settings
    ) / settings.autoscale_peak_replicas
    trace = _steady_trace(CAPEST_LOAD * capacity, duration)
    plan = _capest_plan(warmup, duration)
    points = []
    for source in (None, ESTIMATED):
        points.append(autoscale_point(
            spec,
            spec.replication_config(
                1,
                load_balancer_delay=settings.load_balancer_delay,
                certifier_delay=settings.certifier_delay,
            ),
            MULTI_MASTER,
            seed=settings.seed,
            trace=trace,
            policy=_capest_policy(settings),
            slo_response=SLO_RESPONSE,
            warmup=warmup,
            duration=duration,
            control_interval=settings.autoscale_control_interval,
            max_replicas=3 * CAPEST_FLEET,
            ops=plan,
            telemetry=settings.telemetry,
            capacity_source=source,
            profile=task,
            tag="declared" if source is None else "estimated",
        ))
    return points


def _assemble_capest(name, spec, pillar, warmup, duration,
                     results) -> CapacityRecoveryComparison:
    horizon = warmup + duration
    onset = BROWNOUT_START * horizon
    window = (onset + RECOVERY_SETTLE * horizon, RECOVERY_END * horizon)
    declared, estimated = results
    return CapacityRecoveryComparison(
        name=name,
        workload=spec.name,
        pillar=pillar,
        severity=BROWNOUT_SEVERITY,
        onset=onset,
        window=window,
        declared=OpsRunReport(result=declared, summary=summarize(declared)),
        estimated=OpsRunReport(result=estimated,
                               summary=summarize(estimated)),
    )


CAPACITY_ESTIMATION = register_scenario(Scenario(
    name="capacity-estimation",
    title="Online capacity estimation: recover throughput from a brownout",
    kind="ops",
    metrics=("recovery", "detection_latency", "throughput"),
    points=_capest_sim_points,
    assemble=lambda settings, pts, results: _assemble_capest(
        "capacity-estimation", tpcw.SHOPPING, "simulator",
        settings.autoscale_warmup, settings.autoscale_duration, results,
    ),
    aliases=("capest",),
))


def _hetero_rate(settings, capacities: Sequence[float]) -> float:
    """Offered open-loop rate for a mixed fleet: HETERO_LOAD of the
    homogeneous capacity curve evaluated at the summed multipliers."""
    spec = tpcw.SHOPPING
    effective = sum(capacities)
    per_replica = _design_capacity(MULTI_MASTER, spec, settings) / (
        settings.autoscale_peak_replicas
    )
    return HETERO_LOAD * per_replica * effective


def _hetero_points(settings) -> List:
    spec = tpcw.SHOPPING
    points = [profile_point(spec, settings, tag="profile")]
    config = spec.replication_config(
        len(HETERO_CAPACITIES),
        load_balancer_delay=settings.load_balancer_delay,
        certifier_delay=settings.certifier_delay,
    )
    rate = _hetero_rate(settings, HETERO_CAPACITIES)
    # RANDOM is the capacity-oblivious control: without feedback or
    # weighting it saturates the slowest box and collapses.
    for policy in (LEAST_LOADED, CAPACITY_WEIGHTED, RANDOM):
        points.append(sim_point(
            spec,
            config,
            MULTI_MASTER,
            seed=settings.seed,
            warmup=settings.sim_warmup,
            duration=settings.sim_duration,
            lb_policy=policy,
            capacities=HETERO_CAPACITIES,
            arrival_rate=rate,
            telemetry=settings.telemetry,
            tag=policy,
        ))
    return points


def _assemble_hetero(settings, points, results) -> HeteroFleetComparison:
    from ..models.planning import plan_mixed_fleet

    report, cells = results[0], results[1:]
    named = tuple(
        (point.option("lb_policy"), result)
        for point, result in zip(points[1:], cells)
    )
    best = max(cells, key=lambda r: r.throughput)
    plan = plan_mixed_fleet(
        report.profile,
        points[1].config,
        target_throughput=0.9 * best.throughput,
        capacities=HETERO_CAPACITIES,
        design=MULTI_MASTER,
        headroom=0.1,
    )
    return HeteroFleetComparison(
        workload=tpcw.SHOPPING.name,
        pillar="simulator",
        capacities=HETERO_CAPACITIES,
        cells=named,
        plan_text="" if plan is None else plan.to_text(),
    )


HETERO = register_scenario(Scenario(
    name="hetero-fleet",
    title="Heterogeneous-capacity fleet: capacity-weighted vs least-loaded",
    kind="ops",
    metrics=("throughput", "response_time"),
    points=_hetero_points,
    assemble=_assemble_hetero,
    aliases=("hetero",),
))


# ----------------------------------------------------------------------
# Live-cluster cells
# ----------------------------------------------------------------------

def _ops_live_points(settings, load_fraction: float, plan,
                     capacity_source: Optional[str] = None,
                     with_profile: bool = False) -> List:
    capacity = _live_design_capacity(settings)
    trace = _steady_trace(load_fraction * capacity, LIVE_DURATION)
    task = profile_task(LIVE_SPEC, settings) if with_profile else None
    return [autoscale_point(
        LIVE_SPEC,
        LIVE_SPEC.replication_config(
            1, load_balancer_delay=0.0005, certifier_delay=0.002,
        ),
        MULTI_MASTER,
        seed=settings.seed,
        trace=trace,
        policy=FixedPolicy(replicas=LIVE_FLEET),
        slo_response=SLO_RESPONSE,
        warmup=LIVE_WARMUP,
        duration=LIVE_DURATION,
        control_interval=LIVE_CONTROL_INTERVAL,
        pillar=CLUSTER,
        time_scale=LIVE_TIME_SCALE,
        max_replicas=2 * LIVE_FLEET,
        transfer_writesets=8,
        ops=plan,
        telemetry=settings.telemetry,
        capacity_source=(
            capacity_source if capacity_source is not None
            else settings.capacity_source
        ),
        profile=task,
        tag="live",
    )]


_LIVE_SELFHEAL_PLAN = OpsPlan(
    faults=(crash_fault(1, 0.35 * (LIVE_WARMUP + LIVE_DURATION)),),
    self_heal=True,
    transfer_writesets=8,
)

_LIVE_ROLLING_PLAN = OpsPlan(
    rolling_start=0.25 * (LIVE_WARMUP + LIVE_DURATION),
    rolling_settle=LIVE_CONTROL_INTERVAL,
    transfer_writesets=8,
)


SELFHEAL_LIVE = register_scenario(Scenario(
    name="selfheal-crashstorm-live",
    title="Live-cluster self-healing: crash, detect, replace on real threads",
    kind="ops",
    metrics=("mttr", "unavailability", "converged"),
    points=lambda settings: _ops_live_points(
        settings, SELFHEAL_LOAD, _LIVE_SELFHEAL_PLAN
    ),
    assemble=lambda settings, pts, results: _assemble_ops(
        "selfheal-crashstorm-live", LIVE_SPEC, "cluster", results
    ),
    aliases=("selfheal-live",),
    tags=("live",),
))

ROLLING_LIVE = register_scenario(Scenario(
    name="rolling-upgrade-live",
    title="Live-cluster rolling upgrade: drain/rejoin the whole fleet",
    kind="ops",
    metrics=("slo_violation_fraction", "converged"),
    points=lambda settings: _ops_live_points(
        settings, ROLLING_LOAD, _LIVE_ROLLING_PLAN
    ),
    assemble=lambda settings, pts, results: _assemble_ops(
        "rolling-upgrade-live", LIVE_SPEC, "cluster", results
    ),
    aliases=("rolling-live",),
    tags=("live",),
))


def _hetero_live_points(settings) -> List:
    points = []
    config = LIVE_SPEC.replication_config(
        len(LIVE_HETERO_CAPACITIES),
        load_balancer_delay=0.0005, certifier_delay=0.002,
    )
    # Open-loop at HETERO_LOAD of the fleet's predicted capacity, like
    # the simulator cell (the live fleet sums to 3.0 equivalents, the
    # anchor deployment's size).
    rate = HETERO_LOAD * _live_design_capacity(settings) * (
        sum(LIVE_HETERO_CAPACITIES) / 3.0
    )
    for policy in (LEAST_LOADED, CAPACITY_WEIGHTED, RANDOM):
        points.append(cluster_point(
            LIVE_SPEC,
            config,
            MULTI_MASTER,
            seed=settings.seed,
            warmup=LIVE_WARMUP,
            duration=LIVE_DURATION,
            time_scale=LIVE_TIME_SCALE,
            lb_policy=policy,
            capacities=LIVE_HETERO_CAPACITIES,
            arrival_rate=rate,
            telemetry=settings.telemetry,
            tag=policy,
        ))
    return points


def _assemble_hetero_live(settings, points, results) -> HeteroFleetComparison:
    named = tuple(
        (point.option("lb_policy"), result)
        for point, result in zip(points, results)
    )
    return HeteroFleetComparison(
        workload=LIVE_SPEC.name,
        pillar="cluster",
        capacities=LIVE_HETERO_CAPACITIES,
        cells=named,
    )


HETERO_LIVE = register_scenario(Scenario(
    name="hetero-fleet-live",
    title="Live heterogeneous fleet: capacity-weighted vs least-loaded",
    kind="ops",
    metrics=("throughput", "response_time", "converged"),
    points=_hetero_live_points,
    assemble=_assemble_hetero_live,
    aliases=("hetero-live",),
    tags=("live",),
))

_LIVE_HORIZON = LIVE_WARMUP + LIVE_DURATION

_LIVE_BROWNOUT_PLAN = OpsPlan(faults=(brownout_fault(
    1, 0.30 * _LIVE_HORIZON, BROWNOUT_SPAN * _LIVE_HORIZON,
    severity=BROWNOUT_SEVERITY,
),))


BROWNOUT_DETECTION_LIVE = register_scenario(Scenario(
    name="brownout-detection-live",
    title="Live-cluster gray failure: brownout on real threads, caught live",
    kind="ops",
    metrics=("gray_detected", "mean_gray_detection_latency", "converged"),
    points=lambda settings: _ops_live_points(
        settings, BROWNOUT_LOAD, _LIVE_BROWNOUT_PLAN,
        capacity_source=ESTIMATED, with_profile=True,
    ),
    assemble=lambda settings, pts, results: _assemble_ops(
        "brownout-detection-live", LIVE_SPEC, "cluster", results
    ),
    aliases=("brownout-live",),
    tags=("live",),
))


def _capest_live_points(settings) -> List:
    task = profile_task(LIVE_SPEC, settings)
    capacity = CAPEST_FLEET * _live_design_capacity(settings) / (
        LIVE_PEAK_REPLICAS
    )
    trace = _steady_trace(LIVE_CAPEST_LOAD * capacity, LIVE_DURATION)
    plan = _capest_plan(LIVE_WARMUP, LIVE_DURATION)
    # The live cell pins the base fleet: the model's conservative live
    # prediction would make a feedforward target absorb the brownout by
    # over-provisioning both arms.  The estimated arm still scales out —
    # the estimator's fleet-health factor inflates the pinned target.
    policy = FixedPolicy(replicas=CAPEST_FLEET)
    points = []
    for source in (None, ESTIMATED):
        points.append(autoscale_point(
            LIVE_SPEC,
            LIVE_SPEC.replication_config(
                1, load_balancer_delay=0.0005, certifier_delay=0.002,
            ),
            MULTI_MASTER,
            seed=settings.seed,
            trace=trace,
            policy=policy,
            slo_response=SLO_RESPONSE,
            warmup=LIVE_WARMUP,
            duration=LIVE_DURATION,
            control_interval=LIVE_CONTROL_INTERVAL,
            pillar=CLUSTER,
            time_scale=LIVE_TIME_SCALE,
            max_replicas=3 * CAPEST_FLEET,
            transfer_writesets=8,
            ops=plan,
            telemetry=settings.telemetry,
            capacity_source=source,
            profile=task,
            tag="declared" if source is None else "estimated",
        ))
    return points


CAPACITY_ESTIMATION_LIVE = register_scenario(Scenario(
    name="capacity-estimation-live",
    title="Live online capacity estimation: brownout recovery on threads",
    kind="ops",
    metrics=("recovery", "detection_latency", "converged"),
    points=_capest_live_points,
    assemble=lambda settings, pts, results: _assemble_capest(
        "capacity-estimation-live", LIVE_SPEC, "cluster",
        LIVE_WARMUP, LIVE_DURATION, results,
    ),
    aliases=("capest-live",),
    tags=("live",),
))

#: Scenario names grouped for the ``repro ops`` verb.
SIM_SCENARIOS = (
    "selfheal-crashstorm",
    "rolling-upgrade",
    "hetero-fleet",
    "brownout-detection",
    "capacity-estimation",
)
LIVE_SCENARIOS = (
    "selfheal-crashstorm-live",
    "rolling-upgrade-live",
    "hetero-fleet-live",
    "brownout-detection-live",
    "capacity-estimation-live",
)
