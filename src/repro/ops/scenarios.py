"""Registered operations scenarios: availability under churn.

Five scenario families, each declared once over a
:class:`~repro.engine.family.PillarDims` and registered as a
deterministic simulator scenario plus its ``-live`` cluster twin:

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
* ``brownout-detection`` — a silent half-speed replica that only the
  online capacity estimator can notice.
* ``capacity-estimation`` — the same brownout routed and scaled on
  declared vs estimated capacities (the scenario owns that axis).

The self-heal, rolling and brownout scenarios assemble an
:class:`OpsComparison`, ``capacity-estimation`` a
:class:`CapacityRecoveryComparison`; both hold the raw
:class:`~repro.control.autoscale.AutoscaleResult` runs and summarize
them when they render.  ``hetero-fleet`` assembles a
:class:`~repro.engine.family.CellTable`, one row per routing policy,
with the model sizing as its note.

All cells are ordinary engine sweep points: simulator cells are cached
and fan out over ``--jobs``; live cells re-execute (they measure real
wall-clock behaviour).  Run them by name: ``repro run rolling-upgrade
rolling-upgrade-live --timeline``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..control.autoscale import AutoscaleResult
from ..control.controller import FeedforwardPolicy, FixedPolicy
from ..control.estimator import ESTIMATED
from ..control.scenarios import (
    SLO_RESPONSE,
    _design_capacity,
    live_dims,
    sim_dims,
)
from ..control.trace import DiurnalTrace
from ..core.topology import MULTI_MASTER
from ..engine import (
    CLUSTER,
    PROFILE,
    SIMULATOR,
    CellTable,
    PillarDims,
    register_family,
)
from ..engine.scenario import profile_point, profile_task
from ..simulator.faults import brownout_fault, crash_fault
from ..simulator.systems import CAPACITY_WEIGHTED, LEAST_LOADED, RANDOM
from .events import summarize
from .plan import OpsPlan

#: Fleet size the self-heal and rolling scenarios pin (FixedPolicy):
#: simulator cells, and the live twin's smaller fleet.
FLEET = 4
LIVE_FLEET = 3
#: The live cells' window (virtual seconds); the rest of their
#: dimensions are the autoscale family's (``control.scenarios.live_dims``).
LIVE_DURATION = 24.0
#: Offered load as a fraction of the model-predicted fleet capacity.
SELFHEAL_LOAD = 0.50
ROLLING_LOAD = 0.45
#: Crash schedule of the self-heal cells, as (replica index, fraction of
#: the run horizon).  Indices 1 and 2 are valid for both designs (index 0
#: is the single-master master); each crash is detected and replaced
#: before the next lands.  The short live run fits one.
SELFHEAL_CRASHES = {SIMULATOR: ((1, 0.30), (2, 0.60)), CLUSTER: ((1, 0.35),)}
#: Capacity inventory of the heterogeneous-fleet scenarios, and the
#: open-loop offered load as a fraction of the fleet's predicted
#: capacity.  Open-loop matters: a closed loop's think-time feedback lets
#: even capacity-oblivious policies self-correct, hiding the difference.
HETERO_CAPACITIES = {SIMULATOR: (2.0, 1.0, 1.0, 0.5), CLUSTER: (1.5, 1.0, 0.5)}
HETERO_LOAD = 0.75

#: Gray-failure scenarios: the brownout runs every resource on the
#: afflicted replica at this fraction of its declared rate.
BROWNOUT_SEVERITY = 0.5
BROWNOUT_LOAD = 0.50
#: Capacity-estimation recovery scenario: a two-replica anchor fleet is
#: offered 95% of its predicted capacity with almost no feedforward
#: head-room, so silently losing half a replica saturates the
#: declared-capacity arm while the estimated arm detects the shortfall
#: and scales out around it.  The live cell is offered a multiple of the
#: predicted capacity instead: the analytic model is deliberately
#: conservative about the millisecond-scale live pillar (thread
#: scheduling overlaps it cannot see), so saturating the live anchor
#: fleet takes ~1.5x its prediction — calibrated so the declared arm is
#: genuinely capacity-bound during the brownout.
CAPEST_FLEET = 2
CAPEST_LOAD = {SIMULATOR: 0.95, CLUSTER: 1.5}
CAPEST_HEADROOM = 0.05
#: Brownout onset and span as fractions of the run horizon, and the
#: recovery window (post-onset settle to end, fractions of the horizon)
#: over which the two arms' throughput is compared.
BROWNOUT_START = 0.35
BROWNOUT_SPAN = 0.55
RECOVERY_SETTLE = 0.15
RECOVERY_END = 0.90


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OpsComparison:
    """The artifact of a self-heal / rolling-upgrade scenario."""

    name: str
    workload: str
    pillar: str
    results: Tuple[AutoscaleResult, ...]

    def to_text(self) -> str:
        """Render per-design run lines and availability summaries."""
        lines = [f"{self.name} — {self.workload}, {self.pillar} pillar"]
        for result in self.results:
            lines.append("  " + result.to_text())
            for line in summarize(result).to_text().splitlines():
                lines.append("  " + line)
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
    declared: AutoscaleResult
    estimated: AutoscaleResult

    def _window_throughput(self, result: AutoscaleResult) -> float:
        lo, hi = self.window
        points = [p for p in result.timeline if lo <= p.time <= hi]
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
        perf = self.estimated.perf
        if perf is None:
            return None
        return perf.detection_latency(self.onset)

    @property
    def drift_verdict(self) -> bool:
        """Did the estimated arm's drift monitor flag the model?"""
        perf = self.estimated.perf
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
        for label, result in (("declared", self.declared),
                              ("estimated", self.estimated)):
            lines.append(f"  [{label}] " + result.to_text())
            for line in summarize(result).to_text().splitlines():
                lines.append("    " + line)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Families: each grid is declared once and registered on both pillars
# ----------------------------------------------------------------------

def _sim_dims(settings) -> PillarDims:
    return dataclasses.replace(sim_dims(settings), fleet=FLEET)


def _live_dims(settings) -> PillarDims:
    return dataclasses.replace(
        live_dims(settings), duration=LIVE_DURATION, fleet=LIVE_FLEET
    )


def _register_family(name: str, title: str, live_title: str, points,
                     assemble, sim_dims_for=_sim_dims, owns=()) -> None:
    """Register ``points(settings, dims)`` / ``assemble(name, points,
    results)`` as *name* on the simulator and ``<name>-live`` on the
    cluster."""
    def named(scenario_name):
        return lambda settings, pts, results: assemble(
            scenario_name, pts, results
        )

    register_family(
        points, sim_dims_for, _live_dims,
        live=dict(title=live_title, assemble=named(f"{name}-live")),
        name=name, title=title, kind="ops", assemble=named(name), owns=owns,
    )


def _steady_trace(rate: float, duration: float) -> DiurnalTrace:
    """A constant-rate trace (a diurnal curve with zero swing)."""
    return DiurnalTrace(base_rate=rate, peak_rate=rate, period=duration)


def _ops_points(load_fraction: float, plan_for, with_profile: bool = False,
                **options):
    """A pinned fleet under steady load with an operations plan attached,
    one cell per design."""
    def points(settings, dims: PillarDims) -> List:
        task = profile_task(dims.spec, settings) if with_profile else None
        return [
            dims.elastic_point(
                design,
                trace=_steady_trace(
                    load_fraction * _design_capacity(design, dims, settings),
                    dims.duration,
                ),
                policy=FixedPolicy(replicas=dims.fleet),
                slo_response=SLO_RESPONSE,
                max_replicas=2 * dims.fleet,
                ops=plan_for(dims),
                profile=task,
                tag=dims.label(design),
                **options,
            )
            for design in dims.designs
        ]

    return points


def _assemble_ops(name, points, results) -> OpsComparison:
    return OpsComparison(
        name=name, workload=points[0].spec.name,
        pillar=points[0].option("pillar"), results=tuple(results),
    )


def _selfheal_plan(dims: PillarDims) -> OpsPlan:
    return OpsPlan(
        faults=tuple(crash_fault(replica, at * dims.horizon)
                     for replica, at in SELFHEAL_CRASHES[dims.pillar]),
        self_heal=True,
        transfer_writesets=dims.transfer_writesets,
    )


def _rolling_plan(dims: PillarDims) -> OpsPlan:
    return OpsPlan(
        rolling_start=0.25 * dims.horizon,
        rolling_settle=dims.control_interval,
        transfer_writesets=dims.transfer_writesets,
    )


def _brownout_plan(dims: PillarDims) -> OpsPlan:
    # One replica silently degrades to half speed mid-run and recovers
    # before the end; nothing crashes, so membership never changes and
    # only the capacity estimator can notice.
    return OpsPlan(faults=(brownout_fault(
        1, 0.30 * dims.horizon, BROWNOUT_SPAN * dims.horizon,
        severity=BROWNOUT_SEVERITY,
    ),))


_register_family(
    "selfheal-crashstorm",
    "Self-healing: crash storm with automatic replica replacement",
    "Live-cluster self-healing: crash, detect, replace on real threads",
    _ops_points(SELFHEAL_LOAD, _selfheal_plan),
    _assemble_ops,
)

_register_family(
    "rolling-upgrade",
    "Rolling upgrade: cycle every replica through drain/rejoin under load",
    "Live-cluster rolling upgrade: drain/rejoin the whole fleet",
    _ops_points(ROLLING_LOAD, _rolling_plan),
    _assemble_ops,
)

_register_family(
    "brownout-detection",
    "Gray failure: a silent brownout caught by the capacity estimator",
    "Live-cluster gray failure: brownout on real threads, caught live",
    _ops_points(BROWNOUT_LOAD, _brownout_plan, with_profile=True,
                capacity_source=ESTIMATED),
    _assemble_ops,
)


def _capest_points(settings, dims: PillarDims) -> List:
    capacity = CAPEST_FLEET * _design_capacity(
        MULTI_MASTER, dims, settings
    ) / dims.anchor.replicas
    if dims.pillar == CLUSTER:
        # The live cell pins the base fleet: the model's conservative
        # live prediction would make a feedforward target absorb the
        # brownout by over-provisioning both arms.  The estimated arm
        # still scales out — the estimator's fleet-health factor
        # inflates the pinned target.
        policy = FixedPolicy(replicas=CAPEST_FLEET)
    else:
        policy = FeedforwardPolicy(horizon=2.0 * dims.control_interval,
                                   headroom=CAPEST_HEADROOM)
    plan = OpsPlan(faults=(brownout_fault(
        1, BROWNOUT_START * dims.horizon, BROWNOUT_SPAN * dims.horizon,
        severity=BROWNOUT_SEVERITY,
    ),))
    return [
        dims.elastic_point(
            MULTI_MASTER,
            trace=_steady_trace(CAPEST_LOAD[dims.pillar] * capacity,
                                dims.duration),
            policy=policy,
            slo_response=SLO_RESPONSE,
            max_replicas=3 * CAPEST_FLEET,
            ops=plan,
            capacity_source=source,
            profile=profile_task(dims.spec, settings),
            tag=source or "declared",
        )
        for source in (None, ESTIMATED)
    ]


def _assemble_capest(name, points, results) -> CapacityRecoveryComparison:
    horizon = points[0].option("warmup") + points[0].option("duration")
    onset = BROWNOUT_START * horizon
    window = (onset + RECOVERY_SETTLE * horizon, RECOVERY_END * horizon)
    declared, estimated = results
    return CapacityRecoveryComparison(
        name=name,
        workload=points[0].spec.name,
        pillar=points[0].option("pillar"),
        severity=BROWNOUT_SEVERITY,
        onset=onset,
        window=window,
        declared=declared,
        estimated=estimated,
    )


_register_family(
    "capacity-estimation",
    "Online capacity estimation: recover throughput from a brownout",
    "Live online capacity estimation: brownout recovery on threads",
    _capest_points,
    _assemble_capest,
    # Both arms of the capacity-source axis are the experiment.
    owns=("capacity_source",),
)


def _hetero_points(settings, dims: PillarDims) -> List:
    capacities = HETERO_CAPACITIES[dims.pillar]
    # Open-loop at HETERO_LOAD of the homogeneous capacity curve
    # evaluated at the summed multipliers.
    per_replica = _design_capacity(
        MULTI_MASTER, dims, settings
    ) / dims.anchor.replicas
    rate = HETERO_LOAD * per_replica * sum(capacities)
    # Only the simulator cells size the inventory with the model.
    points = (
        [profile_point(dims.spec, settings, tag="profile")]
        if dims.pillar == SIMULATOR else []
    )
    # RANDOM is the capacity-oblivious control: without feedback or
    # weighting it saturates the slowest box and collapses.
    for policy in (LEAST_LOADED, CAPACITY_WEIGHTED, RANDOM):
        points.append(dims.measured_point(
            MULTI_MASTER,
            len(capacities),
            lb_policy=policy,
            capacities=capacities,
            arrival_rate=rate,
            tag=policy,
        ))
    return points


def _assemble_hetero(name, points, results) -> CellTable:
    from ..models.planning import plan_mixed_fleet

    cells = [(point, result) for point, result in zip(points, results)
             if point.backend != PROFILE]
    first = cells[0][0]
    capacities = first.option("capacities")
    notes = ()
    if points[0].backend == PROFILE:
        best = max((result for _, result in cells),
                   key=lambda r: r.throughput)
        plan = plan_mixed_fleet(
            results[0].profile,
            first.config,
            target_throughput=0.9 * best.throughput,
            capacities=capacities,
            design=MULTI_MASTER,
            headroom=0.1,
        )
        if plan is not None:
            notes = (f"model sizing: {plan.to_text()}",)
    fleet = " + ".join(f"{c:g}x" for c in capacities)
    return CellTable(
        title=f"heterogeneous fleet [{fleet}] — {first.spec.name}, "
        f"{first.backend} pillar",
        heading="lb policy",
        width=18,
        cells=tuple((point.option("lb_policy"), result)
                    for point, result in cells),
        notes=notes,
    )


_register_family(
    "hetero-fleet",
    "Heterogeneous-capacity fleet: capacity-weighted vs least-loaded",
    "Live heterogeneous fleet: capacity-weighted vs least-loaded",
    _hetero_points,
    _assemble_hetero,
    # Steady-state cells measure over the simulation window, not the
    # autoscale trace length.
    sim_dims_for=lambda settings: dataclasses.replace(
        _sim_dims(settings), warmup=settings.sim_warmup,
        duration=settings.sim_duration,
    ),
)
