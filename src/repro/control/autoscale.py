"""The AutoscaleRun harness: play a load trace against an elastic pillar.

:func:`autoscale_sim` and :func:`autoscale_cluster` are the closed control
loop the paper's dynamic-provisioning use case implies but never builds:
an open-loop trace offers time-varying load, a
:class:`~repro.control.controller.Controller` decides the replica count at
every control tick, and the execution pillar — the DES simulator or the
live cluster runtime — actually grows and shrinks through its
``add_replica``/``remove_replica`` membership operations (join cost as a
bulk writeset replay, drain before removal).

Both harnesses record the same :class:`AutoscaleResult`: the full timeline
(offered load, member count, p95 latency, SLO violations per interval)
plus the run totals that policy comparisons need — replica-seconds
provisioned (what the deployment pays for) and the SLO-violation fraction
over the whole measurement window.  The simulator harness is exactly
deterministic for a fixed seed; the cluster harness additionally reports
the replication-correctness evidence (convergence + final versions), so
membership churn is checked to never lose or duplicate a committed
writeset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, ReproError
from ..core.params import ReplicationConfig, StandaloneProfile
from ..core.rng import DEFAULT_SEED
from ..ops.events import OpsEvent
from ..ops.health import HealthMonitor
from ..ops.plan import OpsPlan
from ..ops.rolling import rolling_restart_cluster, rolling_restart_sim
from ..simulator.des import Environment, Timeout
from ..simulator.faults import install_faults, validate_faults
from ..simulator.runner import MULTI_MASTER, SINGLE_MASTER
from ..simulator.sampling import DISTRIBUTIONS, EXPONENTIAL
from ..simulator.stats import MetricsCollector
from ..simulator.systems import (
    LB_POLICIES,
    LEAST_LOADED,
    MultiMasterSystem,
    SingleMasterSystem,
)
from ..telemetry import Telemetry, active_config, render_events
from ..workloads.spec import WorkloadSpec
from .controller import ControlObservation, make_controller
from .estimator import (
    ESTIMATED,
    ModelDriftMonitor,
    PerfMonitor,
    resolve_capacity_source,
)
from .slo import BurnRate, SLOMonitor, max_burn
from .trace import LoadTrace

#: Designs that support elastic membership (standalone has nothing to grow).
ELASTIC_DESIGNS = (MULTI_MASTER, SINGLE_MASTER)

_SIM_SYSTEMS = {
    MULTI_MASTER: MultiMasterSystem,
    SINGLE_MASTER: SingleMasterSystem,
}


@dataclass(frozen=True)
class TimelinePoint:
    """One control interval of an autoscale run."""

    #: End of the interval (virtual seconds from run start).
    time: float
    #: Offered trace rate at the tick (tps).
    offered_rate: float
    #: Serving members after the tick's decision was applied.
    members: int
    #: Replicas attached in any state (joining/draining included).
    attached: int
    #: Commits, throughput, and latency over the interval.
    commits: int
    throughput: float
    mean_response: float
    p95_response: float
    #: Commits whose response exceeded the SLO, this interval.
    slo_violations: int
    #: Busiest resource utilization over the interval.
    max_utilization: float
    #: Multi-window error-budget burn rates at this tick (empty on
    #: points recorded before the SLO monitor existed).
    slo_burn: Tuple[BurnRate, ...] = ()


@dataclass(frozen=True)
class AutoscaleResult:
    """Everything measured during one autoscale run."""

    design: str
    policy: str
    pillar: str
    trace: str
    slo_response: float
    control_interval: float
    #: Measurement window length (virtual seconds).
    window: float
    #: Commits inside the window, and how many violated the SLO.
    committed: int
    slo_violations: int
    #: Integral of the attached replica count over the window
    #: (replica-seconds — the provisioning cost).
    replica_seconds: float
    timeline: Tuple[TimelinePoint, ...]
    #: Serving members when the run ended.
    final_members: int
    #: add_replica + remove_replica invocations over the whole run.
    scale_events: int
    seed: int = DEFAULT_SEED
    #: Replication correctness: every (non-draining) replica converged to
    #: the certifier's latest version after the drain/quiesce phase.
    converged: bool = True
    final_versions: Tuple[int, ...] = ()
    #: Mean update-abort fraction over the window (diagnostics).
    abort_rate: float = 0.0
    #: Operations log (crashes, replacements, rolling cycles) when an
    #: :class:`~repro.ops.plan.OpsPlan` was attached, sorted by time.
    ops_events: Tuple[OpsEvent, ...] = ()
    #: Capacity multipliers of the initial fleet (uniform when empty).
    capacities: Tuple[float, ...] = ()
    #: :class:`repro.telemetry.TelemetryResult` when the run was
    #: telemetry-enabled; ``None`` otherwise (the default keeps results
    #: from older cached runs loading unchanged).
    telemetry: object = None
    #: :class:`repro.telemetry.perf.PerfReport` when the run engaged the
    #: online capacity estimator (telemetry on, or
    #: ``capacity_source="estimated"``); ``None`` otherwise.
    perf: object = None

    @property
    def slo_violation_fraction(self) -> float:
        """Fraction of window commits that violated the SLO."""
        if self.committed == 0:
            return 0.0
        return self.slo_violations / self.committed

    @property
    def mean_members(self) -> float:
        """Time-averaged attached replica count over the window."""
        if self.window <= 0:
            return 0.0
        return self.replica_seconds / self.window

    @property
    def replica_hours(self) -> float:
        """Replica-seconds expressed in replica-hours."""
        return self.replica_seconds / 3600.0

    def savings_vs(self, baseline: "AutoscaleResult") -> float:
        """Fraction of replica-seconds saved against *baseline*."""
        if baseline.replica_seconds <= 0:
            return 0.0
        return 1.0 - self.replica_seconds / baseline.replica_seconds

    def to_text(self) -> str:
        """Render the run summary."""
        return (
            f"autoscale {self.policy} on {self.design} ({self.pillar}, "
            f"{self.trace} trace): mean {self.mean_members:.2f} replicas, "
            f"{self.replica_seconds:.0f} replica-s, {self.committed} commits, "
            f"{self.slo_violation_fraction:.2%} SLO violations "
            f"(SLO {self.slo_response * 1000:.0f} ms), "
            f"{self.scale_events} scale events"
        )


@dataclass(frozen=True)
class AutoscaleComparison:
    """Policy comparison on one trace: the scenario artifact."""

    workload: str
    trace: str
    pillar: str
    slo_response: float
    results: Tuple[AutoscaleResult, ...]

    def result_for(self, design: str, policy: str) -> Optional[AutoscaleResult]:
        """Look up one run of the grid."""
        for result in self.results:
            if result.design == design and result.policy == policy:
                return result
        return None

    def to_text(self) -> str:
        """Render the per-design policy table."""
        lines = [
            f"autoscale policy comparison — {self.workload}, {self.trace} "
            f"trace, {self.pillar} pillar, SLO "
            f"{self.slo_response * 1000:.0f} ms"
        ]
        lines.append(
            f"  {'design':<14s} {'policy':<12s} {'mean N':>7s} "
            f"{'replica-s':>10s} {'SLO viol':>9s} {'vs static':>10s}"
        )
        designs = []
        for result in self.results:
            if result.design not in designs:
                designs.append(result.design)
        for design in designs:
            static = self.result_for(design, "static-peak")
            for result in self.results:
                if result.design != design:
                    continue
                if static is not None and result is not static:
                    saved = f"{result.savings_vs(static):+8.1%}"
                else:
                    saved = f"{'—':>8s}"
                lines.append(
                    f"  {design:<14s} {result.policy:<12s} "
                    f"{result.mean_members:>7.2f} "
                    f"{result.replica_seconds:>10.0f} "
                    f"{result.slo_violation_fraction:>9.2%} {saved:>10s}"
                )
        return "\n".join(lines)


def render_timeline(result: AutoscaleResult, width: int = 24) -> str:
    """ASCII plot of one run: offered load and member count over time."""
    lines = [result.to_text()]
    if not result.timeline:
        return lines[0]
    peak = max(p.offered_rate for p in result.timeline) or 1.0
    top = max(max(p.attached for p in result.timeline), 1)
    lines.append(
        f"  {'t(s)':>7s} {'load(tps)':>10s} {'load':<{width}s} "
        f"{'N':>3s} {'members':<{top}s} {'p95(ms)':>8s} {'viol':>5s} "
        f"{'burn':>6s}"
    )
    for p in result.timeline:
        bar = "#" * max(1, round(width * p.offered_rate / peak))
        members = "#" * p.members + (
            "+" * max(0, p.attached - p.members))
        burn = max_burn(getattr(p, "slo_burn", ()))
        lines.append(
            f"  {p.time:>7.1f} {p.offered_rate:>10.1f} {bar:<{width}s} "
            f"{p.members:>3d} {members:<{top}s} "
            f"{p.p95_response * 1000:>8.0f} {p.slo_violations:>5d} "
            f"{burn:>6.2f}"
        )
    if result.ops_events:
        lines.append("  ops events:")
        lines.extend(render_events(result.ops_events))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Shared interval statistics
# ----------------------------------------------------------------------

class _SampledMetrics(MetricsCollector):
    """MetricsCollector that also keeps every (time, response) sample.

    The control loop needs per-interval latency percentiles and the SLO
    accounting needs exact per-commit decisions, neither of which the
    aggregate collector retains.  Samples are recorded from the first
    transaction (controllers act during warm-up too); the harness slices
    the measurement window out at the end.
    """

    def __init__(self) -> None:
        super().__init__()
        self.samples: List[Tuple[float, float]] = []
        #: Retry count of each sampled commit, index-aligned with
        #: ``samples`` (the burn monitor's abort signal).
        self.abort_counts: List[int] = []

    def record_commit(self, is_update, response_time, aborts, now=None):
        super().record_commit(is_update, response_time, aborts, now=now)
        if now is not None:
            self.samples.append((now, response_time))
            self.abort_counts.append(aborts)


def _p95(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, int(round(0.95 * len(ordered))) - 1)
    return ordered[index]


def _interval_stats(chunk: Sequence[Tuple[float, float]], interval: float,
                    slo: float) -> Tuple[int, float, float, float, int]:
    """(commits, throughput, mean, p95, violations) of one interval."""
    if not chunk:
        return 0, 0.0, 0.0, 0.0, 0
    responses = [rt for _, rt in chunk]
    commits = len(responses)
    mean = sum(responses) / commits
    violations = sum(1 for rt in responses if rt > slo)
    throughput = commits / interval if interval > 0 else 0.0
    return commits, throughput, mean, _p95(responses), violations


def _busy_snapshot(replicas) -> Dict[str, float]:
    return {
        resource.name: resource.busy_time_now()
        for replica in replicas
        for resource in (replica.cpu, replica.disk)
    }


def _max_utilization(previous: Dict[str, float], current: Dict[str, float],
                     interval: float) -> float:
    if interval <= 0:
        return 0.0
    busiest = 0.0
    for name, busy in current.items():
        busiest = max(busiest, (busy - previous.get(name, 0.0)) / interval)
    return busiest


def _window_slo(samples: Sequence[Tuple[float, float]], start: float,
                end: float, slo: float) -> Tuple[int, int]:
    """Exact (commits, violations) over the measurement window."""
    commits = violations = 0
    for now, rt in samples:
        if start <= now <= end:
            commits += 1
            if rt > slo:
                violations += 1
    return commits, violations


def _reconcile_membership(member_count, add, remove,
                          target: int, state: _ControlState) -> None:
    """Issue add/remove operations until membership matches *target*.

    The one reconciliation loop both pillars use: *member_count* /
    *add* / *remove* are bound to the system's or cluster's elastic
    operations.  A membership operation that cannot proceed right now —
    a join whose donor is too stale for the retained channel history, a
    remove with nothing removable, a live drain that timed out and
    rolled back — ends this tick's reconciliation; the controller
    simply re-decides next interval.  Genuine cluster damage still
    surfaces through the end-of-run convergence and applier checks.
    """
    while member_count() < target:
        try:
            add()
        except ReproError:
            return
        state.scale_events += 1
    while member_count() > target:
        try:
            remove()
        except ReproError:
            return
        state.scale_events += 1


def _control_tick(
    state: _ControlState,
    now: float,
    chunk: Sequence[Tuple[float, float]],
    trace: LoadTrace,
    controller,
    replicas,
    member_count,
    add,
    remove,
    min_replicas: int,
    max_replicas: int,
    control_interval: float,
    slo_response: float,
    window_start: float,
    window_end: float,
    reconcile: bool = True,
    telemetry=None,
    slo_monitor: Optional[SLOMonitor] = None,
    interval_aborts: int = 0,
    perf: Optional[PerfMonitor] = None,
) -> None:
    """One control interval, identical for both pillars.

    *replicas* and *member_count* are callables (the cluster replaces
    its replica list copy-on-write, so a captured reference would go
    stale); *chunk* is the interval's (time, response) samples, sliced
    by the caller under its own locking discipline.  With
    ``reconcile=False`` the controller only observes — an attached
    operations plan is the membership authority, so replacements and
    rolling cycles never race autoscale joins.  *perf*, when attached,
    observes the fleet each tick and (in estimated-capacity mode)
    re-weights the LB and inflates the controller's target by the fleet
    health factor.
    """
    commits, tput, mean, p95, violations = _interval_stats(
        chunk, control_interval, slo_response
    )
    busy = _busy_snapshot(replicas())
    utilization = _max_utilization(state.busy, busy, control_interval)
    state.busy = busy
    burns: Tuple[BurnRate, ...] = ()
    if slo_monitor is not None:
        burns = slo_monitor.observe(now, commits, violations,
                                    interval_aborts)
    observation = ControlObservation(
        now=now,
        members=member_count(),
        attached=len(replicas()),
        offered_rate=trace.rate(now),
        commits=commits,
        throughput=tput,
        mean_response=mean,
        p95_response=p95,
        max_utilization=utilization,
        slo_burn=burns,
    )
    if perf is not None:
        perf.on_tick(
            now, replicas(),
            members=observation.members,
            offered_rate=observation.offered_rate,
            throughput=tput,
            p95=p95,
        )
    target = max(min_replicas,
                 min(max_replicas, controller.target(observation)))
    if perf is not None:
        target = max(min_replicas,
                     min(max_replicas, perf.adjust_target(target)))
    if telemetry is not None:
        if target > observation.members:
            action = "scale-up"
        elif target < observation.members:
            action = "scale-down"
        else:
            action = "hold"
        telemetry.count_decision(action, target)
        for burn in burns:
            telemetry.observe_slo_burn(burn.window, burn.signal, burn.burn)
    if reconcile:
        _reconcile_membership(member_count, add, remove, target, state)
    state.integrate(now, len(replicas()), window_start, window_end)
    if window_start < now <= window_end + 1e-9:
        state.timeline.append(TimelinePoint(
            time=now,
            offered_rate=observation.offered_rate,
            members=member_count(),
            attached=len(replicas()),
            commits=commits,
            throughput=tput,
            mean_response=mean,
            p95_response=p95,
            slo_violations=violations,
            max_utilization=utilization,
            slo_burn=burns,
        ))


@dataclass
class _ControlState:
    """Mutable bookkeeping shared between the loop and the harness."""

    running: bool = True
    sample_index: int = 0
    last_time: float = 0.0
    last_attached: int = 0
    replica_seconds: float = 0.0
    scale_events: int = 0
    busy: Dict[str, float] = field(default_factory=dict)
    timeline: List[TimelinePoint] = field(default_factory=list)
    #: Operations event log (fault recorder, monitor, rolling process).
    events: List[OpsEvent] = field(default_factory=list)

    def integrate(self, now: float, attached: int, start: float,
                  end: float) -> None:
        """Accumulate attached-count seconds clipped to the window."""
        lo = max(self.last_time, start)
        hi = min(now, end)
        if hi > lo:
            self.replica_seconds += self.last_attached * (hi - lo)
        self.last_time = now
        self.last_attached = attached


def _validate(design: str, trace: LoadTrace, distribution: str,
              lb_policy: str, warmup: float, duration: float,
              control_interval: float, slo_response: float) -> None:
    if design not in ELASTIC_DESIGNS:
        raise ConfigurationError(
            f"design {design!r} is not elastic; one of {ELASTIC_DESIGNS}"
        )
    if trace.max_rate <= 0:
        raise ConfigurationError("trace peak rate must be positive")
    if distribution not in DISTRIBUTIONS:
        raise ConfigurationError(f"unknown distribution {distribution!r}")
    if lb_policy not in LB_POLICIES:
        raise ConfigurationError(f"unknown lb_policy {lb_policy!r}")
    if warmup < 0 or duration <= 0:
        raise ConfigurationError("warmup must be >= 0 and duration > 0")
    if control_interval <= 0:
        raise ConfigurationError("control_interval must be positive")
    if slo_response <= 0:
        raise ConfigurationError("slo_response must be positive")


# ----------------------------------------------------------------------
# Simulator pillar
# ----------------------------------------------------------------------

def autoscale_sim(
    spec: WorkloadSpec,
    trace: LoadTrace,
    policy,
    design: str = MULTI_MASTER,
    *,
    profile: Optional[StandaloneProfile] = None,
    seed: int = DEFAULT_SEED,
    warmup: float = 20.0,
    duration: float = 240.0,
    control_interval: float = 10.0,
    slo_response: float = 1.0,
    min_replicas: int = 1,
    max_replicas: int = 16,
    transfer_writesets: int = 16,
    distribution: str = EXPONENTIAL,
    lb_policy: str = LEAST_LOADED,
    config: Optional[ReplicationConfig] = None,
    drain_after: float = 15.0,
    compact_min: Optional[int] = None,
    ops: Optional[OpsPlan] = None,
    capacities: Optional[Tuple[float, ...]] = None,
    telemetry=None,
    capacity_source=None,
) -> AutoscaleResult:
    """Run one autoscaling policy on the DES simulator.

    Deterministic for a fixed *seed*: the arrival stream is sampled by
    thinning against the trace's peak rate (membership changes never
    perturb it), controller decisions are pure functions of simulated
    metrics, and membership operations are event-loop callbacks.
    ``compact_min`` tunes the event-heap tombstone-compaction threshold —
    elastic runs cancel far more events than fixed sweeps.

    *ops* attaches an operations plan (fault injection, self-healing
    replacement, rolling restart); while attached, the operations layer
    is the only membership authority — the controller observes but does
    not reconcile.  *capacities* builds a heterogeneous initial fleet
    (one multiplier per initial replica).  *telemetry* opts into the
    observability layer (see :func:`repro.simulator.runner.simulate`);
    controller decisions and the operations event log land on the
    recorder alongside the transaction-level metrics.

    *capacity_source* selects what the capacity-weighted LB and the
    controller's sizing trust: ``"declared"`` (or ``None``) keeps the
    configured multipliers; ``"estimated"`` makes both consume the
    online estimator's live per-replica estimates — the path that
    recovers throughput when a replica silently browns out.  The
    estimator also engages (observe-only) on any telemetry-enabled run.
    """
    _validate(design, trace, distribution, lb_policy, warmup, duration,
              control_interval, slo_response)
    capacity_mode = resolve_capacity_source(capacity_source)

    controller = make_controller(
        policy, design=design, trace=trace, slo_response=slo_response,
        config=config or spec.replication_config(1), profile=profile,
        min_replicas=min_replicas, max_replicas=max_replicas,
    )
    initial = max(min_replicas, min(max_replicas, controller.initial_target()))
    base_config = config or spec.replication_config(1)
    run_config = base_config.with_replicas(initial)

    env = Environment(compact_min=compact_min)
    metrics = _SampledMetrics()
    system = _SIM_SYSTEMS[design](
        env, spec, run_config, seed, metrics,
        distribution=distribution, lb_policy=lb_policy,
        capacities=capacities,
    )
    telemetry_config = active_config(telemetry)
    recorder = None
    if telemetry_config is not None:
        recorder = Telemetry(telemetry_config, pillar="simulator")
        system.attach_telemetry(recorder)
        system.start_fleet_sampler(recorder)
    system.start_trace_arrivals(trace)

    window_start = warmup
    window_end = warmup + duration
    state = _ControlState(last_attached=len(system.replicas),
                          busy=_busy_snapshot(system.replicas))
    perf = _make_perf_monitor(
        capacity_mode, recorder, control_interval, "simulator",
        design=design, profile=profile, base_config=base_config,
        state=state,
    )

    monitor: Optional[HealthMonitor] = None
    # A brownout-only plan injects faults but never changes membership,
    # so the controller keeps reconciling (that is how estimated-capacity
    # mode scales out around a browned-out replica).
    manage_membership = ops is None or not ops.manages_membership
    if ops is not None and ops.active:
        install_faults(
            env, system,
            validate_faults(ops.faults, len(system.replicas), design),
            recorder=lambda t, kind, name: state.events.append(
                OpsEvent(t, kind, name)
            ),
        )
        if ops.self_heal:
            monitor = HealthMonitor(
                replicas=lambda: system.replicas,
                remove=lambda r: system.remove_replica(replica=r, force=True),
                add=lambda cap: system.add_replica(
                    ops.transfer_writesets, capacity=cap
                ),
                events=state.events,
            )
            if ops.detect_interval is not None:
                # Detection decoupled from the control interval: the
                # monitor ticks on its own (usually faster) timer, so
                # detection latency is bounded by detect_interval and
                # the MTTR breakdown separates it from repair time.
                def detect_loop(interval=ops.detect_interval):
                    while state.running:
                        yield Timeout(interval)
                        if not state.running:
                            return
                        monitor.tick(env.now)
                env.start(detect_loop())
        if ops.rolling_start is not None:
            def rolling_process():
                yield Timeout(ops.rolling_start)
                yield from rolling_restart_sim(
                    env, system, state.events,
                    transfer_writesets=ops.transfer_writesets,
                    settle=ops.rolling_settle,
                )
            env.start(rolling_process())

    slo_monitor = SLOMonitor()

    def control_loop():
        while state.running:
            yield Timeout(control_interval)
            if not state.running:
                return
            end = len(metrics.samples)
            chunk = metrics.samples[state.sample_index:end]
            aborts = sum(metrics.abort_counts[state.sample_index:end])
            state.sample_index = end
            _control_tick(
                state, env.now, chunk, trace, controller,
                replicas=lambda: system.replicas,
                member_count=lambda: system.member_count,
                add=lambda: system.add_replica(transfer_writesets),
                remove=system.remove_replica,
                min_replicas=min_replicas, max_replicas=max_replicas,
                control_interval=control_interval,
                slo_response=slo_response,
                window_start=window_start, window_end=window_end,
                reconcile=manage_membership,
                telemetry=recorder,
                slo_monitor=slo_monitor,
                interval_aborts=aborts,
                perf=perf,
            )
            if monitor is not None and ops.detect_interval is None:
                monitor.tick(env.now)

    env.start(control_loop())
    env.schedule(window_start, metrics.begin_window, window_start)
    env.run_until(window_end)
    metrics.end_window(env.now)
    state.running = False
    state.integrate(env.now, len(system.replicas), window_start, window_end)

    # Drain: stop arrivals and let joins, drains, and in-flight
    # transactions finish so the convergence check is meaningful.
    system.stop_arrivals()
    env.run_until(window_end + drain_after)

    survivors = [
        r for r in system.replicas if not r.draining and not r.failed
    ]
    latest = system.certifier.latest_version
    final_versions = tuple(r.applied_version for r in survivors)
    converged = all(v == latest for v in final_versions)

    committed, violations = _window_slo(
        metrics.samples, window_start, window_end, slo_response
    )
    telemetry_result = None
    if recorder is not None:
        recorder.sample_fleet(env.now, system.replicas,
                              getattr(system, "certifier", None))
        recorder.ingest_events(state.events)
        telemetry_result = recorder.result()
    return AutoscaleResult(
        design=design,
        policy=controller.name,
        pillar="simulator",
        trace=trace.label,
        slo_response=slo_response,
        control_interval=control_interval,
        window=duration,
        committed=committed,
        slo_violations=violations,
        replica_seconds=state.replica_seconds,
        timeline=tuple(state.timeline),
        final_members=system.member_count,
        scale_events=state.scale_events,
        seed=seed,
        converged=converged,
        final_versions=final_versions,
        abort_rate=metrics.abort_rate(),
        ops_events=tuple(sorted(state.events, key=lambda e: e.time)),
        capacities=tuple(capacities) if capacities else (),
        telemetry=telemetry_result,
        perf=perf.report() if perf is not None else None,
    )


def _make_perf_monitor(
    capacity_mode, recorder, control_interval: float, pillar: str,
    *, design: str, profile, base_config, state: _ControlState,
) -> Optional[PerfMonitor]:
    """Build the performance observer both harnesses share.

    Engaged when the run consumes estimated capacities or is telemetry-
    enabled; ``None`` otherwise — the pre-estimator instruction stream,
    byte for byte.  Gray-detect events reach the ops event log only in
    estimated mode (pure observation must not change result contents
    beyond the attached reports); the model-drift monitor needs a
    standalone profile to predict from.
    """
    if capacity_mode != ESTIMATED and recorder is None:
        return None
    drift = None
    if profile is not None:
        drift = ModelDriftMonitor(design, profile, base_config)
    event_sink = None
    if capacity_mode == ESTIMATED:
        def event_sink(t, kind, name):
            state.events.append(OpsEvent(t, kind, name))
    return PerfMonitor(
        interval=control_interval,
        pillar=pillar,
        apply=capacity_mode == ESTIMATED,
        drift=drift,
        telemetry=recorder,
        event_sink=event_sink,
    )


# ----------------------------------------------------------------------
# Live-cluster pillar
# ----------------------------------------------------------------------

def autoscale_cluster(
    spec: WorkloadSpec,
    trace: LoadTrace,
    policy,
    design: str = MULTI_MASTER,
    *,
    profile: Optional[StandaloneProfile] = None,
    seed: int = DEFAULT_SEED,
    warmup: float = 2.0,
    duration: float = 16.0,
    control_interval: float = 1.0,
    slo_response: float = 1.0,
    time_scale: float = 0.25,
    min_replicas: int = 1,
    max_replicas: int = 8,
    transfer_writesets: int = 16,
    distribution: str = EXPONENTIAL,
    lb_policy: str = LEAST_LOADED,
    config: Optional[ReplicationConfig] = None,
    quiesce_timeout: float = 30.0,
    drain_timeout: float = 30.0,
    ops: Optional[OpsPlan] = None,
    capacities: Optional[Tuple[float, ...]] = None,
    telemetry=None,
    capacity_source=None,
) -> AutoscaleResult:
    """Run one autoscaling policy on the live cluster runtime.

    The same control loop as :func:`autoscale_sim`, but everything is
    real: the trace source spawns transaction threads, the controller
    thread resizes the cluster through its elastic membership operations
    (state transfer under the commit-order lock; drain before removal),
    and after the run the cluster quiesces so the result carries the
    replication-correctness evidence — no committed writeset may be lost
    or duplicated by membership churn.  *ops* and *capacities* mirror
    :func:`autoscale_sim`: an attached operations plan (crash faults,
    self-healing replacement, rolling restart) becomes the membership
    authority, and capacities build a heterogeneous initial fleet.
    *capacity_source* mirrors :func:`autoscale_sim`: ``"estimated"``
    routes and sizes on the online estimator's live capacities.
    """
    from ..cluster.clock import VirtualClock
    from ..cluster.runner import (
        _CLUSTER_CLASSES,
        _Drivers,
        _fault_process,
        _open_loop_source,
        _telemetry_sampler,
    )

    _validate(design, trace, distribution, lb_policy, warmup, duration,
              control_interval, slo_response)
    capacity_mode = resolve_capacity_source(capacity_source)

    controller = make_controller(
        policy, design=design, trace=trace, slo_response=slo_response,
        config=config or spec.replication_config(1), profile=profile,
        min_replicas=min_replicas, max_replicas=max_replicas,
    )
    initial = max(min_replicas, min(max_replicas, controller.initial_target()))
    base_config = config or spec.replication_config(1)
    run_config = base_config.with_replicas(initial)

    clock = VirtualClock(time_scale)
    metrics = _SampledMetrics()
    cluster = _CLUSTER_CLASSES[design](
        spec, run_config, seed, clock, metrics,
        distribution=distribution, lb_policy=lb_policy,
        capacities=capacities,
    )
    telemetry_config = active_config(telemetry)
    tel_recorder = None
    if telemetry_config is not None:
        tel_recorder = Telemetry(telemetry_config, pillar="cluster")
        cluster.attach_telemetry(tel_recorder)
    cluster.start()

    window_start = warmup
    window_end = warmup + duration
    state = _ControlState(last_attached=len(cluster.replicas),
                          busy=_busy_snapshot(cluster.replicas))
    perf = _make_perf_monitor(
        capacity_mode, tel_recorder, control_interval, "cluster",
        design=design, profile=profile, base_config=base_config,
        state=state,
    )
    drivers = _Drivers()
    if tel_recorder is not None:
        drivers.launch(
            lambda: drivers.guard(
                lambda: _telemetry_sampler(cluster, tel_recorder, drivers)
            ),
            name="telemetry-sampler",
        )

    monitor: Optional[HealthMonitor] = None
    # Brownout-only plans never change membership (see autoscale_sim).
    manage_membership = ops is None or not ops.manages_membership
    if ops is not None and ops.active:
        # list.append is atomic under the GIL; events are only *read*
        # after every driver thread has joined.
        def recorder(t, kind, name):
            state.events.append(OpsEvent(t, kind, name))
        for fault in validate_faults(
            ops.faults, len(cluster.replicas), design
        ):
            drivers.launch(
                lambda f=fault: _fault_process(
                    cluster, f, drivers, recorder=recorder
                ),
                name=f"fault-replica{fault.replica_index}",
            )
        if ops.self_heal:
            monitor = HealthMonitor(
                replicas=lambda: cluster.replicas,
                remove=lambda r: cluster.remove_replica(replica=r, force=True),
                add=lambda cap: cluster.add_replica(
                    ops.transfer_writesets, capacity=cap
                ),
                events=state.events,
            )
            if ops.detect_interval is not None:
                # Dedicated detection thread (see autoscale_sim): only
                # this thread ticks the monitor, so its internal state
                # needs no extra locking.
                def detect_worker(interval=ops.detect_interval):
                    while not drivers.stop.wait(clock.to_wall(interval)):
                        monitor.tick(clock.now())
                drivers.launch(lambda: drivers.guard(detect_worker),
                               name="health-detect")
        if ops.rolling_start is not None:
            def rolling_worker():
                if drivers.stop.wait(clock.to_wall(ops.rolling_start)):
                    return
                rolling_restart_cluster(
                    cluster, state.events, drivers.stop,
                    transfer_writesets=ops.transfer_writesets,
                    settle=ops.rolling_settle,
                    drain_timeout=drain_timeout,
                )
            drivers.launch(lambda: drivers.guard(rolling_worker),
                           name="rolling-upgrade")

    def trace_source():
        _open_loop_source(cluster, 0.0, seed, drivers, trace=trace)

    slo_monitor = SLOMonitor()

    def control_thread():
        while not drivers.stop.wait(clock.to_wall(control_interval)):
            now = clock.now()
            with cluster.metrics_lock:
                end = len(metrics.samples)
                chunk = metrics.samples[state.sample_index:end]
                aborts = sum(metrics.abort_counts[state.sample_index:end])
                state.sample_index = end
            _control_tick(
                state, now, chunk, trace, controller,
                replicas=lambda: cluster.replicas,
                member_count=lambda: cluster.member_count,
                add=lambda: cluster.add_replica(transfer_writesets),
                remove=lambda: cluster.remove_replica(drain_timeout),
                min_replicas=min_replicas, max_replicas=max_replicas,
                control_interval=control_interval,
                slo_response=slo_response,
                window_start=window_start, window_end=window_end,
                reconcile=manage_membership,
                telemetry=tel_recorder,
                slo_monitor=slo_monitor,
                interval_aborts=aborts,
                perf=perf,
            )
            if monitor is not None and ops.detect_interval is None:
                monitor.tick(now)

    drivers.launch(lambda: drivers.guard(trace_source), name="trace-source")
    drivers.launch(lambda: drivers.guard(control_thread), name="autoscaler")

    try:
        drivers.stop.wait(clock.to_wall(warmup))
        with cluster.metrics_lock:
            metrics.begin_window(clock.now())
        drivers.stop.wait(clock.to_wall(duration))
        with cluster.metrics_lock:
            metrics.end_window(clock.now())
        still_running = drivers.join(timeout=max(10.0, clock.to_wall(60.0)))
        if drivers.errors:
            raise drivers.errors[0]
        if still_running:
            raise ConfigurationError(
                f"{len(still_running)} traffic thread(s) still running "
                "after the drain timeout; the offered trace exceeds what "
                "the cluster can drain"
            )
        state.integrate(min(clock.now(), window_end),
                        len(cluster.replicas), window_start, window_end)
        converged = cluster.quiesce(timeout=quiesce_timeout)
        if tel_recorder is not None:
            tel_recorder.sample_fleet(
                clock.now(), cluster.replicas, cluster.certifier
            )
        final_versions = cluster.replica_versions()
        dead = cluster.applier_errors()
        if dead:
            name, error = dead[0]
            raise ConfigurationError(
                f"applier thread of {name} died: {error!r}"
            ) from error
    finally:
        drivers.stop.set()
        cluster.shutdown()

    committed, violations = _window_slo(
        metrics.samples, window_start, window_end, slo_response
    )
    telemetry_result = None
    if tel_recorder is not None:
        tel_recorder.ingest_events(state.events)
        telemetry_result = tel_recorder.result()
    return AutoscaleResult(
        design=design,
        policy=controller.name,
        pillar="cluster",
        trace=trace.label,
        slo_response=slo_response,
        control_interval=control_interval,
        window=duration,
        committed=committed,
        slo_violations=violations,
        replica_seconds=state.replica_seconds,
        timeline=tuple(state.timeline),
        final_members=cluster.member_count,
        scale_events=state.scale_events,
        seed=seed,
        converged=converged and len(set(final_versions)) <= 1,
        final_versions=final_versions,
        abort_rate=metrics.abort_rate(),
        ops_events=tuple(sorted(state.events, key=lambda e: e.time)),
        capacities=tuple(capacities) if capacities else (),
        telemetry=telemetry_result,
        perf=perf.report() if perf is not None else None,
    )
