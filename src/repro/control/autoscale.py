"""The elastic run loop: play a load trace against an elastic pillar.

The closed control loop the paper's dynamic-provisioning use case implies
but never builds: an open-loop trace offers time-varying load, a
:class:`~repro.control.controller.Controller` decides the replica count at
every control tick, and the execution pillar actually grows and shrinks
through its ``add_replica``/``remove_replica`` membership operations (join
cost as a bulk writeset replay, drain before removal).

The loop is written once (:func:`_run_elastic`); :func:`autoscale_sim` and
:func:`autoscale_cluster` only build the substrate's *run object* and hand
it over.  Membership needs no interface — the DES systems and the live
clusters share one :class:`~repro.simulator.systems.Fleet`, so
``replicas``, ``member_count``, ``add_replica``, ``remove_replica`` and
``upgrade_targets`` mean the same on both.  What the pillars
really differ in is time and tasking, and that is the whole run seam
(:class:`~repro.simulator.runner.SimRun`,
:class:`~repro.cluster.runner.ClusterRun`, and a scripted fake in the
tests):

* ``now()`` — virtual seconds since run start;
* ``spawn(task, name)`` — drive a *task*: a plain generator that yields
  virtual-second delays and does its work between them.  The DES turns
  each delay into a ``Timeout``; the live run sleeps it on a guarded
  driver thread and never resumes the task once the run has stopped;
* ``metrics_lock`` — held while the loop slices the commit samples
  recorded since the last tick: the lock client threads record under on
  the live cluster, a no-op on the single-threaded event loop;
* ``install_faults(faults, record)`` — arm a validated fault schedule;
* ``measure(warmup, duration, on_close)`` → ``(converged,
  final_versions)`` — owns the window marks, arrival stop, drain/join/
  quiesce, the applier-death check and shutdown.

Every run records the same :class:`AutoscaleResult`: the full timeline
(offered load, member count, p95 latency, SLO violations per interval)
plus the run totals that policy comparisons need — replica-seconds
provisioned (what the deployment pays for) and the SLO-violation fraction
over the whole measurement window — and the replication-correctness
evidence (convergence + final versions), so membership churn is checked
to never lose or duplicate a committed writeset.  On the simulator a run
is exactly deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, ReproError
from ..core.params import ReplicationConfig, StandaloneProfile
from ..core.rng import DEFAULT_SEED
from ..core.topology import MULTI_MASTER
from ..ops.events import OpsEvent
from ..ops.health import HealthMonitor
from ..ops.plan import OpsPlan
from ..ops.rolling import rolling_restart
from ..simulator.runner import SimRun
from ..simulator.sampling import EXPONENTIAL
from ..simulator.stats import MetricsCollector
from ..simulator.systems import LEAST_LOADED, RunOptions, check_supported
from ..telemetry import render_events
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
    #: Multi-window error-budget burn rates at this tick.
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
        burn = max_burn(p.slo_burn)
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


@dataclass
class _ControlState:
    """Mutable bookkeeping of one elastic run."""

    running: bool = True
    sample_index: int = 0
    last_time: float = 0.0
    last_attached: int = 0
    replica_seconds: float = 0.0
    scale_events: int = 0
    busy: Dict[str, float] = field(default_factory=dict)
    timeline: List[TimelinePoint] = field(default_factory=list)
    #: Operations event log (fault recorder, monitor, rolling task).
    #: ``list.append`` is atomic under the GIL and the log is only *read*
    #: after every task has stopped.
    events: List[OpsEvent] = field(default_factory=list)

    def record(self, now: float, kind: str, name: str) -> None:
        """Fault/gray-detect hook: stamp one event into the log."""
        self.events.append(OpsEvent(now, kind, name))

    def integrate(self, now: float, attached: int, start: float,
                  end: float) -> None:
        """Accumulate attached-count seconds clipped to the window."""
        lo = max(self.last_time, start)
        hi = min(now, end)
        if hi > lo:
            self.replica_seconds += self.last_attached * (hi - lo)
        self.last_time = now
        self.last_attached = attached


def _every(state: _ControlState, interval: float, now, action):
    """Task: call ``action(now())`` every *interval* virtual seconds
    while the run is running (re-checked after each wait: the DES keeps
    firing timeouts through the drain phase)."""
    while state.running:
        yield interval
        if not state.running:
            return
        action(now())


def _run_elastic(
    assemble, spec: WorkloadSpec, trace: LoadTrace, policy,
    options: RunOptions, *, profile, seed, warmup, duration,
    control_interval, slo_response, min_replicas, max_replicas,
    transfer_writesets, config, ops, capacity_source,
) -> AutoscaleResult:
    """The elastic run loop, written once for both pillars.

    ``assemble(options, run_config, metrics)`` builds the substrate's run
    object from the validated *options* at the controller's initial size
    with trace traffic started
    (:class:`~repro.simulator.runner.SimRun` or
    :class:`~repro.cluster.runner.ClusterRun`).  Everything else happens
    here, in an order that is behaviour on the DES (event-heap ties break
    by insertion): fault installs → detect task → rolling task → control
    task → ``measure``.  The run is closed once the result is assembled.
    """
    design = options.design
    # Refused before the controller is built: a model-driven policy would
    # otherwise fail first, sizing a design the models do not know.  The
    # options are validated once the initial fleet size is known.
    check_supported(design, membership=True)
    if trace.max_rate <= 0:
        raise ConfigurationError("trace peak rate must be positive")
    if control_interval <= 0:
        raise ConfigurationError("control_interval must be positive")
    if slo_response <= 0:
        raise ConfigurationError("slo_response must be positive")
    estimated = resolve_capacity_source(capacity_source) == ESTIMATED
    base_config = config or spec.replication_config(1)
    controller = make_controller(
        policy, design=design, trace=trace, slo_response=slo_response,
        config=base_config, profile=profile,
        min_replicas=min_replicas, max_replicas=max_replicas,
    )

    def clamp(target: int) -> int:
        return max(min_replicas, min(max_replicas, target))

    run_config = base_config.with_replicas(clamp(controller.initial_target()))
    plan = ops if ops is not None and ops.active else None
    checked = replace(options, faults=plan.faults if plan else ()).validate(
        spec, run_config, window=(warmup, duration))

    metrics = _SampledMetrics()
    run = assemble(checked, run_config, metrics)
    fleet, recorder = run.fleet, run.recorder
    window_start, window_end = warmup, warmup + duration
    state = _ControlState(last_attached=len(fleet.replicas),
                          busy=_busy_snapshot(fleet.replicas))
    # The performance observer engages when the run consumes estimated
    # capacities or is telemetry-enabled; otherwise the instruction
    # stream is the pre-estimator one, byte for byte.  Gray-detect events
    # reach the ops event log only in estimated mode (pure observation
    # must not change result contents beyond the attached reports); the
    # model-drift monitor needs a standalone profile to predict from.
    perf: Optional[PerfMonitor] = None
    if estimated or recorder is not None:
        perf = PerfMonitor(
            interval=control_interval,
            pillar=run.pillar,
            apply=estimated,
            drift=(ModelDriftMonitor(design, profile, base_config)
                   if profile is not None else None),
            telemetry=recorder,
            event_sink=state.record if estimated else None,
        )
    slo_monitor = SLOMonitor()

    monitor: Optional[HealthMonitor] = None
    # While an operations plan manages membership it is the only
    # membership authority — the controller observes but never
    # reconciles, so replacements and rolling cycles never race autoscale
    # joins.  A brownout-only plan injects faults but never changes
    # membership, so the controller keeps reconciling (that is how
    # estimated-capacity mode scales out around a browned-out replica).
    reconcile = ops is None or not ops.manages_membership
    if plan is not None:
        run.install_faults(checked.faults, state.record)
        if plan.self_heal:
            monitor = HealthMonitor(fleet, plan.transfer_writesets,
                                    state.events)
            if plan.detect_interval is not None:
                # Detection decoupled from the control interval: the
                # monitor ticks on its own (usually faster) task, so
                # detection latency is bounded by detect_interval and
                # the MTTR breakdown separates it from repair time.
                # Only that task ticks the monitor, so its internal
                # state needs no locking.
                run.spawn(_every(state, plan.detect_interval, run.now,
                                 monitor.tick), "health-detect")
        if plan.rolling_start is not None:
            run.spawn(rolling_restart(
                fleet, run.now, state.events, start=plan.rolling_start,
                transfer_writesets=plan.transfer_writesets,
                settle=plan.rolling_settle,
            ), "rolling-upgrade")

    def tick(now: float) -> None:
        """One control interval: observe, decide, reconcile, record.

        ``fleet.replicas`` is re-read at every use — the live cluster
        replaces its replica list copy-on-write, so a captured reference
        would go stale across a membership operation.
        """
        with run.metrics_lock:
            end = len(metrics.samples)
            chunk = metrics.samples[state.sample_index:end]
            aborts = sum(metrics.abort_counts[state.sample_index:end])
            state.sample_index = end
        commits, tput, mean, p95, violations = _interval_stats(
            chunk, control_interval, slo_response
        )
        busy = _busy_snapshot(fleet.replicas)
        utilization = _max_utilization(state.busy, busy, control_interval)
        state.busy = busy
        burns = slo_monitor.observe(now, commits, violations, aborts)
        observation = ControlObservation(
            now=now,
            members=fleet.member_count,
            attached=len(fleet.replicas),
            offered_rate=trace.rate(now),
            commits=commits,
            throughput=tput,
            mean_response=mean,
            p95_response=p95,
            max_utilization=utilization,
            slo_burn=burns,
        )
        if perf is not None:
            # Observe the fleet; in estimated-capacity mode this also
            # re-weights the LB and, below, inflates the target by the
            # fleet health factor.
            perf.on_tick(
                now, fleet.replicas,
                members=observation.members,
                offered_rate=observation.offered_rate,
                throughput=tput,
                p95=p95,
            )
        target = clamp(controller.target(observation))
        if perf is not None:
            target = clamp(perf.adjust_target(target))
        if recorder is not None:
            if target > observation.members:
                action = "scale-up"
            elif target < observation.members:
                action = "scale-down"
            else:
                action = "hold"
            recorder.count_decision(action, target)
            for burn in burns:
                recorder.observe_slo_burn(burn.window, burn.signal, burn.burn)
        if reconcile:
            _reconcile_membership(fleet, target, transfer_writesets, state)
        state.integrate(now, len(fleet.replicas), window_start, window_end)
        if window_start < now <= window_end + 1e-9:
            state.timeline.append(TimelinePoint(
                time=now,
                offered_rate=observation.offered_rate,
                members=fleet.member_count,
                attached=len(fleet.replicas),
                commits=commits,
                throughput=tput,
                mean_response=mean,
                p95_response=p95,
                slo_violations=violations,
                max_utilization=utilization,
                slo_burn=burns,
            ))
        if monitor is not None and plan.detect_interval is None:
            monitor.tick(now)

    def close() -> None:
        state.running = False
        state.integrate(min(run.now(), window_end), len(fleet.replicas),
                        window_start, window_end)

    run.spawn(_every(state, control_interval, run.now, tick), "autoscaler")
    converged, final_versions = run.measure(warmup, duration, close)

    committed, violations = _window_slo(
        metrics.samples, window_start, window_end, slo_response
    )
    if recorder is not None:
        recorder.ingest_events(state.events)
    result = AutoscaleResult(
        design=design,
        policy=controller.name,
        pillar=run.pillar,
        trace=trace.label,
        slo_response=slo_response,
        control_interval=control_interval,
        window=duration,
        committed=committed,
        slo_violations=violations,
        replica_seconds=state.replica_seconds,
        timeline=tuple(state.timeline),
        final_members=fleet.member_count,
        scale_events=state.scale_events,
        seed=seed,
        converged=converged and len(set(final_versions)) <= 1,
        final_versions=final_versions,
        abort_rate=metrics.abort_rate(),
        ops_events=tuple(sorted(state.events, key=lambda e: e.time)),
        # As the caller spelt them (validation normalises to floats).
        capacities=tuple(options.capacities or ()),
        telemetry=None if recorder is None else recorder.result(),
        perf=perf.report() if perf is not None else None,
    )
    run.close()
    return result


def _reconcile_membership(fleet, target: int, transfer_writesets: int,
                          state: _ControlState) -> None:
    """Issue add/remove operations until membership matches *target*.

    A membership operation that cannot proceed right now — a join whose
    donor is too stale for the retained channel history, a remove with
    nothing removable, a live drain that timed out and rolled back — ends
    this tick's reconciliation; the controller simply re-decides next
    interval.  Genuine cluster damage still surfaces through the
    end-of-run convergence and applier checks.
    """
    while fleet.member_count < target:
        try:
            fleet.add_replica(transfer_writesets)
        except ReproError:
            return
        state.scale_events += 1
    while fleet.member_count > target:
        try:
            fleet.remove_replica()
        except ReproError:
            return
        state.scale_events += 1


#: Virtual seconds the DES keeps running after the window with arrivals
#: stopped, so joins, drains and in-flight transactions finish and the
#: convergence check is meaningful.
_SIM_DRAIN = 15.0


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
    def assemble(options, run_config, metrics):
        run = SimRun(options, spec, run_config, seed, metrics,
                     telemetry=telemetry, drain=_SIM_DRAIN)
        run.fleet.start_trace_arrivals(trace)
        return run

    return _run_elastic(
        assemble, spec, trace, policy,
        RunOptions(design=design, distribution=distribution,
                   lb_policy=lb_policy, capacities=capacities),
        profile=profile, seed=seed, warmup=warmup, duration=duration,
        control_interval=control_interval, slo_response=slo_response,
        min_replicas=min_replicas, max_replicas=max_replicas,
        transfer_writesets=transfer_writesets, config=config, ops=ops,
        capacity_source=capacity_source,
    )


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

    The same loop as :func:`autoscale_sim`, but everything is real: the
    trace source spawns transaction threads, the control task resizes
    the cluster through its elastic membership operations (state transfer
    under the commit-order lock; drain before removal, up to
    *drain_timeout* wall seconds), and after the run the cluster
    quiesces so the result carries the replication-correctness evidence
    — no committed writeset may be lost or duplicated by membership
    churn.  *ops*, *capacities*, *telemetry* and *capacity_source* mean
    what they mean for :func:`autoscale_sim`.
    """
    from ..cluster.runner import ClusterRun

    def assemble(options, run_config, metrics):
        run = ClusterRun(options, spec, run_config, seed, metrics, time_scale,
                         telemetry=telemetry, quiesce_timeout=quiesce_timeout)
        run.fleet.drain_timeout = drain_timeout
        run.start_arrivals(seed, trace=trace)
        return run

    return _run_elastic(
        assemble, spec, trace, policy,
        RunOptions(design=design, distribution=distribution,
                   lb_policy=lb_policy, capacities=capacities),
        profile=profile, seed=seed, warmup=warmup, duration=duration,
        control_interval=control_interval, slo_response=slo_response,
        min_replicas=min_replicas, max_replicas=max_replicas,
        transfer_writesets=transfer_writesets, config=config, ops=ops,
        capacity_source=capacity_source,
    )
