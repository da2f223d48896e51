"""Registered autoscale scenarios: policy comparisons under trace load.

Each scenario is a grid of :func:`repro.engine.scenario.autoscale_point`
cells — (design × controller policy) under one load trace — assembled
into an :class:`~repro.control.autoscale.AutoscaleComparison`.  Because
they are ordinary engine scenarios, ``repro run autoscale-diurnal --jobs
6`` fans the runs out over a process pool and deterministic simulator
cells land in the disk cache like any other sweep point.

The trace rates are *derived from the standalone profile* while the grid
is built: the peak is anchored to the model's predicted capacity at
``settings.autoscale_peak_replicas`` for each design, so every design
sweeps the same relative load range regardless of its absolute capacity —
and the whole pipeline stays faithful to the paper's methodology
(standalone measurements in, provisioning decisions out).

``autoscale-diurnal-live`` is the live-cluster validation cell: a smaller
trace on a millisecond-scale workload, run on real threads with real
elastic membership; it reports the same comparison plus the
replication-correctness evidence.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..core.params import ConflictProfile, WorkloadMix
from ..engine import CLUSTER, Scenario, autoscale_point, register_scenario
from ..engine.scenario import profile_task
from ..models.api import predict
from ..simulator.runner import MULTI_MASTER, SINGLE_MASTER
from ..workloads import tpcw
from ..workloads.spec import WorkloadSpec, demands_ms
from .autoscale import AutoscaleComparison, AutoscaleResult
from .controller import FeedforwardPolicy, ReactivePolicy, StaticPeakPolicy
from .trace import DiurnalTrace, FlashCrowdTrace

#: Latency SLA the autoscale scenarios enforce (seconds).  Generous
#: relative to TPC-W response times at the sized operating points, so
#: violations indicate genuine under-provisioning, not tail noise.
SLO_RESPONSE = 1.5

#: Head-room shared by the model-driven policies (feedforward sizing and
#: the static-peak control) so replica-hour comparisons are apples to
#: apples.
HEADROOM = 0.25


def _policies(settings):
    # Forecast two control periods ahead: enough lead for joins (bulk
    # replay) to land before the load does, small against the trace
    # period so the trough is actually tracked.
    horizon = 2.0 * settings.autoscale_control_interval
    return (
        FeedforwardPolicy(horizon=horizon, headroom=HEADROOM),
        ReactivePolicy(initial_replicas=2, low_utilization=0.45,
                       down_patience=2),
        StaticPeakPolicy(headroom=HEADROOM),
    )


def _design_capacity(design: str, spec: WorkloadSpec, settings) -> float:
    """Predicted capacity anchoring the trace peak for *design*."""
    from ..experiments.context import get_profile

    profile = get_profile(spec, settings)
    config = spec.replication_config(
        settings.autoscale_peak_replicas,
        load_balancer_delay=settings.load_balancer_delay,
        certifier_delay=settings.certifier_delay,
    )
    return predict(design, profile, config).throughput


def _autoscale_points(settings, spec: WorkloadSpec, trace_for,
                      designs: Sequence[str]) -> List:
    task = profile_task(spec, settings)
    points = []
    for design in designs:
        capacity = _design_capacity(design, spec, settings)
        trace = trace_for(settings, capacity)
        for policy in _policies(settings):
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
                policy=policy,
                slo_response=SLO_RESPONSE,
                warmup=settings.autoscale_warmup,
                duration=settings.autoscale_duration,
                control_interval=settings.autoscale_control_interval,
                max_replicas=2 * settings.autoscale_peak_replicas,
                telemetry=settings.telemetry,
                capacity_source=settings.capacity_source,
                profile=task,
                tag=f"{design}:{policy.kind}",
            ))
    return points


def _assemble(spec, pillar, settings, points, results) -> AutoscaleComparison:
    ordered: List[AutoscaleResult] = [r for r in results]
    return AutoscaleComparison(
        workload=spec.name,
        trace=ordered[0].trace if ordered else "",
        pillar=pillar,
        slo_response=SLO_RESPONSE,
        results=tuple(ordered),
    )


def _diurnal_trace(settings, capacity: float) -> DiurnalTrace:
    # Two full day/night cycles across the run; load swings between 10%
    # and 85% of the anchor capacity — the day/night ratio real
    # data-center traces show, and wide enough that tracking the trough
    # pays for itself.
    return DiurnalTrace(
        base_rate=0.10 * capacity,
        peak_rate=0.85 * capacity,
        period=settings.autoscale_duration / 2.0,
    )


def _flashcrowd_trace(settings, capacity: float) -> FlashCrowdTrace:
    # Quiet baseline with one sharp spike in the middle of the window.
    duration = settings.autoscale_duration
    return FlashCrowdTrace(
        base_rate=0.20 * capacity,
        spike_rate=0.80 * capacity,
        spike_start=settings.autoscale_warmup + 0.40 * duration,
        spike_duration=0.20 * duration,
        ramp=max(2.0 * settings.autoscale_control_interval, 10.0),
    )


def _register(name: str, title: str, trace_for, aliases=()) -> Scenario:
    spec = tpcw.SHOPPING
    designs = (MULTI_MASTER, SINGLE_MASTER)

    def points(settings):
        return _autoscale_points(settings, spec, trace_for, designs)

    def assemble(settings, pts, results):
        return _assemble(spec, "simulator", settings, pts, results)

    return register_scenario(Scenario(
        name=name,
        title=title,
        kind="autoscale",
        metrics=("replica_seconds", "slo_violation_fraction"),
        points=points,
        assemble=assemble,
        aliases=aliases,
    ))


DIURNAL = _register(
    "autoscale-diurnal",
    "Autoscaling policies under diurnal load (TPC-W shopping)",
    _diurnal_trace,
    aliases=("autoscale",),
)

FLASHCROWD = _register(
    "autoscale-flashcrowd",
    "Autoscaling policies under a flash crowd (TPC-W shopping)",
    _flashcrowd_trace,
)


# ----------------------------------------------------------------------
# Live-cluster validation scenario
# ----------------------------------------------------------------------

#: Millisecond-scale workload for the live cells: heavy enough that the
#: emulated service sleeps dominate scheduler jitter, light enough that
#: the open-loop thread-per-transaction driver stays comfortable.
LIVE_SPEC = WorkloadSpec(
    benchmark="micro",
    mix_name="autoscale-live",
    mix=WorkloadMix(read_fraction=0.7, write_fraction=0.3),
    demands=demands_ms(
        read_cpu=40.0, read_disk=15.0,
        write_cpu=25.0, write_disk=10.0,
        writeset_cpu=2.0, writeset_disk=1.0,
    ),
    clients_per_replica=6,
    think_time=0.2,
    conflict=ConflictProfile(db_update_size=1000, updates_per_transaction=2),
    description="millisecond-scale mix for live autoscale validation",
)

#: Live runs are short: virtual durations and the wall-time scale.
LIVE_WARMUP = 2.0
LIVE_DURATION = 20.0
LIVE_CONTROL_INTERVAL = 1.0
LIVE_TIME_SCALE = 0.25
LIVE_PEAK_REPLICAS = 3


def _live_points(settings) -> List:
    task = profile_task(LIVE_SPEC, settings)
    capacity = _live_design_capacity(settings)
    trace = DiurnalTrace(
        base_rate=0.15 * capacity,
        peak_rate=0.80 * capacity,
        period=LIVE_DURATION / 2.0,
    )
    points = []
    for policy in _policies(settings):
        points.append(autoscale_point(
            LIVE_SPEC,
            LIVE_SPEC.replication_config(
                1, load_balancer_delay=0.0005, certifier_delay=0.002,
            ),
            MULTI_MASTER,
            seed=settings.seed,
            trace=trace,
            policy=_live_policy(policy),
            slo_response=SLO_RESPONSE,
            warmup=LIVE_WARMUP,
            duration=LIVE_DURATION,
            control_interval=LIVE_CONTROL_INTERVAL,
            pillar=CLUSTER,
            time_scale=LIVE_TIME_SCALE,
            max_replicas=2 * LIVE_PEAK_REPLICAS,
            transfer_writesets=8,
            telemetry=settings.telemetry,
            capacity_source=settings.capacity_source,
            profile=task,
            tag=f"live:{policy.kind}",
        ))
    return points


def _live_policy(policy):
    """Shrink policy time constants to the live run's short horizon.

    Only the time constants change — thresholds and head-room carry over
    from :func:`_policies`, so cross-pillar comparisons differ only in
    pillar physics.
    """
    if isinstance(policy, FeedforwardPolicy):
        return dataclasses.replace(policy,
                                   horizon=2.0 * LIVE_CONTROL_INTERVAL)
    if isinstance(policy, ReactivePolicy):
        return dataclasses.replace(policy, down_patience=2)
    return policy


def _live_design_capacity(settings) -> float:
    from ..experiments.context import get_profile

    profile = get_profile(LIVE_SPEC, settings)
    config = LIVE_SPEC.replication_config(LIVE_PEAK_REPLICAS)
    return predict(MULTI_MASTER, profile, config).throughput


LIVE = register_scenario(Scenario(
    name="autoscale-diurnal-live",
    title="Live-cluster autoscaling under diurnal load (elastic membership)",
    kind="autoscale",
    metrics=("replica_seconds", "slo_violation_fraction", "converged"),
    points=_live_points,
    assemble=lambda settings, pts, results: _assemble(
        LIVE_SPEC, "cluster", settings, pts, results
    ),
    aliases=("autoscale-live",),
    tags=("live",),
))
