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

``autoscale-diurnal-live`` is the live-cluster validation twin: the same
grid declaration over the live :class:`~repro.engine.family.PillarDims`
(a smaller trace on a millisecond-scale workload, real threads, real
elastic membership); it reports the same comparison plus the
replication-correctness evidence.
"""

from __future__ import annotations

from typing import List

from ..core.params import ConflictProfile, WorkloadMix
from ..core.topology import MULTI_MASTER, SINGLE_MASTER
from ..engine import (
    CLUSTER,
    SIMULATOR,
    PillarDims,
    Scenario,
    register_family,
    register_scenario,
)
from ..engine.scenario import profile_task
from ..models.api import predict
from ..workloads import tpcw
from ..workloads.spec import WorkloadSpec, demands_ms
from .autoscale import AutoscaleComparison
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

#: Diurnal load as (trough, peak) fractions of the anchor capacity.  The
#: simulator swing is the day/night ratio real data-center traces show,
#: wide enough that tracking the trough pays for itself; the short live
#: run stays a little further from both edges.
DIURNAL_SWING = {SIMULATOR: (0.10, 0.85), CLUSTER: (0.15, 0.80)}


def sim_dims(settings, spec: WorkloadSpec = tpcw.SHOPPING) -> PillarDims:
    """The simulator cells' dimensions: everything follows *settings*;
    the trace peak is anchored at ``autoscale_peak_replicas``."""
    config = spec.replication_config(
        1,
        load_balancer_delay=settings.load_balancer_delay,
        certifier_delay=settings.certifier_delay,
    )
    return PillarDims(
        pillar=SIMULATOR,
        spec=spec,
        seed=settings.seed,
        config=config,
        warmup=settings.autoscale_warmup,
        duration=settings.autoscale_duration,
        control_interval=settings.autoscale_control_interval,
        anchor=config.with_replicas(settings.autoscale_peak_replicas),
        designs=(MULTI_MASTER, SINGLE_MASTER),
    )


def live_dims(settings) -> PillarDims:
    """The live validation cells' dimensions: a smaller trace on the
    millisecond-scale workload, real threads, real elastic membership."""
    return PillarDims(
        pillar=CLUSTER,
        spec=LIVE_SPEC,
        seed=settings.seed,
        config=LIVE_SPEC.replication_config(
            1, load_balancer_delay=0.0005, certifier_delay=0.002,
        ),
        warmup=LIVE_WARMUP,
        duration=LIVE_DURATION,
        time_scale=LIVE_TIME_SCALE,
        control_interval=LIVE_CONTROL_INTERVAL,
        transfer_writesets=8,
        anchor=LIVE_SPEC.replication_config(LIVE_PEAK_REPLICAS),
    )


def _policies(dims: PillarDims):
    # Forecast two control periods ahead: enough lead for joins (bulk
    # replay) to land before the load does, small against the trace
    # period so the trough is actually tracked.
    return (
        FeedforwardPolicy(horizon=2.0 * dims.control_interval,
                          headroom=HEADROOM),
        ReactivePolicy(initial_replicas=2, low_utilization=0.45,
                       down_patience=2),
        StaticPeakPolicy(headroom=HEADROOM),
    )


def _design_capacity(design: str, dims: PillarDims, settings) -> float:
    """Predicted capacity of *design* at the family's anchor deployment;
    it sizes the trace, so every design sweeps the same relative load."""
    from ..experiments.context import get_profile

    profile = get_profile(dims.spec, settings)
    return predict(design, profile, dims.anchor).throughput


def _autoscale_points(settings, dims: PillarDims, trace_for) -> List:
    task = profile_task(dims.spec, settings)
    points = []
    for design in dims.designs:
        trace = trace_for(dims, _design_capacity(design, dims, settings))
        for policy in _policies(dims):
            points.append(dims.elastic_point(
                design,
                trace=trace,
                policy=policy,
                slo_response=SLO_RESPONSE,
                max_replicas=2 * dims.anchor.replicas,
                profile=task,
                tag=f"{dims.label(design)}:{policy.kind}",
            ))
    return points


def _assemble(settings, points, results) -> AutoscaleComparison:
    return AutoscaleComparison(
        workload=points[0].spec.name,
        trace=results[0].trace,
        pillar=points[0].option("pillar"),
        slo_response=SLO_RESPONSE,
        results=tuple(results),
    )


def _diurnal_trace(dims: PillarDims, capacity: float) -> DiurnalTrace:
    # Two full day/night cycles across the run.
    trough, peak = DIURNAL_SWING[dims.pillar]
    return DiurnalTrace(
        base_rate=trough * capacity,
        peak_rate=peak * capacity,
        period=dims.duration / 2.0,
    )


def _flashcrowd_trace(dims: PillarDims, capacity: float) -> FlashCrowdTrace:
    # Quiet baseline with one sharp spike in the middle of the window.
    return FlashCrowdTrace(
        base_rate=0.20 * capacity,
        spike_rate=0.80 * capacity,
        spike_start=dims.warmup + 0.40 * dims.duration,
        spike_duration=0.20 * dims.duration,
        ramp=max(2.0 * dims.control_interval, 10.0),
    )


register_family(
    lambda settings, dims: _autoscale_points(settings, dims, _diurnal_trace),
    sim_dims,
    live_dims,
    live=dict(
        title="Live-cluster autoscaling under diurnal load "
        "(elastic membership)",
    ),
    name="autoscale-diurnal",
    title="Autoscaling policies under diurnal load (TPC-W shopping)",
    kind="autoscale",
    assemble=_assemble,
)

register_scenario(Scenario(
    name="autoscale-flashcrowd",
    title="Autoscaling policies under a flash crowd (TPC-W shopping)",
    kind="autoscale",
    points=lambda settings: _autoscale_points(
        settings, sim_dims(settings), _flashcrowd_trace
    ),
    assemble=_assemble,
))
