"""Failover experiment: throughput through a replica crash and recovery.

An extension beyond the paper's evaluation (the paper motivates replication
with fault tolerance but measures only steady state): crash one replica
mid-run, watch the committed throughput dip while the survivors absorb the
load, and watch the recovery — including the multi-master catch-up burst
while the returning replica applies the writesets it missed.

The analytical model supplies the reference lines: the steady-state
prediction for N replicas (before/after) and for N-1 replicas scaled to the
same client population bound (during).

As an engine scenario the grid is three points — the fault-injected
simulation plus the healthy/degraded model predictions — so the expensive
simulation, its reference predictions, and the profiling they share are
scheduled by the same runner as every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..engine import (
    Claim,
    Scenario,
    model_point,
    profile_task,
    register_scenario,
    sim_point,
)
from ..simulator.faults import ReplicaFault
from ..workloads import tpcw
from ..workloads.spec import WorkloadSpec
from .settings import ExperimentSettings


@dataclass(frozen=True)
class FailoverResult:
    """Measured throughput phases around one replica fault."""

    design: str
    replicas: int
    fault: ReplicaFault
    #: Mean committed tps before / during / after the outage.
    before: float
    during: float
    after: float
    #: Steady-state model predictions with N and N-1 replicas.
    predicted_healthy: float
    predicted_degraded: float
    #: Per-second committed throughput over the measurement window.
    timeline: Sequence[float]

    @property
    def dip_fraction(self) -> float:
        """Fractional throughput lost while the replica was down."""
        if self.before <= 0:
            raise ConfigurationError("no pre-fault throughput measured")
        return max(0.0, 1.0 - self.during / self.before)

    @property
    def recovered(self) -> bool:
        """True when post-recovery throughput is within 10% of pre-fault."""
        return self.after >= 0.9 * self.before

    def to_text(self) -> str:
        """Render a small report."""
        lines = [
            f"failover: {self.design}, N={self.replicas}, replica "
            f"{self.fault.replica_index} down "
            f"[{self.fault.start:.0f}s, {self.fault.end:.0f}s)",
            f"  before {self.before:7.1f} tps   (model N:   "
            f"{self.predicted_healthy:7.1f} tps)",
            f"  during {self.during:7.1f} tps   (model N-1: "
            f"{self.predicted_degraded:7.1f} tps)",
            f"  after  {self.after:7.1f} tps   -> "
            f"{'recovered' if self.recovered else 'NOT recovered'}",
        ]
        return "\n".join(lines)


def _failover_points(
    spec: WorkloadSpec,
    design: str,
    replicas: int,
    fault_replica: int,
    phase_length: float,
    settings: ExperimentSettings,
) -> List:
    warmup = settings.sim_warmup
    fault = ReplicaFault(
        replica_index=fault_replica,
        start=warmup + phase_length,
        downtime=phase_length,
    )
    config = spec.replication_config(
        replicas,
        load_balancer_delay=settings.load_balancer_delay,
        certifier_delay=settings.certifier_delay,
    )
    task = profile_task(spec, settings)
    return [
        sim_point(
            spec, config, design,
            seed=settings.seed,
            warmup=warmup,
            duration=3 * phase_length,
            faults=(fault,),
            tag="run",
        ),
        model_point(spec, config, design, profile=task, tag="healthy"),
        model_point(spec, config.with_replicas(replicas - 1), design,
                    profile=task, tag="degraded"),
    ]


def _failover_assemble(
    design: str,
    replicas: int,
    phase_length: float,
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> FailoverResult:
    by_tag = dict(zip((p.tag for p in points), results))
    sim_result = by_tag["run"]
    run_point = next(p for p in points if p.tag == "run")
    fault = run_point.option("faults")[0]
    timeline = list(sim_result.throughput_timeline)

    def phase_mean(start: float, end: float) -> float:
        # Phase means skip 5 s of settling after each transition.
        lo, hi = int(start) + 5, int(end)
        values = timeline[lo:hi]
        return sum(values) / len(values) if values else 0.0

    return FailoverResult(
        design=design,
        replicas=replicas,
        fault=fault,
        before=phase_mean(0, phase_length),
        during=phase_mean(phase_length, 2 * phase_length),
        after=phase_mean(2 * phase_length, 3 * phase_length),
        predicted_healthy=by_tag["healthy"].throughput,
        predicted_degraded=by_tag["degraded"].throughput,
        timeline=tuple(timeline),
    )


#: The degraded phase loses about one replica's worth of capacity, the
#: model's N and N-1 predictions call both plateaus, and the fleet
#: recovers once the replica returns.
_FAILOVER_CLAIMS = (
    Claim("extension", "the dip is about one replica's capacity: "
          "1 - during / before",
          lambda r: r.dip_fraction, "> 0.1 and < 0.4"),
    Claim("extension", "the N prediction calls the healthy plateau: "
          "relative error",
          lambda r: abs(r.before - r.predicted_healthy) / r.predicted_healthy,
          "< 0.1"),
    Claim("extension", "the N-1 prediction calls the degraded plateau: "
          "relative error",
          lambda r: (abs(r.during - r.predicted_degraded)
                     / r.predicted_degraded),
          "< 0.1"),
    Claim("extension", "full recovery: after / before",
          lambda r: r.after / r.before, ">= 0.9"),
)


def _failover_scenario(
    spec: WorkloadSpec,
    design: str,
    replicas: int,
    fault_replica: int,
    phase_length: float,
    name: str = "ext-failover",
) -> Scenario:
    def points(settings):
        return _failover_points(
            spec, design, replicas, fault_replica, phase_length, settings
        )

    def assemble(settings, pts, results):
        return _failover_assemble(
            design, replicas, phase_length, settings, pts, results
        )

    return Scenario(
        name=name,
        title=f"Replica crash/recovery throughput ({spec.name}, {design})",
        kind="extension",
        points=points,
        assemble=assemble,
        claims=_FAILOVER_CLAIMS,
    )


register_scenario(
    _failover_scenario(tpcw.SHOPPING, "multi-master", 4, 1, 30.0)
)


def failover_experiment(
    spec: WorkloadSpec,
    design: str = "multi-master",
    replicas: int = 4,
    fault_replica: int = 1,
    settings: ExperimentSettings = ExperimentSettings(),
    phase_length: float = 30.0,
    *,
    jobs: Optional[int] = 1,
    cache: object = None,
) -> FailoverResult:
    """Crash one replica for *phase_length* seconds mid-run and measure.

    The run has three equal phases: healthy, degraded, recovered.  Phase
    means skip 5 s of settling after each transition.
    """
    if replicas < 2:
        raise ConfigurationError("failover needs at least 2 replicas")
    from ..engine.runner import run_scenario

    scenario = _failover_scenario(
        spec, design, replicas, fault_replica, phase_length
    )
    return run_scenario(scenario, settings, jobs=jobs, cache=cache)
