"""Cross-validation: model vs simulator vs live cluster on one config.

The paper validates its analytical model against real prototype systems;
this harness makes that comparison a first-class, testable artifact inside
the repo.  All three pillars consume the *same*
:class:`~repro.core.params.ReplicationConfig` and workload spec:

1. **model** — :func:`repro.models.api.predict` from a standalone profile;
2. **simulator** — :func:`repro.simulator.runner.simulate`;
3. **live cluster** — :func:`repro.cluster.run_cluster`, which actually
   executes the transactions on threads against real SI engines.

The comparison is an engine scenario whose grid is one point per pillar —
the canonical demonstration that any scenario runs on any backend through
the same :func:`~repro.engine.runner.run_scenario` API.  With ``jobs=3``
the three pillars execute concurrently; the live-cluster point is never
cached (it measures real wall-clock behaviour).

The result reports per-metric deviation of the model and the live cluster
against the simulator (the common reference both were built to match), and
carries the live cluster's replication-correctness evidence: whether every
replica converged to the identical version after quiesce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..cluster import ClusterResult
from ..core.errors import ConfigurationError
from ..core.params import ReplicationConfig, StandaloneProfile
from ..core.rng import DEFAULT_SEED
from ..core.topology import MULTI_MASTER
from ..core.units import to_ms
from ..engine import (
    Scenario,
    cluster_point,
    model_point,
    profile_task,
    register_scenario,
    sim_point,
)
from ..simulator.sampling import EXPONENTIAL
from ..simulator.systems import LEAST_LOADED
from ..workloads import get_workload, tpcw
from ..workloads.spec import WorkloadSpec
from .settings import ExperimentSettings

#: Bare benchmark names accepted by the CLI, mapped to their primary mix.
DEFAULT_MIXES = {
    "tpcw": "tpcw/shopping",
    "rubis": "rubis/bidding",
}


def resolve_workload(name: str) -> WorkloadSpec:
    """Look up a workload, accepting a bare benchmark name for its
    primary mix (``tpcw`` → ``tpcw/shopping``)."""
    try:
        return get_workload(DEFAULT_MIXES.get(name, name))
    except KeyError as exc:
        raise ConfigurationError(str(exc)) from None


@dataclass(frozen=True)
class PillarPoint:
    """One pillar's measurement of the shared operating point."""

    pillar: str
    throughput: float
    response_time: float
    abort_rate: float


@dataclass(frozen=True)
class CrossValidationResult:
    """Three-pillar comparison on one (workload, design, N) point."""

    workload: str
    design: str
    replicas: int
    model: PillarPoint
    simulator: PillarPoint
    cluster: PillarPoint
    #: The live run's full result, including the replication-correctness
    #: evidence (convergence flag and per-replica final versions).
    live_result: ClusterResult
    #: The simulator's full result; with telemetry enabled the two
    #: pillars' :class:`~repro.telemetry.TelemetryResult` objects hang
    #: off ``sim_result.telemetry`` / ``live_result.telemetry`` and emit
    #: one shared metric-name schema (the DES-vs-live parity contract).
    sim_result: object = None

    @property
    def converged(self) -> bool:
        """Whether every live replica applied every certified commit
        within the quiesce timeout."""
        return self.live_result.converged

    @property
    def final_versions(self) -> Tuple[int, ...]:
        """Each live replica's final version (identical when replication
        was correct)."""
        return self.live_result.final_versions

    def deviations(self) -> Dict[str, Dict[str, float]]:
        """Relative deviation of model and cluster vs the simulator.

        Throughput and response time are relative (``|x - sim| / sim``);
        abort rates are compared absolutely because the simulator's value
        is often within noise of zero.
        """
        out: Dict[str, Dict[str, float]] = {}
        for pillar in (self.model, self.cluster):
            out[pillar.pillar] = {
                "throughput": _relative(pillar.throughput,
                                        self.simulator.throughput),
                "response_time": _relative(pillar.response_time,
                                           self.simulator.response_time),
                "abort_rate": abs(pillar.abort_rate
                                  - self.simulator.abort_rate),
            }
        return out

    @property
    def cluster_throughput_deviation(self) -> float:
        """Live-cluster throughput deviation vs the simulator."""
        return _relative(self.cluster.throughput, self.simulator.throughput)

    @property
    def state_converged(self) -> bool:
        """True when all live replicas reached the identical version."""
        return self.live_result.state_converged

    def to_text(self) -> str:
        """Render the deviation table."""
        deviations = self.deviations()
        lines = [
            f"cross-validation: {self.workload} on {self.design}, "
            f"N={self.replicas}",
            f"  {'pillar':<12s} {'throughput':>12s} {'response':>10s} "
            f"{'aborts':>8s} {'tput dev':>9s} {'resp dev':>9s}",
        ]
        for point in (self.model, self.simulator, self.cluster):
            dev = deviations.get(point.pillar)
            dev_cols = (
                f" {dev['throughput']:>8.1%} {dev['response_time']:>8.1%}"
                if dev
                else f" {'—':>8s} {'—':>8s}"
            )
            lines.append(
                f"  {point.pillar:<12s} {point.throughput:>8.1f} tps "
                f"{to_ms(point.response_time):>7.1f} ms "
                f"{point.abort_rate:>7.3%}" + dev_cols
            )
        versions = ", ".join(str(v) for v in self.final_versions)
        lines.append(
            f"  replication: converged={self.converged} "
            f"final versions=[{versions}] "
            f"({'identical' if self.state_converged else 'DIVERGED'})"
        )
        return "\n".join(lines)


def _relative(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(value - reference) / reference


def _crossval_points(
    spec: WorkloadSpec,
    config: ReplicationConfig,
    design: str,
    seed: int,
    profile: object,
    sim_warmup: float,
    sim_duration: float,
    cluster_warmup: float,
    cluster_duration: float,
    time_scale: float,
    distribution: str,
    lb_policy: str,
    settings: ExperimentSettings,
    telemetry: object = None,
):
    if profile is None:
        profile = profile_task(spec, settings)
    return [
        model_point(spec, config, design, profile=profile, tag="model"),
        sim_point(
            spec, config, design,
            seed=seed,
            warmup=sim_warmup,
            duration=sim_duration,
            distribution=distribution,
            lb_policy=lb_policy,
            telemetry=telemetry,
            tag="simulator",
        ),
        cluster_point(
            spec, config, design,
            seed=seed,
            warmup=cluster_warmup,
            duration=cluster_duration,
            time_scale=time_scale,
            distribution=distribution,
            lb_policy=lb_policy,
            telemetry=telemetry,
            tag="cluster",
        ),
    ]


def _crossval_assemble(
    spec: WorkloadSpec,
    config: ReplicationConfig,
    design: str,
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> CrossValidationResult:
    by_tag = dict(zip((p.tag for p in points), results))
    prediction = by_tag["model"]
    sim_result = by_tag["simulator"]
    live_result = by_tag["cluster"]
    return CrossValidationResult(
        workload=spec.name,
        design=design,
        replicas=config.replicas,
        model=PillarPoint(
            "model",
            prediction.throughput,
            prediction.response_time,
            prediction.abort_rate,
        ),
        simulator=PillarPoint(
            "simulator",
            sim_result.throughput,
            sim_result.response_time,
            sim_result.abort_rate,
        ),
        cluster=PillarPoint(
            "cluster",
            live_result.throughput,
            live_result.response_time,
            live_result.abort_rate,
        ),
        live_result=live_result,
        sim_result=sim_result,
    )


def _crossval_scenario(
    spec: WorkloadSpec,
    config: ReplicationConfig,
    design: str = MULTI_MASTER,
    seed: int = DEFAULT_SEED,
    profile: Optional[StandaloneProfile] = None,
    sim_warmup: float = 10.0,
    sim_duration: float = 40.0,
    cluster_warmup: float = 5.0,
    cluster_duration: float = 20.0,
    time_scale: float = 0.1,
    distribution: str = EXPONENTIAL,
    lb_policy: str = LEAST_LOADED,
    name: str = "crossval",
    telemetry: object = None,
) -> Scenario:
    def points(settings):
        return _crossval_points(
            spec, config, design, seed, profile, sim_warmup, sim_duration,
            cluster_warmup, cluster_duration, time_scale, distribution,
            lb_policy, settings, telemetry,
        )

    def assemble(settings, pts, results):
        return _crossval_assemble(spec, config, design, settings, pts,
                                  results)

    return Scenario(
        name=name,
        title=f"Three-pillar cross-validation ({spec.name}, {design}, "
        f"N={config.replicas})",
        kind="crossval",
        metrics=("throughput", "response_time", "abort_rate"),
        points=points,
        assemble=assemble,
        aliases=("cross-validation",),
        tags=("live",),
    )


register_scenario(_crossval_scenario(
    tpcw.SHOPPING,
    tpcw.SHOPPING.replication_config(2),
    sim_warmup=5.0,
    sim_duration=20.0,
    cluster_warmup=2.0,
    cluster_duration=10.0,
))


def cross_validate(
    spec: WorkloadSpec,
    config: ReplicationConfig,
    design: str = MULTI_MASTER,
    seed: int = DEFAULT_SEED,
    settings: Optional[ExperimentSettings] = None,
    profile: Optional[StandaloneProfile] = None,
    sim_warmup: float = 10.0,
    sim_duration: float = 40.0,
    cluster_warmup: float = 5.0,
    cluster_duration: float = 20.0,
    time_scale: float = 0.1,
    distribution: str = EXPONENTIAL,
    lb_policy: str = LEAST_LOADED,
    *,
    jobs: Optional[int] = 1,
    cache: object = None,
    telemetry: object = None,
) -> CrossValidationResult:
    """Run all three pillars on the same configuration and compare.

    *profile* short-circuits the standalone profiling step (tests pass a
    ground-truth profile); by default the profile is measured with
    :func:`repro.experiments.context.get_profile` under *settings*
    (default: :meth:`ExperimentSettings.fast`).  ``jobs=3`` runs the three
    pillars concurrently.  *telemetry* (a
    :class:`repro.telemetry.TelemetryConfig`) records both executable
    pillars with one shared metric-name schema.
    """
    from ..engine.runner import run_scenario

    scenario = _crossval_scenario(
        spec, config, design, seed, profile, sim_warmup, sim_duration,
        cluster_warmup, cluster_duration, time_scale, distribution,
        lb_policy, telemetry=telemetry,
    )
    return run_scenario(
        scenario, settings or ExperimentSettings.fast(), jobs=jobs,
        cache=cache,
    )
