"""Run simulations and collect paper-style measurements.

:func:`simulate` builds a system, runs closed-loop clients through a
warm-up period and a measurement window (§6.1 uses 10 + 15 minutes on real
hardware; simulated defaults are shorter but deliver thousands of
transactions per point), and reports an
:class:`~repro.core.results.OperatingPoint` plus diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.params import ReplicationConfig
from ..core.results import OperatingPoint, ScalabilityCurve
from ..core.rng import DEFAULT_SEED
from ..sidb.certifier_api import resolve_certifier_spec
from ..telemetry import Telemetry, active_config
from ..workloads.spec import WorkloadSpec
from .des import Environment
from .faults import ReplicaFault, install_faults, validate_faults
from .sampling import DISTRIBUTIONS, EXPONENTIAL
from .sharded import ShardedMultiMasterSystem
from .stats import MetricsCollector
from .systems import (
    LB_POLICIES,
    LEAST_LOADED,
    MultiMasterSystem,
    SingleMasterSystem,
    StandaloneSystem,
)

#: System designs the simulator can build.
STANDALONE = "standalone"
MULTI_MASTER = "multi-master"
SINGLE_MASTER = "single-master"
DESIGNS = (STANDALONE, MULTI_MASTER, SINGLE_MASTER)

_SYSTEM_CLASSES = {
    STANDALONE: StandaloneSystem,
    MULTI_MASTER: MultiMasterSystem,
    SINGLE_MASTER: SingleMasterSystem,
}


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured during one simulation run."""

    design: str
    replicas: int
    point: OperatingPoint
    read_throughput: float
    update_throughput: float
    mean_read_response: float
    mean_update_response: float
    #: Mean GSI snapshot staleness in versions (multi-master only).
    mean_snapshot_age: float
    #: Certification requests per second.
    certifier_request_rate: float
    #: Whole-run certifier counters (warm-up included) — many more samples
    #: than the measurement window for estimating rare abort rates.
    total_certifications: int = 0
    total_certification_aborts: int = 0
    #: Utilization per resource, keyed like ``replica0.cpu``.
    utilizations: Dict[str, float] = field(default_factory=dict)
    committed_transactions: int = 0
    window: float = 0.0
    #: Committed tps per second of the window (failure-injection runs read
    #: the dip and recovery off this series).
    throughput_timeline: Sequence[float] = ()
    #: :class:`repro.telemetry.TelemetryResult` when the run was
    #: telemetry-enabled; ``None`` otherwise (the default keeps results
    #: from older cached runs loading unchanged).
    telemetry: object = None

    @property
    def throughput(self) -> float:
        """Committed transactions per second."""
        return self.point.throughput

    @property
    def response_time(self) -> float:
        """Mean response time (seconds)."""
        return self.point.response_time

    @property
    def abort_rate(self) -> float:
        """Measured update-attempt abort fraction."""
        return self.point.abort_rate


def simulate(
    spec: WorkloadSpec,
    config: ReplicationConfig,
    design: str = MULTI_MASTER,
    seed: int = DEFAULT_SEED,
    warmup: float = 10.0,
    duration: float = 40.0,
    distribution: str = EXPONENTIAL,
    lb_policy: str = LEAST_LOADED,
    faults: Sequence[ReplicaFault] = (),
    arrival_rate: Optional[float] = None,
    capacities: Optional[Sequence[float]] = None,
    partition_map=None,
    telemetry=None,
    certifier=None,
) -> SimulationResult:
    """Simulate *spec* on *design* with *config* and measure steady state.

    *faults* optionally injects replica crash/recovery events
    (:class:`~repro.simulator.faults.ReplicaFault`); fault times are
    relative to the start of the run (warm-up included).

    *arrival_rate* switches from the closed-loop client model (§3.1) to an
    open-loop Poisson stream of that many transactions per second — the
    open-vs-closed comparison of [Schroeder 2006].

    *capacities* builds a heterogeneous fleet: one speed multiplier per
    replica (single-master: index 0 is the master), scaling that
    replica's CPU and disk rates.

    *partition_map* places a partitioned workload's data on replica
    subsets (:class:`~repro.partition.placement.PartitionMap`): writesets
    propagate only to hosting replicas and transactions route to hosts of
    everything they touch.  Partitioned specs with no explicit map run
    fully replicated (the A/B baseline).

    *telemetry* opts into the observability layer: ``None`` (default)
    records nothing and changes nothing; a
    :class:`repro.telemetry.TelemetryConfig` (or ``True`` for defaults)
    threads a recorder through the certifier, replicas and load
    balancer, samples the fleet on the configured interval (a DES
    process in virtual time), and attaches a
    :class:`~repro.telemetry.TelemetryResult` to the result.  Telemetry
    never perturbs workload randomness or charges simulated time, so
    measurements are identical with it on or off.

    *certifier* selects the certification service: ``None`` (default)
    and the default :class:`~repro.sidb.certifier_api.CertifierSpec`
    keep the single global certifier byte-identical to before the
    sharded path existed; ``"sharded"`` (or a sharded spec) runs
    per-partition certifier shards with version vectors and the
    cross-partition forwarding coordinator
    (:class:`~repro.simulator.sharded.ShardedMultiMasterSystem`).
    """
    certifier_spec = resolve_certifier_spec(certifier)
    if design not in _SYSTEM_CLASSES:
        raise ConfigurationError(f"unknown design {design!r}; one of {DESIGNS}")
    if distribution not in DISTRIBUTIONS:
        raise ConfigurationError(f"unknown distribution {distribution!r}")
    if lb_policy not in LB_POLICIES:
        raise ConfigurationError(f"unknown lb_policy {lb_policy!r}")
    if warmup < 0 or duration <= 0:
        raise ConfigurationError("warmup must be >= 0 and duration > 0")
    if design == STANDALONE and config.replicas != 1:
        raise ConfigurationError("standalone design requires replicas == 1")

    env = Environment()
    metrics = MetricsCollector()
    if capacities is not None and design == STANDALONE:
        raise ConfigurationError(
            "capacities describe a replicated fleet; standalone systems "
            "have exactly one machine"
        )
    system_class, extra = _SYSTEM_CLASSES[design], {}
    if certifier_spec is not None and not certifier_spec.is_default:
        if design != MULTI_MASTER:
            raise ConfigurationError(
                "the certifier axis is multi-master only (the certifier "
                f"spec {certifier_spec.kind!r} cannot apply to {design!r})"
            )
        extra["certifier_spec"] = certifier_spec
        if certifier_spec.is_sharded:
            system_class = ShardedMultiMasterSystem
    system = system_class(
        env, spec, config, seed, metrics,
        distribution=distribution, lb_policy=lb_policy,
        capacities=capacities, partition_map=partition_map, **extra,
    )
    telemetry_config = active_config(telemetry)
    recorder = None
    if telemetry_config is not None:
        recorder = Telemetry(telemetry_config, pillar="simulator")
        system.attach_telemetry(recorder)
        system.start_fleet_sampler(recorder)
    if faults:
        from ..partition.placement import check_faults_against_map

        check_faults_against_map(faults, system.partition_map)
    clients = (
        config.clients_per_replica
        if design == STANDALONE
        else config.total_clients
    )
    if faults:
        install_faults(env, system, validate_faults(faults, config.replicas, design))
    if arrival_rate is None:
        system.start_clients(clients)
    else:
        system.start_open_arrivals(arrival_rate)

    env.schedule(warmup, metrics.begin_window, warmup)
    env.run_until(warmup + duration)
    metrics.end_window(env.now)

    telemetry_result = None
    if recorder is not None:
        # One closing sample so end-of-run state is always captured
        # (even when the interval exceeds the run length).
        recorder.sample_fleet(env.now, system.replicas, system.certifier)
        telemetry_result = recorder.result()
    return _collect(design, config, metrics, system.certifier,
                    telemetry_result)


def _collect(
    design: str,
    config: ReplicationConfig,
    metrics: MetricsCollector,
    certifier,
    telemetry=None,
) -> SimulationResult:
    utilizations = metrics.utilizations()
    busiest = _busiest_by_resource(utilizations)
    point = OperatingPoint(
        throughput=metrics.throughput(),
        response_time=metrics.mean_response_time(),
        abort_rate=metrics.abort_rate(),
        utilization=busiest,
    )
    return SimulationResult(
        design=design,
        replicas=config.replicas,
        point=point,
        read_throughput=metrics.read_throughput(),
        update_throughput=metrics.update_throughput(),
        mean_read_response=metrics.response_read.mean,
        mean_update_response=metrics.response_update.mean,
        mean_snapshot_age=metrics.snapshot_age.mean,
        certifier_request_rate=metrics.certifier_request_rate(),
        total_certifications=certifier.certifications,
        total_certification_aborts=certifier.aborts,
        utilizations=utilizations,
        committed_transactions=metrics.committed,
        window=metrics.window,
        throughput_timeline=tuple(metrics.throughput_timeline()),
        telemetry=telemetry,
    )


def _busiest_by_resource(utilizations: Dict[str, float]) -> Dict[str, float]:
    """Max utilization per resource kind across replicas."""
    busiest: Dict[str, float] = {}
    for key, value in utilizations.items():
        kind = key.rsplit(".", 1)[-1]
        busiest[kind] = max(busiest.get(kind, 0.0), value)
    return busiest


def measure_curve(
    spec: WorkloadSpec,
    design: str,
    replica_counts: Sequence[int],
    seed: int = DEFAULT_SEED,
    warmup: float = 10.0,
    duration: float = 40.0,
    load_balancer_delay: float = 0.001,
    certifier_delay: float = 0.012,
    distribution: str = EXPONENTIAL,
    lb_policy: str = LEAST_LOADED,
) -> ScalabilityCurve:
    """Measure a scalability curve by simulating each replica count."""
    counts = list(replica_counts)
    if not counts:
        raise ConfigurationError("replica_counts must not be empty")
    points = []
    for n in counts:
        config = spec.replication_config(
            n,
            load_balancer_delay=load_balancer_delay,
            certifier_delay=certifier_delay,
        )
        result = simulate(
            spec,
            config,
            design=design,
            seed=seed,
            warmup=warmup,
            duration=duration,
            distribution=distribution,
            lb_policy=lb_policy,
        )
        points.append(result.point)
    return ScalabilityCurve(
        label=f"{spec.name} {design} (measured)",
        replica_counts=counts,
        points=points,
    )
