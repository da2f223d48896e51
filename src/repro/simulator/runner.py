"""Run simulations and collect paper-style measurements.

:func:`simulate` builds a system, runs closed-loop clients through a
warm-up period and a measurement window (§6.1 uses 10 + 15 minutes on real
hardware; simulated defaults are shorter but deliver thousands of
transactions per point), and reports an
:class:`~repro.core.results.OperatingPoint` plus diagnostics.

:class:`SimRun` is the DES half of the run seam :func:`simulate` shares
with the elastic loop in :mod:`repro.control.autoscale`: it assembles the
event loop, the system and the telemetry recorder, and owns the
measurement window.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.params import ReplicationConfig
from ..core.results import OperatingPoint, ScalabilityCurve
from ..core.rng import DEFAULT_SEED
from ..core.topology import MULTI_MASTER, SINGLE_MASTER, STANDALONE
from ..telemetry import Telemetry, active_config
from ..workloads.spec import WorkloadSpec
from .des import Environment, Timeout
from .faults import ReplicaFault, install_faults
from .sampling import EXPONENTIAL
from .stats import MetricsCollector
from .systems import (
    LEAST_LOADED,
    MultiMasterSystem,
    RunOptions,
    SingleMasterSystem,
    StandaloneSystem,
)

#: The DES assembly of each design (the simulator builds them all).
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


def attach_recorder(fleet, telemetry, pillar: str) -> Optional[Telemetry]:
    """Wire a recorder into *fleet* when *telemetry* asks for one."""
    telemetry_config = active_config(telemetry)
    if telemetry_config is None:
        return None
    recorder = Telemetry(telemetry_config, pillar=pillar)
    fleet.attach_telemetry(recorder)
    return recorder


class SimRun:
    """One DES run: event loop + system + telemetry + measurement window.

    Built from validated :class:`~.systems.RunOptions`; building it
    starts the fleet sampler (when telemetry is on) and nothing else;
    the caller starts its traffic on :attr:`fleet`,
    installs faults and spawns tasks in the order it wants them to win
    event-heap ties, then calls :meth:`measure`.  The live counterpart
    with the same members is :class:`repro.cluster.runner.ClusterRun`.
    """

    pillar = "simulator"
    #: Sample slicing needs no lock: the event loop is single-threaded.
    metrics_lock = contextlib.nullcontext()

    def __init__(self, options: RunOptions, spec: WorkloadSpec,
                 config: ReplicationConfig, seed: int,
                 metrics: MetricsCollector, *, telemetry=None,
                 drain: float = 0.0) -> None:
        self.env = Environment()
        self.metrics = metrics
        #: The system the (validated) *options* describe.
        self.fleet = _SYSTEM_CLASSES[options.design](
            self.env, spec, config, seed, metrics, options
        )
        #: Virtual seconds :meth:`measure` keeps the loop running after
        #: the window with arrivals stopped (elastic runs: joins, drains
        #: and in-flight transactions finish before convergence is read).
        self.drain = drain
        self.recorder = attach_recorder(self.fleet, telemetry, self.pillar)
        if self.recorder is not None:
            self.fleet.start_fleet_sampler(self.recorder)

    def now(self) -> float:
        """Current virtual time (seconds from run start)."""
        return self.env.now

    def install_faults(self, faults: Sequence[ReplicaFault],
                       record=None) -> None:
        """Schedule an already validated fault schedule; *record* is
        called as ``record(now, kind, replica_name)`` when one fires."""
        install_faults(self.env, self.fleet, faults, recorder=record)

    def spawn(self, task: Iterable[float], name: str = "") -> None:
        """Drive *task* on the event loop: every virtual-second delay it
        yields becomes a :class:`Timeout` (*name* labels live threads
        only)."""
        def process():
            for delay in task:
                yield Timeout(delay)

        self.env.start(process())

    def measure(self, warmup: float, duration: float,
                on_close: Optional[Callable[[], None]] = None,
                ) -> Tuple[bool, Tuple[int, ...]]:
        """Run warm-up and the measurement window, then the drain.

        *on_close* is called once, at the instant the window closes.
        Returns ``(converged, final_versions)`` of the surviving
        replicas against the certifier's latest version.
        """
        env, system = self.env, self.fleet
        window_end = warmup + duration
        env.schedule(warmup, self.metrics.begin_window, warmup)
        env.run_until(window_end)
        self.metrics.end_window(env.now)
        if on_close is not None:
            on_close()
        if self.drain > 0:
            system.stop_arrivals()
            env.run_until(window_end + self.drain)
        if self.recorder is not None:
            # One closing sample so end-of-run state is always captured
            # (even when the interval exceeds the run length).
            self.recorder.sample_fleet(env.now, system.replicas,
                                       system.certifier)
        latest = system.certifier.latest_version
        final_versions = tuple(
            r.applied_version for r in system.replicas if r.staying
        )
        return all(v == latest for v in final_versions), final_versions

    def close(self) -> None:
        """Free the finished run's processes and events without waiting
        for a garbage collection (:meth:`Environment.close`): call it once
        the result and its telemetry are assembled."""
        self.env.close()


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

    *design*, *distribution*, *lb_policy*, *faults*, *arrival_rate*,
    *capacities*, *partition_map* and *certifier* are the fields of
    :class:`~repro.simulator.systems.RunOptions` — see its field docs —
    validated together before anything is built.

    *telemetry* opts into the observability layer: ``None`` (default)
    records nothing and changes nothing; a
    :class:`repro.telemetry.TelemetryConfig` (or ``True`` for defaults)
    threads a recorder through the certifier, replicas and load
    balancer, samples the fleet on the configured interval (a DES
    process in virtual time), and attaches a
    :class:`~repro.telemetry.TelemetryResult` to the result.  Telemetry
    never perturbs workload randomness or charges simulated time, so
    measurements are identical with it on or off.
    """
    options = RunOptions(
        design=design, distribution=distribution, lb_policy=lb_policy,
        capacities=capacities, partition_map=partition_map,
        certifier=certifier, faults=faults, arrival_rate=arrival_rate,
    ).validate(spec, config, window=(warmup, duration))
    run = SimRun(options, spec, config, seed, MetricsCollector(),
                 telemetry=telemetry)
    run.install_faults(options.faults)
    if arrival_rate is not None:
        run.fleet.start_open_arrivals(arrival_rate)
    elif design == STANDALONE:
        run.fleet.start_clients(config.clients_per_replica)
    else:
        run.fleet.start_clients(config.total_clients)
    run.measure(warmup, duration)
    result = SimulationResult(
        **measured_fields(design, config, run.metrics, run.fleet.certifier),
        telemetry=None if run.recorder is None else run.recorder.result(),
    )
    run.close()
    return result


def measured_fields(
    design: str,
    config: ReplicationConfig,
    metrics: MetricsCollector,
    certifier,
) -> Dict[str, object]:
    """The measurements :class:`SimulationResult` and the live
    :class:`~repro.cluster.runner.ClusterResult` share, by field name."""
    utilizations = metrics.utilizations()
    # Max utilization per resource kind across replicas.
    busiest: Dict[str, float] = {}
    for key, value in utilizations.items():
        kind = key.rsplit(".", 1)[-1]
        busiest[kind] = max(busiest.get(kind, 0.0), value)
    return dict(
        design=design,
        replicas=config.replicas,
        point=OperatingPoint(
            throughput=metrics.throughput(),
            response_time=metrics.mean_response_time(),
            abort_rate=metrics.abort_rate(),
            utilization=busiest,
        ),
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
    )


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
