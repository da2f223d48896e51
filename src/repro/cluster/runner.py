"""Drive a live cluster and collect paper-style measurements.

:func:`run_cluster` is the live counterpart of
:func:`repro.simulator.runner.simulate`: same workload specs, same
:class:`ReplicationConfig`, same metrics schema, same warm-up-then-window
methodology — but the transactions, the certification, and the writeset
propagation all actually happen, on threads, against real SI engines.
All durations are *virtual* seconds (see :mod:`repro.cluster.clock`);
``time_scale`` maps them onto wall-clock sleeps.

Traffic models:

* **closed-loop** (default) — one thread per client: think (exponential),
  submit, wait for the response (§3.1);
* **open-loop** (``arrival_rate``) — a Poisson arrival thread spawns a
  short-lived worker per transaction, no think-time feedback
  ([Schroeder 2006]).

Fault injection reuses :class:`repro.simulator.faults.ReplicaFault`
schedules: a fault thread takes the replica out of rotation at ``start``
and brings it back at ``start + downtime``; its applier defers writesets
while down and catches up on recovery.

After the drivers stop the runner **quiesces** the cluster and records
every replica's final version — the replication-correctness check that all
replicas converged to identical state.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import rng as rng_util
from ..core.errors import ConfigurationError, SimulationError
from ..core.params import ReplicationConfig
from ..core.results import OperatingPoint
from ..core.rng import DEFAULT_SEED
from ..sidb.certifier_api import resolve_certifier_spec
from ..simulator.faults import (
    BROWNOUT, CRASH, ReplicaFault, scale_replica_rates, validate_faults,
)
from ..simulator.runner import MULTI_MASTER, SINGLE_MASTER
from ..simulator.sampling import DISTRIBUTIONS, EXPONENTIAL, WorkloadSampler
from ..simulator.stats import MetricsCollector
from ..simulator.systems import LB_POLICIES, LEAST_LOADED
from ..telemetry import Telemetry, active_config
from ..workloads.spec import WorkloadSpec
from .clock import VirtualClock
from .cluster import Cluster, MultiMasterCluster, SingleMasterCluster
from .sharded import ShardedMultiMasterCluster

#: System designs the live runtime can assemble.
CLUSTER_DESIGNS = (MULTI_MASTER, SINGLE_MASTER)

_CLUSTER_CLASSES = {
    MULTI_MASTER: MultiMasterCluster,
    SINGLE_MASTER: SingleMasterCluster,
}


@dataclass(frozen=True)
class ClusterResult:
    """Everything measured during one live cluster run.

    Field-compatible with :class:`repro.simulator.runner.SimulationResult`
    where the metrics overlap, plus the live-only convergence evidence.
    """

    design: str
    replicas: int
    point: OperatingPoint
    read_throughput: float
    update_throughput: float
    mean_read_response: float
    mean_update_response: float
    mean_snapshot_age: float
    certifier_request_rate: float
    #: Whole-run certifier counters — warm-up AND post-window drain
    #: included (the simulator's counterparts include warm-up only, as it
    #: has no drain).  They pair with :attr:`final_versions` for the
    #: replication-correctness identity ``final_version == certifications
    #: - aborts``; for window-rate comparisons use
    #: :attr:`certifier_request_rate` and :meth:`abort_rate` instead.
    total_certifications: int = 0
    total_certification_aborts: int = 0
    utilizations: Dict[str, float] = field(default_factory=dict)
    committed_transactions: int = 0
    window: float = 0.0
    throughput_timeline: Sequence[float] = ()
    #: Wall-to-virtual scale the run used.
    time_scale: float = 1.0
    #: Each replica's latest locally visible version after quiesce.
    final_versions: Tuple[int, ...] = ()
    #: True when every replica applied every certified commit in time —
    #: with :attr:`final_versions` identical, replication was correct.
    converged: bool = False
    #: :class:`repro.telemetry.TelemetryResult` when the run was
    #: telemetry-enabled; ``None`` otherwise (the default keeps results
    #: from older cached runs loading unchanged).
    telemetry: object = None

    @property
    def throughput(self) -> float:
        """Committed transactions per (virtual) second."""
        return self.point.throughput

    @property
    def response_time(self) -> float:
        """Mean response time (virtual seconds)."""
        return self.point.response_time

    @property
    def abort_rate(self) -> float:
        """Measured update-attempt abort fraction."""
        return self.point.abort_rate

    @property
    def state_converged(self) -> bool:
        """True when all replicas reached the identical final version."""
        return self.converged and len(set(self.final_versions)) <= 1


class _Drivers:
    """Owns the traffic threads of one run."""

    #: Finished threads are pruned from the registry once it grows past
    #: this, so open-loop runs (one thread per transaction) stay O(live).
    _PRUNE_THRESHOLD = 256

    def __init__(self) -> None:
        self.stop = threading.Event()
        self.threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self.errors: List[BaseException] = []

    def launch(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        with self._lock:
            if len(self.threads) > self._PRUNE_THRESHOLD:
                self.threads = [t for t in self.threads if t.is_alive()]
            self.threads.append(thread)
        thread.start()

    def join(self, timeout: float) -> List[threading.Thread]:
        """Signal stop and wait (one shared *timeout* budget across all
        threads); returns the threads still alive afterwards."""
        self.stop.set()
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                pending = [t for t in self.threads if t.is_alive()]
            if not pending:
                return []
            for thread in pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    with self._lock:
                        return [t for t in self.threads if t.is_alive()]
                thread.join(remaining)
            # Re-scan: the open-loop source may have launched workers
            # while this pass was joining.

    def guard(self, fn):
        """Run *fn*, capturing the first exception for re-raise on join."""
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 — reported to the runner
            self.errors.append(exc)
            self.stop.set()


def _closed_loop_client(
    cluster: Cluster,
    sampler: WorkloadSampler,
    client_id: int,
    drivers: _Drivers,
) -> None:
    clock, metrics = cluster.clock, cluster.metrics
    while not drivers.stop.is_set():
        clock.sleep(sampler.think_time())
        if drivers.stop.is_set():
            return
        is_update = sampler.next_is_update()
        started = clock.now()
        aborts = cluster.execute(sampler, is_update, client_id)
        now = clock.now()
        with cluster.metrics_lock:
            metrics.record_commit(is_update, now - started, aborts, now=now)
        cluster.recorder.completed(is_update)


def _open_loop_source(
    cluster: Cluster, rate: float, seed: int, drivers: _Drivers,
    trace=None,
) -> None:
    """Poisson arrival source: homogeneous at *rate*, or — when *trace*
    is given — non-homogeneous following the trace's rate curve, sampled
    by thinning against its peak [Lewis & Shedler 1979].  The two modes
    use distinct RNG stream names so adding a trace never perturbs
    existing fixed-rate runs."""
    clock = cluster.clock
    if trace is None:
        arrival_rng = rng_util.spawn(seed, "live-open-arrivals")
        peak, client_stream, txn_prefix = rate, "live-open-client", "open-txn"
    else:
        arrival_rng = rng_util.spawn(seed, "live-trace-arrivals")
        peak = trace.max_rate
        client_stream, txn_prefix = "live-trace-client", "trace-txn"
    sequence = 0
    while not drivers.stop.is_set():
        clock.sleep(float(arrival_rng.exponential(1.0 / peak)))
        if drivers.stop.is_set():
            return
        if (trace is not None
                and not trace.accept_arrival(arrival_rng, clock.now())):
            continue  # thinned-out candidate
        sequence += 1
        sampler = WorkloadSampler(
            cluster.spec,
            rng_util.spawn(seed, client_stream, sequence),
            distribution=cluster._distribution,
            partition_map=cluster.partition_map,
        )
        drivers.launch(
            lambda s=sampler, i=sequence: drivers.guard(
                lambda: _one_shot(cluster, s, i)
            ),
            name=f"{txn_prefix}-{sequence}",
        )


def _one_shot(cluster: Cluster, sampler: WorkloadSampler, sequence: int) -> None:
    clock, metrics = cluster.clock, cluster.metrics
    is_update = sampler.next_is_update()
    started = clock.now()
    aborts = cluster.execute(sampler, is_update, sequence)
    now = clock.now()
    with cluster.metrics_lock:
        metrics.record_commit(is_update, now - started, aborts, now=now)
    cluster.recorder.completed(is_update)


def _telemetry_sampler(cluster: Cluster, recorder, drivers: _Drivers) -> None:
    """Snapshot fleet state every (virtual) snapshot interval."""
    interval = max(
        cluster.clock.to_wall(recorder.config.snapshot_interval), 0.001
    )
    while not drivers.stop.wait(interval):
        recorder.sample_fleet(
            cluster.clock.now(), cluster.replicas, cluster.certifier
        )


def _fault_process(
    cluster: Cluster, fault: ReplicaFault, drivers: _Drivers,
    recorder=None,
) -> None:
    replica = cluster.replicas[fault.replica_index]
    scale = cluster.clock.time_scale
    if drivers.stop.wait(fault.start * scale):
        return
    if fault.kind == CRASH:
        # Crash: the replica stops consuming writesets for good (its
        # state is lost); only replacement restores redundancy.
        replica.crash()
        if recorder is not None:
            recorder(cluster.clock.now(), CRASH, replica.name)
        return
    if fault.kind == BROWNOUT:
        # Gray failure: the replica keeps serving, but every service
        # started while the brownout is active runs at `severity` times
        # the configured speed.  Membership never changes; only the
        # capacity estimator can see this.
        scale_replica_rates(replica, fault.severity)
        if recorder is not None:
            recorder(cluster.clock.now(), BROWNOUT, replica.name)
        drivers.stop.wait(fault.downtime * scale)
        # Restore even when the run is over so quiesce drains at speed.
        scale_replica_rates(replica, 1.0 / fault.severity)
        if recorder is not None:
            recorder(cluster.clock.now(), "brownout-end", replica.name)
        return
    replica.available = False
    if recorder is not None:
        recorder(cluster.clock.now(), "down", replica.name)
    drivers.stop.wait(fault.downtime * scale)
    # Recover even when the run is over so quiesce can drain the backlog.
    replica.available = True
    if recorder is not None:
        recorder(cluster.clock.now(), "up", replica.name)


def run_cluster(
    spec: WorkloadSpec,
    config: ReplicationConfig,
    design: str = MULTI_MASTER,
    seed: int = DEFAULT_SEED,
    warmup: float = 5.0,
    duration: float = 20.0,
    time_scale: float = 0.1,
    distribution: str = EXPONENTIAL,
    lb_policy: str = LEAST_LOADED,
    faults: Sequence[ReplicaFault] = (),
    arrival_rate: Optional[float] = None,
    quiesce_timeout: float = 30.0,
    capacities: Optional[Sequence[float]] = None,
    partition_map=None,
    telemetry=None,
    certifier=None,
) -> ClusterResult:
    """Execute *spec* on a live *design* cluster and measure steady state.

    *warmup* and *duration* are virtual seconds; the wall cost is
    ``(warmup + duration) * time_scale`` plus drain time.  See
    :func:`repro.simulator.runner.simulate` for the shared parameter
    semantics (*faults*, *arrival_rate*, *lb_policy*, *distribution*,
    *partition_map*, *telemetry*, *certifier*).  Telemetry samples the
    fleet from a dedicated thread on the configured virtual interval and
    attaches a :class:`repro.telemetry.TelemetryResult`
    (``pillar="cluster"``) with the same metric-name schema the
    simulator emits.  ``certifier="sharded"`` (or a sharded
    :class:`~repro.sidb.certifier_api.CertifierSpec`) assembles
    :class:`~repro.cluster.sharded.ShardedMultiMasterCluster` —
    per-partition certifier shards, channels and order locks — while
    ``None`` keeps the single shared certifier byte-identical to before
    the sharded path existed.
    """
    certifier_spec = resolve_certifier_spec(certifier)
    if design not in _CLUSTER_CLASSES:
        raise ConfigurationError(
            f"unknown design {design!r}; one of {CLUSTER_DESIGNS}"
        )
    if distribution not in DISTRIBUTIONS:
        raise ConfigurationError(f"unknown distribution {distribution!r}")
    if lb_policy not in LB_POLICIES:
        raise ConfigurationError(f"unknown lb_policy {lb_policy!r}")
    if warmup < 0 or duration <= 0:
        raise ConfigurationError("warmup must be >= 0 and duration > 0")
    if arrival_rate is not None and arrival_rate <= 0:
        raise ConfigurationError(
            f"arrival rate must be positive, got {arrival_rate}"
        )

    clock = VirtualClock(time_scale)
    metrics = MetricsCollector()
    cluster_class, extra = _CLUSTER_CLASSES[design], {}
    if certifier_spec is not None and not certifier_spec.is_default:
        if design != MULTI_MASTER:
            raise ConfigurationError(
                "the certifier axis is multi-master only (the certifier "
                f"spec {certifier_spec.kind!r} cannot apply to {design!r})"
            )
        extra["certifier_spec"] = certifier_spec
        if certifier_spec.is_sharded:
            cluster_class = ShardedMultiMasterCluster
    cluster = cluster_class(
        spec, config, seed, clock, metrics,
        distribution=distribution, lb_policy=lb_policy,
        capacities=capacities, partition_map=partition_map, **extra,
    )
    telemetry_config = active_config(telemetry)
    recorder = None
    if telemetry_config is not None:
        recorder = Telemetry(telemetry_config, pillar="cluster")
        cluster.attach_telemetry(recorder)
    if faults:
        from ..partition.placement import check_faults_against_map

        check_faults_against_map(faults, cluster.partition_map)
    cluster.start()

    drivers = _Drivers()
    if recorder is not None:
        drivers.launch(
            lambda: drivers.guard(
                lambda: _telemetry_sampler(cluster, recorder, drivers)
            ),
            name="telemetry-sampler",
        )
    for fault in validate_faults(faults, config.replicas, design):
        drivers.launch(
            lambda f=fault: _fault_process(cluster, f, drivers),
            name=f"fault-replica{fault.replica_index}",
        )
    if arrival_rate is None:
        for client_id in range(config.total_clients):
            sampler = WorkloadSampler(
                spec,
                rng_util.spawn(seed, "live-client", client_id),
                distribution=distribution,
                partition_map=cluster.partition_map,
            )
            drivers.launch(
                lambda s=sampler, i=client_id: drivers.guard(
                    lambda: _closed_loop_client(cluster, s, i, drivers)
                ),
                name=f"client-{client_id}",
            )
    else:
        drivers.launch(
            lambda: drivers.guard(
                lambda: _open_loop_source(cluster, arrival_rate, seed, drivers)
            ),
            name="open-arrivals",
        )

    try:
        drivers.stop.wait(clock.to_wall(warmup))
        with cluster.metrics_lock:
            metrics.begin_window(clock.now())
        drivers.stop.wait(clock.to_wall(duration))
        with cluster.metrics_lock:
            metrics.end_window(clock.now())
        # Allow in-flight transactions (bounded by response times) to
        # drain; clients re-check the stop flag after each transaction.
        still_running = drivers.join(timeout=max(10.0, clock.to_wall(60.0)))
        if drivers.errors:
            raise drivers.errors[0]
        if still_running:
            # Quiescing now would race live transactions and could
            # misreport correct replication as divergence — fail loudly
            # instead (typically open-loop load far past the knee).
            raise SimulationError(
                f"{len(still_running)} traffic thread(s) still running "
                "after the drain timeout; the offered load exceeds what "
                "the cluster can drain — lower arrival_rate or clients"
            )
        converged = cluster.quiesce(timeout=quiesce_timeout)
        if recorder is not None:
            # One closing sample so end-of-run (post-quiesce) state is
            # always captured, even on runs shorter than the interval.
            recorder.sample_fleet(
                clock.now(), cluster.replicas, cluster.certifier
            )
        final_versions = cluster.replica_versions()
        dead_appliers = cluster.applier_errors()
        if dead_appliers:
            name, error = dead_appliers[0]
            raise SimulationError(
                f"applier thread of {name} died: {error!r}"
            ) from error
    finally:
        drivers.stop.set()
        cluster.shutdown()

    utilizations = metrics.utilizations()
    busiest: Dict[str, float] = {}
    for key, value in utilizations.items():
        kind = key.rsplit(".", 1)[-1]
        busiest[kind] = max(busiest.get(kind, 0.0), value)
    point = OperatingPoint(
        throughput=metrics.throughput(),
        response_time=metrics.mean_response_time(),
        abort_rate=metrics.abort_rate(),
        utilization=busiest,
    )
    return ClusterResult(
        design=design,
        replicas=config.replicas,
        point=point,
        read_throughput=metrics.read_throughput(),
        update_throughput=metrics.update_throughput(),
        mean_read_response=metrics.response_read.mean,
        mean_update_response=metrics.response_update.mean,
        mean_snapshot_age=metrics.snapshot_age.mean,
        certifier_request_rate=metrics.certifier_request_rate(),
        total_certifications=cluster.certifier.certifications,
        total_certification_aborts=cluster.certifier.aborts,
        utilizations=utilizations,
        committed_transactions=metrics.committed,
        window=metrics.window,
        throughput_timeline=tuple(metrics.throughput_timeline()),
        time_scale=time_scale,
        final_versions=final_versions,
        converged=converged,
        telemetry=None if recorder is None else recorder.result(),
    )
