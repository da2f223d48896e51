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

:class:`ClusterRun` is the live half of the run seam :func:`run_cluster`
shares with the elastic loop in :mod:`repro.control.autoscale`: it owns
the clock, the cluster, the driver threads and the one epilogue that
stops and shuts everything down.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core import rng as rng_util
from ..core.errors import ConfigurationError, SimulationError
from ..core.params import ReplicationConfig
from ..core.rng import DEFAULT_SEED
from ..sidb.certifier_api import resolve_certifier_spec
from ..simulator.faults import BROWNOUT, CRASH, ReplicaFault, scale_replica_rates
from ..simulator.runner import (
    MULTI_MASTER,
    SINGLE_MASTER,
    SimulationResult,
    assembly_class,
    attach_recorder,
    check_run_options,
    measured_fields,
)
from ..simulator.sampling import EXPONENTIAL, WorkloadSampler
from ..simulator.stats import MetricsCollector
from ..simulator.systems import LEAST_LOADED, check_supported
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
class ClusterResult(SimulationResult):
    """Everything measured during one live cluster run: the simulator's
    result fields, measured the same way, plus the live-only convergence
    evidence.

    The whole-run certifier counters here include the post-window drain
    as well as warm-up (the simulator has no drain).  They pair with
    :attr:`final_versions` for the replication-correctness identity
    ``final_version == certifications - aborts``; for window-rate
    comparisons use ``certifier_request_rate`` and ``abort_rate``.
    """

    #: Wall-to-virtual scale the run used.
    time_scale: float = 1.0
    #: Each replica's latest locally visible version after quiesce.
    final_versions: Tuple[int, ...] = ()
    #: True when every replica applied every certified commit in time —
    #: with :attr:`final_versions` identical, replication was correct.
    converged: bool = False

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
        """Run *target* on a daemon thread; the first exception any
        driver raises stops the run and is re-raised to the runner."""
        thread = threading.Thread(
            target=self._guard, args=(target,), name=name, daemon=True
        )
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

    def _guard(self, fn):
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
    while not drivers.stop.is_set():
        cluster.clock.sleep(sampler.think_time())
        if drivers.stop.is_set():
            return
        _one_shot(cluster, sampler, client_id)


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
            lambda s=sampler, i=sequence: _one_shot(cluster, s, i),
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


def _fault_process(
    cluster: Cluster, fault: ReplicaFault, drivers: _Drivers, record,
) -> None:
    """Fire *fault* on its replica, stamping each transition through
    ``record(now, kind, replica_name)``."""
    replica = cluster.replicas[fault.replica_index]
    clock = cluster.clock
    if drivers.stop.wait(clock.to_wall(fault.start)):
        return
    if fault.kind == CRASH:
        # Crash: the replica stops consuming writesets for good (its
        # state is lost); only replacement restores redundancy.
        replica.crash()
        record(clock.now(), CRASH, replica.name)
        return
    if fault.kind == BROWNOUT:
        # Gray failure: the replica keeps serving, but every service
        # started while the brownout is active runs at `severity` times
        # the configured speed.  Membership never changes; only the
        # capacity estimator can see this.
        scale_replica_rates(replica, fault.severity)
        record(clock.now(), BROWNOUT, replica.name)
        drivers.stop.wait(clock.to_wall(fault.downtime))
        # Restore even when the run is over so quiesce drains at speed.
        scale_replica_rates(replica, 1.0 / fault.severity)
        record(clock.now(), "brownout-end", replica.name)
        return
    replica.available = False
    record(clock.now(), "down", replica.name)
    drivers.stop.wait(clock.to_wall(fault.downtime))
    # Recover even when the run is over so quiesce can drain the backlog.
    replica.available = True
    record(clock.now(), "up", replica.name)


class ClusterRun:
    """One live run: clock + cluster + driver threads + the epilogue.

    Building it starts the cluster's applier threads and (when telemetry
    is on) the fleet-sampler task; the caller then installs faults,
    starts traffic and spawns tasks, and calls :meth:`measure`, whose
    ``finally`` stops every driver and shuts the cluster down on every
    exit path.  Same members as the DES
    :class:`repro.simulator.runner.SimRun`.
    """

    pillar = "cluster"

    def __init__(self, design: str, spec: WorkloadSpec,
                 config: ReplicationConfig, seed: int,
                 metrics: MetricsCollector, time_scale: float, *,
                 telemetry=None, certifier_spec=None,
                 quiesce_timeout: float = 30.0, **cluster_options) -> None:
        cluster_class, extra = assembly_class(
            _CLUSTER_CLASSES, ShardedMultiMasterCluster, design,
            certifier_spec,
        )
        self.clock = VirtualClock(time_scale)
        self.metrics = metrics
        self.fleet = cluster_class(
            spec, config, seed, self.clock, metrics,
            **cluster_options, **extra,
        )
        #: Sample slicing and window marks are taken under the lock the
        #: client threads record commits under.
        self.metrics_lock = self.fleet.metrics_lock
        self.quiesce_timeout = quiesce_timeout
        self.drivers = _Drivers()
        self.recorder = attach_recorder(self.fleet, telemetry, self.pillar)
        self.fleet.start()
        if self.recorder is not None:
            self.spawn(self._fleet_sampler(), "telemetry-sampler")

    def _fleet_sampler(self):
        """Task: snapshot fleet state every snapshot interval (floored
        at one wall millisecond)."""
        interval = max(self.recorder.config.snapshot_interval,
                       0.001 / self.clock.time_scale)
        while True:
            yield interval
            self.recorder.sample_fleet(
                self.clock.now(), self.fleet.replicas, self.fleet.certifier
            )

    def now(self) -> float:
        """Current virtual time (seconds from run start)."""
        return self.clock.now()

    def spawn(self, task: Iterable[float], name: str) -> None:
        """Drive *task* on a driver thread: sleep every virtual-second
        delay it yields, and stop resuming it once the run stops."""
        def body():
            for delay in task:
                if self.drivers.stop.wait(self.clock.to_wall(delay)):
                    return

        self.drivers.launch(body, name)

    def install_faults(self, faults: Sequence[ReplicaFault],
                       record=None) -> None:
        """Launch one thread per fault of an already validated schedule;
        *record* is called as ``record(now, kind, replica_name)`` when a
        fault fires."""
        record = record or (lambda now, kind, name: None)
        for fault in faults:
            self.drivers.launch(
                lambda f=fault: _fault_process(
                    self.fleet, f, self.drivers, record
                ),
                name=f"fault-replica{fault.replica_index}",
            )

    def start_arrivals(self, seed: int, rate: float = 0.0,
                       trace=None) -> None:
        """Start the open-loop arrival thread: Poisson at *rate*, or
        following *trace* (see :func:`_open_loop_source`)."""
        self.drivers.launch(
            lambda: _open_loop_source(self.fleet, rate, seed, self.drivers,
                                      trace=trace),
            name="open-arrivals" if trace is None else "trace-source",
        )

    def measure(self, warmup: float, duration: float,
                on_close: Optional[Callable[[], None]] = None,
                ) -> Tuple[bool, Tuple[int, ...]]:
        """Wait out warm-up and the window, then join the drivers,
        quiesce, and shut down.

        *on_close* is called once, after every driver thread has joined.
        Returns ``(converged, final_versions)``; raises the first driver
        error, or :class:`SimulationError` when traffic cannot drain or
        an applier thread died.
        """
        cluster, clock, drivers = self.fleet, self.clock, self.drivers
        try:
            drivers.stop.wait(clock.to_wall(warmup))
            with self.metrics_lock:
                self.metrics.begin_window(clock.now())
            drivers.stop.wait(clock.to_wall(duration))
            with self.metrics_lock:
                self.metrics.end_window(clock.now())
            # Allow in-flight transactions (bounded by response times) to
            # drain; clients re-check the stop flag after each transaction.
            still_running = drivers.join(
                timeout=max(10.0, clock.to_wall(60.0))
            )
            if drivers.errors:
                raise drivers.errors[0]
            if still_running:
                # Quiescing now would race live transactions and could
                # misreport correct replication as divergence — fail loudly
                # instead (typically open-loop load far past the knee).
                raise SimulationError(
                    f"{len(still_running)} traffic thread(s) still running "
                    "after the drain timeout; the offered load exceeds what "
                    "the cluster can drain — lower the arrival rate or the "
                    "client count"
                )
            if on_close is not None:
                on_close()
            converged = cluster.quiesce(timeout=self.quiesce_timeout)
            if self.recorder is not None:
                # One closing sample so end-of-run (post-quiesce) state is
                # always captured, even on runs shorter than the interval.
                self.recorder.sample_fleet(
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
        return converged, final_versions

    def close(self) -> None:
        """Nothing left to free: :meth:`measure` already stopped every
        thread (the DES :class:`~repro.simulator.runner.SimRun` frees its
        event loop here)."""


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
    check_run_options(distribution, lb_policy, warmup, duration)
    if arrival_rate is not None and arrival_rate <= 0:
        raise ConfigurationError(
            f"arrival rate must be positive, got {arrival_rate}"
        )
    checked_faults = check_supported(design, partition_map=partition_map,
                                     faults=faults, replicas=config.replicas)
    run = ClusterRun(
        design, spec, config, seed, MetricsCollector(), time_scale,
        telemetry=telemetry, certifier_spec=certifier_spec,
        quiesce_timeout=quiesce_timeout,
        distribution=distribution, lb_policy=lb_policy,
        capacities=capacities, partition_map=partition_map,
    )
    cluster = run.fleet
    run.install_faults(checked_faults)
    if arrival_rate is None:
        for client_id in range(config.total_clients):
            sampler = WorkloadSampler(
                spec,
                rng_util.spawn(seed, "live-client", client_id),
                distribution=distribution,
                partition_map=cluster.partition_map,
            )
            run.drivers.launch(
                lambda s=sampler, i=client_id: _closed_loop_client(
                    cluster, s, i, run.drivers
                ),
                name=f"client-{client_id}",
            )
    else:
        run.start_arrivals(seed, rate=arrival_rate)
    converged, final_versions = run.measure(warmup, duration)
    return ClusterResult(
        **measured_fields(design, config, run.metrics, cluster.certifier),
        time_scale=time_scale,
        final_versions=final_versions,
        converged=converged,
        telemetry=None if run.recorder is None else run.recorder.result(),
    )
