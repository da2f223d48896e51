"""The two paper topologies, assembled from live components.

:class:`MultiMasterCluster` (Figure 4, Tashkent-style): every replica
executes reads and updates against its local :class:`~repro.sidb.engine.
SIDatabase`; update writesets are certified by one *shared*
:class:`~repro.sidb.certifier.GlobalCertifier` service enforcing system-wide
first-committer-wins, then broadcast over the replication channel and
installed — at every replica, origin included — in commit order by the
applier threads.

:class:`SingleMasterCluster` (Figure 5, Ganymed-style): the master executes
and commits all updates locally (its engine's own certifier is the
system-wide one) and streams committed writesets to the read-only slaves.

The transaction protocol is written once, in :meth:`Cluster.execute`;
what differs sits behind two seams fixed at construction: a
:class:`~repro.simulator.systems.Topology` (who executes updates) and a
certification path (:class:`GlobalCertification` here,
:class:`~.sharded.ShardedCertification` for per-partition shards).  The
fleet around it — initial replicas, joiner names, removal targets,
member counts and every refusal — is the simulator's
:class:`~repro.simulator.systems.Fleet`; only the join and leave
mechanics live here.

Commit-order discipline: certification (or master commit) and channel
publication happen under the path's order lock — one per cluster on the
global path — so the channel sees versions strictly ascending.  Timed
work — service sleeps and the multi-master certification delay — happens
*outside* that lock: the certifier processes requests atomically, and
its latency is response-path delay, not serialised hold time (matching
the simulator's semantics).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple

from ..core import rng as rng_util
from ..core.errors import (
    ConfigurationError,
    RetryLimitExceeded,
    SimulationError,
    TransactionAborted,
)
from ..core.params import ReplicationConfig
from ..sidb.certifier import GlobalCertifier
from ..sidb.certifier_api import CertificationOutcome
from ..simulator.sampling import EXPONENTIAL, ServiceSampler, WorkloadSampler
from ..simulator.stats import MetricsCollector
from ..simulator.systems import (
    MASTER,
    MULTI_MASTER_TOPOLOGY,
    SINGLE_MASTER_TOPOLOGY,
    Fleet,
)
from ..workloads.spec import WorkloadSpec
from .balancer import LoadBalancer
from .channel import ReplicationChannel
from .clock import VirtualClock
from .replica import ClusterReplica

#: Every this many certification requests the cluster garbage-collects
#: state no snapshot can reach (certifier history / master versions); the
#: per-replica stores are vacuumed by their appliers.
_PRUNE_INTERVAL = 256


class GlobalCertification:
    """The global certification path: one certifier, one commit-order
    lock, one replication channel, scalar snapshots."""

    #: Scalar snapshots transfer as one version: joins are fine.
    elastic = True

    def __init__(self, clock: VirtualClock, certifier_spec=None) -> None:
        self._clock = clock
        self.certifier = GlobalCertifier()
        self.channel = ReplicationChannel()
        #: Orders certification/commit with channel publication; elastic
        #: membership changes take it too, so replay-then-subscribe and
        #: unsubscribe are atomic with respect to publishes.
        self.order_lock = threading.Lock()
        # Per-certification service occupancy of the shared certifier
        # (the A/B knob against the sharded arm).  Zero — the default —
        # makes the sleep a no-op.
        self._service_time = (
            0.0 if certifier_spec is None else certifier_spec.service_time
        )

    def new_replica(self, name, sampler, certifier, max_concurrency,
                    capacity, hosted_partitions) -> ClusterReplica:
        return ClusterReplica(
            name, self._clock, sampler, certifier=certifier,
            max_concurrency=max_concurrency, capacity=capacity,
            hosted_partitions=hosted_partitions,
        )

    def subscribe(self, replica: ClusterReplica) -> None:
        self.channel.subscribe(replica)

    def pin(self, replica: ClusterReplica) -> None:
        """Nothing to pin: the engines' own active snapshots hold the
        prune floor (see :meth:`prune`)."""

    def unpin(self, pin) -> None:
        pass

    def stamp(self, writeset, pin):
        """The extracted writeset already carries its scalar snapshot."""
        return writeset

    def shards(self, partitions) -> None:
        """No shards coordinate (the certify span carries no such tag)."""

    def rounds(self, partitions) -> int:
        """Certifier round-trips one certification pays."""
        return 1

    @contextmanager
    def ordered(self, partitions):
        """Hold the system's one place in the commit order.

        One service token for the whole system: every certification
        holds the commit-order lock for its service time, the serial
        bottleneck the sharded arm removes.
        """
        with self.order_lock:
            self._clock.sleep(self._service_time)
            yield

    def publish(self, outcome, committed, origin) -> None:
        """Broadcast the committed writeset (call inside :meth:`ordered`)."""
        self.channel.publish(committed, origin=origin)

    def version(self, outcome) -> int:
        """The system-wide version clock after *outcome* committed."""
        return outcome.commit_version

    def drained(self, replicas) -> bool:
        """True when every one of *replicas* applied every commit."""
        target = self.certifier.latest_version
        return all(
            r.applied_version >= target and r.apply_backlog == 0
            for r in replicas
        )

    def prune(self, replicas) -> None:
        # Certifier history at or below every replica's oldest snapshot
        # can no longer conflict with anything: new transactions begin at
        # their replica's applied watermark, which oldest_active_snapshot
        # bounds from below (it only grows afterwards).
        floor = min(r.db.oldest_active_snapshot() for r in replicas)
        self.certifier.observe_snapshot(max(0, floor))


class Cluster(Fleet):
    """The live fleet — replicas, balancer, metrics — with the one
    transaction protocol body (:meth:`execute`) and the membership
    mechanics (:meth:`add_replica`, :meth:`remove_replica`)."""

    _replica_stream = "live-replica"

    #: Wall seconds a graceful ``remove_replica`` waits for in-flight
    #: transactions when the caller names no ``drain_timeout``.
    drain_timeout = 30.0

    def __init__(
        self,
        spec: WorkloadSpec,
        config: ReplicationConfig,
        seed: int,
        clock: VirtualClock,
        metrics: MetricsCollector,
        distribution: str = EXPONENTIAL,
        lb_policy: str = "least-loaded",
        capacities: Optional[Sequence[float]] = None,
        partition_map=None,
        certifier_spec=None,
        certification=None,
    ) -> None:
        self.clock = clock
        super().__init__(
            spec, config, seed, metrics, distribution, capacities,
            partition_map, certifier_spec, certification,
        )
        #: Serialises MetricsCollector access across client threads.
        self.metrics_lock = threading.Lock()
        self.balancer = LoadBalancer(
            lb_policy, rng_util.spawn(seed, "live-load-balancer")
        )
        self._prune_lock = threading.Lock()
        # Serialises elastic membership changes (add/remove) against each
        # other; the replica list itself is replaced copy-on-write under
        # the order lock so readers never see a half-updated list.
        self._membership_lock = threading.Lock()
        self._certifications_since_prune = 0
        self._build_fleet()
        # The master commits locally; every other replica hears every
        # commit over the channel.
        for replica in self.slaves:
            self.certification.subscribe(replica)

    def _clock(self) -> Callable[[], float]:
        return self.clock.now

    def _global_certification(self, certifier_spec) -> GlobalCertification:
        # The path also owns the commit-order lock and replication channel.
        return GlobalCertification(self.clock, certifier_spec)

    def _new_replica(self, name: str, sampler: ServiceSampler,
                     capacity: float, hosted_partitions) -> ClusterReplica:
        # Multi-master engines — and the single-master master's, whose
        # certifier is the system-wide one — are built around the shared
        # certifier (the sharded path's replicas ignore it); slaves never
        # certify.
        shared = not self.topology.master_updates or name == MASTER
        return self.certification.new_replica(
            name, sampler, self.certifier if shared else None,
            self.config.max_concurrency, capacity, hosted_partitions,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every replica's applier thread."""
        for replica in self.replicas:
            replica.start()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain and stop every replica."""
        for replica in self.replicas:
            replica.stop(timeout)

    def quiesce(self, timeout: float = 30.0) -> bool:
        """Wait (wall *timeout* seconds) until every replica has applied
        every certified commit; True when the cluster converged."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.applier_errors():
                return False  # a dead applier can never converge
            if self.certification.drained(
                # Crashed replicas are lost, not lagging.
                [r for r in self.replicas if not r.failed]
            ):
                return True
            time.sleep(0.005)
        return False

    def applier_errors(self) -> List[Tuple[str, BaseException]]:
        """(replica name, exception) for every applier thread that died."""
        return [
            (r.name, r.applier_error)
            for r in self.replicas
            if r.applier_error is not None
        ]

    def replica_versions(self) -> Tuple[int, ...]:
        """Each healthy replica's latest locally visible version
        (convergence check: identical everywhere after quiesce; crashed
        replicas lost their state and are excluded)."""
        return tuple(
            r.applied_version for r in self.replicas if not r.failed
        )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _record_snapshot_age(self, age: float) -> None:
        with self.metrics_lock:
            self.metrics.record_snapshot_age(age)

    def _record_certification(self) -> None:
        with self.metrics_lock:
            self.metrics.record_certification()
        with self._prune_lock:
            self._certifications_since_prune += 1
            due = self._certifications_since_prune >= _PRUNE_INTERVAL
            if due:
                self._certifications_since_prune = 0
        if due:
            self._prune()

    def _prune(self) -> None:
        """Periodic garbage collection of the certifier's history."""
        self.certification.prune(self.replicas)

    def _route(self, client_id: int, is_update: bool,
               partitions: Tuple[int, ...] = ()) -> ClusterReplica:
        """Pay the LB delay, pick a replica, and claim residence on it.

        Re-routes if the pick started retiring between select and enter —
        the drain in :meth:`_retire` waits on the resident count, so once
        it observes zero *after* setting the retiring flag, no client can
        still slip a transaction onto the leaving replica.  *partitions*
        restricts routing to replicas hosting the transaction's data.
        """
        while True:
            self.clock.sleep(self.config.load_balancer_delay)
            replica = self.balancer.select(self.replicas, client_id,
                                           is_update, partitions)
            replica.enter()
            if replica.staying:
                return replica
            replica.exit()

    # ------------------------------------------------------------------
    # Elastic membership mechanics (the decisions live in Fleet)
    # ------------------------------------------------------------------

    def add_replica(self, transfer_writesets: int = 16,
                    capacity: float = 1.0) -> ClusterReplica:
        """Grow the fleet by one live member (single-master: a read-only
        slave; the master is fixed).

        Under the commit-order lock the joiner's engine is seeded with a
        state snapshot cloned from the donor (the master, else the
        freshest healthy replica) and the channel's retained history
        above that snapshot is bulk-enqueued before subscribing — every
        committed writeset reaches it exactly once.  A join worker then
        pays the *transfer_writesets* bulk-replay charge and flips the
        replica into rotation once caught up.
        """
        with self._membership_lock:
            name, _ = self._next_member()
            replica = self._create(name, name, capacity)
            replica.begin_join()
            try:
                with self.certification.order_lock:
                    version, state = self._donor().db.clone_state()
                    replica.db.seed_state(version, state)
                    self._attach(replica)
            except ConfigurationError:
                self._discard_failed_join(replica)
                raise
            replica.start()
        threading.Thread(
            target=self._join_worker, args=(replica, transfer_writesets),
            name=f"{name}-join", daemon=True,
        ).start()
        return replica

    def remove_replica(
        self,
        replica: Optional[ClusterReplica] = None,
        force: bool = False,
        *,
        drain_timeout: Optional[float] = None,
    ) -> ClusterReplica:
        """Shrink the fleet by one replica — never the master: drain,
        then detach.

        Without a target, picks the youngest fully-joined replica; at
        least one healthy replica always remains.  Blocks (wall time, up
        to *drain_timeout*) until the replica's in-flight transactions
        finish — unless ``force``, which detaches immediately (the
        replacement path for crashed replicas).
        """
        with self._membership_lock:
            replica = self._removal_target(replica)
            if force:
                self._force_detach(replica)
            else:
                self._retire(replica, drain_timeout)
        return replica

    def _attach(self, replica: ClusterReplica) -> None:
        """Wire a freshly seeded replica into replication and routing.

        Must run under the order lock: publishes are blocked, so
        replaying the channel history above the replica's snapshot and
        then subscribing hands it every committed writeset exactly once.
        """
        channel = self.certification.channel
        # Baseline = the transferred snapshot; the replay below
        # delivers exactly the versions above it.
        self.recorder.attached(replica.name, replica.db.latest_version)
        for writeset in channel.history_after(replica.db.latest_version):
            replica.enqueue_writeset(writeset, charged=True)
        channel.subscribe(replica)
        self.replicas = self.replicas + [replica]

    def _discard_failed_join(self, replica: ClusterReplica) -> None:
        """Roll back a join that failed before attaching.

        The replica was never subscribed, listed, or started; dropping
        its metric registrations (and releasing its name for reuse)
        leaves no trace, so a controller retrying every tick cannot
        accumulate dead replicas.
        """
        with self.metrics_lock:
            self.metrics.forget_resource(f"{replica.name}.cpu")
            self.metrics.forget_resource(f"{replica.name}.disk")
        self._members_created -= 1

    def _join_worker(self, replica: ClusterReplica, transfer_writesets: int) -> None:
        """Pay the join cost, then enter load-balancer rotation.

        State transfer is modeled as a bulk writeset replay: the joiner
        charges *transfer_writesets* writeset applications to its own
        resources, then waits for its applier to clear the replay
        backlog.  Runs on a daemon thread so ``add_replica`` returns as
        soon as replication is wired; failures surface through
        ``applier_error`` so quiesce reports them loudly.
        """
        try:
            sampler = ServiceSampler(
                self.spec,
                rng_util.spawn(self._seed, "live-join", replica.name),
                distribution=self._distribution,
            )
            for _ in range(transfer_writesets):
                if replica.stopping:
                    return
                replica.cpu.serve(sampler.writeset_cpu())
                replica.disk.serve(sampler.writeset_disk())
            while replica.apply_backlog > 0 and not replica.stopping:
                time.sleep(0.002)
            replica.complete_join()
        except BaseException as exc:  # noqa: BLE001 — surfaced via quiesce
            replica.applier_error = exc

    def _retire(self, replica: ClusterReplica,
                drain_timeout: Optional[float]) -> None:
        """Drain *replica* and detach it from replication and routing.

        A drain that outlasts *drain_timeout* (``None``: the cluster's
        :attr:`drain_timeout`) rolls the retire back — the replica
        returns to rotation, fully functional — and raises, so a failed
        removal never leaves a zombie that is neither serving nor
        removable.
        """
        if drain_timeout is None:
            drain_timeout = self.drain_timeout
        replica.begin_retire()
        deadline = time.monotonic() + drain_timeout
        while replica.active > 0:
            if time.monotonic() > deadline:
                replica.cancel_retire()
                raise SimulationError(
                    f"{replica.name} did not drain within {drain_timeout}s; "
                    f"removal rolled back"
                )
            time.sleep(0.002)
        self._force_detach(replica)

    def _force_detach(self, replica: ClusterReplica) -> None:
        """Detach *replica* immediately — no drain (failure replacement).

        In-flight client threads on it finish on their own (the replica
        object outlives the detach) but the cluster stops counting it:
        it leaves routing, replication, and the convergence check at
        once, and its queued backlog is discarded with it.
        """
        with self.certification.order_lock:
            self.certification.channel.unsubscribe(replica)
            self.replicas = [r for r in self.replicas if r is not replica]
        replica.stop(timeout=10.0, drain=False)

    def _acquire(self, replica: ClusterReplica) -> None:
        if replica.admission is not None:
            replica.admission.acquire()

    def _release(self, replica: ClusterReplica) -> None:
        if replica.admission is not None:
            replica.admission.release()

    def _serve_read_txn(
        self, replica: ClusterReplica, sampler: WorkloadSampler
    ) -> None:
        """Run one real read-only transaction at *replica*."""
        txn = replica.db.begin()
        replica.serve_read(sampler)
        replica.db.commit(txn)  # read-only: always commits

    def execute(
        self, sampler: WorkloadSampler, is_update: bool, client_id: int
    ) -> int:
        """Run one transaction to commit; returns the abort (retry) count.

        The replicated GSI life-cycle (§2, §4–5), written once for every
        topology and certification path: route, admit, then either a
        local read or the begin → execute → certify retry loop, whose
        commit publishes the writeset to every replica.

        Lock discipline: the commit decision (certification, or the
        master's commit), the recorder's ``committed`` step and the
        publish happen inside the path's order lock(s), so every channel
        sees its versions ascending and the auditor sees commits before
        their deliveries.  Timed sleeps other than the certifier's
        service occupancy stay outside.
        """
        topology, path = self.topology, self.certification
        txn = self.recorder.begin()
        # Partitioned workloads pick their data before routing: the
        # transaction must land on a replica hosting what it touches
        # (the master hosts everything).
        partitions = sampler.sample_partition_set(is_update)
        if is_update and topology.master_updates:
            self.clock.sleep(self.config.load_balancer_delay)
            replica, policy = self.master, "master"
            replica.enter()
        else:
            replica = self._route(client_id, is_update, partitions)
            policy = self.balancer.policy
        txn.routed(replica.name, is_update, policy)
        self._acquire(replica)
        aborts = 0
        try:
            if not is_update:
                # Reads execute entirely locally and always commit (§2:
                # GSI read-only transactions never abort).
                txn.staleness(replica, self.certifier)
                self._serve_read_txn(replica, sampler)
                txn.executed(replica.name, "read")
                return aborts
            for attempt in range(1, self.config.max_retries + 1):
                # The path pins what certification will be checked
                # against *before* begin(): installs landing in between
                # make the snapshot strictly richer than the pin claims —
                # conservative, never unsafe.
                pin = path.pin(replica)
                try:
                    # GSI: the snapshot is the replica's locally-latest
                    # version, which may lag the certifier; on the master
                    # it is the latest commit (plain SI), the near-zero
                    # floor of the staleness distribution.
                    db_txn = replica.db.begin()
                    if not topology.master_updates:
                        self._record_snapshot_age(
                            self.certifier.latest_version
                            - db_txn.snapshot_version
                        )
                    txn.staleness(replica, self.certifier,
                                  db_txn.snapshot_version)
                    replica.serve_update_attempt(sampler)
                    # Each attempt re-samples its rows (re-execution of the
                    # transaction logic against fresh data).
                    sampled = sampler.sample_writeset(
                        db_txn.snapshot_version, partitions
                    )
                    for key, value in sampled.writes:
                        db_txn.write(key, value)
                    # Stamp the partition footprint so certification is
                    # scoped and replicas hosting none of these partitions
                    # apply only a version marker.
                    db_txn.partitions = sampled.partitions
                    # A remote certifier is sent the extracted writeset;
                    # the master's engine extracts it itself on commit.
                    writeset = (
                        None if topology.master_updates
                        else path.stamp(db_txn.writeset(), pin)
                    )
                    txn.executed(replica.name, "update", attempt)
                    self._record_certification()
                    txn.certify_begin()
                    try:
                        with path.ordered(sampled.partitions):
                            if writeset is None:
                                outcome, committed = self._commit_at_master(
                                    db_txn
                                )
                            else:
                                outcome = self.certifier.certify(writeset)
                                committed = (
                                    writeset.committed(outcome.commit_version)
                                    if outcome.committed else None
                                )
                            if outcome.committed:
                                txn.committed(outcome, committed.partitions,
                                              replica.name)
                                path.publish(outcome, committed, replica)
                        if outcome.committed:
                            txn.propagated(path.version(outcome),
                                           len(self.replicas))
                        if writeset is not None:
                            # The response (like the propagated writesets)
                            # reaches the replica after the certifier's
                            # round-trip(s) (§6.3.2).
                            self.clock.sleep(
                                self.config.certifier_delay
                                * path.rounds(sampled.partitions)
                            )
                    finally:
                        txn.certify_end()
                finally:
                    path.unpin(pin)
                txn.certified(attempt, outcome,
                              path.shards(sampled.partitions))
                if writeset is not None:
                    # Certified outside the replica's engine: release the
                    # transaction's snapshot and record its fate there.
                    replica.db.finish_remote(
                        db_txn,
                        outcome.commit_version if outcome.committed else None,
                    )
                if outcome.committed:
                    return aborts
                aborts += 1
            raise RetryLimitExceeded(
                topology.design, "update", self.config.max_retries
            )
        finally:
            self._release(replica)
            replica.exit()


class MultiMasterCluster(Cluster):
    """Figure 4: N symmetric live replicas + shared certifier service."""

    topology = MULTI_MASTER_TOPOLOGY


class SingleMasterCluster(Cluster):
    """Figure 5: one live master for updates, N-1 slaves for reads."""

    topology = SINGLE_MASTER_TOPOLOGY

    def _commit_at_master(self, txn):
        """Commit *txn* through the master's own engine, whose certifier
        is the system-wide one.  Returns the outcome and the committed
        writeset (``None`` on a write-write conflict)."""
        try:
            committed = self.master.db.commit(txn)
        except TransactionAborted as exc:
            return CertificationOutcome(
                False, -1, frozenset(exc.conflicting_keys)
            ), None
        return CertificationOutcome(True, committed.commit_version), committed

    def _prune(self):
        # The master installs its own commits (no applier traffic), so its
        # store is vacuumed here; its certifier already prunes per commit
        # via the engine, and slave stores are vacuumed by their appliers.
        self.master.db.vacuum()
