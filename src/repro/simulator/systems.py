"""Simulated replicated-database systems (the prototypes of §5).

Three assemblies share the client loop:

* :class:`StandaloneSystem` — one database, no middleware.  This is what
  the profiler measures.
* :class:`MultiMasterSystem` — Figure 4: load balancer, N replicas each
  executing reads and updates, and a certifier detecting system-wide
  write-write conflicts and driving update propagation (Tashkent-style).
* :class:`SingleMasterSystem` — Figure 5: the master executes all updates
  and propagates writesets to the slaves; read-only transactions go to the
  least-loaded replica, master included (Ganymed-style).

Clients follow the closed-loop model of §3.1: think (exponential), submit,
wait for the response; aborted update transactions are retried immediately
by the (simulated) application server, as the paper's Java servlets do.

The replicated transaction protocol — route, snapshot, execute, certify,
propagate, retry on a write-write conflict — is written once, in
:meth:`_BaseSystem.execute`.  What differs between assemblies sits behind
two seams fixed at construction: a :class:`Topology` (who executes
updates) and a certification path (:class:`GlobalCertification` here,
:class:`~.sharded.ShardedCertification` for per-partition shards).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import rng as rng_util
from ..core.errors import (
    ConfigurationError,
    RetryLimitExceeded,
    SimulationError,
)
from ..core.params import ReplicationConfig
from ..sidb.certifier import GlobalCertifier
from ..telemetry.recorder import NULL_RECORDER, ProtocolRecorder
from ..workloads.spec import WorkloadSpec
from .des import Acquire, Environment, Semaphore, Timeout
from .replica import SimReplica
from .sampling import WorkloadSampler
from .stats import MetricsCollector

#: Load-balancer routing policies.  The paper's prototypes route to the
#: least-loaded replica; "pinned" statically partitions clients over
#: replicas (the analytical model's view); "random" picks uniformly;
#: "conflict-aware" routes updates to the most caught-up replica (freshest
#: ``applied_version``, so update snapshots are as young as possible and
#: certification aborts shrink) and reads to the least-loaded one;
#: "capacity-weighted" divides the resident count by each replica's
#: ``capacity`` multiplier, so a twice-as-fast box carries twice the load
#: (the right policy for heterogeneous fleets); "partition-aware" is the
#: canonical policy for partially replicated fleets — capacity-normalized
#: least-loaded among the replicas hosting the transaction's partitions.
#: (Under a partition map the *hosting filter* applies to every policy —
#: a replica without the data simply cannot serve the transaction — the
#: named policy just makes the partitioned default explicit.)
LEAST_LOADED = "least-loaded"
PINNED = "pinned"
RANDOM = "random"
CONFLICT_AWARE = "conflict-aware"
CAPACITY_WEIGHTED = "capacity-weighted"
PARTITION_AWARE = "partition-aware"
LB_POLICIES = (LEAST_LOADED, PINNED, RANDOM, CONFLICT_AWARE,
               CAPACITY_WEIGHTED, PARTITION_AWARE)


def check_capacities(
    capacities: Optional[Sequence[float]], replicas: int
) -> Optional[Tuple[float, ...]]:
    """Validate a heterogeneous-fleet capacity vector (``None`` = uniform).

    Shared by the simulator systems and the live clusters: one multiplier
    per initial replica, all positive.
    """
    if capacities is None:
        return None
    caps = tuple(float(c) for c in capacities)
    if len(caps) != replicas:
        raise ConfigurationError(
            f"capacities names {len(caps)} replicas but the deployment "
            f"has {replicas}"
        )
    if any(c <= 0.0 for c in caps):
        raise ConfigurationError("every capacity multiplier must be positive")
    return caps


def hosts_all(replica, partitions) -> bool:
    """True when *replica* hosts every partition in *partitions*
    (``hosted_partitions is None`` means the replica hosts everything)."""
    hosted = getattr(replica, "hosted_partitions", None)
    return hosted is None or hosted.issuperset(partitions)


def hosts_any(replica, partitions) -> bool:
    """True when *replica* hosts at least one of *partitions* (an empty
    set — the unpartitioned wildcard — is hosted everywhere)."""
    if not partitions:
        return True
    hosted = getattr(replica, "hosted_partitions", None)
    return hosted is None or not hosted.isdisjoint(partitions)


def select_replica(policy, candidates, client_id, is_update, rng,
                   partitions=()):
    """Pick an *available* replica according to *policy*.

    The single routing implementation shared by the simulator and the
    live cluster runtime (:mod:`repro.cluster.balancer`); candidates only
    need ``available``, ``active``, ``applied_version``, and ``name``.

    *partitions* restricts routing to replicas hosting the transaction's
    data (partial replication): replicas hosting *all* touched partitions
    are preferred, falling back to hosts of *any* of them, falling back
    to everyone (total-outage liveness, as below).  The filter applies to
    every policy — a replica without the data cannot serve the
    transaction.
    """
    alive = [r for r in candidates if r.available]
    if not alive:
        # Total outage: keep routing so clients block on queues rather
        # than deadlocking the closed loop.
        alive = list(candidates)
    if partitions:
        hosting = [r for r in alive if hosts_all(r, partitions)]
        if not hosting:
            hosting = [r for r in alive if hosts_any(r, partitions)]
        if hosting:
            alive = hosting
    if policy == PINNED:
        return alive[client_id % len(alive)]
    if policy == RANDOM:
        return alive[int(rng.integers(0, len(alive)))]
    if policy == CONFLICT_AWARE and is_update:
        # Updates go to a most-caught-up replica (never a lagging one):
        # the freshest applied_version minimises snapshot staleness and
        # therefore the certification-abort window.  Versions are read
        # once: in the live cluster appliers advance them concurrently,
        # and re-reading could leave the freshest set empty.
        versions = [(r.applied_version, r) for r in alive]
        freshest = max(v for v, _ in versions)
        alive = [r for v, r in versions if v == freshest]
    if policy in (CAPACITY_WEIGHTED, PARTITION_AWARE):
        return min(
            alive,
            key=lambda r: (r.active / getattr(r, "capacity", 1.0), r.name),
        )
    return min(alive, key=lambda r: (r.active, r.name))


@dataclass(frozen=True)
class Topology:
    """Who executes update transactions — the one decision the paper's
    two designs differ in.  Shared by the simulator and the live cluster.
    """

    #: Design name (validates partition maps, names retry failures).
    design: str
    #: ``False`` (multi-master, Figure 4): the routed replica executes
    #: the update under GSI — its snapshot is the replica's own applied
    #: state, which can lag the certifier (so snapshot age is recorded
    #: and lagging replicas pin the prune floor), and certification is a
    #: round-trip to a remote service.  ``True`` (single-master,
    #: Figure 5): the master executes every update under plain SI — its
    #: snapshot is the latest commit and it is its own certifier, so
    #: there is no staleness to record and no round-trip to pay.
    master_updates: bool


MULTI_MASTER_TOPOLOGY = Topology("multi-master", master_updates=False)
SINGLE_MASTER_TOPOLOGY = Topology("single-master", master_updates=True)

#: Why elastic membership is refused (one wording for both substrates).
#: Re-placing partitions on join/leave — split, merge, migrate — and
#: vector-valued state transfer are the natural follow-ons; until then
#: the combinations fail loudly rather than silently miscounting.
ELASTIC_NEEDS_FULL_REPLICATION = (
    "elastic membership requires full replication; the partition map "
    "places data on a fixed fleet"
)
ELASTIC_NEEDS_GLOBAL_CERTIFIER = (
    "elastic membership is not supported with the sharded certifier "
    "(joins need vector-valued state transfer)"
)


class GlobalCertification:
    """The global certification path: one certifier, one version
    sequence, scalar snapshots.

    *remote* says whether the certifier is a service apart from the
    executing database (multi-master) or the executing database itself
    (single-master, standalone): only a remote certifier is lagged by
    the replicas' snapshots and costs a response delay.
    """

    def __init__(self, env: Environment, certifier_spec=None,
                 remote: bool = False, response_delay: float = 0.0) -> None:
        self._env = env
        self.certifier = GlobalCertifier()
        self._remote = remote
        self._response_delay = response_delay
        self._active_snapshots: Dict[int, int] = {}
        self._snapshot_token = 0
        # Optional certifier occupancy (CertifierSpec.service_time): the
        # global certifier becomes a single-token queueing centre every
        # commit serialises through — the contention the sharded arm of
        # the certifier comparison removes.  ``None`` (the default, and
        # any spec with service_time == 0) leaves the commit path with
        # zero extra simulation events.
        self._service_time = (
            0.0 if certifier_spec is None else certifier_spec.service_time
        )
        self._service = (
            Semaphore(env, 1) if self._service_time > 0.0 else None
        )

    def new_replica(self, name: str, sampler: WorkloadSampler,
                    capacity: float) -> SimReplica:
        return SimReplica(self._env, name, sampler, capacity=capacity)

    def require_elastic(self) -> None:
        """Scalar snapshots transfer as one version: joins are fine."""

    def pin(self, replica: SimReplica) -> Tuple[int, int]:
        """Take one attempt's snapshot at *replica* and pin it against
        pruning; returns ``(snapshot, token)``."""
        snapshot = (replica.applied_version if self._remote
                    else self.certifier.latest_version)
        self._snapshot_token += 1
        self._active_snapshots[self._snapshot_token] = snapshot
        return snapshot, self._snapshot_token

    def stamp(self, writeset, token: int):
        """The sampled writeset already carries its scalar snapshot."""
        return writeset

    def certify(self, writeset):
        """Order and check *writeset* on arrival; the response (and
        update propagation) reach the replicas one certification delay
        later (§6.3.2).  A generator: ``yield from`` it."""
        if self._service is not None:
            # Single-token occupancy: every commit holds the one
            # certifier server for service_time.
            yield Acquire(self._service)
            try:
                yield Timeout(self._service_time)
                outcome = self.certifier.certify(writeset)
            finally:
                self._service.release()
        else:
            outcome = self.certifier.certify(writeset)
        if self._remote:
            yield Timeout(self._response_delay)
        return outcome

    def release(self, token: int, replicas: Sequence[SimReplica]) -> None:
        """Unpin one attempt's snapshot and advance the prune floor."""
        self._active_snapshots.pop(token, None)
        floor = min(
            self._active_snapshots.values(),
            default=self.certifier.latest_version,
        )
        if self._remote:
            # Future transactions take their snapshot from a replica's
            # applied version, which can lag the certifier; pruning must
            # keep history back to the most-lagging replica as well as
            # all active snapshots.
            floor = min(floor, min(r.applied_version for r in replicas))
        self.certifier.observe_snapshot(max(0, floor))

    def shards(self, partitions) -> None:
        """No shards coordinate (the certify span carries no such tag)."""

    def version(self, outcome) -> int:
        """The system-wide version clock after *outcome* committed."""
        return outcome.commit_version

    def deliver(self, replica: SimReplica, outcome, charged: bool) -> None:
        """Hand one committed version to *replica*."""
        replica.enqueue_writeset(outcome.commit_version, charged=charged)


class _BaseSystem:
    """Shared plumbing: replicas, samplers, metric wiring, client loop,
    and the one transaction protocol body (:meth:`execute`)."""

    #: How often an elastic drain re-checks that a leaving replica has
    #: finished its in-flight transactions (simulated seconds).
    _DRAIN_POLL = 0.025

    #: Who executes updates (subclasses override; its design name also
    #: validates partition maps).
    topology = MULTI_MASTER_TOPOLOGY

    #: Protocol recorder (:mod:`repro.telemetry.recorder`): the null
    #: sink until :meth:`attach_telemetry` swaps in a real one.
    recorder = NULL_RECORDER

    def __init__(
        self,
        env: Environment,
        spec: WorkloadSpec,
        config: ReplicationConfig,
        seed: int,
        metrics: MetricsCollector,
        distribution: str = "exponential",
        lb_policy: str = LEAST_LOADED,
        capacities: Optional[Sequence[float]] = None,
        partition_map=None,
        certification=None,
    ) -> None:
        from ..partition.placement import resolve_partition_map

        if lb_policy not in LB_POLICIES:
            raise SimulationError(
                f"unknown lb_policy {lb_policy!r}; one of {LB_POLICIES}"
            )
        self._capacities = check_capacities(capacities, config.replicas)
        self.partition_map = resolve_partition_map(
            spec, config, partition_map, self.design
        )
        #: The certification path (global unless an assembly passes a
        #: sharded one); it owns the certifier and builds the replicas.
        self.certification = certification or GlobalCertification(env)
        self.certifier = self.certification.certifier
        self.env = env
        self.spec = spec
        self.config = config
        self.metrics = metrics
        self._seed = seed
        self._distribution = distribution
        self.lb_policy = lb_policy
        self._lb_rng = rng_util.spawn(seed, "load-balancer")
        self.replicas: List[SimReplica] = []
        #: Monotonic counter naming elastically added replicas (names and
        #: metric keys must never be reused after a removal).
        self._members_created = 0
        #: Highest commit version already handed to update propagation —
        #: the sync point elastic joins adopt (the certifier can be ahead
        #: by in-flight certification delays).
        self._propagated_version = 0
        #: Cleared by :meth:`stop_arrivals` to end open-loop streams.
        self._arrivals_on = True

    @property
    def design(self) -> str:
        return self.topology.design

    def _initial_capacity(self, index: int) -> float:
        """Capacity multiplier for the *index*-th initial replica."""
        if self._capacities is None:
            return 1.0
        return self._capacities[index]

    def _make_replica(
        self, name: str, path: object, capacity: float = 1.0,
        hosted_partitions=None,
    ) -> SimReplica:
        sampler = WorkloadSampler(
            self.spec,
            rng_util.spawn(self._seed, "replica", path),
            distribution=self._distribution,
        )
        replica = self.certification.new_replica(name, sampler, capacity)
        replica.hosted_partitions = hosted_partitions
        # Admission control: the connection pool bounds how many client
        # transactions execute concurrently (config.max_concurrency).
        if self.config.max_concurrency is not None:
            replica.admission = Semaphore(self.env, self.config.max_concurrency)
        else:
            replica.admission = None
        self.metrics.watch_resource(f"{name}.cpu", replica.cpu)
        self.metrics.watch_resource(f"{name}.disk", replica.disk)
        self._wire(replica)
        self.replicas.append(replica)
        return replica

    def _wire(self, replica: SimReplica) -> None:
        """Share the recorder with *replica* and baseline its lanes."""
        replica.recorder = self.recorder
        for shard, watermark in replica.watermarks():
            self.recorder.attached(replica.name, watermark, shard=shard)

    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`repro.telemetry.Telemetry` into the system.

        Called once after construction by a telemetry-enabled run; the
        certifier, every current replica, and every replica created
        later (elastic joins) share the same recorder.
        """
        self.recorder = ProtocolRecorder(telemetry, lambda: self.env.now)
        self.certifier.telemetry = telemetry
        for replica in self.replicas:
            self._wire(replica)

    def start_fleet_sampler(self, telemetry) -> None:
        """Snapshot fleet state onto *telemetry*'s timeline every
        snapshot interval (a DES process in virtual time)."""
        def sampler():
            while True:
                yield Timeout(telemetry.config.snapshot_interval)
                telemetry.sample_fleet(
                    self.env.now, self.replicas, self.certifier
                )

        self.env.start(sampler())

    def _admit(self, replica: SimReplica):
        """Wait for an execution slot at *replica* (no-op without a limit)."""
        if replica.admission is not None:
            yield Acquire(replica.admission)

    def _release(self, replica: SimReplica) -> None:
        if replica.admission is not None:
            replica.admission.release()

    def _hosted_for_index(self, index: int):
        """Hosted-partition set of the *index*-th initial replica
        (``None`` — host everything — without a partial map)."""
        if self.partition_map is None or self.partition_map.is_full:
            return None
        return self.partition_map.hosted_by(index)

    def start_clients(self, count: int) -> None:
        """Launch *count* closed-loop client processes."""
        for client_id in range(count):
            sampler = WorkloadSampler(
                self.spec,
                rng_util.spawn(self._seed, "client", client_id),
                distribution=self._distribution,
                partition_map=self.partition_map,
            )
            self.env.start(self._client_loop(client_id, sampler))

    def start_open_arrivals(self, rate: float) -> None:
        """Launch an open-loop Poisson arrival stream of *rate* tps.

        Open arrivals do not wait for responses (no think-time feedback):
        past the capacity knee the resident population — and response time
        — grows without bound, the contrast with the closed-loop model that
        [Schroeder 2006] warns about and §3.1 adopts deliberately.
        """
        if rate <= 0:
            raise SimulationError(f"arrival rate must be positive, got {rate}")
        self.env.start(self._arrival_process(rate))

    def _arrival_process(self, rate: float):
        arrival_rng = rng_util.spawn(self._seed, "open-arrivals")
        sampler = WorkloadSampler(
            self.spec,
            rng_util.spawn(self._seed, "open-client"),
            distribution=self._distribution,
            partition_map=self.partition_map,
        )
        sequence = 0
        while self._arrivals_on:
            yield Timeout(float(arrival_rng.exponential(1.0 / rate)))
            if not self._arrivals_on:
                return
            sequence += 1
            self.env.start(self._one_shot(sequence, sampler))

    def start_trace_arrivals(self, trace) -> None:
        """Launch an open-loop stream whose rate follows a load trace.

        *trace* is any :class:`repro.control.trace.LoadTrace`-shaped object
        (``rate(t)`` and ``max_rate``).  Arrivals form a non-homogeneous
        Poisson process sampled by thinning [Lewis & Shedler 1979]:
        candidate arrivals at the trace's peak rate, each accepted with
        probability ``rate(now) / peak`` — deterministic for a fixed seed
        regardless of how membership changes mid-run.
        """
        if trace.max_rate <= 0:
            raise SimulationError("trace peak rate must be positive")
        self.env.start(self._trace_arrival_process(trace))

    def _trace_arrival_process(self, trace):
        arrival_rng = rng_util.spawn(self._seed, "trace-arrivals")
        sampler = WorkloadSampler(
            self.spec,
            rng_util.spawn(self._seed, "trace-client"),
            distribution=self._distribution,
            partition_map=self.partition_map,
        )
        peak = trace.max_rate
        sequence = 0
        while self._arrivals_on:
            yield Timeout(float(arrival_rng.exponential(1.0 / peak)))
            if not self._arrivals_on:
                return
            if not trace.accept_arrival(arrival_rng, self.env.now):
                continue  # thinned-out candidate
            sequence += 1
            self.env.start(self._one_shot(sequence, sampler))

    def stop_arrivals(self) -> None:
        """Stop open-loop arrival streams (lets elastic runs drain)."""
        self._arrivals_on = False

    def _one_shot(self, sequence: int, sampler: WorkloadSampler):
        is_update = sampler.next_is_update()
        started = self.env.now
        aborts = yield from self.execute(sampler, is_update, sequence)
        self.metrics.record_commit(
            is_update, self.env.now - started, aborts, now=self.env.now
        )
        self.recorder.completed(is_update)

    def _client_loop(self, client_id: int, sampler: WorkloadSampler):
        while True:
            yield Timeout(sampler.think_time())
            is_update = sampler.next_is_update()
            started = self.env.now
            aborts = yield from self.execute(sampler, is_update, client_id)
            self.metrics.record_commit(
                is_update, self.env.now - started, aborts, now=self.env.now
            )
            self.recorder.completed(is_update)

    def execute(self, sampler: WorkloadSampler, is_update: bool,
                client_id: int = 0):
        """Run one transaction to commit; returns the abort (retry) count.

        The replicated GSI life-cycle (§2, §4–5), written once for every
        topology and certification path: route, admit, then either a
        local read or the snapshot → execute → certify retry loop, and
        on commit the hand-off to every replica.
        """
        topology, path = self.topology, self.certification
        txn = self.recorder.begin()
        yield Timeout(self.config.load_balancer_delay)
        # Partitioned workloads pick their data before routing: the
        # transaction must land on a replica hosting what it touches
        # (the master hosts everything).
        partitions = sampler.sample_partition_set(is_update)
        if is_update and topology.master_updates:
            replica, policy = self.master, "master"
        else:
            replica = self.route(self.replicas, client_id, is_update,
                                 partitions)
            policy = self.lb_policy
        txn.routed(replica.name, is_update, policy)
        replica.active += 1
        aborts = 0
        yield from self._admit(replica)
        try:
            if not is_update:
                # Read-only transactions execute entirely locally and always
                # commit (§2: GSI read-only transactions never abort).
                txn.staleness(replica, self.certifier)
                yield from replica.serve_read()
                txn.executed(replica.name, "read")
                return aborts
            for attempt in range(1, self.config.max_retries + 1):
                # The snapshot is taken at begin; the conflict window is
                # the attempt's execution time (§2) plus, under GSI, the
                # snapshot's age.
                snapshot, token = path.pin(replica)
                if not topology.master_updates:
                    self.metrics.record_snapshot_age(
                        self.certifier.latest_version - snapshot
                    )
                txn.staleness(replica, self.certifier, snapshot)
                try:
                    yield from replica.serve_update_attempt()
                    writeset = path.stamp(
                        sampler.sample_writeset(snapshot, partitions), token
                    )
                    txn.executed(replica.name, "update", attempt)
                    self.metrics.record_certification()
                    txn.certify_begin()
                    try:
                        outcome = yield from path.certify(writeset)
                    finally:
                        txn.certify_end()
                finally:
                    path.release(token, self.replicas)
                txn.certified(attempt, outcome,
                              path.shards(writeset.partitions))
                if outcome.committed:
                    # No yield between the certification decision's
                    # arrival and this hand-off: versions reach every
                    # replica in assignment order.  ``committed`` comes
                    # first — the appliers find the trace through the
                    # version map, and the propagation span rides the
                    # certification response (§6.3.2): decision to
                    # fan-out.
                    txn.committed(outcome, writeset.partitions, replica.name)
                    version = path.version(outcome)
                    txn.propagated(version, len(self.replicas))
                    self._propagated_version = version
                    for member in self.replicas:
                        # The executing replica already holds the effects;
                        # under partial replication only replicas hosting
                        # one of the writeset's partitions pay the
                        # application work — everyone else advances its
                        # watermark for free (the version marker that
                        # keeps the snapshot clock contiguous).
                        path.deliver(
                            member, outcome,
                            charged=member is not replica
                            and hosts_any(member, writeset.partitions),
                        )
                    return aborts
                aborts += 1
            raise RetryLimitExceeded(
                topology.design, "update", self.config.max_retries
            )
        finally:
            self._release(replica)
            replica.active -= 1

    def route(
        self,
        candidates: List[SimReplica],
        client_id: int,
        is_update: bool = False,
        partitions: Tuple[int, ...] = (),
    ) -> SimReplica:
        """Pick an *available* replica according to the LB policy."""
        return select_replica(
            self.lb_policy, candidates, client_id, is_update, self._lb_rng,
            partitions=partitions,
        )

    # ------------------------------------------------------------------
    # Elastic membership (dynamic provisioning)
    # ------------------------------------------------------------------

    @property
    def member_count(self) -> int:
        """Replicas provisioned, healthy, and not draining away
        (controller view): a crashed replica is no longer a member."""
        return sum(
            1 for r in self.replicas if not r.draining and not r.failed
        )

    def upgrade_targets(self) -> List[SimReplica]:
        """Replicas a rolling restart cycles (single-master: slaves only,
        the master cannot be detached)."""
        pool = getattr(self, "slaves", self.replicas)
        return [r for r in pool if not r.draining and not r.failed]

    def _require_elastic(self) -> None:
        """Refuse membership changes the placement or the certification
        path cannot follow (see the ``ELASTIC_NEEDS_*`` messages)."""
        self.certification.require_elastic()
        if self.partition_map is not None and not self.partition_map.is_full:
            raise SimulationError(ELASTIC_NEEDS_FULL_REPLICATION)

    def add_replica(self, transfer_writesets: int = 0,
                    capacity: float = 1.0) -> SimReplica:
        """Grow the system by one replica; topology-specific."""
        raise NotImplementedError(f"{type(self).__name__} is not elastic")

    def remove_replica(self, replica: Optional[SimReplica] = None,
                       force: bool = False) -> SimReplica:
        """Drain (or, with ``force``, immediately detach) one replica."""
        raise NotImplementedError(f"{type(self).__name__} is not elastic")

    def _detach_now(self, replica: SimReplica) -> None:
        """Forget *replica* immediately (force-detach, no drain).

        The failure-replacement path: a crashed replica has nothing left
        to drain — its in-flight transactions, if any, still hold their
        snapshot registrations and release them normally, but the replica
        stops pinning the certifier's prune floor and leaves routing,
        propagation, and the convergence check at once.
        """
        if replica in self.replicas:
            self.replicas.remove(replica)
        slaves = getattr(self, "slaves", None)
        if slaves is not None and replica in slaves:
            slaves.remove(replica)

    def _join_process(self, replica: SimReplica, transfer_writesets: int):
        """Pay the join cost, then enter load-balancer rotation.

        State transfer is modeled as a bulk writeset replay: the joiner
        charges *transfer_writesets* writeset applications to its own CPU
        and disk before it may serve clients.  Writesets committed during
        the transfer were deferred (the replica is unavailable) and are
        flushed by the ``available`` setter, so the total join cost is
        transfer work plus catch-up backlog.
        """
        for _ in range(transfer_writesets):
            yield from replica.serve_writeset_inline()
        replica.available = True

    def _drain_and_detach(self, replica: SimReplica):
        """Wait out in-flight transactions, then forget the replica.

        While draining, the replica stays in ``self.replicas``: update
        propagation keeps covering it (deferred, since it is unavailable)
        and the certifier's prune floor keeps honouring the snapshots of
        its in-flight transactions.  Both obligations end exactly when it
        leaves the list.
        """
        while replica.active > 0:
            yield Timeout(self._DRAIN_POLL)
        self._detach_now(replica)


class StandaloneSystem(_BaseSystem):
    """A single snapshot-isolated database with directly attached clients."""

    topology = Topology("standalone", master_updates=True)

    def __init__(self, env, spec, config, seed, metrics,
                 distribution="exponential", lb_policy=LEAST_LOADED,
                 capacities=None, partition_map=None):
        super().__init__(env, spec, config, seed, metrics, distribution,
                         lb_policy, capacities, partition_map)
        self.database = self._make_replica("standalone", 0,
                                           capacity=self._initial_capacity(0))

    def execute(self, sampler: WorkloadSampler, is_update: bool, client_id: int = 0):
        replica = self.database
        path = self.certification
        replica.active += 1
        aborts = 0
        yield from self._admit(replica)
        try:
            if not is_update:
                yield from replica.serve_read()
                return aborts
            partitions = sampler.sample_partition_set(is_update=True)
            for _ in range(self.config.max_retries):
                # The snapshot is taken at begin; the conflict window is the
                # full execution time on the standalone database (§2).
                snapshot, token = path.pin(replica)
                try:
                    yield from replica.serve_update_attempt()
                    writeset = sampler.sample_writeset(snapshot, partitions)
                    self.metrics.record_certification()
                    outcome = self.certifier.certify(writeset)
                finally:
                    path.release(token, self.replicas)
                if outcome.committed:
                    return aborts
                aborts += 1
            raise RetryLimitExceeded(
                "standalone", "update", self.config.max_retries
            )
        finally:
            self._release(replica)
            replica.active -= 1


class MultiMasterSystem(_BaseSystem):
    """Figure 4: N symmetric replicas behind a load balancer + certifier."""

    topology = MULTI_MASTER_TOPOLOGY

    def __init__(self, env, spec, config, seed, metrics,
                 distribution="exponential", lb_policy=LEAST_LOADED,
                 capacities=None, partition_map=None, certifier_spec=None,
                 certification=None):
        super().__init__(
            env, spec, config, seed, metrics, distribution, lb_policy,
            capacities, partition_map,
            certification or GlobalCertification(
                env, certifier_spec, remote=True,
                response_delay=config.certifier_delay,
            ),
        )
        for index in range(config.replicas):
            self._make_replica(f"replica{index}", index,
                               capacity=self._initial_capacity(index),
                               hosted_partitions=self._hosted_for_index(index))
        self._members_created = config.replicas

    def add_replica(self, transfer_writesets: int = 0,
                    capacity: float = 1.0) -> SimReplica:
        """Grow the cluster by one replica (elastic provisioning).

        The joiner adopts a state snapshot at the current propagation
        watermark (everything already handed to the replicas; versions
        certified but still inside their certification delay arrive
        normally afterwards) and pays for it with a bulk writeset replay
        of *transfer_writesets* applications before entering rotation.
        """
        self._require_elastic()
        index = self._members_created
        self._members_created += 1
        replica = self._make_replica(f"replica{index}", index,
                                     capacity=capacity)
        replica.sync_to(self._propagated_version)
        replica.available = False
        self.env.start(self._join_process(replica, transfer_writesets))
        return replica

    def remove_replica(self, replica: Optional[SimReplica] = None,
                       force: bool = False) -> SimReplica:
        """Shrink the cluster by one replica: drain, then detach.

        Without a target, picks the youngest fully-joined replica; at
        least one healthy replica always remains.  ``force`` detaches
        immediately without draining — the replacement path for crashed
        replicas, whose state is already lost.
        """
        self._require_elastic()
        if replica is None:
            candidates = [
                r for r in self.replicas if not r.draining and r.available
            ]
            if len(candidates) <= 1:
                raise SimulationError(
                    "cannot remove the last available replica"
                )
            replica = candidates[-1]
        elif replica not in self.replicas:
            raise SimulationError(f"{replica.name} is not attached")
        survivors = [
            r for r in self.replicas
            if r is not replica and not r.draining and not r.failed
        ]
        if not survivors:
            raise SimulationError("cannot remove the last healthy replica")
        if force:
            self._detach_now(replica)
            return replica
        replica.draining = True
        replica.available = False
        self.env.start(self._drain_and_detach(replica))
        return replica


class SingleMasterSystem(_BaseSystem):
    """Figure 5: one master for updates, N-1 slaves for reads."""

    topology = SINGLE_MASTER_TOPOLOGY

    def __init__(self, env, spec, config, seed, metrics,
                 distribution="exponential", lb_policy=LEAST_LOADED,
                 capacities=None, partition_map=None):
        super().__init__(env, spec, config, seed, metrics, distribution,
                         lb_policy, capacities, partition_map)
        # The master executes every update, so it hosts every partition
        # implicitly; a partition map only constrains the slaves.
        self.master = self._make_replica("master", "master",
                                         capacity=self._initial_capacity(0))
        self.slaves = [
            self._make_replica(
                f"slave{index}", index,
                capacity=self._initial_capacity(index + 1),
                hosted_partitions=self._hosted_for_index(index + 1),
            )
            for index in range(config.replicas - 1)
        ]
        self._members_created = config.replicas - 1

    def add_replica(self, transfer_writesets: int = 0,
                    capacity: float = 1.0) -> SimReplica:
        """Grow the system by one read-only slave (the master is fixed)."""
        self._require_elastic()
        index = self._members_created
        self._members_created += 1
        slave = self._make_replica(f"slave{index}", index, capacity=capacity)
        self.slaves.append(slave)
        slave.sync_to(self._propagated_version)
        slave.available = False
        self.env.start(self._join_process(slave, transfer_writesets))
        return slave

    def remove_replica(self, replica: Optional[SimReplica] = None,
                       force: bool = False) -> SimReplica:
        """Drain (or force-detach) one slave — never the master."""
        self._require_elastic()
        if replica is None:
            candidates = [
                r for r in self.slaves if not r.draining and r.available
            ]
            if not candidates:
                raise SimulationError(
                    "no removable slave (the master cannot be removed)"
                )
            replica = candidates[-1]
        elif replica is self.master:
            raise SimulationError("the master cannot be removed")
        elif replica not in self.slaves:
            raise SimulationError(f"{replica.name} is not an attached slave")
        if force:
            self._detach_now(replica)
            return replica
        replica.draining = True
        replica.available = False
        self.env.start(self._drain_and_detach(replica))
        return replica
