"""Simulated replicated-database systems (the prototypes of §5).

Three assemblies share the client loop:

* :class:`StandaloneSystem` — the one-member topology: one database, its
  clients attached directly (no load balancer) and certifying its own
  commits.  This is what the profiler measures.
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
:meth:`_BaseSystem.execute`, for the standalone database too.  What
differs between assemblies sits behind two seams fixed at construction: a
:class:`~repro.core.topology.Topology` (who executes updates, and whether
a load balancer routes) and a certification path
(:class:`GlobalCertification` here, :class:`~.sharded.ShardedCertification`
for per-partition shards).

What both substrates share about a run sits here too.
:class:`RunOptions` declares the options every harness takes and is the
one place a run is refused before it starts; :class:`Fleet` builds the
first replicas from the topology and the options, names joiners, picks
removals and counts members; :func:`check_supported` is the one place a
membership change or a fault schedule is refused.  This module and the
live cluster (:mod:`repro.cluster.cluster`) keep only the join and leave
mechanics.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import rng as rng_util
from ..core.errors import (
    ConfigurationError,
    RetryLimitExceeded,
    SimulationError,
)
from ..core.params import ReplicationConfig
from ..core.topology import (
    ARRIVAL_RATE_MUST_BE_POSITIVE,
    CRASH_NEEDS_FULL_REPLICATION,
    DESIGNS,
    ELASTIC_NEEDS_FULL_REPLICATION,
    ELASTIC_NEEDS_GLOBAL_CERTIFIER,
    LAST_HEALTHY_REPLICA,
    MASTER,
    MASTER_IS_NOT_FAULTABLE,
    MASTER_IS_NOT_REMOVABLE,
    MULTI_MASTER,
    MULTI_MASTER_TOPOLOGY,
    SINGLE_MASTER,
    SINGLE_MASTER_TOPOLOGY,
    STANDALONE,
    STANDALONE_HAS_NO_CAPACITIES,
    STANDALONE_HAS_NO_REDUNDANCY,
    STANDALONE_IS_NOT_ELASTIC,
    STANDALONE_IS_ONE_REPLICA,
    STANDALONE_TOPOLOGY,
    TOPOLOGIES,
    topology_of,
)
from ..partition.placement import resolve_partition_map
from ..sidb.certifier import GlobalCertifier
from ..telemetry.recorder import NULL_RECORDER, ProtocolRecorder
from ..workloads.spec import WorkloadSpec
from .des import Acquire, Environment, Semaphore, Service, Timeout
from .faults import BROWNOUT, CRASH, ReplicaFault
from .replica import SimReplica
from .sampling import DISTRIBUTIONS, EXPONENTIAL, ServiceSampler, WorkloadSampler
from .sharded import ShardedCertification
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

#: The least-loaded order: fewest resident transactions, ties to the
#: smallest name.
_LEAST_LOADED = attrgetter("active", "name")
#: A replica's applied version (the prune floor's most-lagging term).
_APPLIED_VERSION = attrgetter("applied_version")


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
    return min(alive, key=_LEAST_LOADED)


@dataclass(frozen=True)
class RunOptions:
    """The options every harness takes, declared once.

    :func:`~repro.simulator.runner.simulate`,
    :func:`~repro.cluster.runner.run_cluster` and the elastic loop in
    :mod:`repro.control.autoscale` keep these as plain keywords (a sweep
    point's options *are* its harness's keywords), build one
    ``RunOptions`` from them and call :meth:`validate` once, before
    anything runs; the run objects and fleets then take the validated
    object whole.  Every field's default is the harness default.
    """

    #: System design: ``"multi-master"`` (Figure 4), ``"single-master"``
    #: (Figure 5) or — on the simulator only — ``"standalone"``.
    design: str = MULTI_MASTER
    #: Service-time distribution (one of
    #: :data:`~repro.simulator.sampling.DISTRIBUTIONS`).
    distribution: str = EXPONENTIAL
    #: Load-balancer routing policy (one of :data:`LB_POLICIES`).
    lb_policy: str = LEAST_LOADED
    #: A heterogeneous fleet: one positive speed multiplier per initial
    #: replica (single-master: index 0 is the master), scaling that
    #: replica's CPU and disk rates; ``None`` is a uniform fleet.
    capacities: Optional[Sequence[float]] = None
    #: Places a partitioned workload's data on replica subsets
    #: (:class:`~repro.partition.placement.PartitionMap`): writesets
    #: propagate only to hosting replicas and transactions route to hosts
    #: of everything they touch.  A partitioned workload with no map runs
    #: fully replicated (the A/B baseline).
    partition_map: object = None
    #: The certification service: ``None`` (or the default
    #: :class:`~repro.sidb.certifier_api.CertifierSpec`) is the single
    #: global certifier; ``"sharded"`` (or a sharded spec) runs
    #: per-partition certifier shards with version vectors and the
    #: cross-partition forwarding coordinator
    #: (:class:`~.sharded.ShardedCertification`).  Multi-master only
    #: (:attr:`~repro.core.topology.Topology.certifier_axis`).
    certifier: object = None
    #: Replica crash/drain/brownout events
    #: (:class:`~repro.simulator.faults.ReplicaFault`), timed from the
    #: start of the run (warm-up included).
    faults: Sequence[ReplicaFault] = ()
    #: Switches the closed-loop client model (§3.1) to an open-loop
    #: Poisson stream of that many transactions per second — the
    #: open-vs-closed comparison of [Schroeder 2006].
    arrival_rate: Optional[float] = None

    def validate(self, spec: WorkloadSpec, config: ReplicationConfig, *,
                 designs: Tuple[str, ...] = DESIGNS,
                 window: Optional[Tuple[float, float]] = None,
                 ) -> "RunOptions":
        """The options normalised for a run of *spec* on *config* — the
        certifier resolved to ``None`` or a non-default spec, the
        partition map resolved, capacities a tuple and the fault schedule
        accepted — or the one :class:`ConfigurationError` refusing them.

        *designs* are the designs the asking pillar builds; *window* is
        the run's ``(warmup, duration)`` when it has one.
        """
        # A design no pillar builds is refused at once; one this pillar
        # does not build (the live standalone) only after the checks
        # below, so a refused standalone combination reads the same on
        # every pillar.
        topology = TOPOLOGIES.get(self.design) or topology_of(
            self.design, designs)
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown distribution {self.distribution!r}")
        if self.lb_policy not in LB_POLICIES:
            raise ConfigurationError(
                f"unknown lb_policy {self.lb_policy!r}; one of {LB_POLICIES}")
        if window is not None and (window[0] < 0 or window[1] <= 0):
            raise ConfigurationError("warmup must be >= 0 and duration > 0")
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ConfigurationError(ARRIVAL_RATE_MUST_BE_POSITIVE)
        certifier = topology.resolve_certifier(self.certifier, spec.partitions)
        if topology is STANDALONE_TOPOLOGY:
            if config.replicas != 1:
                raise ConfigurationError(STANDALONE_IS_ONE_REPLICA)
            if self.capacities is not None:
                raise ConfigurationError(STANDALONE_HAS_NO_CAPACITIES)
        partition_map = resolve_partition_map(spec, config,
                                              self.partition_map, self.design)
        faults = check_supported(self.design, partition_map=partition_map,
                                 faults=self.faults, replicas=config.replicas)
        topology_of(self.design, designs)
        capacities = self.capacities
        if capacities is not None:
            capacities = tuple(float(c) for c in capacities)
            if len(capacities) != config.replicas:
                raise ConfigurationError(
                    f"capacities names {len(capacities)} replicas but the "
                    f"deployment has {config.replicas}"
                )
            if any(c <= 0.0 for c in capacities):
                raise ConfigurationError(
                    "every capacity multiplier must be positive")
        return replace(self, capacities=capacities,
                       partition_map=partition_map, certifier=certifier,
                       faults=faults)

def check_supported(design: str, *, membership: bool = False,
                    elastic_path: bool = True, partition_map=None,
                    faults: Sequence[ReplicaFault] = (),
                    replicas: int = 1) -> Tuple[ReplicaFault, ...]:
    """The one place a membership change or a fault schedule is refused.

    *membership* asks whether the fleet may grow or shrink at all
    (*elastic_path*: its certification path can seed a joiner); *faults*
    is checked against a *replicas*-strong fleet.  Raises
    :class:`ConfigurationError` with the combination's one message;
    returns the accepted fault schedule.
    """
    partial = partition_map is not None and not partition_map.is_full
    if membership:
        if design == STANDALONE:
            raise ConfigurationError(STANDALONE_IS_NOT_ELASTIC)
        if not elastic_path:
            raise ConfigurationError(ELASTIC_NEEDS_GLOBAL_CERTIFIER)
        if partial:
            raise ConfigurationError(ELASTIC_NEEDS_FULL_REPLICATION)
    if partial and any(fault.kind == CRASH for fault in faults):
        # A crash destroys one copy of every partition its replica hosts
        # and replacement cannot run; once every host of a partition
        # crashed, routing would fall back to non-hosts that install only
        # version markers — committed data stored nowhere while the
        # convergence check still passes.
        raise ConfigurationError(CRASH_NEEDS_FULL_REPLICATION)
    for fault in faults:
        if fault.replica_index >= replicas:
            raise ConfigurationError(
                f"fault targets replica {fault.replica_index} but the "
                f"system has {replicas}"
            )
        if (design == SINGLE_MASTER
                and fault.replica_index == 0 and fault.kind != BROWNOUT):
            raise ConfigurationError(MASTER_IS_NOT_FAULTABLE)
        if design == STANDALONE:
            raise ConfigurationError(STANDALONE_HAS_NO_REDUNDANCY)
    return tuple(faults)


class Fleet:
    """One replicated fleet's membership, written once for both substrates.

    :class:`_BaseSystem` (DES) and :class:`repro.cluster.cluster.Cluster`
    (live) build their first replicas from the
    :class:`~repro.core.topology.Topology` and the run's
    :class:`RunOptions`, name joiners, pick and refuse removals, and count
    members here.  Each substrate supplies only the mechanics:
    ``_global_certification`` and ``_sharded_certification`` (its two
    paths), ``_new_replica`` (its replica class on a sampler), ``_clock``
    (its time source for the recorder), the join and the drain or
    force-detach.  Both replica classes answer ``staying`` (healthy and
    not leaving) and ``removable`` (eligible as a default removal target)
    — the latter is each class's own predicate: the DES skips
    drain-faulted replicas, the live cluster skips joining ones.
    """

    topology = MULTI_MASTER_TOPOLOGY
    #: Protocol recorder (:mod:`repro.telemetry.recorder`): the null
    #: sink until :meth:`attach_telemetry` swaps in a real one.
    recorder = NULL_RECORDER
    #: The replica executing every update — always ``replicas[0]`` — or
    #: ``None`` when the routed replica does.  A fleet without a load
    #: balancer (the standalone database) is its master alone, and the
    #: master takes its reads too.
    master = None
    #: RNG stream the replicas' samplers are spawned from.
    _replica_stream = "replica"

    def __init__(self, spec: WorkloadSpec, config: ReplicationConfig,
                 seed: int, metrics: MetricsCollector,
                 options: Optional[RunOptions] = None) -> None:
        #: The run's validated options (:meth:`RunOptions.validate`);
        #: ``None`` builds the design's defaults.
        self.options = options = options or RunOptions(
            self.design).validate(spec, config)
        self.partition_map = options.partition_map
        self.spec = spec
        self.config = config
        #: The certification path — sharded when the validated options
        #: chose a sharded certifier, which only a design with a
        #: certifier axis can: it owns the certifier and builds the
        #: replicas.
        certifier = options.certifier
        self.certification = (
            self._sharded_certification(certifier)
            if certifier is not None and certifier.is_sharded
            else self._global_certification(certifier)
        )
        self.certifier = self.certification.certifier
        self.metrics = metrics
        self._seed = seed
        self.replicas: list = []
        #: Monotonic counter naming joined replicas (names and metric
        #: keys must never be reused after a removal).
        self._members_created = 0

    @property
    def design(self) -> str:
        return self.topology.design

    @property
    def slaves(self) -> list:
        """The replicas minus the master (all of them without one)."""
        return [r for r in self.replicas if r is not self.master]

    def _initial_capacity(self, index: int) -> float:
        """Capacity multiplier for the *index*-th initial replica."""
        capacities = self.options.capacities
        return 1.0 if capacities is None else capacities[index]

    def _hosted_for_index(self, index: int):
        """Hosted-partition set of the *index*-th initial replica
        (``None`` — host everything — without a partial map)."""
        if self.partition_map is None or self.partition_map.is_full:
            return None
        return self.partition_map.hosted_by(index)

    def _create(self, name: str, path: object, capacity: float,
                hosted_partitions=None):
        """A new replica on its own sampler stream, its resources watched
        and its lanes wired to the recorder (the caller lists it)."""
        sampler = ServiceSampler(
            self.spec,
            rng_util.spawn(self._seed, self._replica_stream, path),
            distribution=self.options.distribution,
        )
        replica = self._new_replica(name, sampler, capacity,
                                    hosted_partitions)
        with self.metrics_lock:
            self.metrics.watch_resource(f"{name}.cpu", replica.cpu)
            self.metrics.watch_resource(f"{name}.disk", replica.disk)
        self._wire(replica)
        return replica

    def _build_fleet(self) -> None:
        """Create the initial replicas the topology names.  Creation
        order, names, sampler paths and capacity/placement indices are
        behaviour: the golden DES digests pin them."""
        shift = 0
        if self.topology.master_updates:
            # The master executes every update, so it hosts every
            # partition implicitly; a partition map only constrains the
            # other members.
            self.master = self._create(MASTER, MASTER,
                                       self._initial_capacity(0))
            self.replicas.append(self.master)
            shift = 1
        for index in range(self.config.replicas - shift):
            self.replicas.append(self._create(
                f"{self.topology.member}{index}", index,
                self._initial_capacity(index + shift),
                self._hosted_for_index(index + shift),
            ))
        self._members_created = self.config.replicas - shift

    def _wire(self, replica) -> None:
        """Share the recorder with *replica* and baseline its lanes."""
        replica.recorder = self.recorder
        for shard, watermark in replica.watermarks():
            self.recorder.attached(replica.name, watermark, shard=shard)

    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`repro.telemetry.Telemetry` into the fleet.

        Called once after construction by a telemetry-enabled run; the
        certifier, every current replica, and every replica created
        later (elastic joins) share the same recorder.
        """
        # The recorder's clock must not reference the fleet, which holds
        # the recorder: that cycle would outlive the run.
        self.recorder = ProtocolRecorder(telemetry, self._clock())
        self.certifier.telemetry = telemetry
        for replica in self.replicas:
            self._wire(replica)

    # ------------------------------------------------------------------
    # Elastic membership (dynamic provisioning)
    # ------------------------------------------------------------------

    @property
    def member_count(self) -> int:
        """Replicas provisioned, healthy, and not leaving (controller
        view): a crashed replica is no longer a member."""
        return sum(1 for r in self.replicas if r.staying)

    def upgrade_targets(self) -> list:
        """Replicas a rolling restart cycles (never the master: it cannot
        be detached)."""
        return [r for r in self.slaves if r.staying]

    def _check_membership(self) -> None:
        check_supported(self.design, membership=True,
                        elastic_path=self.certification.elastic,
                        partition_map=self.partition_map)

    def _next_member(self) -> Tuple[str, int]:
        """Refuse a join this fleet cannot take, else claim the next
        member's name and index."""
        self._check_membership()
        index = self._members_created
        self._members_created += 1
        return f"{self.topology.member}{index}", index

    def _donor(self):
        """The replica a state-transfer join clones: the master (under
        the commit-order lock its snapshot is exactly the published
        watermark), else the freshest healthy replica."""
        if self.master is not None:
            return self.master
        donors = [r for r in self.replicas if not r.failed]
        if not donors:
            raise ConfigurationError(
                "no healthy donor replica for state transfer"
            )
        return max(donors, key=lambda r: r.applied_version)

    def _removal_target(self, replica):
        """The replica a removal takes — *replica*, or without one the
        youngest removable replica — after refusing the master, a
        replica that is not attached, and the last healthy one."""
        self._check_membership()
        if replica is None:
            # The master, always replicas[0], is never the last of two.
            candidates = [r for r in self.replicas if r.removable]
            if len(candidates) <= 1:
                raise ConfigurationError(LAST_HEALTHY_REPLICA)
            return candidates[-1]
        if replica is self.master:
            raise ConfigurationError(MASTER_IS_NOT_REMOVABLE)
        if replica not in self.replicas:
            raise ConfigurationError(f"{replica.name} is not attached")
        if not any(r.staying for r in self.replicas if r is not replica):
            raise ConfigurationError(LAST_HEALTHY_REPLICA)
        return replica


class GlobalCertification:
    """The global certification path: one certifier, one version
    sequence, scalar snapshots.

    *remote* says whether the certifier is a service apart from the
    executing database (multi-master) or the executing database itself
    (single-master, standalone): only a remote certifier is lagged by
    the replicas' snapshots and costs a response delay.
    """

    #: Scalar snapshots transfer as one version: joins are fine.
    elastic = True

    def __init__(self, env: Environment, certifier_spec=None,
                 remote: bool = False, response_delay: float = 0.0) -> None:
        self._env = env
        self.certifier = GlobalCertifier()
        self._remote = remote
        #: The certification response's trip back (effects are immutable,
        #: so every commit yields this one).
        self._response = Timeout(response_delay)
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

    def new_replica(self, name: str, sampler: ServiceSampler,
                    capacity: float) -> SimReplica:
        return SimReplica(self._env, name, sampler, capacity=capacity)

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
            yield self._response
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
            floor = min(floor, min(map(_APPLIED_VERSION, replicas)))
        self.certifier.observe_snapshot(max(0, floor))

    def shards(self, partitions) -> None:
        """No shards coordinate (the certify span carries no such tag)."""

    def version(self, outcome) -> int:
        """The system-wide version clock after *outcome* committed."""
        return outcome.commit_version

    def propagate(self, members: Sequence[SimReplica], outcome,
                  origin: SimReplica, partitions) -> None:
        """Hand one committed version to every member, in member order.

        The executing replica (*origin*) already holds the effects;
        under partial replication only members hosting one of the
        writeset's *partitions* pay the application work — everyone else
        advances its watermark for free (the version marker that keeps
        the snapshot clock contiguous).  Hosting is :func:`hosts_any`,
        written out: this runs for every member of every commit.
        """
        version = outcome.commit_version
        for member in members:
            hosted = member.hosted_partitions
            member.enqueue_writeset(
                version,
                member is not origin and (
                    hosted is None or not partitions
                    or not hosted.isdisjoint(partitions)),
            )


class _BaseSystem(Fleet):
    """The DES fleet: replicas, samplers, client loop, the one
    transaction protocol body (:meth:`execute`) and the membership
    mechanics (:meth:`add_replica`, :meth:`remove_replica`)."""

    #: How often an elastic drain re-checks that a leaving replica has
    #: finished its in-flight transactions (simulated seconds).
    _DRAIN_POLL = 0.025

    #: Metric registration needs no lock: the event loop is
    #: single-threaded.
    metrics_lock = contextlib.nullcontext()

    def __init__(self, env: Environment, spec: WorkloadSpec,
                 config: ReplicationConfig, seed: int,
                 metrics: MetricsCollector,
                 options: Optional[RunOptions] = None) -> None:
        self.env = env
        super().__init__(spec, config, seed, metrics, options)
        self.lb_policy = self.options.lb_policy
        self._lb_rng = rng_util.spawn(seed, "load-balancer")
        #: The load-balancer hop every transaction pays first (one shared
        #: effect: effects are immutable).  The standalone database has
        #: no load balancer (§3.3.1): ``None``, not a zero-length hop.
        self._lb_hop = (None if self.topology is STANDALONE_TOPOLOGY
                        else Timeout(config.load_balancer_delay))
        #: Highest commit version already handed to update propagation —
        #: the sync point elastic joins adopt (the certifier can be ahead
        #: by in-flight certification delays).
        self._propagated_version = 0
        #: Cleared by :meth:`stop_arrivals` to end open-loop streams.
        self._arrivals_on = True
        self._build_fleet()

    def _clock(self) -> Callable[[], float]:
        env = self.env
        return lambda: env.now

    def _global_certification(self, certifier_spec) -> GlobalCertification:
        # Only a multi-master certifier is a remote service.
        return GlobalCertification(
            self.env, certifier_spec, remote=not self.topology.master_updates,
            response_delay=self.config.certifier_delay,
        )

    def _sharded_certification(self, certifier_spec) -> ShardedCertification:
        return ShardedCertification(self.env, self.spec, self.config,
                                    certifier_spec)

    def _new_replica(self, name: str, sampler: ServiceSampler,
                     capacity: float, hosted_partitions) -> SimReplica:
        replica = self.certification.new_replica(name, sampler, capacity)
        replica.hosted_partitions = hosted_partitions
        # Admission control: the connection pool bounds how many client
        # transactions execute concurrently (config.max_concurrency).
        if self.config.max_concurrency is not None:
            replica.admission = Semaphore(self.env, self.config.max_concurrency)
        else:
            replica.admission = None
        return replica

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

    def _release(self, replica: SimReplica) -> None:
        if replica.admission is not None:
            replica.admission.release()

    def start_clients(self, count: int) -> None:
        """Launch *count* closed-loop client processes."""
        for client_id in range(count):
            sampler = WorkloadSampler(
                self.spec,
                rng_util.spawn(self._seed, "client", client_id),
                distribution=self.options.distribution,
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
        self.env.start(self._arrival_process(rate))

    def _arrival_process(self, rate: float):
        arrival_rng = rng_util.spawn(self._seed, "open-arrivals")
        sampler = WorkloadSampler(
            self.spec,
            rng_util.spawn(self._seed, "open-client"),
            distribution=self.options.distribution,
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
            distribution=self.options.distribution,
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
        on commit the hand-off to every replica.  The standalone
        database is the topology with one member and no load balancer:
        no balancer hop, no routing, and its own certifier (§3.3.1).
        """
        topology, path = self.topology, self.certification
        txn = self.recorder.begin()
        hop = self._lb_hop
        if hop is not None:
            yield hop
        # Partitioned workloads pick their data before routing: the
        # transaction must land on a replica hosting what it touches
        # (the master hosts everything).  A read's set only steers the
        # balancer, so without one a read draws none.
        partitions = (sampler.sample_partition_set(is_update)
                      if is_update or hop is not None else ())
        if topology.master_updates and (is_update or hop is None):
            replica, policy = self.master, "master"
        else:
            replica = self.route(self.replicas, client_id, is_update,
                                 partitions)
            policy = self.lb_policy
        txn.routed(replica.name, is_update, policy)
        replica.active += 1
        aborts = 0
        # Admission control: wait for an execution slot (config's
        # max_concurrency) before taking a snapshot.
        if replica.admission is not None:
            yield Acquire(replica.admission)
        try:
            if not is_update:
                # Read-only transactions execute entirely locally and always
                # commit (§2: GSI read-only transactions never abort).
                txn.staleness(replica, self.certifier)
                draws = replica.sampler
                yield Service(replica.cpu, draws.read_cpu())
                yield Service(replica.disk, draws.read_disk())
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
                    draws = replica.sampler
                    yield Service(replica.cpu, draws.update_cpu())
                    yield Service(replica.disk, draws.update_disk())
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
                    path.propagate(self.replicas, outcome, replica,
                                   writeset.partitions)
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
    # Elastic membership mechanics (the decisions live in Fleet)
    # ------------------------------------------------------------------

    def add_replica(self, transfer_writesets: int = 0,
                    capacity: float = 1.0) -> SimReplica:
        """Grow the fleet by one member (single-master: a read-only
        slave; the master is fixed).

        The joiner adopts a state snapshot at the current propagation
        watermark (everything already handed to the replicas; versions
        certified but still inside their certification delay arrive
        normally afterwards) and pays for it with a bulk writeset replay
        of *transfer_writesets* applications before entering rotation.
        """
        name, index = self._next_member()
        replica = self._create(name, index, capacity)
        self.replicas.append(replica)
        replica.sync_to(self._propagated_version)
        replica.available = False
        self.env.start(self._join_process(replica, transfer_writesets))
        return replica

    def remove_replica(self, replica: Optional[SimReplica] = None,
                       force: bool = False) -> SimReplica:
        """Shrink the fleet by one replica — never the master: drain,
        then detach.

        Without a target, picks the youngest fully-joined replica; at
        least one healthy replica always remains.  ``force`` detaches
        immediately without draining — the replacement path for crashed
        replicas, whose state is already lost.
        """
        replica = self._removal_target(replica)
        if force:
            self._detach_now(replica)
        else:
            replica.draining = True
            replica.available = False
            self.env.start(self._drain_and_detach(replica))
        return replica

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

    def _join_process(self, replica: SimReplica, transfer_writesets: int):
        """Pay the join cost, then enter load-balancer rotation.

        State transfer is modeled as a bulk writeset replay: the joiner
        charges *transfer_writesets* writeset applications to its own CPU
        and disk before it may serve clients.  Writesets committed during
        the transfer were deferred (the replica is unavailable) and are
        flushed by the ``available`` setter, so the total join cost is
        transfer work plus catch-up backlog.
        """
        draws = replica.sampler
        for _ in range(transfer_writesets):
            yield Service(replica.cpu, draws.writeset_cpu())
            yield Service(replica.disk, draws.writeset_disk())
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
    """The one-member topology: a single snapshot-isolated database with
    directly attached clients, which certifies its own commits."""

    topology = STANDALONE_TOPOLOGY

    def _build_fleet(self) -> None:
        # The database keeps its own name and sampler path, not the
        # master's: the golden standalone digests pin both.
        self.master = self._create(STANDALONE, 0, self._initial_capacity(0))
        self.replicas.append(self.master)


class MultiMasterSystem(_BaseSystem):
    """Figure 4: N symmetric replicas behind a load balancer + certifier."""

    topology = MULTI_MASTER_TOPOLOGY


class SingleMasterSystem(_BaseSystem):
    """Figure 5: one master for updates, N-1 slaves for reads."""

    topology = SINGLE_MASTER_TOPOLOGY
