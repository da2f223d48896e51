"""The sharded certification path for the live cluster runtime.

:class:`ShardedCertification` plugs per-partition
:class:`~repro.sidb.sharded.ShardedCertifier` shards — and one order
lock and one replication channel *per shard* — into the one protocol
body (:meth:`~.cluster.Cluster.execute`);
:class:`ShardedMultiMasterCluster` is the multi-master assembly whose
constructor selects it (the live counterpart of
:class:`~repro.simulator.sharded.ShardedMultiMasterSystem`).  Against
the global path:

* **Per-shard commit order.**  Each certifier shard has its own order
  lock; a coordinator acquires the locks of every touched shard in
  ascending partition order (deadlock-free), certifies, and publishes
  one :class:`ShardDelivery` per touched shard while still holding
  those locks — so every shard channel sees its shard's versions
  strictly ascending, with no global ordering point anywhere.
* **Per-lane installation.**  A delivery for shard ``p`` installs
  exactly partition ``p``'s rows (the home shard's delivery is
  ``primary`` and additionally pays the writeset's CPU/disk once).
  Installing each partition's rows from its own lane keeps every key's
  install order equal to its shard's commit order even when a
  cross-partition writeset races a single-partition one on a shared
  shard — the correctness condition replicated state convergence rests
  on.  Replicas assign their own monotone *local* versions as
  deliveries land; concurrently committed writesets have disjoint keys,
  so the final state is order-independent across lanes.
* **Snapshots are version vectors.**  A transaction's snapshot floors
  are the originating replica's per-shard applied vector, read *before*
  ``begin()`` (conservative: the snapshot can only contain more than
  the floors claim, never less).
* **Cross-partition commits pay a coordination round**: the response
  path charges ``2 x certifier_delay`` where a single-partition commit
  charges ``1 x`` (certification-forwarding to the home shard).
* **The certifier can be a real serving centre.**  With
  ``CertifierSpec.service_time > 0`` each commit occupies its touched
  shards' order locks for that long; the global arm of the comparison
  (:class:`~.cluster.GlobalCertification` with the same spec) serialises
  every commit through the one order lock — the contention sharding
  removes.

Elastic membership is refused loudly (the path is not ``elastic``):
joins would need vector-valued state transfer and per-shard replay, the
follow-on seam.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError, SimulationError
from ..sidb.certifier_api import CertifierSpec, require_sharded
from ..sidb.sharded import ShardedCertifier
from ..sidb.writeset import Writeset
from ..simulator.sampling import EXPONENTIAL, ServiceSampler
from ..simulator.systems import hosts_any
from .channel import ReplicationChannel
from .cluster import MultiMasterCluster
from .replica import _VACUUM_INTERVAL, ClusterReplica


@dataclass(frozen=True)
class ShardDelivery:
    """One commit's appearance on one certifier shard's channel.

    The home shard's delivery is ``primary``: the one lane hosting
    replicas are charged apply work on.  Every touched shard's delivery
    installs that shard's rows, so installs stay in per-shard commit
    order on every replica.
    """

    shard: int
    shard_version: int
    writeset: Writeset
    primary: bool

    @property
    def commit_version(self) -> int:
        """The shard-local version (the channel's ordering key)."""
        return self.shard_version


def _rows_for_shard(writeset: Writeset, shard: int) -> Dict[object, object]:
    """The writes landing on *shard*, by the sampler's key convention.

    Partition-qualified keys — ``("updatable", partition, row)`` — go to
    their own shard; anything else (plain keys in tests) rides the home
    shard, mirroring
    :meth:`repro.sidb.sharded.ShardedCertifier._keys_by_partition`.
    """
    parts = sorted(writeset.partition_set)
    home = parts[0]
    members = set(parts)
    rows: Dict[object, object] = {}
    for key, value in writeset.writes:
        partition = home
        if isinstance(key, tuple) and len(key) > 2 and key[1] in members:
            partition = key[1]
        if partition == shard:
            rows[key] = value
    return rows


class ShardedClusterReplica(ClusterReplica):
    """A live replica whose replication state is a per-shard vector.

    One applier thread drains one queue of :class:`ShardDelivery`
    objects; each delivery installs its shard's rows at a fresh local
    version and advances that shard's watermark.  Per-shard delivery
    order is preserved end to end (publishers hold the shard's order
    lock through publish; the queue is FIFO; the applier is serial), so
    lane contiguity is asserted, not reconstructed.
    """

    def __init__(
        self,
        name: str,
        clock,
        sampler: ServiceSampler,
        partitions: int,
        max_concurrency: Optional[int] = None,
        capacity: float = 1.0,
        hosted_partitions=None,
    ) -> None:
        super().__init__(
            name, clock, sampler,
            max_concurrency=max_concurrency, capacity=capacity,
            hosted_partitions=hosted_partitions,
        )
        if partitions < 1:
            raise ConfigurationError(
                f"{name}: partitions must be >= 1, got {partitions}"
            )
        #: Highest contiguously applied version per certifier shard
        #: (guarded by ``_state``, like the rest of the apply state).
        self.applied_vector: Dict[int, int] = {
            p: 0 for p in range(partitions)
        }

    @property
    def applied_version(self) -> int:
        """Sum of the per-shard watermarks: advances by one per shard
        version applied, comparable with the sharded certifier's summed
        clock (and equal to the engine's local version count)."""
        with self._state:
            return sum(self.applied_vector.values())

    def shard_floors(self) -> Dict[int, int]:
        """Snapshot of the applied vector (a transaction's GSI floors)."""
        with self._state:
            return dict(self.applied_vector)

    def watermarks(self):
        """One ``(shard, watermark)`` delivery lane per certifier shard."""
        return tuple(self.shard_floors().items())

    def caught_up(self, target: Tuple[Tuple[int, int], ...]) -> bool:
        """True when every lane reached *target* (quiesce check)."""
        with self._state:
            return all(
                self.applied_vector.get(p, 0) >= version
                for p, version in target
            )

    def enqueue_writeset(self, delivery: ShardDelivery,
                         charged: bool = True) -> None:
        """Queue one shard delivery for in-order application."""
        enqueued_at = self.recorder.mark()
        with self._state:
            if self._failed:
                return
            # Publishers hold the shard's order lock, so each lane's
            # deliveries are audited in shard-commit order.
            self.recorder.delivered(
                self.name, delivery.shard_version, shard=delivery.shard
            )
            self._queue.append((delivery, charged, enqueued_at))
            self._state.notify_all()

    def _apply_writesets(self) -> None:
        applied_since_vacuum = 0
        while True:
            with self._state:
                while not self._stopping and (
                    not self._queue or not self._available
                ):
                    self._state.wait()
                if not self._queue:
                    return
                delivery, charged, enqueued_at = self._queue.popleft()
            writeset = delivery.writeset
            hosts_shard = (
                self.hosted_partitions is None
                or delivery.shard in self.hosted_partitions
            )
            # The home lane pays the whole writeset's application once,
            # iff this replica hosts any touched partition and did not
            # originate the transaction; every other lane is free.
            pay = (charged and delivery.primary
                   and hosts_any(self, writeset.partition_set))
            if pay:
                self.cpu.serve(self._sampler.writeset_cpu())
                self.disk.serve(self._sampler.writeset_disk())
            rows = _rows_for_shard(writeset, delivery.shard) if hosts_shard else {}
            local_version = self.db.latest_version + 1
            if rows:
                self.db.apply_shard_rows(local_version, rows)
            else:
                # Not hosted (or no rows landed here): a version marker
                # keeps the local clock equal to the watermark sum.
                self.db.apply_version_marker(local_version)
            with self._state:
                watermark = self.applied_vector.get(delivery.shard)
                if (watermark is None
                        or delivery.shard_version != watermark + 1):
                    raise SimulationError(
                        f"{self.name}: shard {delivery.shard} delivery "
                        f"v{delivery.shard_version} breaks lane contiguity "
                        f"(watermark is {watermark})"
                    )
                self.applied_vector[delivery.shard] = delivery.shard_version
                if delivery.primary:
                    self.writesets_applied += 1
            self.recorder.applied(
                self.name, delivery.shard_version, pay,
                self.hosted_partitions, shard=delivery.shard,
                started=enqueued_at if delivery.primary else None,
            )
            applied_since_vacuum += 1
            if applied_since_vacuum >= _VACUUM_INTERVAL:
                applied_since_vacuum = 0
                self.db.vacuum()


class ShardedCertification:
    """The sharded certification path: one certifier shard, one
    commit-order lock and one replication channel per partition,
    version-vector snapshots.

    Same interface as :class:`~.cluster.GlobalCertification`.
    """

    #: Joins would need vector-valued state transfer and per-shard
    #: replay: the fleet refuses membership changes on this path.
    elastic = False

    def __init__(self, clock, spec,
                 certifier_spec: Optional[CertifierSpec]) -> None:
        require_sharded(certifier_spec, spec, "ShardedMultiMasterCluster")
        self._clock = clock
        self._service_time = certifier_spec.service_time
        self._shard_count = spec.partitions
        self.certifier = ShardedCertifier(partitions=spec.partitions)
        #: One in-order channel per certifier shard: per-shard commit
        #: order is the only order there is.
        self._shard_channels: List[ReplicationChannel] = [
            ReplicationChannel() for _ in range(spec.partitions)
        ]
        #: Per-shard commit-order locks; coordinators acquire their
        #: touched set in ascending partition order (deadlock-free).
        self._shard_locks: List[threading.Lock] = [
            threading.Lock() for _ in range(spec.partitions)
        ]
        #: In-flight snapshot floors: every update attempt pins the
        #: per-shard floors it will certify against, so the prune floor
        #: never passes a floor still in use (mirrors the DES path's
        #: active-snapshot registry).  Without this, long attempts hit
        #: the certifier's conservative pruned-history fallback and
        #: spuriously abort in droves.
        self._floor_lock = threading.Lock()
        self._active_floors: Dict[int, Dict[int, int]] = {}
        self._floor_token = 0

    def new_replica(self, name, sampler, certifier, max_concurrency,
                    capacity, hosted_partitions) -> ShardedClusterReplica:
        return ShardedClusterReplica(
            name, self._clock, sampler, partitions=self._shard_count,
            max_concurrency=max_concurrency, capacity=capacity,
            hosted_partitions=hosted_partitions,
        )

    def subscribe(self, replica: ShardedClusterReplica) -> None:
        for channel in self._shard_channels:
            channel.subscribe(replica)

    def pin(self, replica) -> Tuple[int, Dict[int, int]]:
        """Read *replica*'s applied vector — one attempt's GSI floors —
        and pin it against pruning until :meth:`unpin`."""
        floors = replica.shard_floors()
        with self._floor_lock:
            self._floor_token += 1
            self._active_floors[self._floor_token] = floors
            return self._floor_token, floors

    def unpin(self, pin) -> None:
        with self._floor_lock:
            self._active_floors.pop(pin[0], None)

    def stamp(self, writeset: Writeset, pin) -> Writeset:
        """Attach the touched shards' pinned floors to *writeset*."""
        floors = pin[1]
        return writeset.with_snapshot_vector({
            p: floors.get(p, 0) for p in writeset.partitions
        })

    def shards(self, partitions) -> int:
        """How many certifier shards coordinate (a certify-span tag)."""
        return len(partitions)

    def rounds(self, partitions) -> int:
        """Forwarding protocol: one round to a single shard, one extra
        coordination round for a cross-partition commit."""
        return 2 if len(partitions) > 1 else 1

    @contextmanager
    def ordered(self, partitions):
        """Hold every touched shard's place in its commit order.

        *partitions* is sorted, so locks are taken in ascending
        partition order (deadlock-free).  Service occupancy: the touched
        shards are held for the certification's duration, so
        disjoint-partition commits overlap while same-shard ones
        serialise.
        """
        locks = [self._shard_locks[p] for p in partitions]
        for lock in locks:
            lock.acquire()
        try:
            self._clock.sleep(self._service_time)
            yield
        finally:
            for lock in reversed(locks):
                lock.release()

    def publish(self, outcome, committed: Writeset, origin) -> None:
        """One delivery per touched shard (call inside :meth:`ordered`)."""
        home = outcome.home_shard
        for shard, version in outcome.shard_versions:
            self._shard_channels[shard].publish(
                ShardDelivery(
                    shard=shard, shard_version=version,
                    writeset=committed, primary=(shard == home),
                ),
                origin=origin,
            )

    def version(self, outcome) -> int:
        """The summed shard clock (what ``applied_version`` tracks)."""
        return self.certifier.latest_version

    def drained(self, replicas) -> bool:
        """True when every lane of every one of *replicas* caught up."""
        target = self.certifier.version_vector()
        return all(
            r.caught_up(target) and r.apply_backlog == 0 for r in replicas
        )

    def prune(self, replicas) -> None:
        # Per-shard floors: the minimum applied watermark across the
        # fleet, further held back by any in-flight attempt's pinned
        # floors.  An attempt begun after this prune reads floors at or
        # above it (watermarks are monotone) and an attempt in flight is
        # pinned, so certification always gets an exact conflict
        # answer; the certifier's conservative retained-history fallback
        # stays a last-resort guard, not a steady-state abort source.
        floors: Optional[Dict[int, int]] = None
        for replica in replicas:
            if replica.failed:
                continue
            vector = replica.shard_floors()
            if floors is None:
                floors = vector
            else:
                floors = {
                    p: min(v, vector.get(p, 0)) for p, v in floors.items()
                }
        if not floors:
            return
        with self._floor_lock:
            active = list(self._active_floors.values())
        for vector in active:
            for p, floor in vector.items():
                if p in floors and floor < floors[p]:
                    floors[p] = floor
        self.certifier.observe_snapshot(floors)


class ShardedMultiMasterCluster(MultiMasterCluster):
    """Figure 4 with the write path sharded: N symmetric live replicas,
    one certifier shard (and one replication channel) per partition."""

    def __init__(self, spec, config, seed, clock, metrics,
                 distribution=EXPONENTIAL, lb_policy="least-loaded",
                 capacities=None, partition_map=None,
                 certifier_spec: Optional[CertifierSpec] = None):
        super().__init__(
            spec, config, seed, clock, metrics, distribution, lb_policy,
            capacities, partition_map, certifier_spec,
            certification=ShardedCertification(clock, spec, certifier_spec),
        )
