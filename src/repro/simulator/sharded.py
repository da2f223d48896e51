"""The sharded certification path for the discrete-event simulator.

:class:`ShardedCertification` plugs per-partition
:class:`~repro.sidb.sharded.ShardedCertifier` shards into the one
protocol body (:meth:`~.systems._BaseSystem.execute`); a multi-master
fleet whose run chose ``certifier="sharded"`` takes it
(:class:`~.systems.Fleet`).  Against the global path:

* **Snapshots are version vectors.**  A transaction's snapshot is the
  originating replica's per-shard applied vector; the sampled writeset
  carries the touched shards' floors
  (:meth:`~repro.sidb.writeset.Writeset.with_snapshot_vector`).
* **Cross-partition commits pay a coordination round.**  Certification
  is forwarded to the home shard (lowest touched partition), so a
  cross-partition transaction charges ``2 x certifier_delay`` where a
  single-partition one charges ``1 x`` — the latency cost of the
  forwarding protocol (see :mod:`repro.sidb.sharded`).
* **The certifier can be a real queueing centre.**  With
  ``CertifierSpec.service_time > 0`` every certification occupies its
  touched shards for that long — one service token *per shard*, so
  disjoint-partition commits certify concurrently.  The global arm of
  the same comparison serialises every commit through one token
  (:class:`~.systems.GlobalCertification` with the same spec), which is
  exactly the contention the sharding removes.

Ordering discipline: all delays (coordination rounds, service time)
are charged *before* certification, and certify + propagate then run
synchronously with no intervening yield.  Shard versions are therefore
handed to the replicas in assignment order per shard — the per-lane
contiguity the replicas and the auditor check.

Elastic membership is not supported: shard snapshots, join baselines
and catch-up would all need vector-valued state transfer, so the path
declares itself not ``elastic`` and the fleet refuses joins and leaves
(:func:`~.systems.check_supported`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..core.errors import SimulationError
from ..sidb.certifier_api import CertifierSpec
from ..sidb.sharded import ShardedCertifier
from .des import Acquire, Semaphore, Timeout
from .replica import SimReplica, _Apply
from .sampling import ServiceSampler


def _shard_minima(vectors, shards: range):
    """Each shard's minimum over *vectors* (an absent shard counts as 0),
    in one sweep over the vectors."""
    zeros = (0,) * len(shards)
    return map(min, zip(*[map(vector.get, shards, zeros)
                          for vector in vectors]))


def _live_floor(heap: List[Tuple[int, int]], active) -> Optional[int]:
    """The smallest value in *heap* whose token is still in *active*,
    popping released entries off the top (lazy deletion)."""
    while heap:
        value, token = heap[0]
        if token in active:
            return value
        heapq.heappop(heap)
    return None


class ShardedSimReplica(SimReplica):
    """A replica whose replication state is a per-shard version vector.

    ``applied_version`` remains the scalar the load balancer and the
    telemetry layer compare — maintained as the *sum* of the per-shard
    watermarks, so it advances by exactly one per shard version applied
    and stays comparable with the sharded certifier's summed clock.
    """

    def __init__(
        self,
        env,
        name: str,
        sampler: ServiceSampler,
        capacity: float = 1.0,
        partitions: int = 1,
    ) -> None:
        super().__init__(env, name, sampler, capacity=capacity)
        if partitions < 1:
            raise SimulationError(f"{name}: partitions must be >= 1")
        #: Highest contiguously applied version per certifier shard.
        self.applied_vector: Dict[int, int] = {
            p: 0 for p in range(partitions)
        }
        self._shard_ahead: Dict[int, List[int]] = {
            p: [] for p in range(partitions)
        }
        self._enqueued_vector: Dict[int, int] = {
            p: 0 for p in range(partitions)
        }

    # The global-path entry point must not be reachable by accident:
    # a scalar version is meaningless against a vector watermark.
    def enqueue_writeset(self, commit_version: int, charged: bool = True) -> None:
        raise SimulationError(
            f"{self.name}: sharded replicas receive writesets via "
            f"enqueue_shard_writeset"
        )

    def enqueue_shard_writeset(
        self,
        shard_versions: Tuple[Tuple[int, int], ...],
        charged: bool = True,
    ) -> None:
        """Start applying one committed writeset's shard versions.

        *shard_versions* is the certification outcome's sorted
        ``(partition, shard version)`` tuple; the first entry is the
        home shard carrying the data, the rest are vector markers.
        Every lane must advance by exactly one.
        """
        for partition, version in shard_versions:
            enqueued = self._enqueued_vector.get(partition)
            if enqueued is None:
                raise SimulationError(
                    f"{self.name}: unknown certifier shard {partition}"
                )
            if version != enqueued + 1:
                raise SimulationError(
                    f"{self.name}: shard {partition} writeset v{version} "
                    f"arrived out of order (latest is {enqueued})"
                )
        for partition, version in shard_versions:
            self.recorder.delivered(self.name, version, shard=partition)
            self._enqueued_vector[partition] = version
        self._enqueued_version += len(shard_versions)
        if self.failed:
            return
        if not self._available:
            self._deferred.append((shard_versions, charged))
        elif charged:
            _Apply(self, shard_versions, self.recorder.mark())
        else:
            self._apply_marker(shard_versions)

    def _apply_marker(self, shard_versions) -> None:
        for partition, version in shard_versions:
            self._mark_shard_applied(partition, version)
            self.recorder.applied(
                self.name, version, False, self.hosted_partitions,
                shard=partition,
            )

    def _finish_apply(self, shard_versions, started) -> None:
        """Apply one writeset (charged once), advancing every touched lane."""
        self.writesets_applied += 1
        home = shard_versions[0][0]
        for partition, version in shard_versions:
            self._mark_shard_applied(partition, version)
            # Apply work is charged on the home lane only; the other
            # touched shards are free vector markers.
            self.recorder.applied(
                self.name, version, partition == home,
                self.hosted_partitions, shard=partition,
                started=started if partition == home else None,
            )

    def _mark_shard_applied(self, partition: int, version: int) -> None:
        heap = self._shard_ahead[partition]
        applied = self.applied_vector
        if not heap and version == applied[partition] + 1:
            applied[partition] = version
            self.applied_version += 1
            return
        heapq.heappush(heap, version)
        while heap and heap[0] == applied[partition] + 1:
            heapq.heappop(heap)
            applied[partition] += 1
            self.applied_version += 1

    def watermarks(self):
        """One ``(shard, watermark)`` delivery lane per certifier shard."""
        return tuple(self.applied_vector.items())


class ShardedCertification:
    """The sharded certification path: one certifier shard and one
    version sequence per partition, version-vector snapshots.

    Same interface as :class:`~.systems.GlobalCertification`.  Shards
    are always remote services, so every snapshot is a replica's applied
    vector and lagging replicas always pin the per-shard prune floors.
    """

    #: Joins would need vector-valued state transfer: the fleet refuses
    #: membership changes on this path.
    elastic = False

    def __init__(self, env, spec, config,
                 certifier_spec: CertifierSpec) -> None:
        self._env = env
        self._shard_count = spec.partitions
        self._round_delay = config.certifier_delay
        self.certifier = ShardedCertifier(partitions=spec.partitions)
        self._active_snapshots: Dict[int, Dict[int, int]] = {}
        #: Per shard, ``(pinned value, token)`` of every pin not yet
        #: popped; an entry whose token was released is stale and is
        #: dropped when it reaches the top.
        self._pinned_floors: List[List[Tuple[int, int]]] = [
            [] for _ in range(spec.partitions)
        ]
        self._snapshot_token = 0
        self._service_time = certifier_spec.service_time
        # One service token per shard: disjoint-partition commits
        # certify concurrently, which is the whole point of sharding.
        self._shard_service: Optional[Dict[int, Semaphore]] = (
            {p: Semaphore(env, 1) for p in range(spec.partitions)}
            if self._service_time > 0.0 else None
        )

    def new_replica(self, name: str, sampler: ServiceSampler,
                    capacity: float) -> ShardedSimReplica:
        return ShardedSimReplica(self._env, name, sampler, capacity=capacity,
                                 partitions=self._shard_count)

    def pin(self, replica: ShardedSimReplica) -> Tuple[int, int]:
        """Pin *replica*'s applied vector for one attempt; returns the
        scalar snapshot (the vector's sum) and the pin's token."""
        self._snapshot_token += 1
        token = self._snapshot_token
        vector = self._active_snapshots[token] = dict(replica.applied_vector)
        # An applied vector lists every shard, in shard order.
        for heap, value in zip(self._pinned_floors, vector.values()):
            heapq.heappush(heap, (value, token))
        return replica.applied_version, token

    def stamp(self, writeset, token: int):
        """Attach the touched shards' pinned floors to *writeset*."""
        vector = self._active_snapshots[token]
        return writeset.with_snapshot_vector({
            p: vector.get(p, 0) for p in writeset.partitions
        })

    def certify(self, writeset):
        """Certify *writeset* at its shards.  A generator: ``yield from``.

        Forwarding protocol: a single-partition commit is one round to
        its shard; a cross-partition commit pays one extra coordination
        round to its home shard.  All latency is charged *before* the
        certifier call, so the caller can propagate the decision with no
        intervening yield (the ordering discipline above).
        """
        rounds = 2 if len(writeset.partitions) > 1 else 1
        yield Timeout(self._round_delay * rounds)
        if self._shard_service is None:
            return self.certifier.certify(writeset)
        acquired: List[int] = []
        try:
            # Ascending partition order: no two coordinators deadlock.
            for p in writeset.partitions:
                yield Acquire(self._shard_service[p])
                acquired.append(p)
            yield Timeout(self._service_time)
            return self.certifier.certify(writeset)
        finally:
            for p in reversed(acquired):
                self._shard_service[p].release()

    def release(self, token: int, replicas) -> None:
        """Unpin one attempt's vector and advance each shard's floor: the
        most-lagging replica's watermark or the oldest pinned snapshot,
        whichever is older."""
        active = self._active_snapshots
        active.pop(token, None)
        shards = range(self._shard_count)
        floors = _shard_minima(
            (replica.applied_vector for replica in replicas), shards
        )
        if active:
            floors = map(min, floors, [_live_floor(heap, active)
                                       for heap in self._pinned_floors])
        self.certifier.observe_snapshot(
            {p: max(0, floor) for p, floor in zip(shards, floors)}
        )

    def shards(self, partitions) -> int:
        """How many certifier shards coordinate (a certify-span tag)."""
        return len(partitions)

    def version(self, outcome) -> int:
        """The summed shard clock (what ``applied_version`` tracks)."""
        return self.certifier.latest_version

    def propagate(self, members, outcome, origin, partitions) -> None:
        """Hand one commit's shard versions to every member; see
        :meth:`~.systems.GlobalCertification.propagate`."""
        shard_versions = outcome.shard_versions
        for member in members:
            hosted = member.hosted_partitions
            member.enqueue_shard_writeset(
                shard_versions,
                member is not origin and (
                    hosted is None or not partitions
                    or not hosted.isdisjoint(partitions)),
            )
