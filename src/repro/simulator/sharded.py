"""The sharded certification path for the discrete-event simulator.

:class:`ShardedCertification` plugs per-partition
:class:`~repro.sidb.sharded.ShardedCertifier` shards into the one
protocol body (:meth:`~.systems._BaseSystem.execute`);
:class:`ShardedMultiMasterSystem` is the multi-master assembly whose
constructor selects it.  Against the global path:

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
from ..sidb.certifier_api import CertifierSpec, require_sharded
from ..sidb.sharded import ShardedCertifier
from .des import Acquire, Semaphore, Service, Timeout
from .replica import SimReplica
from .sampling import ServiceSampler
from .systems import LEAST_LOADED, MultiMasterSystem


def _shard_minima(vectors, shards: range):
    """Each shard's minimum over *vectors* (an absent shard counts as 0),
    in one sweep over the vectors."""
    zeros = (0,) * len(shards)
    return map(min, zip(*[map(vector.get, shards, zeros)
                          for vector in vectors]))


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
        self._deferred_shard: List[
            Tuple[Tuple[Tuple[int, int], ...], bool]
        ] = []

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
        """
        for partition, version in shard_versions:
            enqueued = self._enqueued_vector.get(partition)
            if enqueued is None:
                raise SimulationError(
                    f"{self.name}: unknown certifier shard {partition}"
                )
            if version <= enqueued:
                raise SimulationError(
                    f"{self.name}: shard {partition} writeset v{version} "
                    f"arrived out of order (latest is {enqueued})"
                )
        for partition, version in shard_versions:
            self.recorder.delivered(self.name, version, shard=partition)
            self._enqueued_vector[partition] = version
        self._enqueued_version = sum(self._enqueued_vector.values())
        if self.failed:
            return
        if not self._available:
            self._deferred_shard.append((shard_versions, charged))
            return
        self._start_apply_sharded(shard_versions, charged)

    def _start_apply_sharded(self, shard_versions, charged: bool) -> None:
        if charged:
            self._env.start(
                self._apply_one_sharded(shard_versions, self.recorder.mark())
            )
            return
        for partition, version in shard_versions:
            self._mark_shard_applied(partition, version)
            self.recorder.applied(
                self.name, version, False, self.hosted_partitions,
                shard=partition,
            )

    def _apply_one_sharded(self, shard_versions, started):
        """Apply one writeset (charged once), advancing every touched lane."""
        yield Service(self.cpu, self.sampler.writeset_cpu())
        yield Service(self.disk, self.sampler.writeset_disk())
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
        heapq.heappush(heap, version)
        while heap and heap[0] == self.applied_vector[partition] + 1:
            heapq.heappop(heap)
            self.applied_vector[partition] += 1
            self.applied_version += 1

    def watermarks(self):
        """One ``(shard, watermark)`` delivery lane per certifier shard."""
        return tuple(self.applied_vector.items())

    def crash(self) -> None:
        self._deferred_shard.clear()
        super().crash()

    def _flush_deferred(self) -> None:
        deferred, self._deferred_shard = self._deferred_shard, []
        for shard_versions, charged in deferred:
            self._start_apply_sharded(shard_versions, charged)
        super()._flush_deferred()


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
                 certifier_spec: Optional[CertifierSpec]) -> None:
        require_sharded(certifier_spec, spec, "ShardedMultiMasterSystem")
        self._env = env
        self._shard_count = spec.partitions
        self._round_delay = config.certifier_delay
        self.certifier = ShardedCertifier(partitions=spec.partitions)
        self._active_snapshots: Dict[int, Dict[int, int]] = {}
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
        self._active_snapshots[self._snapshot_token] = dict(
            replica.applied_vector
        )
        return replica.applied_version, self._snapshot_token

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
        self._active_snapshots.pop(token, None)
        shards = range(self._shard_count)
        floors = _shard_minima(
            (replica.applied_vector for replica in replicas), shards
        )
        if self._active_snapshots:
            floors = map(min, floors, _shard_minima(
                self._active_snapshots.values(), shards
            ))
        self.certifier.observe_snapshot(
            {p: max(0, floor) for p, floor in zip(shards, floors)}
        )

    def shards(self, partitions) -> int:
        """How many certifier shards coordinate (a certify-span tag)."""
        return len(partitions)

    def version(self, outcome) -> int:
        """The summed shard clock (what ``applied_version`` tracks)."""
        return self.certifier.latest_version

    def deliver(self, replica: ShardedSimReplica, outcome,
                charged: bool) -> None:
        """Hand one commit's shard versions to *replica*."""
        replica.enqueue_shard_writeset(outcome.shard_versions, charged=charged)


class ShardedMultiMasterSystem(MultiMasterSystem):
    """Multi-master assembly running per-partition certifier shards."""

    def __init__(self, env, spec, config, seed, metrics,
                 distribution="exponential", lb_policy=LEAST_LOADED,
                 capacities=None, partition_map=None,
                 certifier_spec: Optional[CertifierSpec] = None):
        super().__init__(
            env, spec, config, seed, metrics, distribution, lb_policy,
            capacities, partition_map, certifier_spec,
            certification=ShardedCertification(
                env, spec, config, certifier_spec
            ),
        )
