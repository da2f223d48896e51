"""Per-partition certifier shards with a cross-partition coordinator.

The global certifier funnels every commit through one service and one
version sequence.  :class:`ShardedCertifier` splits it: each partition
gets its own *shard* — an independent lock domain owning conflict
history, version clock, and certification for that partition — so
transactions touching disjoint partitions certify with no shared state
at all.  Commit versions become per-partition sequences (version
vectors) instead of one global order.

Cross-partition protocol: **certification-forwarding to a deterministic
home shard** (the lowest touched partition id).  The coordinator
acquires every touched shard's lock in canonical (ascending) order —
deadlock-free by construction — checks each shard's history against the
transaction's per-shard snapshot floors, and on success appends the
writeset to *all* touched shards atomically, each shard assigning its
own next version.  One decision point, no prepare logs and no in-doubt
window, which is why it is preferred here over 2PC: the shards share a
process (or a simulated service), so the classic 2PC failure mode —
a coordinator dying between prepare and commit — reduces to the
all-or-nothing append this class enforces under its locks, at half the
message rounds.  Its latency cost (one extra coordination round) is
what the executable pillars charge cross-partition transactions via
``cross_partition_fraction``.

Safety argument: a transaction's writes on partition ``p`` can only
conflict with committed writes on ``p`` (partition-qualified keys never
collide across partitions), and every commit on ``p`` appends to ``p``'s
shard under ``p``'s lock.  Checking each touched shard against the
snapshot floor for that shard therefore sees every concurrent committed
writer — first-committer-wins is preserved exactly, which is what the
property tests assert against the global certifier.

Fault injection: the ``fault_injector`` hook runs at the coordinator's
most vulnerable point — after every shard has passed its conflict check,
before any shard has appended — and an exception raised there (or by an
append) must leave every shard's history and clock untouched.  The
hypothesis atomicity tests drive this seam.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.errors import ConfigurationError
from .certifier_api import CertificationOutcome
from .writeset import Writeset


class _Shard:
    """One partition's certifier: lock, history, and version clock."""

    __slots__ = ("lock", "history", "next_version", "oldest_retained",
                 "max_history")

    def __init__(self, max_history: int) -> None:
        self.lock = threading.RLock()
        #: (shard version, keys) per retained commit on this partition.
        self.history: Deque[Tuple[int, FrozenSet[object]]] = deque()
        self.next_version = 1
        self.oldest_retained = 1
        self.max_history = max_history

    def find_conflicts(
        self, floor: int, keys: FrozenSet[object]
    ) -> Set[object]:
        """Keys of *keys* written by commits newer than *floor* (the
        caller holds :attr:`lock`)."""
        if floor + 1 < self.oldest_retained:
            # The history an exact answer needs was pruned; conservatively
            # conflict on every key (forces a retry with a fresher
            # snapshot — never unsafe, only slow for very stale reads).
            return set(keys)
        conflicts: Set[object] = set()
        for version, committed_keys in reversed(self.history):
            if version <= floor:
                break
            conflicts.update(keys & committed_keys)
        return conflicts

    def append(self, keys: FrozenSet[object]) -> int:
        """Commit *keys* at this shard's next version (lock held)."""
        version = self.next_version
        self.next_version += 1
        self.history.append((version, keys))
        while len(self.history) > self.max_history:
            self._popleft()
        return version

    def unappend(self, version: int) -> None:
        """Roll back :meth:`append` (coordinator abort paths; lock held)."""
        if self.history and self.history[-1][0] == version:
            self.history.pop()
            self.next_version = version

    def prune(self, floor: int) -> None:
        with self.lock:
            while self.history and self.history[0][0] <= floor:
                self._popleft()

    def _popleft(self) -> None:
        version, _ = self.history.popleft()
        self.oldest_retained = version + 1

    @property
    def latest_version(self) -> int:
        return self.next_version - 1


class ShardedCertifier:
    """Partition-local certification behind :class:`CertifierProtocol`.

    *partitions* bounds the shard ids this certifier accepts (``None``
    creates shards lazily for whatever partition ids arrive — handy in
    tests).  ``max_history`` bounds each shard's retained history, like
    the global certifier's bound on its single history.
    """

    def __init__(
        self,
        partitions: Optional[int] = None,
        max_history: int = 100_000,
    ) -> None:
        if max_history < 1:
            raise ConfigurationError("max_history must be >= 1")
        if partitions is not None and partitions < 1:
            raise ConfigurationError("partitions must be >= 1")
        self._partitions = partitions
        self._max_history = max_history
        self._shards: Dict[int, _Shard] = {}
        # Guards shard creation and the statistics counters; never held
        # while a shard lock is taken, so it cannot invert lock order.
        self._admin_lock = threading.Lock()
        if partitions is not None:
            for p in range(partitions):
                self._shards[p] = _Shard(max_history)
        self.certifications = 0
        self.commits = 0
        self.aborts = 0
        #: Optional :class:`repro.telemetry.Telemetry` hook.
        self.telemetry = None
        #: Coordinator-fault seam: called with the writeset after every
        #: touched shard passed its conflict check and before any shard
        #: appended; raising must (and does) leave all shards untouched.
        self.fault_injector = None

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------

    def _shard(self, partition: int) -> _Shard:
        shard = self._shards.get(partition)
        if shard is not None:
            return shard
        if self._partitions is not None:
            raise ConfigurationError(
                f"partition {partition} is outside the configured "
                f"{self._partitions} certifier shards"
            )
        with self._admin_lock:
            return self._shards.setdefault(partition, _Shard(self._max_history))

    def shard_version(self, partition: int) -> int:
        """Partition *partition*'s latest assigned shard version."""
        return self._shard(partition).latest_version

    def version_vector(self) -> Tuple[Tuple[int, int], ...]:
        """Every shard's latest version as sorted ``(partition, version)``."""
        return tuple(
            (p, self._shards[p].latest_version) for p in sorted(self._shards)
        )

    # ------------------------------------------------------------------
    # CertifierProtocol surface
    # ------------------------------------------------------------------

    @property
    def latest_version(self) -> int:
        """Total commits across all shards: the scalar version clock the
        telemetry layer compares replica apply progress against."""
        return sum(s.latest_version for s in self._shards.values())

    @property
    def history_size(self) -> int:
        return sum(len(s.history) for s in self._shards.values())

    def certify(self, writeset: Writeset) -> CertificationOutcome:
        """Coordinate one writeset's certification across its shards."""
        parts = sorted(writeset.partition_set)
        if not parts:
            raise ConfigurationError(
                "the sharded certifier requires partitioned writesets "
                "(an empty partition set has no home shard); run the "
                "workload with partitions >= 1 or use --certifier global"
            )
        floors = dict(writeset.snapshot_vector)
        keys_by = self._keys_by_partition(writeset, parts)
        shards = [(p, self._shard(p)) for p in parts]
        with self._admin_lock:
            self.certifications += 1
        telemetry = self.telemetry
        # Canonical-order acquisition: every coordinator locks its shard
        # set in ascending partition order, so no cycle can form.
        acquired: List[_Shard] = []
        try:
            for _, shard in shards:
                shard.lock.acquire()
                acquired.append(shard)
            conflicts: Set[object] = set()
            for p, shard in shards:
                floor = floors.get(p, 0)
                if floor > shard.latest_version:
                    raise ConfigurationError(
                        f"snapshot floor {floor} on partition {p} is newer "
                        f"than the shard clock {shard.latest_version}"
                    )
                conflicts.update(shard.find_conflicts(floor, keys_by[p]))
            if conflicts:
                with self._admin_lock:
                    self.aborts += 1
                if telemetry is not None:
                    telemetry.on_certification(False, len(conflicts))
                return CertificationOutcome(
                    committed=False,
                    commit_version=-1,
                    conflicting_keys=frozenset(conflicts),
                )
            # All-or-nothing append: a coordinator fault here (the
            # injected seam) or a failed append rolls every shard back.
            appended: List[Tuple[_Shard, int]] = []
            try:
                if self.fault_injector is not None:
                    self.fault_injector(writeset)
                shard_versions = []
                for p, shard in shards:
                    version = shard.append(keys_by[p])
                    appended.append((shard, version))
                    shard_versions.append((p, version))
            except BaseException:
                for shard, version in reversed(appended):
                    shard.unappend(version)
                raise
            with self._admin_lock:
                self.commits += 1
            if telemetry is not None:
                telemetry.on_certification(True, 0)
            return CertificationOutcome(
                committed=True,
                commit_version=shard_versions[0][1],
                shard_versions=tuple(shard_versions),
            )
        finally:
            for shard in reversed(acquired):
                shard.lock.release()

    @staticmethod
    def _keys_by_partition(
        writeset: Writeset, parts: List[int]
    ) -> Dict[int, Set[object]]:
        """Split the writeset's keys over its touched partitions.

        Partition-qualified keys — ``("updatable", partition, row)``,
        the sampler's convention that :meth:`Writeset.writes_for` also
        relies on — go to their own shard; anything else (tests with
        plain keys, single-partition writesets) goes to the home shard.
        """
        home = parts[0]
        by: Dict[int, Set[object]] = {p: set() for p in parts}
        for key in writeset.keys:
            partition = home
            if isinstance(key, tuple) and len(key) > 2 and key[1] in by:
                partition = key[1]
            by[partition].add(key)
        return {p: frozenset(keys) for p, keys in by.items()}

    def observe_snapshot(self, oldest_active_snapshot) -> None:
        """Prune shard histories below per-shard snapshot floors.

        Accepts a mapping (or iterable of pairs) ``partition -> oldest
        shard version still in use``.  A plain integer — the global
        certifier's calling convention — is honoured only while a single
        shard exists; anything else is ambiguous and raises loudly.
        """
        if isinstance(oldest_active_snapshot, int):
            if len(self._shards) <= 1:
                for shard in self._shards.values():
                    shard.prune(oldest_active_snapshot)
                return
            raise ConfigurationError(
                "a sharded certifier needs per-partition snapshot floors; "
                "pass a {partition: version} mapping"
            )
        floors = dict(oldest_active_snapshot)
        for partition, floor in floors.items():
            shard = self._shards.get(partition)
            if shard is not None:
                shard.prune(floor)

    @property
    def abort_fraction(self) -> float:
        if self.certifications == 0:
            return 0.0
        return self.aborts / self.certifications

    def reset_statistics(self) -> None:
        with self._admin_lock:
            self.certifications = 0
            self.commits = 0
            self.aborts = 0
