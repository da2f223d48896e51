"""Certification: system-wide write-write conflict detection (§2, §5.1).

The certifier is a lightweight stateful service.  It keeps the writesets of
recently committed update transactions together with their commit versions.
To certify a transaction it compares the transaction's writeset against the
writesets of every transaction that committed *after* the snapshot the
transaction read from; any key overlap is a write-write conflict and the
transaction must abort (first-committer-wins).

Partial replication scopes certification *per partition set*: a writeset
carrying a non-empty ``partitions`` tuple is compared only against
history entries whose partition sets intersect it — writesets touching
disjoint partition sets can never conflict, no matter their keys.  (An
empty partition set is the unpartitioned wildcard: it certifies against
everything, preserving the full-replication behaviour byte for byte.)
Commit versions stay a single global sequence either way: the version
store and the replication channel rely on one total commit order, so
partitioning narrows the *conflict check*, not the version clock.

The same logic certifies commits on a standalone/master database, where the
"service" is the local concurrency-control subsystem.

Cost model
----------
Beside the history the certifier keeps a *last-writer index*: each key
written by a retained commit maps to the newest such commit's version.  A
key conflicts with a wildcard writeset exactly when its last writer is
newer than the snapshot, so certification is O(|ws|) — one lookup per
written key.  Only a partition-scoped writeset with a candidate conflict
falls back to scanning the history newer than its snapshot, because
there the partition sets of the individual commits decide.

Locking discipline
------------------
The certifier is shared by every replica thread of the live cluster runtime
(:mod:`repro.cluster`), so all mutation happens under a single internal
re-entrant lock: :meth:`certify`, :meth:`observe_snapshot`, and
:meth:`reset_statistics` each take it for their whole duration, making
certify-and-assign-version atomic.  Callers that must keep the *published
order* of writesets aligned with the assigned commit versions (the
replication channel) take their own ordering lock **around** ``certify`` +
publish; the certifier lock is always innermost and no certifier method
calls back out, so there is no lock-ordering hazard.  The statistics
counters are only written under the lock; readers tolerate a slightly stale
view.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, FrozenSet, Set, Tuple

from ..core.errors import ConfigurationError
from .certifier_api import CertificationOutcome
from .writeset import Writeset

__all__ = ["CertificationOutcome", "GlobalCertifier"]


class GlobalCertifier:
    """Detects write-write conflicts and assigns global commit versions.

    The history is pruned in two ways:

    * :meth:`observe_snapshot` lets the caller report the oldest snapshot
      still in use, allowing exact pruning;
    * ``max_history`` bounds memory regardless (certifying against a
      snapshot older than the retained history conservatively aborts, which
      never violates safety — only liveness of very stale transactions).
    """

    def __init__(self, max_history: int = 100_000) -> None:
        if max_history < 1:
            raise ConfigurationError("max_history must be >= 1")
        # Guards all mutable state; see the module docstring for the
        # locking discipline shared with the live cluster runtime.
        self._lock = threading.RLock()
        # (version, keys, partition set) per retained commit; an empty
        # partition set is the unpartitioned wildcard.
        self._history: Deque[
            Tuple[int, FrozenSet[object], FrozenSet[int]]
        ] = deque()
        # key -> version of the newest retained commit that wrote it.
        self._last_writer: Dict[object, int] = {}
        self._max_history = max_history
        self._next_version = 1
        self._oldest_retained = 1
        # Statistics (§6.3.2 sensitivity analysis reads these).
        self.certifications = 0
        self.commits = 0
        self.aborts = 0
        #: Optional :class:`repro.telemetry.Telemetry` hook.  ``None``
        #: (the default) keeps the commit path allocation-free; a
        #: telemetry-enabled run sets it after construction.
        self.telemetry = None

    @property
    def latest_version(self) -> int:
        """The most recently assigned commit version."""
        return self._next_version - 1

    @property
    def history_size(self) -> int:
        """Writesets currently retained for conflict checks."""
        with self._lock:
            return len(self._history)

    def certify(self, writeset: Writeset) -> CertificationOutcome:
        """Certify *writeset* against transactions concurrent with it."""
        with self._lock:
            self.certifications += 1
            snapshot = writeset.snapshot_version
            if snapshot >= self._next_version:
                raise ConfigurationError(
                    f"snapshot {snapshot} is newer than the latest commit "
                    f"{self.latest_version}"
                )
            keys, partitions = writeset.keys, writeset.partition_set
            conflicts = self._find_conflicts(snapshot, keys, partitions)
            telemetry = self.telemetry
            if conflicts:
                self.aborts += 1
                if telemetry is not None:
                    telemetry.on_certification(False, len(conflicts))
                return CertificationOutcome(
                    committed=False,
                    commit_version=-1,
                    conflicting_keys=frozenset(conflicts),
                )
            version = self._next_version
            self._next_version += 1
            self._history.append((version, keys, partitions))
            last_writer = self._last_writer
            for key in keys:
                last_writer[key] = version
            self._trim()
            self.commits += 1
            if telemetry is not None:
                telemetry.on_certification(True, 0)
            return CertificationOutcome(committed=True, commit_version=version)

    def _find_conflicts(
        self,
        snapshot: int,
        keys: FrozenSet[object],
        partitions: FrozenSet[int],
    ) -> Set[object]:
        if snapshot + 1 < self._oldest_retained:
            # History needed for an exact answer was pruned; conservatively
            # report a conflict on every key (forces a retry with a fresher
            # snapshot — safe, and only possible for extremely stale reads).
            return set(keys)
        # Every commit newer than the snapshot is retained, so a key was
        # written after the snapshot exactly when its last writer is newer.
        last_writer = self._last_writer
        candidates = {
            key for key in keys if last_writer.get(key, 0) > snapshot
        }
        if not candidates or not partitions:
            return candidates
        conflicts: Set[object] = set()
        # A partition-scoped writeset: disjoint commits do not count, so
        # scan the history newest-first and stop at the snapshot boundary.
        for version, committed_keys, committed_partitions in reversed(
            self._history
        ):
            if version <= snapshot:
                break
            if committed_partitions and partitions.isdisjoint(
                committed_partitions
            ):
                # Disjoint partition sets cannot write-write conflict;
                # the key comparison is skipped entirely (per-partition
                # certification).
                continue
            overlap = keys & committed_keys
            conflicts.update(overlap)
        return conflicts

    def observe_snapshot(self, oldest_active_snapshot: int) -> None:
        """Prune history that no active snapshot can conflict with."""
        with self._lock:
            while self._history and self._history[0][0] <= oldest_active_snapshot:
                self._popleft()

    def _trim(self) -> None:
        while len(self._history) > self._max_history:
            self._popleft()

    def _popleft(self) -> None:
        version, keys, _ = self._history.popleft()
        self._oldest_retained = version + 1
        last_writer = self._last_writer
        for key in keys:
            if last_writer.get(key) == version:
                del last_writer[key]

    @property
    def abort_fraction(self) -> float:
        """Observed abort fraction over all certifications so far."""
        if self.certifications == 0:
            return 0.0
        return self.aborts / self.certifications

    def reset_statistics(self) -> None:
        """Zero the counters (used at the end of a warm-up period)."""
        with self._lock:
            self.certifications = 0
            self.commits = 0
            self.aborts = 0

