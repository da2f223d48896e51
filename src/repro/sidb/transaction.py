"""Transactions over a snapshot: buffered writes, read-your-own-writes.

A transaction reads from the snapshot it was given at begin time and buffers
its writes privately; the writes become visible to others only if the
transaction commits (§2).  Read-only transactions always commit.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional

from ..core.errors import ConfigurationError
from .versionstore import VersionedStore
from .writeset import Writeset


class TransactionStatus(Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One snapshot-isolated transaction.

    Created by :class:`repro.sidb.engine.SIDatabase.begin`; do not construct
    directly unless testing the class in isolation.
    """

    def __init__(self, txn_id: int, store: VersionedStore, snapshot_version: int):
        if snapshot_version < 0:
            raise ConfigurationError("snapshot version must be >= 0")
        self.txn_id = txn_id
        self.snapshot_version = snapshot_version
        self._store = store
        self._writes: Dict[object, object] = {}
        self._read_keys: set = set()
        self.status = TransactionStatus.ACTIVE
        #: Commit version assigned at commit (-1 until then).
        self.commit_version = -1
        #: Data partitions the buffered writes touch (partial replication);
        #: empty means unpartitioned.
        self.partitions: tuple = ()

    def _require_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise ConfigurationError(
                f"transaction {self.txn_id} is {self.status.value}, not active"
            )

    def read(self, key: object) -> object:
        """Read *key*: own writes first, then the snapshot."""
        self._require_active()
        self._read_keys.add(key)
        if key in self._writes:
            return self._writes[key]
        return self._store.read(key, self.snapshot_version)

    def get(self, key: object, default: object = None) -> object:
        """Like :meth:`read` but with a default for missing keys."""
        try:
            return self.read(key)
        except KeyError:
            return default

    def write(self, key: object, value: object) -> None:
        """Buffer a write; visible to this transaction immediately."""
        self._require_active()
        self._writes[key] = value

    def delete(self, key: object) -> None:
        """Buffer a deletion (modelled as writing a tombstone ``None``)."""
        self.write(key, None)

    @property
    def is_read_only(self) -> bool:
        """True when the transaction buffered no writes."""
        return not self._writes

    @property
    def read_keys(self) -> frozenset:
        """Keys read so far (diagnostics; SI does not validate reads)."""
        return frozenset(self._read_keys)

    def writeset(self) -> Optional[Writeset]:
        """Extract the writeset, or ``None`` for a read-only transaction."""
        if self.is_read_only:
            return None
        return Writeset.from_dict(
            self.txn_id, self.snapshot_version, self._writes,
            partitions=self.partitions,
        )

    def mark_committed(self, version: int) -> None:
        """Engine callback: transition to COMMITTED at *version*."""
        self._require_active()
        self.status = TransactionStatus.COMMITTED
        self.commit_version = version

    def mark_aborted(self) -> None:
        """Engine callback: transition to ABORTED."""
        self._require_active()
        self.status = TransactionStatus.ABORTED
