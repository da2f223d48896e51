"""A standalone snapshot-isolated database engine.

Ties together the version store, transactions, and the certification logic
into the concurrency-control model of §2:

* ``begin()`` hands out a snapshot of the latest committed state;
* read-only transactions always commit;
* an update transaction commits iff none of its written keys were written
  by a transaction that committed after its snapshot (first-committer-wins,
  enforced by the shared :class:`~repro.sidb.certifier.GlobalCertifier` logic);
* a commit installs a new version and returns the writeset, which replicated
  deployments propagate to other replicas.

This engine is *functional*, not timed: the discrete-event simulator charges
CPU/disk costs around these calls, and the profiler replays captured logs
against it.  The live cluster runtime (:mod:`repro.cluster`) charges
wall-clock costs instead and drives the same engine from many threads.

Locking discipline
------------------
One re-entrant engine lock guards the transaction table
(``_active``/``_snapshots``), the id counter, and the statistics counters;
:meth:`begin`, :meth:`abort`, and :meth:`finish_remote` hold it for their
whole duration.  :meth:`commit` additionally holds it across *certify +
install*, making first-committer-wins atomic when several threads commit
against the same engine (a master replica): without that span, two
certifications could assign versions 5 and 6 and then install them out of
order, which the version store rejects.  The engine lock nests *outside*
the certifier and store locks (both leaves); no engine method is called
with either of those held, so the order is acyclic.  :meth:`apply_writeset`
takes the engine lock too, serialising remote installs against local
commits on the same engine.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set

from ..core.errors import ConfigurationError, TransactionAborted
from .certifier import GlobalCertifier
from .certifier_api import CertifierProtocol
from .transaction import Transaction, TransactionStatus
from .versionstore import VersionedStore
from .writeset import Writeset


class SIDatabase:
    """An in-memory database running (generalized) snapshot isolation."""

    def __init__(
        self,
        initial: Optional[Dict[object, object]] = None,
        certifier: Optional[CertifierProtocol] = None,
    ) -> None:
        self._store = VersionedStore(initial)
        self._certifier = certifier or GlobalCertifier()
        # Guards transaction bookkeeping and spans certify+install in
        # commit(); see the module docstring for the locking discipline.
        self._lock = threading.RLock()
        self._next_txn_id = 1
        self._active: Set[int] = set()
        self._snapshots: Dict[int, int] = {}
        # Statistics.
        self.read_only_commits = 0
        self.update_commits = 0
        self.update_aborts = 0

    @property
    def store(self) -> VersionedStore:
        """The underlying version store (read-mostly; tests inspect it)."""
        return self._store

    @property
    def certifier(self) -> CertifierProtocol:
        """The conflict-detection service used by the commit path."""
        return self._certifier

    @property
    def latest_version(self) -> int:
        """Newest committed version visible to new snapshots."""
        return self._store.latest_version

    def begin(self, snapshot_version: Optional[int] = None) -> Transaction:
        """Start a transaction.

        By default the snapshot is the latest committed version (plain SI).
        Replicated callers pass an explicit, possibly older, version to model
        GSI's locally-latest snapshots.
        """
        with self._lock:
            if snapshot_version is None:
                snapshot_version = self._store.latest_version
            if snapshot_version > self._store.latest_version:
                raise ConfigurationError(
                    f"snapshot {snapshot_version} is in the future "
                    f"(latest is {self._store.latest_version})"
                )
            txn = Transaction(self._next_txn_id, self._store, snapshot_version)
            self._next_txn_id += 1
            self._active.add(txn.txn_id)
            self._snapshots[txn.txn_id] = snapshot_version
            return txn

    def commit(self, txn: Transaction) -> Optional[Writeset]:
        """Commit *txn*; returns its writeset (None for read-only).

        Raises :class:`TransactionAborted` on a write-write conflict.  The
        transaction object is finalised either way.
        """
        with self._lock:
            if txn.status is not TransactionStatus.ACTIVE:
                raise ConfigurationError(
                    f"cannot commit transaction {txn.txn_id}: {txn.status.value}"
                )
            self._finish(txn.txn_id)
            writeset = txn.writeset()
            if writeset is None:
                txn.mark_committed(txn.snapshot_version)
                self.read_only_commits += 1
                return None

            outcome = self._certifier.certify(writeset)
            if not outcome.committed:
                txn.mark_aborted()
                self.update_aborts += 1
                raise TransactionAborted(txn.txn_id, outcome.conflicting_keys)

            self._store.install(outcome.commit_version, writeset.as_dict)
            txn.mark_committed(outcome.commit_version)
            self.update_commits += 1
            self._prune()
            return writeset.committed(outcome.commit_version)

    def abort(self, txn: Transaction) -> None:
        """Abort *txn* voluntarily (client-side rollback)."""
        with self._lock:
            if txn.status is not TransactionStatus.ACTIVE:
                raise ConfigurationError(
                    f"cannot abort transaction {txn.txn_id}: {txn.status.value}"
                )
            self._finish(txn.txn_id)
            txn.mark_aborted()

    def finish_remote(self, txn: Transaction, commit_version: Optional[int] = None) -> None:
        """Finalise a transaction certified *outside* this engine.

        The multi-master cluster runtime certifies writesets at a shared
        certifier service and installs them through the replication channel
        (:meth:`apply_writeset`), not through :meth:`commit`.  This call
        releases the transaction's snapshot and records its outcome:
        committed at *commit_version*, or aborted when ``None``.
        """
        with self._lock:
            if txn.status is not TransactionStatus.ACTIVE:
                raise ConfigurationError(
                    f"cannot finish transaction {txn.txn_id}: {txn.status.value}"
                )
            self._finish(txn.txn_id)
            if commit_version is None:
                txn.mark_aborted()
                if not txn.is_read_only:
                    self.update_aborts += 1
                return
            txn.mark_committed(commit_version)
            if txn.is_read_only:
                self.read_only_commits += 1
            else:
                self.update_commits += 1

    def apply_writeset(
        self, writeset: Writeset, hosted_partitions=None
    ) -> None:
        """Apply a remotely-certified writeset (replica update propagation).

        The writeset must already carry its global commit version; versions
        must arrive in order, which the propagation channel guarantees.
        *hosted_partitions* scopes the install to this replica's share of
        a cross-partition writeset (see :meth:`Writeset.writes_for`);
        ``None`` installs everything.
        """
        with self._lock:
            if writeset.commit_version <= 0:
                raise ConfigurationError("writeset has no commit version")
            self._store.install(
                writeset.commit_version,
                writeset.writes_for(hosted_partitions),
            )

    def apply_shard_rows(self, version: int, rows: Dict[object, object]) -> None:
        """Install one shard lane's rows at a locally-assigned *version*.

        The sharded live cluster orders installs per certifier shard, not
        globally, so each replica assigns its own monotone local versions
        as deliveries land (safe: concurrently committed writesets have
        disjoint keys, so the final state is order-independent across
        lanes while each key still installs in its shard's commit order).
        """
        with self._lock:
            if version <= 0:
                raise ConfigurationError("shard rows need a positive version")
            self._store.install(version, dict(rows))

    def apply_version_marker(self, commit_version: int) -> None:
        """Advance the version clock without installing any data.

        Partial replication: a replica that hosts none of a writeset's
        partitions skips the data (it will never be read here) but must
        still account for the global commit version, or every later
        *hosted* writeset would be rejected as out of order.  Installing
        an empty write batch is exactly that lightweight commit-log
        marker.
        """
        with self._lock:
            if commit_version <= 0:
                raise ConfigurationError("marker needs a positive version")
            self._store.install(commit_version, {})

    def run(self, operations) -> Optional[Writeset]:
        """Execute a whole transaction from an operation list and commit it.

        *operations* is an iterable of ``("read", key)`` / ``("write", key,
        value)`` tuples — the shape produced by the workload log replayer.
        """
        txn = self.begin()
        for op in operations:
            if op[0] == "read":
                txn.get(op[1])
            elif op[0] == "write":
                txn.write(op[1], op[2])
            else:
                self.abort(txn)
                raise ConfigurationError(f"unknown operation {op[0]!r}")
        return self.commit(txn)

    def clone_state(self) -> "tuple[int, Dict[object, object]]":
        """Snapshot this database for state transfer to a joining replica.

        Returns ``(version, state)``: the latest committed version and the
        full visible state at it.  Taken under the engine lock so the pair
        is consistent with respect to concurrent commits and applies; the
        caller replays newer writesets on top (elastic join).
        """
        with self._lock:
            version = self._store.latest_version
            return version, self._store.snapshot_view(version)

    def seed_state(self, version: int, state: Dict[object, object]) -> None:
        """Install a transferred state snapshot into a *fresh* database.

        The counterpart of :meth:`clone_state`: the whole snapshot lands
        as one bulk install at *version*, after which
        :meth:`apply_writeset` accepts versions above it — exactly the
        snapshot-then-replay join protocol.
        """
        with self._lock:
            if self._store.latest_version != 0 or self._active:
                raise ConfigurationError(
                    "can only seed a fresh database (no commits, no "
                    "active transactions)"
                )
            if version < 0:
                raise ConfigurationError(f"negative seed version {version}")
            if version > 0:
                self._store.install(version, state)

    def oldest_active_snapshot(self) -> int:
        """Oldest snapshot still held by an active transaction."""
        with self._lock:
            if not self._snapshots:
                return self._store.latest_version
            return min(self._snapshots.values())

    def _finish(self, txn_id: int) -> None:
        self._active.discard(txn_id)
        self._snapshots.pop(txn_id, None)

    def _prune(self) -> None:
        oldest = self.oldest_active_snapshot()
        self._certifier.observe_snapshot(oldest - 1 if oldest > 0 else 0)

    def vacuum(self) -> int:
        """Garbage-collect versions invisible to every active snapshot."""
        return self._store.vacuum(self.oldest_active_snapshot())

    def retained_versions(self) -> int:
        """Total row versions currently held by the version store."""
        return self._store.retained_versions()

    @property
    def measured_abort_rate(self) -> float:
        """Observed update abort fraction: aborts / (aborts + commits)."""
        attempts = self.update_commits + self.update_aborts
        if attempts == 0:
            return 0.0
        return self.update_aborts / attempts

    def reset_statistics(self) -> None:
        """Zero the commit/abort counters (end of warm-up)."""
        with self._lock:
            self.read_only_commits = 0
            self.update_commits = 0
            self.update_aborts = 0
            self._certifier.reset_statistics()
