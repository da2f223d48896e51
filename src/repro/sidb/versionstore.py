"""Multi-version storage: the heart of snapshot isolation.

Every committed update transaction installs a new *version* of the rows it
wrote; readers address the store through a snapshot version and see, for
each key, the newest value whose version does not exceed the snapshot
(§2 of the paper: "When a transaction begins, it receives a logical copy,
called snapshot, of the database").

Versions are dense integers assigned by the commit path (the engine for a
standalone database, the certifier for a replicated one).  Version 0 is the
initial database state.

Cost model
----------
Garbage collection is incremental: the store remembers which keys have
been written since their chain was last down to one version, so
:meth:`vacuum` costs O(keys with more than one version), not O(keys), and
trims each chain in place.  :meth:`retained_versions` is a running count,
O(1).  Reads are O(log chain) and :meth:`install` is O(|writes|).

Locking discipline
------------------
The live cluster runtime (:mod:`repro.cluster`) reads a replica's store
from many client threads while one applier thread installs propagated
writesets, so all access goes through one internal re-entrant lock: reads
(:meth:`read`, :meth:`get`, :meth:`contains`, :meth:`snapshot_view`) and
writes (:meth:`install`, :meth:`vacuum`) each hold it for their whole
duration.  Holding the lock across ``install`` keeps the per-key parallel
``versions``/``values`` lists and the ``latest_version`` watermark mutually
consistent — a reader can never observe a version list that is longer than
its value list, or a watermark ahead of the installed data.  The lock is a
leaf: no store method calls out while holding it, so callers may freely
hold their own locks (the engine's commit lock, the certifier's lock)
around store calls.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Set

from ..core.errors import ConfigurationError

#: Sentinel for "key was never written".
_MISSING = object()


class VersionedStore:
    """An in-memory multi-version key/value store.

    Keys are arbitrary hashables (the library uses ``(table, row_id)``
    tuples); values are arbitrary objects.  The store keeps the full version
    chain per key until :meth:`vacuum` trims versions older than the oldest
    active snapshot — the space-for-concurrency trade SI makes (§2).
    """

    def __init__(self, initial: Optional[Dict[object, object]] = None) -> None:
        # Guards every read and write; see the module docstring.
        self._lock = threading.RLock()
        # key -> parallel lists of (versions, values), versions ascending.
        self._versions: Dict[object, List[int]] = {}
        self._values: Dict[object, List[object]] = {}
        self._latest_version = 0
        # Keys whose chain may hold more than one version: every key
        # installed since :meth:`vacuum` last trimmed it to one.
        self._dirty: Set[object] = set()
        self._retained = 0
        if initial:
            for key, value in initial.items():
                self._versions[key] = [0]
                self._values[key] = [value]
            self._retained = len(self._versions)

    @property
    def latest_version(self) -> int:
        """The newest committed version number."""
        return self._latest_version

    def read(self, key: object, version: int) -> object:
        """Return the value of *key* visible at snapshot *version*.

        Raises :class:`KeyError` when the key does not exist at that
        snapshot (never written, or written only by later versions).
        """
        with self._lock:
            versions = self._versions.get(key)
            if not versions:
                raise KeyError(key)
            index = bisect_right(versions, version) - 1
            if index < 0:
                raise KeyError(key)
            return self._values[key][index]

    def get(self, key: object, version: int, default: object = None) -> object:
        """Like :meth:`read` but returning *default* instead of raising."""
        try:
            return self.read(key, version)
        except KeyError:
            return default

    def contains(self, key: object, version: int) -> bool:
        """True when *key* is visible at snapshot *version*."""
        return self.get(key, version, _MISSING) is not _MISSING

    def install(self, version: int, writes: Dict[object, object]) -> None:
        """Install the writes of a committed transaction at *version*.

        Versions must be installed in increasing order (the commit path
        serialises them); installing out of order is a bug.
        """
        with self._lock:
            if version <= self._latest_version:
                raise ConfigurationError(
                    f"version {version} not newer than latest "
                    f"{self._latest_version}"
                )
            for key, value in writes.items():
                self._versions.setdefault(key, []).append(version)
                self._values.setdefault(key, []).append(value)
            self._dirty.update(writes)
            self._retained += len(writes)
            self._latest_version = version

    def version_of(self, key: object) -> Optional[int]:
        """Version of the newest committed write to *key* (None if never)."""
        with self._lock:
            versions = self._versions.get(key)
            return versions[-1] if versions else None

    def keys(self) -> Iterator[object]:
        """Iterate over all keys ever written (a point-in-time snapshot)."""
        with self._lock:
            return iter(list(self._versions))

    def version_count(self, key: object) -> int:
        """Number of retained versions of *key* (for space diagnostics)."""
        with self._lock:
            return len(self._versions.get(key, ()))

    def retained_versions(self) -> int:
        """Total retained row versions across all keys, in O(1).

        The space cost of SI's space-for-concurrency trade, sampled by
        the telemetry layer as ``version_store_versions`` and driven
        back down by :meth:`vacuum`.  A running count: :meth:`install`
        adds its writes, :meth:`vacuum` subtracts what it frees.
        """
        return self._retained

    def vacuum(self, oldest_active_snapshot: int) -> int:
        """Drop versions no snapshot can see anymore; return versions freed.

        For each key we must keep the newest version <= the oldest active
        snapshot (it is still visible) and everything newer.  Only keys
        that may hold more than one version are visited, so a call costs
        O(keys with more than one version); a key leaves that set once
        its chain is down to one version, and a key whose old versions an
        active snapshot still pins stays in it.
        """
        with self._lock:
            freed = 0
            done = []
            for key in self._dirty:
                versions = self._versions[key]
                keep_from = bisect_right(versions, oldest_active_snapshot) - 1
                if keep_from > 0:
                    freed += keep_from
                    del versions[:keep_from]
                    del self._values[key][:keep_from]
                if len(versions) == 1:
                    done.append(key)
            self._dirty.difference_update(done)
            self._retained -= freed
            return freed

    def snapshot_view(self, version: int) -> Dict[object, object]:
        """Materialise the full database state at *version* (tests/debugging)."""
        with self._lock:
            view: Dict[object, object] = {}
            for key in self._versions:
                value = self.get(key, version, _MISSING)
                if value is not _MISSING:
                    view[key] = value
            return view
