"""Concurrency tests for the sidb layer (the live cluster's foundation).

The certifier and version store advertise a locking discipline in their
module docstrings; these tests hammer them (and the engine's commit path)
from many threads and check the invariants that the locks exist to
protect: dense unique commit versions, consistent counters, and a version
store whose watermark never runs ahead of its data.
"""

from __future__ import annotations

import sys
import threading
import time


from repro.sidb.certifier import GlobalCertifier
from repro.sidb.engine import SIDatabase
from repro.sidb.versionstore import VersionedStore
from repro.sidb.writeset import Writeset


def _run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert not any(t.is_alive() for t in threads)


def test_certifier_concurrent_disjoint_commits_get_dense_versions():
    certifier = GlobalCertifier()
    per_thread = 200
    versions = [[] for _ in range(8)]

    def worker(thread_id):
        for i in range(per_thread):
            writeset = Writeset.from_dict(
                txn_id=thread_id * per_thread + i,
                snapshot_version=0,
                writes={("t", thread_id, i): 1},  # disjoint: always commits
            )
            outcome = certifier.certify(writeset)
            assert outcome.committed
            versions[thread_id].append(outcome.commit_version)

    _run_threads(8, worker)
    everything = sorted(v for per in versions for v in per)
    assert everything == list(range(1, 8 * per_thread + 1))
    assert certifier.commits == 8 * per_thread
    assert certifier.aborts == 0
    # Each thread saw its own versions in increasing order.
    for per in versions:
        assert per == sorted(per)


def test_versionstore_concurrent_readers_during_installs():
    store = VersionedStore({("row", i): 0 for i in range(16)})
    stop = threading.Event()
    errors = []

    def reader(thread_id):
        while not stop.is_set():
            latest = store.latest_version
            for i in range(16):
                value = store.get(("row", i), latest, 0)
                # Values are the installing version: never newer than the
                # watermark we read first (installs are atomic).
                if not isinstance(value, int) or value > store.latest_version:
                    errors.append((thread_id, value))
                    return

    readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    for t in readers:
        t.start()
    for version in range(1, 500):
        store.install(version, {("row", version % 16): version})
    stop.set()
    for t in readers:
        t.join(10.0)
    assert errors == []
    assert store.latest_version == 499


def test_vacuum_concurrent_with_pinned_readers():
    """One thread installs and vacuums while readers hold snapshots open:
    the in-place chain trim never takes a version a pinned snapshot sees.
    Version v writes row v % rows with value v, so the value a snapshot
    must see is computable from the snapshot alone."""
    rows, installs, vacuum_every = 8, 2000, 8
    db = SIDatabase(initial={("row", i): 0 for i in range(rows)})
    stop = threading.Event()
    errors = []

    def expected(row, snapshot):
        # Newest v <= snapshot with v % rows == row, else the initial 0.
        return max(0, snapshot - (snapshot - row) % rows)

    def reader(thread_id):
        while not stop.is_set():
            txn = db.begin()
            snapshot = txn.snapshot_version
            for _ in range(2):
                for row in range(rows):
                    value = txn.get(("row", row))
                    if value != expected(row, snapshot):
                        errors.append((thread_id, row, snapshot, value))
                        return
                time.sleep(0)  # let the writer install and vacuum
            db.commit(txn)

    readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave readers with every trim
    try:
        for t in readers:
            t.start()
        freed = 0
        for version in range(1, installs + 1):
            db.apply_writeset(Writeset.from_dict(
                txn_id=version, snapshot_version=version - 1,
                writes={("row", version % rows): version},
            ).committed(version))
            if version % vacuum_every == 0:
                freed += db.vacuum()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    for t in readers:
        t.join(10.0)
    assert not any(t.is_alive() for t in readers)
    assert errors == []
    freed += db.vacuum()
    # Every installed version was eventually freed, leaving one per row.
    assert freed == installs
    assert db.retained_versions() == rows


def test_engine_concurrent_commits_master_style():
    """Many threads committing against one engine (the single-master
    cluster's hot path): first-committer-wins stays atomic."""
    db = SIDatabase(initial={("k", i): 0 for i in range(4)})
    per_thread = 100
    outcomes = {"committed": 0, "aborted": 0}
    lock = threading.Lock()

    def worker(thread_id):
        committed = aborted = 0
        for i in range(per_thread):
            txn = db.begin()
            # A tiny key space forces real write-write conflicts.
            txn.write(("k", (thread_id + i) % 4), thread_id)
            try:
                db.commit(txn)
                committed += 1
            except Exception:
                aborted += 1
        with lock:
            outcomes["committed"] += committed
            outcomes["aborted"] += aborted

    _run_threads(6, worker)
    total = 6 * per_thread
    assert outcomes["committed"] + outcomes["aborted"] == total
    assert outcomes["committed"] >= 1
    # Versions are dense: the store's watermark equals the commit count.
    assert db.latest_version == outcomes["committed"]
    assert db.update_commits == outcomes["committed"]
    assert db.update_aborts == outcomes["aborted"]
    # No leaked snapshots keep the certifier history pinned.
    assert db.oldest_active_snapshot() == db.latest_version


def test_engine_concurrent_begin_apply_and_read():
    """Multi-master replica shape: client threads begin/read while the
    applier thread installs propagated writesets in order."""
    shared = GlobalCertifier()
    db = SIDatabase(initial={("row", i): 0 for i in range(8)}, certifier=shared)
    stop = threading.Event()
    errors = []

    def reader(thread_id):
        while not stop.is_set():
            txn = db.begin()
            try:
                for i in range(8):
                    txn.get(("row", i))
                db.commit(txn)  # read-only: always commits
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                errors.append(exc)
                return

    readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    for t in readers:
        t.start()
    for version in range(1, 400):
        writeset = Writeset.from_dict(
            txn_id=version, snapshot_version=version - 1,
            writes={("row", version % 8): version},
        ).committed(version)
        db.apply_writeset(writeset)
    stop.set()
    for t in readers:
        t.join(10.0)
    assert errors == []
    assert db.latest_version == 399
