"""One live replica: a real SI engine behind emulated CPU and disk.

A :class:`ClusterReplica` owns

* a :class:`~repro.sidb.engine.SIDatabase` holding the replica's actual
  multi-version data (for multi-master clusters it is constructed around
  the *shared* certifier service);
* two :class:`~repro.cluster.resources.LiveResource` servers emulating its
  CPU and disk with scaled wall-clock sleeps;
* an **applier thread** — the thread-per-replica of the runtime — that
  drains the replication channel's queue and installs propagated writesets
  in commit order.

The applier is deliberately serial: the version store only accepts in-order
installs, so one thread applying in queue order is both the simplest and
the correct realisation of the paper's FIFO update propagation.  (The
simulator lets charged applications overlap; at the writeset demands of the
paper's workloads the applier is far from saturated, so the difference does
not move the measured operating points.)  One honest divergence from the
simulator: charged applications queue for the CPU *behind* resident client
transactions (FIFO mutex) instead of sharing it (processor sharing), so
under saturation a replica's snapshot staleness — and with it the GSI
abort rate — runs somewhat higher live than simulated.  Throughput is
insensitive to this; the cross-validation report shows the abort-rate
difference explicitly.

Failure injection mirrors :mod:`repro.simulator.faults`: while a replica is
unavailable the load balancer routes around it and the applier *defers* —
writesets stay queued — so on recovery the replica catches up by draining
its backlog, and recovery cost emerges from the backlog length.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Optional, Tuple

from ..sidb.certifier import GlobalCertifier
from ..sidb.engine import SIDatabase
from ..sidb.writeset import Writeset
from ..simulator.sampling import ServiceSampler, WorkloadSampler
from ..simulator.systems import hosts_any
from ..telemetry.recorder import NULL_RECORDER
from .clock import VirtualClock
from .resources import LiveResource

#: The applier garbage-collects versions no snapshot can see every this
#: many applied writesets, bounding the store's memory over long runs.
_VACUUM_INTERVAL = 64


class ClusterReplica:
    """A live database replica with emulated resources and an applier."""

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        sampler: ServiceSampler,
        certifier: Optional[GlobalCertifier] = None,
        max_concurrency: Optional[int] = None,
        capacity: float = 1.0,
        hosted_partitions: Optional[frozenset] = None,
    ) -> None:
        self.name = name
        self._clock = clock
        # This sampler is used only by the applier thread (writeset
        # demands); client threads bring their own samplers.
        self._sampler = sampler
        self.db = SIDatabase(certifier=certifier)
        #: Relative hardware speed (scales both emulated resources).
        self.capacity = capacity
        #: Partitions this replica hosts (``None`` = everything, the
        #: full-replication default).  Immutable over the replica's life:
        #: the applier reads it lock-free.
        self.hosted_partitions = hosted_partitions
        self.cpu = LiveResource(clock, f"{name}.cpu", rate=capacity)
        self.disk = LiveResource(clock, f"{name}.disk", rate=capacity)
        #: Admission control: bounds concurrently executing client
        #: transactions (the connection pool of the paper's testbed).
        self.admission = (
            threading.BoundedSemaphore(max_concurrency)
            if max_concurrency is not None
            else None
        )
        # _state guards the apply queue, availability, the active counter,
        # and the applied-writeset counter; the applier waits on it.
        self._state = threading.Condition()
        # (writeset, charged, enqueued_at) — the timestamp is the
        # recorder's mark: None from the null sink, which keeps the
        # clock off the hot path.
        self._queue: Deque[Tuple[Writeset, bool, Optional[float]]] = deque()
        self._available = True
        self._stopping = False
        # Elastic-membership lifecycle: a *joining* replica applies its
        # bulk-replay backlog but is hidden from the load balancer; a
        # *retiring* one is hidden too and re-checked by clients right
        # after enter() (see Cluster._route), closing the select/enter
        # race on scale-down.
        self._joining = False
        self._retiring = False
        self._failed = False
        self._active = 0
        self.writesets_applied = 0
        #: Protocol recorder (:mod:`repro.telemetry.recorder`); the
        #: cluster swaps in a real one when telemetry is attached.
        self.recorder = NULL_RECORDER
        #: First exception that killed the applier thread (None while
        #: healthy); the runner surfaces it instead of letting a dead
        #: applier masquerade as a quiesce timeout.
        self.applier_error: Optional[BaseException] = None
        self._applier = threading.Thread(
            target=self._apply_loop, name=f"{name}-applier", daemon=True
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the applier thread."""
        self._applier.start()

    def stop(self, timeout: Optional[float] = None, drain: bool = True) -> None:
        """Stop the applier thread, draining the apply queue by default.

        ``drain=False`` discards the queued backlog first — the right
        call for a replica leaving the cluster, whose copy of the state
        is being thrown away anyway.
        """
        with self._state:
            if not drain:
                self._queue.clear()
            self._stopping = True
            self._state.notify_all()
        self._applier.join(timeout)

    @property
    def stopping(self) -> bool:
        """True once :meth:`stop` has been requested."""
        with self._state:
            return self._stopping

    # ------------------------------------------------------------------
    # Routing state
    # ------------------------------------------------------------------

    @property
    def applied_version(self) -> int:
        """Newest locally visible commit version (the GSI snapshot new
        transactions at this replica receive)."""
        return self.db.latest_version

    def watermarks(self):
        """``(shard, watermark)`` per delivery lane — the single global
        lane here — as the auditor's attach baseline."""
        return ((None, self.db.latest_version),)

    @property
    def active(self) -> int:
        """Client transactions currently resident (LB routing input)."""
        with self._state:
            return self._active

    def enter(self) -> None:
        """Count one client transaction as resident."""
        with self._state:
            self._active += 1

    def exit(self) -> None:
        """Remove one client transaction from the resident count."""
        with self._state:
            self._active -= 1

    @property
    def available(self) -> bool:
        """Whether the load balancer may route new transactions here.

        False while the replica is down (fault injection), still joining
        (bulk replay in progress), retiring (drain before removal), or
        crashed for good.
        """
        with self._state:
            return (self._available and not self._joining
                    and not self._retiring and not self._failed)

    @available.setter
    def available(self, value: bool) -> None:
        with self._state:
            if self._failed:
                return  # a crash is permanent; recovery means replacement
            self._available = value
            if value:
                # Recovery: wake the applier to drain the deferred backlog.
                self._state.notify_all()

    @property
    def failed(self) -> bool:
        """True once the replica crashed (state lost, never recovers)."""
        with self._state:
            return self._failed

    def crash(self) -> None:
        """Kill the replica: stop consuming writesets, drop the backlog.

        The crash analogue of the drain fault: the load balancer routes
        around it *and* the applier stops — queued and future writesets
        are discarded, since the replica's copy of the state is lost.
        Only force-removal plus a fresh state-transfer join (the
        :mod:`repro.ops` replacement path) restores redundancy.
        """
        with self._state:
            self._failed = True
            self._available = False
            self._queue.clear()
        self.recorder.crashed(self.name)

    @property
    def staying(self) -> bool:
        """Healthy and not retiring (a member the cluster counts)."""
        with self._state:
            return not self._retiring and not self._failed

    @property
    def removable(self) -> bool:
        """Eligible as a default removal target: healthy, fully joined
        and not retiring (a drain-faulted replica still qualifies)."""
        with self._state:
            return not (self._retiring or self._joining or self._failed)

    def begin_join(self) -> None:
        """Hide the replica from the balancer while it catches up.

        Unlike fault unavailability, the applier keeps running: the join
        cost *is* applying the bulk-replay backlog.
        """
        with self._state:
            self._joining = True

    def complete_join(self) -> None:
        """Enter load-balancer rotation (bulk replay finished)."""
        with self._state:
            self._joining = False

    def begin_retire(self) -> None:
        """Stop receiving new transactions; existing ones drain."""
        with self._state:
            self._retiring = True

    def cancel_retire(self) -> None:
        """Return to rotation (the drain timed out; removal rolled back)."""
        with self._state:
            self._retiring = False

    # ------------------------------------------------------------------
    # Client-transaction execution (called from client threads)
    # ------------------------------------------------------------------

    def serve_read(self, sampler: WorkloadSampler) -> None:
        """Charge one read-only transaction's CPU and disk work."""
        self.cpu.serve(sampler.read_cpu())
        self.disk.serve(sampler.read_disk())

    def serve_update_attempt(self, sampler: WorkloadSampler) -> None:
        """Charge one update attempt's local execution work."""
        self.cpu.serve(sampler.update_cpu())
        self.disk.serve(sampler.update_disk())

    # ------------------------------------------------------------------
    # Update propagation (fed by the replication channel)
    # ------------------------------------------------------------------

    def enqueue_writeset(self, writeset: Writeset, charged: bool = True) -> None:
        """Queue a committed writeset for in-order application.

        Dropped silently once the replica has crashed: the dead replica
        no longer consumes writesets, and its state is discarded anyway.
        """
        enqueued_at = self.recorder.mark()
        with self._state:
            if self._failed:
                return
            # Publishers hold the cluster's order lock, so deliveries
            # are audited in commit order.
            self.recorder.delivered(self.name, writeset.commit_version)
            self._queue.append((writeset, charged, enqueued_at))
            self._state.notify_all()

    @property
    def apply_backlog(self) -> int:
        """Writesets queued but not yet installed."""
        with self._state:
            return len(self._queue)

    def _apply_loop(self) -> None:
        try:
            self._apply_writesets()
        except BaseException as exc:  # noqa: BLE001 — surfaced by the runner
            self.applier_error = exc

    def hosts_writeset(self, writeset: Writeset) -> bool:
        """True when this replica stores *writeset*'s data.

        Delegates to the routing layer's hosting predicate
        (:func:`repro.simulator.systems.hosts_any`) so a writeset routed
        to a replica can never be skipped by its applier.
        """
        return hosts_any(self, writeset.partition_set)

    def _apply_writesets(self) -> None:
        applied_since_vacuum = 0
        while True:
            with self._state:
                while not self._stopping and (
                    not self._queue or not self._available
                ):
                    self._state.wait()
                # Waking with an empty queue implies stopping: drained.
                if not self._queue:
                    return
                # On shutdown the remaining backlog is drained regardless
                # of availability (quiesce implies recovery).
                writeset, charged, enqueued_at = self._queue.popleft()
            if not self.hosts_writeset(writeset):
                # Partial replication: the data is not placed here.  Skip
                # the payload and its resource cost, but advance the
                # version clock so later *hosted* writesets still install
                # in global commit order.
                self.db.apply_version_marker(writeset.commit_version)
                # No application work was charged: this is a version
                # marker, whatever the channel's charge flag said.
                self.recorder.applied(
                    self.name, writeset.commit_version, False,
                    self.hosted_partitions,
                )
                continue
            if charged:
                self.cpu.serve(self._sampler.writeset_cpu())
                self.disk.serve(self._sampler.writeset_disk())
            # A host of only some of a cross-partition writeset's
            # partitions installs exactly its own rows.
            self.db.apply_writeset(writeset, self.hosted_partitions)
            with self._state:
                self.writesets_applied += 1
            self.recorder.applied(
                self.name, writeset.commit_version, charged,
                self.hosted_partitions, started=enqueued_at,
            )
            applied_since_vacuum += 1
            if applied_since_vacuum >= _VACUUM_INTERVAL:
                applied_since_vacuum = 0
                self.db.vacuum()
