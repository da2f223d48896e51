"""A simulated database replica: CPU + disk + writeset applier.

The replica charges transaction work to a processor-sharing CPU and a FIFO
disk.  Propagated writesets are applied concurrently (as the Tashkent proxy
does over parallel connections), but the ``applied_version`` watermark —
the version of the local snapshot new transactions receive (GSI, §2) —
advances contiguously, so snapshot staleness *emerges* from propagation
and application latency rather than being assumed.

Cost model of one apply: no process.  A charged writeset is one
:class:`_Apply` object that is its own resume callback — it submits a
CPU draw, then a disk draw, then advances the watermark — so it costs
the two resource submissions and their completion events and nothing
else.  A free version marker (a replica that already holds the effects,
or does not host the data) advances the watermark on the spot.  In-order
completions, the common case, advance the watermark without touching
the out-of-order heap.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from ..core.errors import SimulationError
from ..telemetry.recorder import NULL_RECORDER
from .des import Environment
from .resources import FIFOResource, ProcessorSharingResource
from .sampling import ServiceSampler


class _Availability:
    """``SimReplica.available``: a plain instance attribute to read — the
    load balancer reads it on every candidate of every transaction — and
    :meth:`SimReplica._set_available` to assign.

    A descriptor with ``__set__`` and no ``__get__`` yields to the
    instance dictionary on reads, so only assignment runs Python code.
    """

    def __set__(self, replica: "SimReplica", value: bool) -> None:
        replica._set_available(value)


class _Apply:
    """One charged writeset application, and its own resume callback.

    Building it submits the CPU draw to the replica's CPU; the first
    resume draws and submits the disk demand; the second hands
    *versions* (a commit version, or a sharded replica's shard versions)
    and the recorder's *started* mark back to the replica's
    ``_finish_apply``.  The disk demand is drawn only when the CPU step
    is done: concurrent applies share the replica's sampler stream, so
    when a draw is taken fixes which value it gets.
    """

    __slots__ = ("_replica", "_versions", "_started", "_on_disk")

    def __init__(self, replica: "SimReplica", versions, started) -> None:
        self._replica = replica
        self._versions = versions
        self._started = started
        self._on_disk = False
        replica.cpu.submit(replica.sampler.writeset_cpu(), self)

    def __call__(self) -> None:
        replica = self._replica
        if self._on_disk:
            replica._finish_apply(self._versions, self._started)
        else:
            self._on_disk = True
            replica.disk.submit(replica.sampler.writeset_disk(), self)


class SimReplica:
    """One replica's timed resources and replication state."""

    #: Whether the load balancer may route new transactions here: up
    #: and not crashed.  Assigning ``True`` to a replica that was down
    #: starts the catch-up on the writesets it missed.
    available = _Availability()

    def __init__(
        self,
        env: Environment,
        name: str,
        sampler: ServiceSampler,
        capacity: float = 1.0,
    ) -> None:
        if capacity <= 0.0:
            raise SimulationError(f"{name}: capacity must be positive")
        self._env = env
        self.name = name
        #: Service-time draws for the transactions and writesets executed
        #: here (a stream of its own).
        self.sampler = sampler
        #: Relative hardware speed: a capacity-2 replica finishes the same
        #: sampled work in half the time (threaded into both resources).
        self.capacity = capacity
        self.cpu = ProcessorSharingResource(env, f"{name}.cpu", rate=capacity)
        self.disk = FIFOResource(env, f"{name}.disk", rate=capacity)
        #: Highest contiguously applied global commit version.
        self.applied_version = 0
        #: Number of client transactions currently resident (LB routing).
        self.active = 0
        # Versions whose application finished but whose predecessors have
        # not: the applied_version watermark only advances contiguously.
        self._completed_out_of_order: List[int] = []
        #: Highest version ever enqueued (sanity checking).
        self._enqueued_version = 0
        #: Writesets applied (for propagation-load diagnostics).
        self.writesets_applied = 0
        #: Admission-control semaphore (set by the system assembly; ``None``
        #: means unlimited concurrency).
        self.admission = None
        #: Up as far as failure injection is concerned (``available``
        #: additionally excludes a crash).
        self._available = True
        self.__dict__["available"] = True
        #: True once the replica has crashed for good: its state is lost,
        #: writesets are dropped instead of deferred, and only replacement
        #: by a fresh member (state transfer) can restore redundancy.
        #: Invariant: ``__dict__["available"] == (self._available and not
        #: self.failed)``; only :meth:`_set_available` and :meth:`crash`
        #: change these three fields.
        self.failed = False
        #: ``(versions, charged)`` of the writesets received while down,
        #: applied in bulk on recovery (*versions* is what
        #: :meth:`_apply_marker` and :class:`_Apply` take: a commit
        #: version here, shard versions on a sharded replica).
        self._deferred: List[Tuple[object, bool]] = []
        #: True while the replica is being drained for elastic removal:
        #: the load balancer routes around it (``available`` is cleared
        #: too) and it leaves the system once its resident count hits 0.
        self.draining = False
        #: Partitions this replica hosts (partial replication); ``None``
        #: means everything — the full-replication default.  Routing and
        #: propagation consult this through
        #: :func:`repro.simulator.systems.hosts_any` / ``hosts_all``.
        self.hosted_partitions = None
        #: Protocol recorder (:mod:`repro.telemetry.recorder`); the
        #: assembly swaps in a real one when telemetry is attached.
        self.recorder = NULL_RECORDER

    # ------------------------------------------------------------------
    # Update propagation (transactions charge ``cpu`` and ``disk`` from
    # the one protocol body, :meth:`~.systems._BaseSystem.execute`)
    # ------------------------------------------------------------------

    def enqueue_writeset(self, commit_version: int, charged: bool = True) -> None:
        """Start applying a committed writeset at this replica.

        Writesets are applied **concurrently** (the Tashkent proxy applies
        non-conflicting writesets over parallel connections); the replica's
        ``applied_version`` watermark still only advances contiguously, so
        new snapshots never expose a gap.  ``charged=False`` marks a
        transaction that committed locally: its effects are already in the
        local database, so only the version bookkeeping advances (at zero
        resource cost).  Versions must arrive one by one: a repeated, an
        older or a skipped version is refused, since a skipped one would
        stall the watermark for good.
        """
        if commit_version != self._enqueued_version + 1:
            raise SimulationError(
                f"{self.name}: writeset {commit_version} arrived out of order "
                f"(latest is {self._enqueued_version})"
            )
        self.recorder.delivered(self.name, commit_version)
        self._enqueued_version = commit_version
        if self.failed:
            # The replica is dead and its state will be thrown away:
            # dropping the writeset (instead of deferring it) is exactly
            # what "stopped consuming writesets" means.
            return
        if not self._available:
            # The replica is down: its proxy queues the writeset; the
            # backlog is applied on recovery (catch-up).
            self._deferred.append((commit_version, charged))
        elif charged:
            _Apply(self, commit_version, self.recorder.mark())
        else:
            self._apply_marker(commit_version)

    def _apply_marker(self, commit_version: int) -> None:
        """Advance past a version whose effects cost nothing here."""
        self._mark_applied(commit_version)
        self.recorder.applied(
            self.name, commit_version, False, self.hosted_partitions
        )

    def _finish_apply(self, commit_version: int, started) -> None:
        """The last step of one charged application (:class:`_Apply`)."""
        self.writesets_applied += 1
        self._mark_applied(commit_version)
        self.recorder.applied(
            self.name, commit_version, True, self.hosted_partitions,
            started=started,
        )

    def _mark_applied(self, commit_version: int) -> None:
        pending = self._completed_out_of_order
        if not pending and commit_version == self.applied_version + 1:
            self.applied_version = commit_version
            return
        heapq.heappush(pending, commit_version)
        while pending and pending[0] == self.applied_version + 1:
            heapq.heappop(pending)
            self.applied_version += 1

    def watermarks(self):
        """``(shard, watermark)`` per delivery lane — the single global
        lane here — as the auditor's attach baseline."""
        return ((None, self.applied_version),)

    @property
    def apply_backlog(self) -> int:
        """Writesets whose application has not yet advanced the watermark."""
        return self._enqueued_version - self.applied_version

    def sync_to(self, commit_version: int) -> None:
        """Adopt *commit_version* as this replica's starting state.

        Elastic join: the replica receives a state snapshot at the
        cluster's propagation watermark, so both its applied version and
        its expected-next-writeset cursor begin there — writesets at or
        below the sync point are part of the transferred state and must
        never be re-applied, writesets above it arrive via propagation.
        """
        if self.applied_version != 0 or self._enqueued_version != 0:
            raise SimulationError(
                f"{self.name}: can only sync a fresh replica "
                f"(applied={self.applied_version})"
            )
        if commit_version < 0:
            raise SimulationError(f"negative sync version {commit_version}")
        self.applied_version = commit_version
        self._enqueued_version = commit_version
        self.recorder.attached(self.name, commit_version)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def _set_available(self, value: bool) -> None:
        came_back = value and not self._available and not self.failed
        self._available = value
        self.__dict__["available"] = value and not self.failed
        if came_back:
            self._flush_deferred()

    @property
    def staying(self) -> bool:
        """Healthy and not draining away (a member the fleet counts)."""
        return not self.draining and not self.failed

    @property
    def removable(self) -> bool:
        """Eligible as a default removal target: in rotation and not
        draining (a drain-faulted or still-joining replica is skipped)."""
        return not self.draining and self.available

    def crash(self) -> None:
        """Kill the replica permanently (state lost, no self-recovery).

        Unlike a drain fault, a crash drops the deferred backlog and all
        future writesets: the replica's copy of the database is gone, so
        there is nothing left to catch up.  The operations layer replaces
        crashed replicas with fresh members via state transfer.
        """
        self.failed = True
        self._available = False
        self.__dict__["available"] = False
        self._deferred.clear()
        self.recorder.crashed(self.name)

    def _flush_deferred(self) -> None:
        """Start catch-up on the writesets missed while down."""
        deferred, self._deferred = self._deferred, []
        for versions, charged in deferred:
            if charged:
                _Apply(self, versions, self.recorder.mark())
            else:
                self._apply_marker(versions)
