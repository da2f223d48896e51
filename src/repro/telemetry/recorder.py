"""What the transaction protocol emits, written once for both substrates.

The GSI life-cycle — route, snapshot, execute, certify, propagate, apply
(§2, §4–5) — produces the same metrics, spans and audit facts whether a
DES generator or a client thread runs it, and whichever topology and
certification path it runs on.  The protocol bodies
(:meth:`repro.simulator.systems._BaseSystem.execute`,
:meth:`repro.cluster.cluster.Cluster.execute`) and the replicas therefore
call one hook per protocol step on a *recorder* and never touch the
:class:`~repro.telemetry.core.Telemetry` facade, the tracer or the
auditor themselves.

Null-sink contract: every assembly and replica holds a recorder from
construction, :data:`NULL_RECORDER` by default, so call sites are
unguarded — a disabled run pays one no-op call per step and records
nothing.  ``attach_telemetry`` swaps in a :class:`ProtocolRecorder`
before clients start.  The recorder owns the substrate's ``now``
callable; call sites never read the clock on its behalf.  Code that
decides whether to do *work* (start a sampler, build a
``TelemetryResult``) asks the run's config, never the sink.

Hook order is part of the output: span ids are assigned in call order,
so the bodies call ``certified`` / ``committed`` / ``propagated`` in the
order their substrate always has (see the bodies' comments).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sidb.certifier_api import shard_version_key
from . import schema


class NullTransaction:
    """Per-transaction hooks that record nothing."""

    __slots__ = ()

    def routed(self, replica: str, is_update: bool, policy: str) -> None:
        pass

    def staleness(self, replica, certifier,
                  snapshot: Optional[int] = None) -> None:
        pass

    def executed(self, replica: str, kind: str,
                 attempt: Optional[int] = None) -> None:
        pass

    def certify_begin(self) -> None:
        pass

    def certify_end(self) -> None:
        pass

    def certified(self, attempt: int, outcome,
                  shards: Optional[int] = None) -> None:
        pass

    def committed(self, outcome, partitions, origin: str) -> None:
        pass

    def propagated(self, version: int, fanout: int) -> None:
        pass


class NullRecorder:
    """Fleet-side hooks that record nothing (the default sink)."""

    __slots__ = ()

    def begin(self) -> NullTransaction:
        return _NULL_TRANSACTION

    def completed(self, is_update: bool) -> None:
        pass

    def mark(self) -> Optional[float]:
        return None

    def attached(self, replica: str, watermark: int,
                 shard: Optional[int] = None) -> None:
        pass

    def delivered(self, replica: str, version: int,
                  shard: Optional[int] = None) -> None:
        pass

    def applied(self, replica: str, version: int, charged: bool, hosted,
                shard: Optional[int] = None,
                started: Optional[float] = None) -> None:
        pass

    def crashed(self, replica: str) -> None:
        pass


_NULL_TRANSACTION = NullTransaction()
NULL_RECORDER = NullRecorder()


class TransactionRecorder:
    """One transaction's trip through the protocol, step by step.

    Created at the top of ``execute`` (which fixes the route span's
    start and, deterministically, whether the transaction is traced);
    each later hook closes the span of the step that just finished.
    """

    __slots__ = ("_telemetry", "_now", "_trace", "_route_start",
                 "_work_start", "_certify_start")

    def __init__(self, telemetry, now: Callable[[], float]) -> None:
        self._telemetry = telemetry
        self._now = now
        self._trace = telemetry.tracer.start_trace()
        self._route_start = now()
        self._work_start = self._certify_start = self._route_start

    def routed(self, replica: str, is_update: bool, policy: str) -> None:
        """The load balancer (or the master rule) picked *replica*."""
        self._telemetry.count_route(replica, is_update)
        if self._trace is not None:
            self._telemetry.tracer.add_span(
                self._trace, schema.SPAN_ROUTE, self._route_start,
                self._now(), subject=replica, policy=policy,
            )

    def staleness(self, replica, certifier,
                  snapshot: Optional[int] = None) -> None:
        """The transaction took *snapshot* (default: *replica*'s applied
        version, a read's snapshot) while *certifier* stood at its
        latest version; its execution starts now.

        Takes the objects, not the versions: reading them can cost a
        lock or a sum over shards, which the null sink must not pay.
        """
        if snapshot is None:
            snapshot = replica.applied_version
        now = self._now()
        self._telemetry.observe_staleness(
            replica.name, snapshot, certifier.latest_version, now
        )
        self._work_start = now

    def executed(self, replica: str, kind: str,
                 attempt: Optional[int] = None) -> None:
        """The read, or one update attempt, finished executing."""
        if self._trace is not None:
            tags = {"kind": kind}
            if attempt is not None:
                tags["attempt"] = attempt
            self._telemetry.tracer.add_span(
                self._trace, schema.SPAN_EXECUTE, self._work_start,
                self._now(), subject=replica, **tags,
            )

    def certify_begin(self) -> None:
        """The writeset entered the certifier service."""
        self._certify_start = self._now()
        self._telemetry.certify_begin()

    def certify_end(self) -> None:
        """Its certification round-trip completed (commit or abort)."""
        self._telemetry.certify_end()

    def certified(self, attempt: int, outcome,
                  shards: Optional[int] = None) -> None:
        """Close the certify span with the certifier's decision
        (*shards*: how many certifier shards coordinated, sharded path
        only)."""
        if self._trace is None:
            return
        tags = {"attempt": attempt, "committed": outcome.committed}
        if shards is not None:
            tags["shards"] = shards
        if not outcome.committed:
            tags["abort"] = schema.ABORT_WW_CONFLICT
            tags["conflicts"] = len(outcome.conflicting_keys)
        self._telemetry.tracer.add_span(
            self._trace, schema.SPAN_CERTIFY, self._certify_start,
            self._now(), subject="certifier", **tags,
        )

    def committed(self, outcome, partitions, origin: str) -> None:
        """*outcome* took its place in the commit order.

        Must run before the writeset can reach any replica (DES: before
        the enqueue loop; live: inside the order lock(s), before the
        publish): the auditor sees commits in version order ahead of
        their deliveries, and the appliers find the trace through the
        version map.
        """
        lanes = outcome.shard_versions
        auditor = self._telemetry.auditor
        if auditor is not None:
            if lanes:
                home = lanes[0][0]
                for shard, version in lanes:
                    auditor.on_commit(version, partitions, origin,
                                      shard=shard, primary=(shard == home))
            else:
                auditor.on_commit(outcome.commit_version, partitions, origin)
        if self._trace is not None:
            key = outcome.commit_version
            if lanes:
                key = shard_version_key(lanes[0][0], key)
            self._telemetry.tracer.note_version(key, self._trace)

    def propagated(self, version: int, fanout: int) -> None:
        """The commit was handed to *fanout* replicas, advancing the
        system-wide version clock to *version*."""
        now = self._now()
        self._telemetry.note_commit(version, now)
        if self._trace is not None:
            self._telemetry.tracer.add_span(
                self._trace, schema.SPAN_PROPAGATE, self._certify_start,
                now, subject="channel", fanout=fanout,
            )


class ProtocolRecorder:
    """Fans protocol steps out to one run's metrics, tracer and auditor."""

    __slots__ = ("_telemetry", "_now")

    def __init__(self, telemetry, now: Callable[[], float]) -> None:
        self._telemetry = telemetry
        self._now = now

    def begin(self) -> TransactionRecorder:
        """Start recording one transaction (call at the top of execute)."""
        return TransactionRecorder(self._telemetry, self._now)

    def completed(self, is_update: bool) -> None:
        """A client saw its transaction commit."""
        self._telemetry.count_commit(is_update)

    def mark(self) -> Optional[float]:
        """The current time, for a replica to hand back to
        :meth:`applied` as ``started`` (``None`` from the null sink)."""
        return self._now()

    def attached(self, replica: str, watermark: int,
                 shard: Optional[int] = None) -> None:
        """*replica* (lane *shard*) joined replication at *watermark*."""
        auditor = self._telemetry.auditor
        if auditor is not None:
            auditor.on_attach(replica, watermark, shard=shard)

    def delivered(self, replica: str, version: int,
                  shard: Optional[int] = None) -> None:
        """One committed version reached *replica*'s apply queue."""
        auditor = self._telemetry.auditor
        if auditor is not None:
            auditor.on_deliver(replica, version, shard=shard)

    def applied(self, replica: str, version: int, charged: bool, hosted,
                shard: Optional[int] = None,
                started: Optional[float] = None) -> None:
        """*replica* applied *version* (on lane *shard*).

        *started* — a :meth:`mark` taken when the application was queued
        — additionally records the apply latency and the ``apply`` span;
        sharded callers pass it on the home lane only, the one lane that
        carries the writeset's work.
        """
        telemetry = self._telemetry
        if started is not None:
            now = self._now()
            telemetry.observe_apply(replica, now - started)
            key = version
            if shard is not None:
                key = shard_version_key(shard, version)
            telemetry.apply_span(key, replica, started, now)
        if telemetry.auditor is not None:
            telemetry.auditor.on_apply(replica, version, charged, hosted,
                                       shard=shard)

    def crashed(self, replica: str) -> None:
        """*replica* crashed for good; its lanes stop being audited."""
        auditor = self._telemetry.auditor
        if auditor is not None:
            auditor.on_crash(replica)
