"""The telemetry facade each run threads through its components.

One :class:`Telemetry` object is created per run (when the caller asks
for it) and reaches the transaction protocol through a
:class:`~repro.telemetry.recorder.ProtocolRecorder`.  Null-sink
contract: systems and replicas hold a recorder from construction — the
no-op :data:`~repro.telemetry.recorder.NULL_RECORDER` by default — so
hot-path call sites are unguarded, and a disabled run records nothing
and draws no randomness, which keeps results, cache keys and artifacts
byte-stable.

:class:`TelemetryConfig` is a frozen, picklable value with a stable
``repr``, so an *enabled* configuration participates in engine cache
keys like any other scenario option, while ``None`` (disabled) drops
out of the key entirely.  :class:`TelemetryResult` is the frozen
snapshot attached to run results.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from . import schema
from .events import TelemetryEvent
from .registry import MetricSample, MetricsRegistry
from .spans import Span, Tracer
from .timeline import (
    SERIES_BACKLOG,
    SERIES_COMMITS,
    SERIES_LAG_SECONDS,
    SERIES_LAG_VERSIONS,
    SERIES_QUEUE_DEPTH,
    TimelineSnapshot,
)

#: Commit versions whose commit time is retained for lag-in-seconds.
_COMMIT_TIME_LIMIT = 8192


@dataclass(frozen=True)
class TelemetryConfig:
    """What a run should record (frozen: a cache-key citizen)."""

    enabled: bool = True
    #: Fraction of transactions that produce trace spans (0 disables
    #: tracing; sampling is deterministic, see :mod:`.spans`).
    span_sample_rate: float = 0.0
    #: Virtual seconds between fleet/timeline snapshots.
    snapshot_interval: float = 1.0
    #: Upper bound on retained spans (protects long runs).
    max_spans: int = 50_000
    #: Ring-buffer span retention: keep the *latest* ``max_spans``
    #: instead of the first (long autoscale runs want the recent
    #: window; see :class:`repro.telemetry.spans.Tracer`).
    span_ring: bool = False
    #: Run the online invariant auditor (:mod:`repro.audit`) alongside
    #: recording; the frozen :class:`repro.audit.AuditReport` lands on
    #: :attr:`TelemetryResult.audit`.
    audit: bool = False


def active_config(telemetry) -> Optional[TelemetryConfig]:
    """Normalise a ``telemetry`` argument to a config or ``None``.

    Accepts ``None``, ``True`` (defaults), or a
    :class:`TelemetryConfig`; a config with ``enabled=False`` counts as
    disabled so callers can thread one flag through.
    """
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True:
        return TelemetryConfig()
    if isinstance(telemetry, TelemetryConfig):
        return telemetry if telemetry.enabled else None
    raise TypeError(
        f"telemetry must be None, bool or TelemetryConfig, "
        f"not {type(telemetry).__name__}"
    )


@dataclass(frozen=True)
class TelemetryResult:
    """Everything one run recorded, frozen for result attachment."""

    pillar: str
    config: TelemetryConfig
    samples: Tuple[MetricSample, ...]
    spans: Tuple[Span, ...]
    timeline: Tuple[TimelineSnapshot, ...]
    events: Tuple[TelemetryEvent, ...] = ()
    spans_dropped: int = 0
    #: :class:`repro.audit.AuditReport` when the run was audited;
    #: ``None`` otherwise (default keeps older cached results loading).
    audit: object = None

    def metric_names(self) -> frozenset:
        """The set of metric names this run emitted."""
        return frozenset(sample.name for sample in self.samples)

    def find(self, name: str, **labels) -> Optional[MetricSample]:
        """Look up one sample by name and exact labels."""
        wanted = tuple(sorted((k, str(v)) for k, v in labels.items()))
        for sample in self.samples:
            if sample.name == name and sample.labels == wanted:
                return sample
        return None

    def label_values(self, name: str, label: str) -> frozenset:
        """All values one label took for one metric name."""
        return frozenset(
            value
            for sample in self.samples if sample.name == name
            for key, value in sample.labels if key == label
        )


class Telemetry:
    """Live recording state for one run (one per pillar execution)."""

    def __init__(self, config: TelemetryConfig, pillar: str) -> None:
        self.config = config
        self.pillar = pillar
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            sample_rate=config.span_sample_rate,
            max_spans=config.max_spans,
            ring=config.span_ring,
        )
        if config.audit:
            from ..audit import Auditor

            self.auditor = Auditor()
        else:
            #: The recorder checks this once per hook, so an un-audited
            #: run does no audit bookkeeping at all.
            self.auditor = None
        self.events: List[TelemetryEvent] = []
        self.timeline: List[TimelineSnapshot] = []
        self._lock = threading.Lock()
        self._commit_times: Dict[int, float] = {}
        self._commit_order: Deque[int] = deque()
        self._commit_count = 0
        # Pre-resolved hot instruments; registering the fixed-name ones
        # up front also makes the emitted schema independent of whether
        # a particular run happened to exercise them (the parity
        # contract must not depend on, say, observing a conflict).
        self._queue_depth = self.registry.gauge(
            schema.CERTIFIER_QUEUE_DEPTH
        )
        self._certifications = self.registry.counter(schema.CERTIFICATIONS)
        self._certifier_commits = self.registry.counter(
            schema.CERTIFIER_COMMITS
        )
        self._certifier_conflicts = self.registry.counter(
            schema.CERTIFIER_CONFLICTS
        )
        self._read_commits = self.registry.counter(
            schema.TXN_COMMITS, kind="read"
        )
        self._update_commits = self.registry.counter(
            schema.TXN_COMMITS, kind="update"
        )
        self.registry.gauge(schema.CERTIFIER_HISTORY)

    # ------------------------------------------------------------------
    # Transaction flow
    # ------------------------------------------------------------------

    def count_commit(self, is_update: bool) -> None:
        """Count one committed transaction."""
        if is_update:
            self._update_commits.inc()
        else:
            self._read_commits.inc()
        with self._lock:
            self._commit_count += 1

    def count_route(self, replica: str, is_update: bool) -> None:
        """Count one load-balancer routing decision."""
        kind = "update" if is_update else "read"
        self.registry.counter(
            schema.LB_ROUTED, replica=replica, kind=kind
        ).inc()

    # ------------------------------------------------------------------
    # Certifier service boundary
    # ------------------------------------------------------------------

    def certify_begin(self) -> None:
        """A certification request entered the certifier service."""
        self._queue_depth.add(1.0)

    def certify_end(self) -> None:
        """Its certification round-trip completed."""
        self._queue_depth.add(-1.0)

    def on_certification(self, committed: bool, conflicts: int) -> None:
        """Count one certifier decision (called by the certifier)."""
        self._certifications.inc()
        if committed:
            self._certifier_commits.inc()
        else:
            self._certifier_conflicts.inc()

    def note_commit(self, commit_version: int, now: float) -> None:
        """Remember when a version committed (for lag-in-seconds)."""
        with self._lock:
            self._commit_times[commit_version] = now
            self._commit_order.append(commit_version)
            while len(self._commit_order) > _COMMIT_TIME_LIMIT:
                old = self._commit_order.popleft()
                self._commit_times.pop(old, None)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def observe_staleness(
        self, replica: str, snapshot_version: int, latest_version: int,
        now: float,
    ) -> None:
        """Record how stale the snapshot a transaction received was,
        in versions behind the certifier and seconds behind the oldest
        missed commit (sampled at begin time — GSI's staleness window).
        """
        versions = float(max(0, latest_version - snapshot_version))
        self.registry.histogram(
            schema.SNAPSHOT_STALENESS_VERSIONS,
            bounds=schema.STALENESS_VERSION_BUCKETS,
            replica=replica,
        ).observe(versions)
        seconds = (
            self._lag_seconds(snapshot_version, now) if versions else 0.0
        )
        self.registry.histogram(
            schema.SNAPSHOT_STALENESS_SECONDS,
            bounds=schema.DEFAULT_LATENCY_BUCKETS,
            replica=replica,
        ).observe(seconds)

    def observe_apply(self, replica: str, latency: float) -> None:
        """Record one writeset's enqueue-to-applied latency."""
        self.registry.histogram(
            schema.APPLY_LATENCY,
            bounds=schema.DEFAULT_LATENCY_BUCKETS,
            replica=replica,
        ).observe(latency)

    def apply_span(
        self, commit_version: int, replica: str, start: float, end: float
    ) -> None:
        """Record an ``apply`` span if the committing txn was traced."""
        trace_id = self.tracer.trace_for(commit_version)
        if trace_id is not None:
            self.tracer.add_span(
                trace_id, schema.SPAN_APPLY, start, end,
                subject=replica, version=commit_version,
            )

    # ------------------------------------------------------------------
    # Control plane and operations
    # ------------------------------------------------------------------

    def count_decision(self, action: str, target: int) -> None:
        """Count one autoscale controller decision."""
        self.registry.counter(
            schema.CONTROLLER_DECISIONS, action=action
        ).inc()
        self.registry.gauge(schema.CONTROLLER_TARGET).set(float(target))

    def observe_slo_burn(self, window: str, signal: str,
                         burn: float) -> None:
        """Record one (window, signal) error-budget burn rate."""
        self.registry.gauge(
            schema.SLO_BURN_RATE, window=window, signal=signal
        ).set(burn)

    # ------------------------------------------------------------------
    # Performance observability (online capacity estimation)
    # ------------------------------------------------------------------

    def observe_capacity(self, replica: str, ratio: float) -> None:
        """Record one replica's estimated effective-capacity ratio."""
        self.registry.gauge(
            schema.EFFECTIVE_CAPACITY, replica=replica
        ).set(ratio)

    def observe_model_residual(self, residual: float) -> None:
        """Record the model-vs-observed relative throughput residual."""
        self.registry.gauge(schema.MODEL_RESIDUAL).set(residual)

    def count_drift_verdict(self) -> None:
        """Count one control tick judged outside the crossval envelope."""
        self.registry.counter(schema.MODEL_DRIFT).inc()

    def count_gray_detection(self, replica: str) -> None:
        """Count one gray-failure detection on *replica*."""
        self.registry.counter(
            schema.GRAY_DETECTIONS, replica=replica
        ).inc()

    def record_event(self, event: TelemetryEvent) -> None:
        """Append one timeline event and count its kind."""
        self.events.append(event)
        self.registry.counter(schema.OPS_EVENTS, kind=event.kind).inc()

    def ingest_events(self, events) -> None:
        """Record a batch of events (ops harness hand-off)."""
        for event in events:
            self.record_event(event)

    # ------------------------------------------------------------------
    # Fleet sampling (timeline)
    # ------------------------------------------------------------------

    def _lag_seconds(self, applied_version: int, now: float) -> float:
        with self._lock:
            committed_at = self._commit_times.get(applied_version + 1)
        if committed_at is None:
            return 0.0
        return max(0.0, now - committed_at)

    def sample_fleet(self, now: float, replicas, certifier=None) -> None:
        """Sample per-replica replication state and snapshot headline
        series onto the timeline.

        Works on both pillars: sim and live replicas expose the same
        ``name`` / ``applied_version`` / ``apply_backlog`` surface; a
        replica with a ``db`` additionally reports its version-store
        size (live only, see :data:`~repro.telemetry.schema.LIVE_ONLY`).
        """
        fleet = [r for r in list(replicas) if not getattr(r, "failed", False)]
        if certifier is not None:
            latest = certifier.latest_version
            history = getattr(certifier, "history_size", None)
            if history is not None:
                self.registry.gauge(schema.CERTIFIER_HISTORY).set(
                    float(history)
                )
        else:
            latest = max(
                (r.applied_version for r in fleet), default=0
            )
        max_lag_v = max_lag_s = max_backlog = 0.0
        for replica in fleet:
            lag_v = float(max(0, latest - replica.applied_version))
            self.registry.gauge(
                schema.REPLICATION_LAG_VERSIONS, replica=replica.name
            ).set(lag_v)
            lag_s = self._lag_seconds(replica.applied_version, now)
            self.registry.gauge(
                schema.REPLICATION_LAG_SECONDS, replica=replica.name
            ).set(lag_s)
            backlog = float(replica.apply_backlog)
            self.registry.gauge(
                schema.CHANNEL_BACKLOG, replica=replica.name
            ).set(backlog)
            db = getattr(replica, "db", None)
            if db is not None:
                self.registry.gauge(
                    schema.VERSION_STORE, replica=replica.name
                ).set(float(db.retained_versions()))
            max_lag_v = max(max_lag_v, lag_v)
            max_lag_s = max(max_lag_s, lag_s)
            max_backlog = max(max_backlog, backlog)
        with self._lock:
            commits = float(self._commit_count)
        self.timeline.append(TimelineSnapshot(
            time=now,
            values=(
                (SERIES_QUEUE_DEPTH, self._queue_depth.value),
                (SERIES_LAG_VERSIONS, max_lag_v),
                (SERIES_LAG_SECONDS, max_lag_s),
                (SERIES_BACKLOG, max_backlog),
                (SERIES_COMMITS, commits),
            ),
        ))

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------

    def result(self) -> TelemetryResult:
        """Freeze everything recorded so far."""
        # Span-ring data loss goes through the registry so every export
        # (Prometheus included) shows it, not just the dashboard.  The
        # delta form keeps repeated result() calls idempotent.
        dropped = self.registry.counter(schema.SPANS_DROPPED)
        dropped.inc(float(self.tracer.dropped) - dropped.value)
        audit = None
        if self.auditor is not None:
            audit = self.auditor.report()
            self.registry.gauge(schema.AUDIT_CHECKS).set(
                float(audit.total_checks)
            )
            self.registry.gauge(schema.AUDIT_VIOLATIONS).set(
                float(audit.total_violations)
            )
        return TelemetryResult(
            pillar=self.pillar,
            config=self.config,
            samples=self.registry.snapshot(),
            spans=tuple(self.tracer.spans),
            timeline=tuple(self.timeline),
            events=tuple(sorted(
                self.events, key=lambda e: (e.time, e.kind, e.subject)
            )),
            spans_dropped=self.tracer.dropped,
            audit=audit,
        )
