"""Always-on replication invariant auditing.

The paper's safety story — certified writesets reach every hosting
replica exactly once, in commit order — used to be a post-hoc bench
assertion.  :class:`Auditor` promotes it to an online check: both
executable pillars feed it the same small set of lifecycle callbacks
(commit, deliver, apply, crash, attach) and it continuously verifies

* **commit-order** — the certifier hands out one contiguous global
  version sequence (no gaps, no duplicates);
* **delivery** — each replica receives writesets in strictly increasing,
  gap-free version order above its join baseline (a gap is a *lost*
  writeset, a repeat is a *duplicated* one);
* **apply-once** — each delivered version is folded into a replica's
  watermark at most once;
* **partition-scope** — a replica is charged for applying a writeset
  iff it hosts one of the writeset's partitions and did not originate
  it; version markers (uncharged advances) are only legal on the origin
  or on non-hosting replicas.

The auditor is wired through :class:`repro.telemetry.Telemetry` (see
``TelemetryConfig.audit``) and fed by the protocol recorder
(:mod:`repro.telemetry.recorder`), which checks for it once per hook; it
performs pure bookkeeping — no clocks, no randomness, no simulated
time — so DES results are bit-identical with it on or off, and it is
thread-safe for the live cluster's applier threads.
"""

from .auditor import AuditReport, Auditor, AuditViolation

__all__ = ["AuditReport", "Auditor", "AuditViolation"]
