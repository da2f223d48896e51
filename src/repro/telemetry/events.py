"""The shared run-timeline event schema.

Everything that happens *to* a run — replica crashes, failure
detections, replacements, rolling-upgrade steps, controller actions —
is a :class:`TelemetryEvent`: a timestamped, kinded record about one
subject.  The operations layer's ``OpsEvent`` is a subclass (keeping
its ``replica`` field name as an alias), so ``repro run --timeline`` and
``repro metrics`` render one consistent timeline format through
:func:`render_events`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List


@dataclass(frozen=True)
class TelemetryEvent:
    """One timestamped event on a run's timeline."""

    #: Seconds since the start of the run (virtual time).
    time: float
    #: Event kind (e.g. ``crash``, ``detect``, ``replace``).
    kind: str
    #: What the event is about (usually a replica name).
    subject: str = ""
    #: Free-form elaboration (e.g. ``"replaces replica1"``).
    detail: str = ""

    def to_text(self) -> str:
        """One timeline line, e.g. ``t=   12.00s  crash   replica1``."""
        detail = f" ({self.detail})" if self.detail else ""
        return f"t={self.time:8.2f}s  {self.kind:<16s} {self.subject}{detail}"


def render_events(
    events: Iterable[TelemetryEvent], indent: str = "    "
) -> List[str]:
    """Render events (sorted by time) as indented timeline lines."""
    ordered = sorted(events, key=lambda e: (e.time, e.kind, e.subject))
    return [indent + event.to_text() for event in ordered]
