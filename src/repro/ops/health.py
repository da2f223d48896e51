"""Failure detection and automatic replacement of crashed replicas.

The :class:`HealthMonitor` is pillar-agnostic: it works on a *fleet* — a
DES assembly or a live cluster, which spell their elastic membership
operations (``replicas``, ``add_replica``, ``remove_replica``)
identically.  The control loop ticks it once per interval; on each tick it

1. scans for replicas whose ``failed`` flag is set (the crash fault set
   it: the replica stopped consuming writesets and its state is lost),
2. force-detaches them (no drain — there is nothing to drain), and
3. rejoins a replacement of the same ``capacity`` via state transfer,

stamping every step into the run's event log so MTTR and the
unavailability window can be read off afterwards.  A replacement that
cannot be placed this tick (e.g. the replication history no longer
reaches back to any donor snapshot) is retried next tick rather than
failing the run.
"""

from __future__ import annotations

from typing import List

from ..core.errors import ReproError
from .events import DETACH, DETECT, REPLACE, RESTORED, OpsEvent


class HealthMonitor:
    """Replaces crashed replicas through the elastic membership ops."""

    def __init__(self, fleet, transfer_writesets: int,
                 events: List[OpsEvent]) -> None:
        """*fleet* is the system or cluster to heal; a replacement joins
        with a *transfer_writesets* bulk replay."""
        self._fleet = fleet
        self._transfer_writesets = transfer_writesets
        self._events = events
        #: (capacity, crashed-name) replacements still waiting to be
        #: placed (their add raised last tick).
        self._backlog: List[tuple] = []
        #: (replica, crashed-name) joins in flight, watched for the
        #: moment they enter rotation.
        self._joining: List[tuple] = []

    def tick(self, now: float) -> None:
        """One health-check pass (called once per control interval)."""
        for replica in list(self._fleet.replicas):
            if not replica.failed:
                continue
            self._events.append(OpsEvent(now, DETECT, replica.name))
            try:
                self._fleet.remove_replica(replica=replica, force=True)
            except ReproError as exc:
                # Nothing healthy to fail over to; keep the replica
                # listed and retry next tick.
                self._events.append(OpsEvent(
                    now, "detach-failed", replica.name, detail=str(exc)
                ))
                continue
            self._events.append(OpsEvent(now, DETACH, replica.name))
            self._backlog.append((replica.capacity, replica.name))
        self._place_backlog(now)
        self._watch_joins(now)

    def _place_backlog(self, now: float) -> None:
        remaining: List[tuple] = []
        for capacity, crashed in self._backlog:
            try:
                replacement = self._fleet.add_replica(
                    self._transfer_writesets, capacity=capacity
                )
            except ReproError as exc:
                self._events.append(OpsEvent(
                    now, "replace-deferred", crashed, detail=str(exc)
                ))
                remaining.append((capacity, crashed))
                continue
            self._events.append(OpsEvent(
                now, REPLACE, replacement.name, detail=f"replaces {crashed}"
            ))
            self._joining.append((replacement, crashed))
        self._backlog = remaining

    def _watch_joins(self, now: float) -> None:
        still_joining: List[tuple] = []
        for replica, crashed in self._joining:
            if replica.available:
                self._events.append(OpsEvent(
                    now, RESTORED, replica.name, detail=f"replaces {crashed}"
                ))
            else:
                still_joining.append((replica, crashed))
        self._joining = still_joining
