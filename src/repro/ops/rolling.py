"""Rolling restarts: cycle every replica through drain → detach → rejoin.

The software-upgrade primitive the elastic membership operations were
built to enable: one replica at a time leaves rotation gracefully (drain:
in-flight transactions finish), detaches, and rejoins as a fresh member
via snapshot + writeset-replay state transfer — while the rest of the
fleet keeps serving and the run's SLO accounting keeps scoring.  At no
point is the fleet more than one replica short of its target.

The cycle is written once, as a *task*: a plain generator that yields
virtual-second delays and is resumed by whichever run object spawned it
(:class:`repro.simulator.runner.SimRun` turns each delay into a DES
``Timeout``; :class:`repro.cluster.runner.ClusterRun` sleeps it on a
worker thread).  A run that stops simply never resumes the task, so a
cycle cut short by end-of-run logs nothing it did not observe — in
particular no ``upgraded`` for a replacement that never entered rotation.

Single-master systems cycle their slaves only (the master cannot be
detached without a promotion protocol the paper does not describe).
"""

from __future__ import annotations

from typing import Callable, Iterator, List

from ..core.errors import ReproError
from .events import DETACH, DRAIN, REJOIN, ROLLING_DONE, UPGRADED, OpsEvent

#: How often the task re-checks drain/join completion (virtual seconds).
_POLL = 0.1


def rolling_restart(
    fleet,
    now: Callable[[], float],
    events: List[OpsEvent],
    start: float = 0.0,
    transfer_writesets: int = 16,
    settle: float = 2.0,
) -> Iterator[float]:
    """Task: after *start* seconds, cycle every current replica once.

    *fleet* is a DES system or a live cluster (their membership
    operations are spelled identically); *now* reads the run's virtual
    clock for the event timestamps.  The DES ``remove_replica`` returns
    at once and the drain is polled here; the live one blocks until the
    replica has detached, so the same poll falls straight through.
    """
    yield start
    for replica in list(fleet.upgrade_targets()):
        if replica not in fleet.replicas or replica.failed:
            continue  # crashed (and maybe replaced) since we planned
        events.append(OpsEvent(now(), DRAIN, replica.name))
        try:
            fleet.remove_replica(replica=replica)
        except ReproError as exc:
            events.append(OpsEvent(
                now(), "cycle-skipped", replica.name, detail=str(exc)
            ))
            continue
        while replica in fleet.replicas:
            yield _POLL
        events.append(OpsEvent(now(), DETACH, replica.name))
        replacement = fleet.add_replica(
            transfer_writesets, capacity=replica.capacity
        )
        events.append(OpsEvent(
            now(), REJOIN, replacement.name,
            detail=f"replaces {replica.name}",
        ))
        while not replacement.available:
            yield _POLL
        events.append(OpsEvent(now(), UPGRADED, replacement.name))
        if settle > 0:
            yield settle
    events.append(OpsEvent(now(), ROLLING_DONE, ""))
