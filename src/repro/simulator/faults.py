"""Failure injection for the simulated replicated systems.

The paper motivates replication with fault tolerance but evaluates only
performance; this module adds the natural follow-on experiment: *what does
throughput look like while a replica is down, and how long does recovery
take?*

Two fault kinds share the :class:`ReplicaFault` schedule entry:

* ``drain`` (the default) takes one replica out of load-balancer rotation
  at ``start`` and brings it back at ``start + downtime``.  This is the
  behaviour of a middleware that detects an unresponsive replica and stops
  dispatching to it: in-flight transactions finish, writesets queue at the
  replica's proxy, and on recovery the replica catches up on the backlog —
  so recovery cost *emerges* from the writeset backlog rather than being
  assumed.
* ``crash`` kills the replica outright: it stops consuming writesets (its
  copy of the state is lost, so queued and future writesets are dropped,
  not deferred) and it never comes back by itself.  A crashed replica can
  only rejoin as a *new* member via state transfer — the replacement
  path the self-healing operations layer (:mod:`repro.ops`) automates.
* ``brownout`` is the gray failure: the replica stays in rotation but its
  CPU and disk rates are multiplied by ``severity`` for ``downtime``
  seconds — a machine silently running at partial speed.  Nothing in the
  membership layer notices (the replica is *available* the whole time);
  only the online capacity estimator can catch it.

Overlapping drain faults on the same replica nest: the replica recovers
only when the *last* overlapping outage ends (a per-replica down-count,
not a boolean).  Overlapping brownouts compose multiplicatively and each
restores exactly its own factor.  Faults scheduled past the end of the
run simply never fire.

Restrictions (checked by :func:`repro.simulator.systems.check_supported`,
the one place fault schedules and membership changes are refused): the
single-master design only supports slave drain/crash faults (master
failover needs a promotion protocol the paper does not describe); a
brownout never changes membership, so it may target the master; crash
faults need full replication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from ..core.errors import ConfigurationError

#: Fault kinds: a recoverable outage, a permanent loss of the replica, or
#: a gray failure (the replica serves on at degraded speed).
DRAIN = "drain"
CRASH = "crash"
BROWNOUT = "brownout"
FAULT_KINDS = (DRAIN, CRASH, BROWNOUT)


@dataclass(frozen=True)
class ReplicaFault:
    """One failure event for a named replica."""

    #: Index into the system's replica list (for single-master systems,
    #: index 0 is the master and may not be faulted).
    replica_index: int
    #: Simulated time at which the replica stops accepting work.
    start: float
    #: How long the replica stays out of rotation (``drain``) or degraded
    #: (``brownout``); a ``crash`` is permanent and ignores this field.
    downtime: float = 0.0
    #: ``drain`` (recoverable outage), ``crash`` (permanent loss), or
    #: ``brownout`` (gray failure at reduced speed).
    kind: str = DRAIN
    #: Resource-rate multiplier while a ``brownout`` is active: the
    #: replica's CPU and disk run at ``severity`` times their configured
    #: rate.  Ignored by the other kinds.
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.replica_index < 0:
            raise ConfigurationError("replica index must be >= 0")
        if self.start < 0:
            raise ConfigurationError("fault start must be >= 0")
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.kind in (DRAIN, BROWNOUT) and self.downtime <= 0:
            raise ConfigurationError("downtime must be positive")
        if self.kind == BROWNOUT and not 0.0 < self.severity < 1.0:
            raise ConfigurationError(
                "brownout severity must be in (0, 1): it is the fraction "
                "of the replica's configured speed that survives"
            )

    @property
    def end(self) -> float:
        """Time at which a drain/brownout fault's replica recovers."""
        return self.start + self.downtime


def crash_fault(replica_index: int, start: float) -> ReplicaFault:
    """A permanent crash of one replica at *start* (no self-recovery)."""
    return ReplicaFault(replica_index=replica_index, start=start, kind=CRASH)


def brownout_fault(
    replica_index: int, start: float, downtime: float, severity: float = 0.5
) -> ReplicaFault:
    """A gray failure: one replica runs at ``severity`` times its speed
    from *start* for *downtime* seconds, while staying in rotation."""
    return ReplicaFault(
        replica_index=replica_index, start=start, downtime=downtime,
        kind=BROWNOUT, severity=severity,
    )


@dataclass
class _DownCounts:
    """Per-replica count of overlapping drain outages."""

    counts: Dict[int, int] = field(default_factory=dict)

    def down(self, replica) -> None:
        key = id(replica)
        self.counts[key] = self.counts.get(key, 0) + 1
        replica.available = False

    def up(self, replica) -> None:
        key = id(replica)
        self.counts[key] = self.counts.get(key, 0) - 1
        if self.counts[key] <= 0 and not getattr(replica, "failed", False):
            replica.available = True


def install_faults(
    env,
    system,
    faults: Sequence[ReplicaFault],
    recorder: Optional[Callable[[float, str, str], None]] = None,
) -> None:
    """Schedule fault callbacks on *system*'s replicas.

    *recorder*, when given, is called as ``recorder(now, kind, name)``
    each time a fault fires — the hook the operations layer uses to stamp
    crash times into its event log.
    """
    counts = _DownCounts()
    recorder = recorder or (lambda now, kind, name: None)
    for fault in faults:
        replica = system.replicas[fault.replica_index]
        if fault.kind == CRASH:
            env.schedule(fault.start, _crash, env, replica, recorder)
        elif fault.kind == BROWNOUT:
            env.schedule(fault.start, _slow, env, replica,
                         fault.severity, recorder)
            env.schedule(fault.end, _restore, env, replica,
                         fault.severity, recorder)
        else:
            env.schedule(fault.start, _down, env, counts, replica, recorder)
            env.schedule(fault.end, _up, env, counts, replica, recorder)


def scale_replica_rates(replica, factor: float) -> None:
    """Multiply a replica's CPU and disk rates by *factor*.

    Multiplicative bookkeeping makes overlapping brownouts compose and
    restore exactly: each fault undoes its own factor, so the rates end
    the run bit-identical to how they started.  Only work submitted after
    the change is affected (both resource disciplines scale at submit),
    which is exactly a machine whose new requests run slow.
    """
    for resource in (replica.cpu, replica.disk):
        resource.rate *= factor


def _crash(env, replica, recorder) -> None:
    replica.crash()
    recorder(env.now, CRASH, replica.name)


def _slow(env, replica, severity, recorder) -> None:
    scale_replica_rates(replica, severity)
    recorder(env.now, BROWNOUT, replica.name)


def _restore(env, replica, severity, recorder) -> None:
    scale_replica_rates(replica, 1.0 / severity)
    recorder(env.now, "brownout-end", replica.name)


def _down(env, counts, replica, recorder) -> None:
    counts.down(replica)
    recorder(env.now, "down", replica.name)


def _up(env, counts, replica, recorder) -> None:
    counts.up(replica)
    recorder(env.now, "up", replica.name)
