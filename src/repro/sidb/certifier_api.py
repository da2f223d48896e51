"""The certification seam: protocol, outcome, and deployment spec.

Every component that *uses* certification — the SI engine
(:mod:`repro.sidb.engine`), the simulator assemblies
(:mod:`repro.simulator.systems`), and the live cluster runtime
(:mod:`repro.cluster.cluster`) — depends on :class:`CertifierProtocol`,
not on a concrete class.  Two implementations satisfy it:

* :class:`~repro.sidb.certifier.GlobalCertifier` — one service, one
  global commit-version sequence (the paper's design, and the default);
* :class:`~repro.sidb.sharded.ShardedCertifier` — partition-local
  certifier shards, each owning certification and version assignment
  for its partition, coordinated for cross-partition transactions by
  certification-forwarding to a deterministic home shard.

Which one a run gets is described by :class:`CertifierSpec`, a frozen
dataclass that rides the engine cache key exactly like
:class:`~repro.telemetry.TelemetryConfig`: the default spec drops out
of sweep-point options entirely, so every pre-existing cache entry
stays byte-identical.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import FrozenSet, Optional, Protocol, Tuple, runtime_checkable

from ..core.errors import ConfigurationError

#: Certifier deployment kinds selectable on the scenario surface.
GLOBAL = "global"
SHARDED = "sharded"
CERTIFIER_KINDS = (GLOBAL, SHARDED)


@dataclass(frozen=True)
class CertificationOutcome:
    """Result of certifying one writeset."""

    committed: bool
    #: Commit version assigned on success; -1 on abort.  On the sharded
    #: path this is the *home shard's* version (the coordinator's
    #: decision point); the full assignment is :attr:`shard_versions`.
    commit_version: int
    #: Keys that conflicted on failure (empty on success).
    conflicting_keys: FrozenSet[object] = frozenset()
    #: Per-shard versions assigned on the sharded path: sorted
    #: ``(partition, version)`` pairs.  Empty on the global path and on
    #: aborts, so the global certifier's outcomes are unchanged.
    shard_versions: Tuple[Tuple[int, int], ...] = ()

    @property
    def home_shard(self) -> Optional[int]:
        """The coordinating shard of a sharded commit (``None`` on the
        global path: there is only one version sequence)."""
        if not self.shard_versions:
            return None
        return self.shard_versions[0][0]


@runtime_checkable
class CertifierProtocol(Protocol):
    """What the engine, simulator, and cluster require of a certifier.

    Implementations must make :meth:`certify` atomic (check + version
    assignment under internal locking, re-entrant with respect to the
    callers' own ordering locks), keep the statistics counters
    monotone between :meth:`reset_statistics` calls, and treat
    :attr:`telemetry` as an optional post-construction hook.
    """

    certifications: int
    commits: int
    aborts: int
    telemetry: object

    @property
    def latest_version(self) -> int:
        """The version clock: latest assigned commit version (global),
        or the sum of the shard clocks (sharded)."""
        ...

    @property
    def history_size(self) -> int:
        """Writesets currently retained for conflict checks."""
        ...

    def certify(self, writeset) -> CertificationOutcome:
        """Certify one writeset and assign its version(s) on success."""
        ...

    def observe_snapshot(self, oldest_active_snapshot) -> None:
        """Prune history no active snapshot can conflict with."""
        ...

    @property
    def abort_fraction(self) -> float:
        """Observed abort fraction over all certifications so far."""
        ...

    def reset_statistics(self) -> None:
        """Zero the counters (used at the end of a warm-up period)."""
        ...


class UnknownCertifierError(ConfigurationError):
    """A certifier kind that is not in :data:`CERTIFIER_KINDS`.

    Mirrors :class:`repro.engine.registry.UnknownScenarioError`: carries
    close-match ``suggestions`` so the CLI can say "did you mean ...?"
    and exit 2 instead of dumping a traceback.
    """

    def __init__(self, kind: str, suggestions: Tuple[str, ...] = ()) -> None:
        message = f"unknown certifier {kind!r}"
        if suggestions:
            message += "; did you mean " + " or ".join(suggestions) + "?"
        known = ", ".join(CERTIFIER_KINDS)
        message += f" (known certifiers: {known})"
        super().__init__(message)
        self.kind = kind
        self.suggestions = suggestions


def _check_kind(kind: str) -> None:
    if kind in CERTIFIER_KINDS:
        return
    key = str(kind).strip().lower()
    suggestions = tuple(
        difflib.get_close_matches(key, CERTIFIER_KINDS, n=3, cutoff=0.5)
    )
    raise UnknownCertifierError(kind, suggestions)


@dataclass(frozen=True)
class CertifierSpec:
    """How a run deploys its certifier (frozen: a cache-key citizen).

    ``service_time`` is the per-certification occupancy of one certifier
    service in seconds: the certifier stops being an infinite-capacity
    pure delay and becomes a real service center — one center total on
    the global path, one per shard on the sharded path (which is where
    sharding's throughput win comes from).  ``0.0``, the default, keeps
    the pure-delay behaviour byte-identical to the pre-spec code.
    """

    kind: str = GLOBAL
    service_time: float = 0.0

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        if self.service_time < 0.0:
            raise ConfigurationError(
                f"certifier service_time must be >= 0, got {self.service_time}"
            )

    @property
    def is_default(self) -> bool:
        """True for the spec that must not perturb cache keys."""
        return self.kind == GLOBAL and self.service_time == 0.0

    @property
    def is_sharded(self) -> bool:
        return self.kind == SHARDED


def resolve_certifier_spec(value) -> Optional[CertifierSpec]:
    """Normalise a ``certifier`` argument to a spec or ``None``.

    Accepts ``None`` (the global default, dropping out of cache keys),
    a kind name (``"global"`` / ``"sharded"``), or a
    :class:`CertifierSpec`.  Unknown kinds raise
    :class:`UnknownCertifierError` with did-you-mean suggestions.
    """
    if value is None:
        return None
    if isinstance(value, CertifierSpec):
        return value
    if isinstance(value, str):
        key = value.strip().lower()
        _check_kind(key)
        return CertifierSpec(kind=key)
    raise ConfigurationError(
        f"certifier must be None, a kind name, or a CertifierSpec, "
        f"not {type(value).__name__}"
    )


def shard_version_key(shard: int, version: int) -> str:
    """The telemetry key of one per-shard version.

    Per-shard sequences all start at 1, so raw integers collide across
    shards; the tracer's version→trace map, commit-time table, and
    apply spans key sharded versions with this string instead (the
    global path keeps plain integers, preserving its telemetry output
    byte for byte).
    """
    return f"s{shard}v{version}"
