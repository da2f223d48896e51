"""Declarative scenarios: the unit of work of the sweep engine.

A :class:`Scenario` says *what* to run — a grid of
(:class:`~repro.workloads.spec.WorkloadSpec` ×
:class:`~repro.core.params.ReplicationConfig` × sweep axes) points, each
tagged with the execution pillar (*backend*) that should produce it — and
how to assemble the per-point results into the finished artifact (a figure,
a table, an ablation row set).  It says nothing about *how* the points are
executed: :func:`repro.engine.runner.run_scenario` may run them serially,
fan them out over a process pool, or satisfy them from the result cache,
and the assembled artifact is identical in every case.

Every point is a self-contained, picklable description: the workload spec
and replication config ride along by value, the seed is explicit (derived
from the experiment settings exactly as the old serial loops derived it),
and model points name the standalone profile they need either as a
:class:`ProfileTask` (measure it — the engine deduplicates and caches) or
as a literal :class:`~repro.core.params.StandaloneProfile`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.params import ReplicationConfig
from ..core.rng import DEFAULT_SEED
from ..workloads.spec import WorkloadSpec

#: Execution pillars a sweep point can run on.
MODEL = "model"
SIMULATOR = "simulator"
CLUSTER = "cluster"
PROFILE = "profile"
#: Autoscale points carry their pillar (simulator/cluster) as an option.
AUTOSCALE = "autoscale"
BACKENDS = (MODEL, SIMULATOR, CLUSTER, PROFILE, AUTOSCALE)

#: Scenario kinds used for grouping in ``repro scenarios``.  Each kind is
#: also an implicit tag for ``repro scenarios --tag``.
KINDS = ("figure", "table", "sensitivity", "ablation", "extension",
         "crossval", "autoscale", "ops", "partition")


@dataclass(frozen=True)
class ProfileTask:
    """A standalone profiling run a model point depends on.

    Keyed by content: two points naming the same task share one profiling
    run (and one cache entry), mirroring the paper's measure-once,
    predict-many-times methodology.
    """

    spec: WorkloadSpec
    seed: int
    replay_duration: float
    mixed_duration: float


@dataclass(frozen=True)
class SweepPoint:
    """One executable point of a scenario's sweep grid."""

    #: Which pillar produces this point (``model`` | ``simulator`` |
    #: ``cluster`` | ``profile``).
    backend: str
    spec: WorkloadSpec
    #: Deployment the point runs (``None`` only for profile points).
    config: Optional[ReplicationConfig] = None
    #: System design (``multi-master`` | ``single-master`` | ``standalone``).
    design: str = ""
    seed: int = DEFAULT_SEED
    #: The keywords of the harness the backend calls, as a sorted tuple
    #: (stable cache keys); see :func:`_freeze_options`.
    options: Tuple[Tuple[str, object], ...] = ()
    #: Standalone profile dependency: a :class:`ProfileTask` to measure, a
    #: literal :class:`~repro.core.params.StandaloneProfile`, or ``None``.
    profile: object = None
    #: Free-form label used by the scenario's assemble step; not part of
    #: the cache key, so figures sharing a sweep share cached results.
    tag: str = ""
    #: Disk/memo caching eligibility (live-cluster points opt out: they
    #: measure wall-clock behaviour and should never be replayed stale).
    cacheable: bool = True

    @property
    def replicas(self) -> int:
        """Replica count of the point's deployment (1 for profile points)."""
        return 1 if self.config is None else self.config.replicas

    def option(self, name: str, default: object = None) -> object:
        """Look up one backend option."""
        for key, value in self.options:
            if key == name:
                return value
        return default

    def options_dict(self) -> Dict[str, object]:
        """The backend options as a plain dict."""
        return dict(self.options)


#: The comparisons a claim's bound may use.
_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge, "==": operator.eq}
#: A claim's verdict when it applies: the bound holds or it does not.
HOLDS = "holds"
BROKEN = "BROKEN"


@dataclass(frozen=True)
class ClaimRow:
    """One judged claim, as ``repro run`` and ``repro reproduce`` print it.

    *verdict* is :data:`HOLDS`, :data:`BROKEN` or ``not checked: <what
    the run lacks>``; *value* is ``None`` only when the artifact lacks
    the point the claim reads.
    """

    scenario: str
    source: str
    statement: str
    value: Optional[float]
    bound: str
    verdict: str


@dataclass(frozen=True)
class Claim:
    """One statement of the paper that a scenario's artifact must bear out.

    *value* maps the assembled artifact to the number the claim bounds;
    *bound* is one comparison or two joined by ``and``, e.g. ``"< 0.15"``
    or ``"> 100 and < 200"``.  The claim applies only to a run that holds
    what it reads: every replica count in *replicas* on the grid and a
    simulated measurement window of at least *window* seconds (saturated
    points need a long window to reach their steady-state mix).
    """

    #: Where the paper makes the claim: a section, figure or table.
    source: str
    statement: str
    value: Callable[[object], float]
    bound: str
    replicas: Tuple[int, ...] = ()
    window: float = 0.0

    def __post_init__(self) -> None:
        self._comparisons()  # a malformed bound fails at declaration

    def _comparisons(self) -> List[Tuple[Callable, float]]:
        comparisons = []
        for part in self.bound.split(" and "):
            op, limit = part.split()
            comparisons.append((_COMPARISONS[op], float(limit)))
        return comparisons

    def judge(self, scenario: str, settings, artifact) -> ClaimRow:
        """The claim's row for *artifact*, which *settings* produced."""
        absent = [n for n in self.replicas if n not in settings.replica_counts]
        value = None if absent else float(self.value(artifact))
        if absent:
            verdict = f"not checked: needs N={', '.join(map(str, absent))}"
        elif settings.sim_duration < self.window:
            verdict = (f"not checked: needs a {self.window:g} s window "
                       f"(ran {settings.sim_duration:g} s)")
        elif all(compare(value, limit)
                 for compare, limit in self._comparisons()):
            verdict = HOLDS
        else:
            verdict = BROKEN
        return ClaimRow(scenario, self.source, self.statement, value,
                        self.bound, verdict)


@dataclass(frozen=True)
class Scenario:
    """A declarative experiment: a point grid plus an assembly step."""

    #: Canonical registry name, e.g. ``"figure6"``.
    name: str
    #: Human-readable title shown by ``repro scenarios``.
    title: str
    #: Grouping kind (one of :data:`KINDS`).
    kind: str
    #: ``points(settings) -> [SweepPoint, ...]`` — builds the sweep grid.
    points: Callable[[object], Sequence[SweepPoint]]
    #: ``assemble(settings, points, results) -> artifact`` — *results* is
    #: aligned index-for-index with *points*.
    assemble: Callable[[object, Sequence[SweepPoint], Sequence[object]], object]
    #: Extra filter tags for ``repro scenarios --tag`` (the kind is
    #: always an implicit tag; ``live`` marks cluster-backed cells).
    tags: Tuple[str, ...] = ()
    #: Run-wide options (``telemetry`` | ``certifier`` |
    #: ``capacity_source``) this scenario sweeps itself; the engine's
    #: settings overlay leaves them alone on every point.
    owns: Tuple[str, ...] = ()
    #: What the paper says the artifact shows; judged by the CLI after
    #: the run (:meth:`judge`), never by the engine.
    claims: Tuple[Claim, ...] = ()

    def judge(self, settings, artifact) -> List[ClaimRow]:
        """One row per claim on *artifact*, which *settings* produced."""
        return [claim.judge(self.name, settings, artifact)
                for claim in self.claims]

    @property
    def all_tags(self) -> Tuple[str, ...]:
        """The kind plus any explicit tags, deduplicated and sorted."""
        return tuple(sorted({self.kind, *self.tags}))


def _freeze_options(
    backend: str, options: Dict[str, object], pillar: str = SIMULATOR
) -> Tuple[Tuple[str, object], ...]:
    """The one freeze rule every point builder shares.

    A point's options are the keywords of the harness its backend calls
    (:func:`repro.engine.backends.accepted_options`); a name the harness
    does not take is a :class:`ConfigurationError` here, when the point is
    built, not a ``TypeError`` in a pool worker.  ``None`` — every
    harness's spelling of "not set" — and an empty fault schedule drop
    out, so a run that names an option at its default keys exactly like
    one that never mentions it and old cache keys survive new options.
    Lists become tuples (hashable, stable ``repr``).
    """
    from .backends import accepted_options  # backends imports this module

    frozen = tuple(sorted(
        (name, tuple(value) if isinstance(value, list) else value)
        for name, value in options.items()
        if value is not None and not (name == "faults" and not value)
    ))
    accepted = accepted_options(backend, pillar)
    unknown = [name for name, _ in frozen if name not in accepted]
    if unknown:
        raise ConfigurationError(
            f"{backend} points take no option {unknown}; the harness "
            f"accepts {sorted(accepted)}"
        )
    return frozen


def profile_task(spec: WorkloadSpec, settings) -> ProfileTask:
    """The profiling run *settings* prescribes for *spec*."""
    return ProfileTask(
        spec=spec,
        seed=settings.seed,
        replay_duration=settings.profile_duration,
        mixed_duration=settings.profile_mixed_duration,
    )


def profile_point(spec: WorkloadSpec, settings, tag: str = "") -> SweepPoint:
    """A point whose result is the workload's :class:`ProfilingReport`."""
    return SweepPoint(
        backend=PROFILE,
        spec=spec,
        seed=settings.seed,
        profile=profile_task(spec, settings),
        tag=tag,
    )


def _point(backend: str, spec, config, design: str, options: Dict[str, object],
           pillar: str = SIMULATOR, **fields) -> SweepPoint:
    live = CLUSTER in (backend, pillar)
    return SweepPoint(
        backend=backend, spec=spec, config=config, design=design,
        options=_freeze_options(backend, options, pillar),
        cacheable=not live, **fields,
    )


def model_point(spec: WorkloadSpec, config: ReplicationConfig, design: str, *,
                profile: object, tag: str = "", **options) -> SweepPoint:
    """An analytical-model prediction point; *options* are ``cw_mode``
    plus the :func:`repro.models.api.predict` keywords the workload spec
    does not already fix (``partition_map``, ``certifier``)."""
    return _point(MODEL, spec, config, design, options, profile=profile, tag=tag)


def sim_point(spec: WorkloadSpec, config: ReplicationConfig, design: str, *,
              seed: int, warmup: float, duration: float,
              distribution: str = "exponential",
              lb_policy: str = "least-loaded",
              tag: str = "", **options) -> SweepPoint:
    """A discrete-event-simulator measurement point; *options* are the
    remaining :func:`repro.simulator.runner.simulate` keywords."""
    return _point(SIMULATOR, spec, config, design, dict(
        options, warmup=warmup, duration=duration,
        distribution=distribution, lb_policy=lb_policy,
    ), seed=seed, tag=tag)


def cluster_point(spec: WorkloadSpec, config: ReplicationConfig, design: str, *,
                  seed: int, warmup: float, duration: float, time_scale: float,
                  distribution: str = "exponential",
                  lb_policy: str = "least-loaded",
                  tag: str = "", **options) -> SweepPoint:
    """A live-cluster execution point (never cached: it measures real
    wall-clock behaviour, which must not be replayed stale); *options*
    are the remaining :func:`repro.cluster.run_cluster` keywords."""
    return _point(CLUSTER, spec, config, design, dict(
        options, warmup=warmup, duration=duration, time_scale=time_scale,
        distribution=distribution, lb_policy=lb_policy,
    ), seed=seed, tag=tag)


def autoscale_point(spec: WorkloadSpec, config: ReplicationConfig, design: str, *,
                    seed: int, trace: object, policy: object,
                    slo_response: float, warmup: float, duration: float,
                    control_interval: float, pillar: str = SIMULATOR,
                    time_scale: float = 0.25, min_replicas: int = 1,
                    max_replicas: int = 16, transfer_writesets: int = 16,
                    profile: object = None, tag: str = "",
                    **options) -> SweepPoint:
    """An autoscale-run point: a trace × controller policy × design cell.

    *trace*, *policy* and the optional ``ops`` plan are frozen
    dataclasses whose stable ``repr`` makes them cache-key citizens like
    every other point input.  ``pillar`` picks the elastic harness
    (:func:`~repro.control.autoscale.autoscale_sim` or
    ``autoscale_cluster``; *options* are its remaining keywords):
    simulator points are deterministic and cacheable, live-cluster
    points measure wall-clock behaviour, carry ``time_scale`` and are
    not.
    """
    return _point(AUTOSCALE, spec, config, design, dict(
        options, trace=trace, policy=policy, slo_response=slo_response,
        warmup=warmup, duration=duration, control_interval=control_interval,
        pillar=pillar, time_scale=time_scale if pillar == CLUSTER else None,
        min_replicas=min_replicas, max_replicas=max_replicas,
        transfer_writesets=transfer_writesets,
    ), pillar, seed=seed, profile=profile, tag=tag)
