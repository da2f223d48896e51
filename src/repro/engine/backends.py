"""The execution pillars behind one table.

:data:`BACKENDS` maps a :class:`~repro.engine.scenario.SweepPoint`'s
backend name to the function that turns the point into a result:

* ``model`` — :func:`repro.models.api.predict`, fed only by a
  standalone profile;
* ``simulator`` — :func:`repro.simulator.runner.simulate`;
* ``cluster`` — :func:`repro.cluster.run_cluster`, real threads against
  real SI engines;
* ``autoscale`` — :func:`repro.control.autoscale.autoscale_sim` or
  ``autoscale_cluster`` (the point's ``pillar`` option picks), so a
  policy grid mixes cacheable simulator cells with live ones freely;
* ``profile`` — :func:`repro.profiling.profile_standalone`, the
  measurement step every model point depends on.

A point's options *are* the harness's keywords: each function splats
them, so a default is stated once, in the harness signature, and
:func:`accepted_options` is what the point builders validate against.
:func:`execute_point` is the single dispatch used by the sweep runner —
both inline and inside pool workers — so serial and parallel execution
are the same code path.
"""

from __future__ import annotations

import functools
import inspect

from ..cluster import run_cluster
from ..core.errors import ConfigurationError
from ..models.api import predict
from ..models.multimaster import MultiMasterOptions
from ..profiling.profiler import ProfilingReport, profile_standalone
from ..simulator.runner import simulate
from .scenario import AUTOSCALE, CLUSTER, MODEL, PROFILE, SIMULATOR, SweepPoint

#: What a harness is handed from the point itself, never from its options.
_CARRIED = frozenset({"spec", "config", "design", "seed", "profile"})


def _autoscale_harness(pillar: str):
    # Imported lazily: repro.control imports the simulator and the
    # cluster runtime, which must not load during engine import.
    from ..control.autoscale import autoscale_cluster, autoscale_sim

    return autoscale_cluster if pillar == CLUSTER else autoscale_sim


@functools.lru_cache(maxsize=None)
def accepted_options(backend: str, pillar: str = SIMULATOR) -> frozenset:
    """Option names a *backend* point may carry: the keywords of the
    harness it calls (computed once per harness).  Model points spell the
    one ``MultiMasterOptions`` field that has two real values as
    ``cw_mode``; the rest of ``predict``'s keywords come from the spec."""
    if backend == MODEL:
        return frozenset({"cw_mode", "partition_map", "certifier"})
    if backend == AUTOSCALE:
        names = set(inspect.signature(_autoscale_harness(pillar)).parameters)
        names.add("pillar")
    else:
        harness = {SIMULATOR: simulate, CLUSTER: run_cluster}.get(backend)
        # Profile points carry their task, not options.
        names = set(inspect.signature(harness).parameters) if harness else ()
    return frozenset(names) - _CARRIED


def _standalone_profile(profile: object):
    """Accept either a ProfilingReport or a bare StandaloneProfile."""
    if profile is None:
        raise ConfigurationError("model point has no resolved profile")
    if isinstance(profile, ProfilingReport):
        return profile.profile
    return profile


def _run_model(point: SweepPoint, profile: object = None):
    options = point.options_dict()
    cw_mode = options.pop("cw_mode", None)
    return predict(
        point.design,
        _standalone_profile(profile),
        point.config,
        mm_options=(
            None if cw_mode is None else MultiMasterOptions(cw_mode=cw_mode)
        ),
        cross_partition_fraction=point.spec.cross_partition_fraction,
        partition_weights=point.spec.partition_weights,
        partitions=point.spec.partitions,
        **options,
    )


def _run_simulator(point: SweepPoint, profile: object = None):
    return simulate(point.spec, point.config, design=point.design,
                    seed=point.seed, **point.options_dict())


def _run_cluster(point: SweepPoint, profile: object = None):
    return run_cluster(point.spec, point.config, design=point.design,
                       seed=point.seed, **point.options_dict())


def _run_autoscale(point: SweepPoint, profile: object = None):
    options = point.options_dict()
    return _autoscale_harness(options.pop("pillar", SIMULATOR))(
        point.spec,
        design=point.design,
        profile=None if profile is None else _standalone_profile(profile),
        seed=point.seed,
        config=point.config,
        **options,
    )


def _run_profile(point: SweepPoint, profile: object = None) -> ProfilingReport:
    task = point.profile
    return profile_standalone(
        task.spec,
        seed=task.seed,
        replay_duration=task.replay_duration,
        mixed_duration=task.mixed_duration,
    )


BACKENDS = {
    MODEL: _run_model,
    SIMULATOR: _run_simulator,
    CLUSTER: _run_cluster,
    PROFILE: _run_profile,
    AUTOSCALE: _run_autoscale,
}


def execute_point(point: SweepPoint, profile: object = None) -> object:
    """Run one sweep point on its backend (inline or in a pool worker)."""
    try:
        backend = BACKENDS[point.backend]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {point.backend!r}; one of {sorted(BACKENDS)}"
        ) from None
    return backend(point, profile)
