"""Shared profiling context: measure once, predict many times.

Every figure needs the standalone profile of its workloads.  Profiling is
the expensive step (four simulation runs per workload), so results are
memoized per (workload, settings) within the process — mirroring how the
paper measures the standalone system once and reuses the numbers for every
prediction — and, when the scenario engine has a disk cache active,
persisted across processes so an interrupted ``repro reproduce`` resumes
incrementally instead of re-profiling.

The memo key is the engine's :func:`~repro.engine.cache.profile_key`: the
full workload spec plus the profiling parameters, so two distinct specs
can never collide even if they share a name.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.params import StandaloneProfile
from ..engine.cache import ResultCache, profile_key
from ..engine.scenario import ProfileTask, profile_task
from ..profiling.profiler import ProfilingReport, profile_standalone
from ..workloads.spec import WorkloadSpec
from .settings import ExperimentSettings

_cache: Dict[str, ProfilingReport] = {}

#: Disk cache the scenario engine currently has active (may be ``None``).
_disk: Optional[ResultCache] = None


def set_disk_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Install *cache* as the profiling disk cache; returns the previous
    one so callers can restore it (the engine scopes this per run)."""
    global _disk
    previous = _disk
    _disk = cache
    return previous


def peek_report(task: ProfileTask) -> Optional[ProfilingReport]:
    """The memoized report for *task*, if this process already has it."""
    return _cache.get(profile_key(task))


def seed_report(task: ProfileTask, report: ProfilingReport) -> None:
    """Record a report measured elsewhere (e.g. by a pool worker)."""
    _cache[profile_key(task)] = report


def resolve_profile_task(task: ProfileTask) -> ProfilingReport:
    """Measure *task* — or recall it from the memo or the disk cache."""
    key = profile_key(task)
    report = _cache.get(key)
    if report is not None:
        return report
    if _disk is not None:
        hit, value = _disk.get(key)
        if hit:
            _cache[key] = value
            return value
    report = profile_standalone(
        task.spec,
        seed=task.seed,
        replay_duration=task.replay_duration,
        mixed_duration=task.mixed_duration,
    )
    _cache[key] = report
    if _disk is not None:
        _disk.put(key, report)
    return report


def get_profiling_report(
    spec: WorkloadSpec, settings: ExperimentSettings
) -> ProfilingReport:
    """Profile *spec* on the standalone simulator (cached)."""
    return resolve_profile_task(profile_task(spec, settings))


def get_profile(spec: WorkloadSpec, settings: ExperimentSettings) -> StandaloneProfile:
    """The measured standalone profile for *spec* (cached)."""
    return get_profiling_report(spec, settings).profile


def clear_cache() -> None:
    """Drop all cached profiles (tests use this for isolation)."""
    _cache.clear()
