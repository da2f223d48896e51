"""The shared sweep runner: execute any scenario on any pillar.

:func:`run_scenario` is the one API every experiment goes through:

1. build the scenario's point grid from the experiment settings and
   overlay the settings' run-wide options (:func:`scenario_points`);
2. resolve the distinct profiling runs the grid depends on (deduplicated,
   parallelised, cached — the paper's measure-once step);
3. execute every remaining point, satisfying what it can from the
   in-process memo and the on-disk result cache and fanning the misses out
   over a ``ProcessPoolExecutor`` when ``jobs > 1``;
4. hand the aligned results to the scenario's assemble step.

Determinism: every point carries its own explicit seed (derived from the
settings exactly as the old serial loops derived it) and is executed by the
same :func:`~repro.engine.backends.execute_point` dispatch whether inline
or in a worker, so serial, parallel, and cache-served runs produce
identical artifacts.  Failures inside workers are shipped back as text and
re-raised in the parent as :class:`~repro.core.errors.EngineError` carrying
the failed point's description, so a crashing sweep point always fails the
run (and the CLI exits non-zero) instead of hanging or being silently
dropped.  Inline execution (``jobs=1``) deliberately lets the original
library exception propagate unchanged — callers keep the exact exception
contracts (``ConfigurationError`` etc.) the pre-engine serial loops had.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import EngineError
from ..core.topology import TOPOLOGIES
from ..simulator.systems import RunOptions
from .backends import accepted_options, execute_point
from .cache import ResultCache, point_key, profile_key, resolve_cache
from .scenario import PROFILE, SIMULATOR, ProfileTask, Scenario, SweepPoint

#: In-process memo of completed points, keyed like the disk cache.  This is
#: what lets figure pairs that share a sweep (6/7, 8/9, ...) pay for it
#: once per process even with disk caching disabled.
_memo: Dict[str, object] = {}


@dataclass(frozen=True)
class PointTiming:
    """Wall-clock spent producing one sweep point (``repro scenarios
    --profile`` reads these to show where a scenario's time goes)."""

    description: str
    backend: str
    seconds: float
    #: True when the point was served from the memo or the disk cache.
    cached: bool


#: Per-point wall-clock, in completion order, scoped to one scenario run:
#: :func:`execute_points` clears it on entry, so the log never accumulates
#: across the many scenarios of a long-lived process (``repro
#: reproduce``, the test session).  For pool workers the time is measured
#: inside the worker, so it excludes queueing and pickling overhead.
_timings: List[PointTiming] = []


def point_timings() -> List[PointTiming]:
    """Timings of the most recent scenario run (see :data:`_timings`)."""
    return list(_timings)


def clear_point_timings() -> None:
    """Reset the per-point timing log (scoping it to one scenario)."""
    _timings.clear()


def clear_memo() -> None:
    """Drop all memoized point results (tests use this for isolation)."""
    _memo.clear()


def memo_size() -> int:
    """Number of memoized point results."""
    return len(_memo)


def default_jobs() -> int:
    """Worker count used when ``jobs`` is ``None``: one per CPU."""
    return os.cpu_count() or 1


def _describe(point: SweepPoint) -> str:
    what = point.backend
    if point.design:
        what += f"/{point.design}"
    return f"{what} {point.spec.name} N={point.replicas} seed={point.seed}"


def _pool_worker(payload: Tuple[int, SweepPoint, object]):
    """Execute one point in a worker; failures travel back as text."""
    index, point, profile = payload
    started = time.perf_counter()
    try:
        result = execute_point(point, profile)
        return index, True, result, time.perf_counter() - started
    except Exception as exc:  # noqa: BLE001 — shipped to the parent
        detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        return index, False, detail, time.perf_counter() - started


def _record_timing(point: SweepPoint, seconds: float, cached: bool) -> None:
    _timings.append(PointTiming(
        description=_describe(point), backend=point.backend,
        seconds=seconds, cached=cached,
    ))


def _run_batch(
    payloads: List[Tuple[int, SweepPoint, object]],
    jobs: int,
    on_result: Callable[[int, object], None],
) -> None:
    """Run payloads inline (jobs==1) or over a process pool."""
    if not payloads:
        return
    if jobs <= 1 or len(payloads) == 1:
        for index, point, profile in payloads:
            started = time.perf_counter()
            result = execute_point(point, profile)
            _record_timing(point, time.perf_counter() - started, False)
            on_result(index, result)
        return
    workers = min(jobs, len(payloads))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_pool_worker, payload): payload
                   for payload in payloads}
        try:
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index, ok, value, seconds = future.result()
                    point = futures[future][1]
                    if not ok:
                        raise EngineError(
                            f"sweep point failed in worker "
                            f"[{_describe(point)}]:\n{value}",
                            point=point,
                        )
                    _record_timing(point, seconds, False)
                    on_result(index, value)
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise


def _resolve_profiles(
    points: Sequence[SweepPoint],
    jobs: int,
    cache: Optional[ResultCache],
) -> Dict[str, object]:
    """Measure (or recall) every distinct profiling run the grid needs."""
    from ..experiments import context

    tasks: Dict[str, ProfileTask] = {}
    for point in points:
        if isinstance(point.profile, ProfileTask):
            tasks.setdefault(profile_key(point.profile), point.profile)

    resolved: Dict[str, object] = {}
    missing: List[Tuple[str, ProfileTask]] = []
    for key, task in tasks.items():
        report = context.peek_report(task)
        if report is None and cache is not None:
            hit, value = cache.get(key)
            if hit:
                report = value
        if report is None:
            missing.append((key, task))
        else:
            resolved[key] = report
            context.seed_report(task, report)

    if missing:
        payloads = [
            (i, SweepPoint(backend=PROFILE, spec=task.spec, seed=task.seed,
                           profile=task), None)
            for i, (_, task) in enumerate(missing)
        ]

        def record(index: int, report: object) -> None:
            key, task = missing[index]
            resolved[key] = report
            context.seed_report(task, report)
            if cache is not None:
                cache.put(key, report)

        _run_batch(payloads, jobs, record)
    return resolved


def execute_points(
    points: Sequence[SweepPoint],
    *,
    jobs: Optional[int] = 1,
    cache: object = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[object]:
    """Execute a point grid; returns results aligned with *points*.

    ``jobs=None`` uses one worker per CPU; ``cache`` accepts anything
    :func:`repro.engine.cache.resolve_cache` does.  Points already present
    in the in-process memo or the disk cache are served without running.
    """
    clear_point_timings()  # scope the per-point timing log to this run
    disk = resolve_cache(cache)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    points = list(points)
    profiles = _resolve_profiles(points, jobs, disk)

    def profile_for(point: SweepPoint) -> object:
        if isinstance(point.profile, ProfileTask):
            return profiles[profile_key(point.profile)]
        return point.profile

    results: List[object] = [None] * len(points)
    pending: List[Tuple[int, SweepPoint, object]] = []
    keys: Dict[int, str] = {}
    for i, point in enumerate(points):
        if point.backend == PROFILE:
            results[i] = profiles[profile_key(point.profile)]
            continue
        key = point_key(point)
        keys[i] = key
        if point.cacheable and key in _memo:
            results[i] = _memo[key]
            _record_timing(point, 0.0, True)
            continue
        if point.cacheable and disk is not None:
            hit, value = disk.get(key)
            if hit:
                results[i] = value
                _memo[key] = value
                _record_timing(point, 0.0, True)
                continue
        pending.append((i, point, profile_for(point)))

    if progress is not None and points:
        served = len(points) - len(pending)
        progress(f"{len(points)} points: {served} cached, "
                 f"{len(pending)} to run (jobs={jobs})")

    def record(index: int, value: object) -> None:
        results[index] = value
        point = points[index]
        if point.cacheable:
            _memo[keys[index]] = value
            if disk is not None:
                disk.put(keys[index], value)

    _run_batch(pending, jobs, record)
    return results


#: Run-wide options :class:`~repro.experiments.settings.ExperimentSettings`
#: may carry, and the designs each is limited to (empty: any) — a
#: certifier only where the topology has a certifier axis.  Which
#: backends take one is not restated here: it is whether the harness
#: behind the point has the keyword.
RUN_WIDE = {"telemetry": (),
            "certifier": tuple(design for design, topology
                               in TOPOLOGIES.items() if topology.certifier_axis),
            "capacity_source": ()}


def check_point(point: SweepPoint) -> None:
    """Validate the run-wide options overlaid on *point* the way its
    harness will (:meth:`~repro.simulator.systems.RunOptions.validate`),
    so an unsupported combination fails before the first point of a grid
    runs rather than in the middle of it."""
    from ..control.estimator import resolve_capacity_source

    if point.option("certifier") is not None:
        RunOptions(point.design, certifier=point.option("certifier")
                   ).validate(point.spec, point.config)
    resolve_capacity_source(point.option("capacity_source"))


def apply_run_wide(scenario: Scenario, settings,
                   points: List[SweepPoint]) -> List[SweepPoint]:
    """Overlay the settings' run-wide options onto every point that can
    take them — the harness has the keyword, the design is allowed, the
    scenario does not sweep the axis itself (``Scenario.owns``) and the
    point did not set it — then validate the grid.  Settings that carry
    none return *points* untouched."""
    wanted = {name: getattr(settings, name) for name in RUN_WIDE
              if name not in scenario.owns
              and getattr(settings, name) is not None}
    if not wanted:
        return points
    overlaid = []
    for point in points:
        accepted = accepted_options(point.backend,
                                    point.option("pillar", SIMULATOR))
        extra = tuple(
            (name, value) for name, value in wanted.items()
            if name in accepted and point.option(name) is None
            and (not RUN_WIDE[name] or point.design in RUN_WIDE[name])
        )
        if extra:
            point = replace(point, options=tuple(sorted(point.options + extra)))
        check_point(point)
        overlaid.append(point)
    return overlaid


def scenario_points(
    scenario: Union[str, Scenario], settings, *, cache: object = None,
) -> List[SweepPoint]:
    """The grid *scenario* runs under *settings*: its declared points
    with the settings' run-wide options overlaid.  The disk cache (if
    any) is visible to profiling done while the grid is being built, so
    interrupted runs resume incrementally."""
    from ..experiments import context
    from .registry import get_scenario

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    previous = context.set_disk_cache(resolve_cache(cache))
    try:
        points = list(scenario.points(settings))
    finally:
        context.set_disk_cache(previous)
    return apply_run_wide(scenario, settings, points)


def run_scenario(
    scenario: Union[str, Scenario],
    settings=None,
    *,
    jobs: Optional[int] = 1,
    cache: object = None,
    progress: Optional[Callable[[str], None]] = None,
):
    """Build, execute, and assemble one scenario; returns its artifact.

    *scenario* is a :class:`~repro.engine.scenario.Scenario` or its
    canonical registry name.  Callers that need the raw per-point results
    (the CLI reads audit and convergence verdicts off them) run the three
    steps themselves: :func:`scenario_points`, :func:`execute_points`,
    ``scenario.assemble``.
    """
    from ..experiments.settings import ExperimentSettings
    from .registry import get_scenario

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if settings is None:
        settings = ExperimentSettings()
    disk = resolve_cache(cache)
    points = scenario_points(scenario, settings, cache=disk)
    results = execute_points(points, jobs=jobs, cache=disk, progress=progress)
    return scenario.assemble(settings, points, results)
