"""Engine speedup benchmark: serial vs parallel wall-clock.

Runs one figure6-sized validation sweep (TPC-W, multi-master: every mix ×
replica count × {model, simulator} plus the standalone profiling runs)
twice from a cold cache — once with ``jobs=1`` and once fanned out over a
process pool — and records the wall-clock ratio.  Guards against future
serialization regressions (e.g. a point payload growing an unpicklable or
huge field, or the runner accidentally forcing a barrier): the parallel
artifact must be *identical* to the serial one, and on a multi-core
machine the sweep must actually get faster.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.engine import clear_memo, execute_points
from repro.experiments import ExperimentSettings, clear_cache
from repro.experiments.figures import assemble_sweep, sweep_points

#: Workers used for the parallel leg (the acceptance target is 4).
JOBS = min(4, os.cpu_count() or 1)


def _sweep_settings(fast_mode: bool) -> ExperimentSettings:
    if fast_mode:
        return ExperimentSettings.fast()
    # Fig06-sized: the full mix grid at the benchmark suite's counts.
    return ExperimentSettings(
        replica_counts=(1, 2, 4, 6, 8, 16),
        sim_warmup=10.0,
        sim_duration=45.0,
    )


def _timed_sweep(settings: ExperimentSettings, jobs: int):
    """Cold-run the sweep (profiling included) and time it."""
    clear_memo()
    clear_cache()
    points = sweep_points("tpcw", "multi-master", settings)
    started = time.perf_counter()
    results = execute_points(points, jobs=jobs)
    elapsed = time.perf_counter() - started
    return assemble_sweep(settings, points, results), elapsed


def test_engine_parallel_speedup(benchmark, fast_mode):
    settings = _sweep_settings(fast_mode)

    def both():
        serial_result, serial_s = _timed_sweep(settings, jobs=1)
        parallel_result, parallel_s = _timed_sweep(settings, jobs=JOBS)
        return serial_result, serial_s, parallel_result, parallel_s

    serial_result, serial_s, parallel_result, parallel_s = run_once(
        benchmark, both
    )
    ratio = serial_s / parallel_s if parallel_s > 0 else float("inf")
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["serial_s"] = round(serial_s, 2)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 2)
    benchmark.extra_info["speedup"] = round(ratio, 2)
    print(f"\nserial {serial_s:.1f}s vs jobs={JOBS} {parallel_s:.1f}s "
          f"-> speedup {ratio:.2f}x")

    # Parallel execution must not change the artifact.
    assert parallel_result == serial_result

    # On a machine with the cores to show it, the fan-out must pay off
    # (acceptance target: >= 2x at 4 workers; 1.5x here absorbs CI noise).
    if not fast_mode and JOBS >= 4:
        assert ratio >= 1.5
