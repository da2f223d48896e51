"""Shared fixtures for the benchmark suite.

The paper's claims are not judged here: each scenario declares them
(:class:`repro.engine.Claim`) and ``repro reproduce`` judges every one,
exiting 1 on a broken claim.  What stays in this suite measures what
neither those claims nor the performance ledger (``benchmarks/ledger``)
do: overheads, recovery floors, dominance margins, the four design
ablations and the product-form grid.  ``pytest-benchmark`` times each
run once (``run_once``).

Every benchmark that runs scenarios drives the shared engine
(:mod:`repro.engine`); ``bench_engine_speedup`` additionally times one
sweep serial vs fanned out over a process pool.

Set ``REPRO_BENCH_FAST=1`` to run a cut-down sweep (fewer replica counts,
shorter windows) for smoke-testing the harness itself.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.settings import ExperimentSettings


def _settings() -> ExperimentSettings:
    if os.environ.get("REPRO_BENCH_FAST"):
        return ExperimentSettings.fast()
    # Longer windows than the defaults: saturated single-master points need
    # the measurement window to dwarf the multi-second write response times,
    # or the committed mix is transiently read-biased (the claims that read
    # them need a 60 s window: repro.experiments.figures.SATURATED_WINDOW).
    return ExperimentSettings(
        replica_counts=(1, 2, 4, 6, 8, 16),
        sim_warmup=25.0,
        sim_duration=90.0,
    )


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Experiment fidelity used by every benchmark in the session."""
    return _settings()


@pytest.fixture(scope="session")
def fast_mode() -> bool:
    """Whether the cut-down sweep is active (shortens live runs)."""
    return bool(os.environ.get("REPRO_BENCH_FAST"))


def run_once(benchmark, fn):
    """Time *fn* exactly once (experiments are deterministic and heavy)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
