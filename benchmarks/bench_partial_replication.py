"""Benchmark: partial replication across both execution pillars.

Regenerates the partition scenarios through the engine and asserts the
headline placement claims:

* at update-heavy workloads, partial replication's peak throughput is at
  least full replication's — on the deterministic simulator AND the live
  cluster runtime — because writesets propagate only to hosting replicas
  (the ``(N-1) * Pw * ws`` ceiling of §3.3.2 becomes ``(h-1) * Pw * ws``);
* scoped propagation loses and duplicates nothing: every live replica
  converges to the identical final version, equal to the certifier's
  commit count;
* the partition-aware analytical model tracks the partial-replication
  simulator inside the cross-validation envelope;
* weight-balanced placement planning beats a weight-oblivious ring on a
  skewed partition popularity.
"""

from __future__ import annotations

from conftest import run_once

from repro.engine import run_scenario
from repro.partition.scenarios import WRITE_FRACTIONS


def test_partial_beats_full_simulator(benchmark, settings, fast_mode):
    """Partial >= full peak throughput, model inside the envelope (sim)."""
    report = run_once(
        benchmark,
        lambda: run_scenario("partial-replication-sweep", settings, jobs=1,
                             cache=None),
    )
    print("\n" + report.to_text())
    heavy = report.row_for(max(WRITE_FRACTIONS))
    assert heavy is not None
    # The placement claim, with real head-room at the update-heavy end:
    # a factor-2 ring on a 6-replica fleet cuts the propagation fan-in
    # from 5 to ~1.1, and the saturated full-replication cell pays it.
    assert heavy.sim_partial.throughput >= heavy.sim_full.throughput
    if not fast_mode:
        assert heavy.speedup >= 1.10
    # Monotone cost of replication breadth: partial never loses at any
    # swept update fraction.
    for row in report.rows:
        assert row.sim_partial.throughput >= 0.98 * row.sim_full.throughput
    # The partition-aware model tracks the partial-replication simulator
    # within the crossval envelope (25% smoke, 15% at full settings).
    for row in report.rows:
        assert row.model_vs_sim_deviation < 0.25, (
            f"Pw={row.write_fraction}: {row.model_vs_sim_deviation:.1%}"
        )
        if not fast_mode:
            assert row.model_vs_sim_deviation < 0.15


def test_partial_beats_full_live_cluster(benchmark, settings, fast_mode):
    """The same claim live, plus zero lost/duplicated writesets."""
    report = run_once(
        benchmark,
        lambda: run_scenario("partial-replication-sweep-live", settings,
                             jobs=1, cache=None),
    )
    print("\n" + report.to_text())
    full = report.cell("full")
    partial = report.cell("partial")
    assert full is not None and partial is not None
    # Peak throughput: scoped propagation wins on real threads too.
    assert partial.throughput >= full.throughput
    # Zero lost or duplicated committed writesets under partition-scoped
    # routing and propagation: every replica converged to the identical
    # final version, and that version equals the certifier's commit
    # count (each commit produced exactly one installed version).
    for result in (full, partial):
        assert result.state_converged
        commits = (result.total_certifications
                   - result.total_certification_aborts)
        assert set(result.final_versions) == {commits}


def test_placement_ablation(benchmark, settings, fast_mode):
    """Weight-balanced placement beats the oblivious ring under skew."""
    report = run_once(
        benchmark,
        lambda: run_scenario("placement-ablation", settings, jobs=1,
                             cache=None),
    )
    print("\n" + report.to_text())
    balanced = report.cell("weight-balanced")
    oblivious = report.cell("ring-oblivious")
    assert balanced is not None and oblivious is not None
    # Routing feedback can re-balance client work, but writeset
    # application is pinned to the hosts — the planner's win.
    assert balanced.throughput >= oblivious.throughput
    assert balanced.response_time <= 1.05 * oblivious.response_time
    if not fast_mode:
        assert balanced.throughput >= 1.10 * oblivious.throughput
    # The planner rendered its placement into the artifact.
    assert "imbalance" in report.notes[-1]


def test_placement_ablation_live(benchmark, settings, fast_mode):
    """Live validation: balanced placement at least matches the ring."""
    report = run_once(
        benchmark,
        lambda: run_scenario("placement-ablation-live", settings, jobs=1,
                             cache=None),
    )
    print("\n" + report.to_text())
    balanced = report.cell("weight-balanced")
    oblivious = report.cell("ring-oblivious")
    assert balanced is not None and oblivious is not None
    for result in (balanced, oblivious):
        assert result.state_converged
    # Thread-scheduling noise gets a small allowance; the signal is
    # one-sided (balanced never loses meaningfully).
    assert balanced.throughput >= 0.95 * oblivious.throughput
