"""Ablation: one-step-lag conflict window (the paper's §4.1.1 scheme) vs a
converged per-population fixed point.

The paper notes its scheme "slightly underestimates the abort probability";
the converged fixed point confirms the bias is tiny at TPC-W abort rates.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_conflict_window_one_step_lag_vs_fixed_point(benchmark, settings):
    result = run_once(
        benchmark,
        lambda: run_scenario("ablation-conflict-window", settings,
                             jobs=1, cache=None),
    )
    print("\n" + result.to_text())
    for row in result.rows:
        # The lagged estimate never exceeds the converged one ...
        assert row.one_step_lag_abort <= row.fixed_point_abort * (1 + 1e-6)
        # ... and the two agree within 5% relative at TPC-W abort rates.
        if row.fixed_point_abort > 0:
            gap = (row.fixed_point_abort - row.one_step_lag_abort)
            assert gap / row.fixed_point_abort < 0.05
