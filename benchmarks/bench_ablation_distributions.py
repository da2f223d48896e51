"""Ablation: MVA's exponential-service assumption (§3.4, assumption 6).

The simulator draws deterministic and lognormal (CV=1) service demands
instead of exponential ones.  The processor-sharing CPU is insensitive to
the distribution and the disk load is moderate, so predictions hold up.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_service_distribution_sensitivity(benchmark, settings):
    result = run_once(
        benchmark,
        lambda: run_scenario("ablation-distributions", settings,
                             jobs=1, cache=None),
    )
    print("\n" + result.to_text())
    for row in result.rows:
        assert row.relative_error < 0.10
