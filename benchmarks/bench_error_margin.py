"""§6.2 headline claim: predictions within 15% of measurements.

Aggregates |predicted - measured| / measured over every point of the
throughput figures (6, 8, 10, 12) across both benchmarks and both designs.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_error_margin_within_paper_claim(benchmark, settings):
    result = run_once(
        benchmark,
        lambda: run_scenario("error-margin", settings, jobs=1, cache=None),
    )
    print("\n" + result.to_text())
    # The paper reports performance predictions within 15%.
    assert result.max_throughput_error < 0.15
    assert result.mean_throughput_error < 0.08
