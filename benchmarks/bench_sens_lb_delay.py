"""§6.3.1 sensitivity: load-balancer and network delay.

The paper argues the ~1 ms LB/network delay is negligible; sweeping it to
10 ms moves predicted throughput by well under 1%.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_lb_delay_sensitivity(benchmark, settings):
    result = run_once(
        benchmark,
        lambda: run_scenario("sens-lb-delay", settings, jobs=1, cache=None),
    )
    print("\n" + result.to_text())
    # Sub-millisecond to 10 ms: predicted throughput moves < 1%.
    assert result.max_throughput_drop() < 0.01
    # Model and simulator agree at every probed delay.
    for row in result.rows:
        error = abs(row.predicted_throughput - row.measured_throughput)
        assert error / row.measured_throughput < 0.10
