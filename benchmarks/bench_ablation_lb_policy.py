"""Ablation: load-balancer routing policy vs the model's static partition.

The prototypes route each transaction to the least-loaded replica; the
analytical model assumes a static equal split of clients ("perfect load
balancing", §3.4).  Least-loaded routing cannot beat the static split on
throughput (capacity is capacity) but shortens response times at high
utilization — the main source of the response-time prediction error.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_lb_policy_vs_model(benchmark, settings):
    result = run_once(
        benchmark,
        lambda: run_scenario("ablation-lb-policy", settings,
                             jobs=1, cache=None),
    )
    print("\n" + result.to_text())
    by_policy = {row.policy: row for row in result.rows}
    # Throughput is routing-insensitive (within a few percent).
    throughputs = [r.measured_throughput for r in result.rows]
    assert max(throughputs) < 1.10 * min(throughputs)
    # Least-loaded routing achieves the best (or tied) response time.
    best = by_policy["least-loaded"].measured_response_time
    assert best <= by_policy["random"].measured_response_time * 1.02
