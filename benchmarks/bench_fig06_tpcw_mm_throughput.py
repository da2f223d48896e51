"""Figure 6: TPC-W throughput on the multi-master system.

Paper shape: browsing scales almost linearly (22 -> 347 tps, 15.7x at 16
replicas); ordering starts higher (45 tps — updates are cheaper than reads)
but writeset propagation limits it to ~6.7x; predictions track measurements
within 15%.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_figure6_tpcw_mm_throughput(benchmark, settings, fast_mode):
    figure = run_once(
        benchmark,
        lambda: run_scenario("figure6", settings, jobs=1, cache=None),
    )
    print("\n" + figure.to_text())

    browsing = figure.series["browsing"].measured_curve()
    ordering = figure.series["ordering"].measured_curve()
    top = max(settings.replica_counts)

    # Ordering starts above browsing at one replica: read-only transactions
    # are more expensive than updates in TPC-W (§6.2.1).
    assert ordering.point_at(1).throughput > browsing.point_at(1).throughput

    if not fast_mode:
        # Browsing: near-linear speedup; ordering: writeset-bound.
        browsing_speedup = browsing.speedup()[-1]
        ordering_speedup = ordering.speedup()[-1]
        assert browsing_speedup > 0.8 * top
        assert ordering_speedup < 0.6 * top
        assert browsing_speedup > ordering_speedup

    # Predictions track measurements (the paper reports <= 15%).
    assert figure.max_error() < 0.15
