"""Figure 12: RUBiS throughput on the single-master system.

Paper shape: browsing scales linearly (reads spread over all replicas,
master included); bidding is bounded by the master's update capacity —
adding slaves past ~4 buys almost nothing.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_figure12_rubis_sm_throughput(benchmark, settings, fast_mode):
    figure = run_once(
        benchmark,
        lambda: run_scenario("figure12", settings, jobs=1, cache=None),
    )
    print("\n" + figure.to_text())

    browsing = figure.series["browsing"].measured_curve()
    bidding = figure.series["bidding"].measured_curve()
    top = max(settings.replica_counts)

    if not fast_mode:
        # Browsing linear.
        assert browsing.speedup()[-1] > 0.9 * top
        # Bidding bounded by the master: the 4 -> 16 replica jump gains
        # under 25%.
        assert bidding.point_at(top).throughput < (
            1.25 * bidding.point_at(4).throughput
        )

    assert figure.max_error() < 0.15
