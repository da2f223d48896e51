"""Figure 8: TPC-W throughput on the single-master system.

Paper shape: browsing scales linearly (the master's spare capacity absorbs
the few updates, and extra reads run on the master); ordering saturates as
soon as the master becomes the bottleneck (~4 replicas) and stays flat.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_figure8_tpcw_sm_throughput(benchmark, settings, fast_mode):
    figure = run_once(
        benchmark,
        lambda: run_scenario("figure8", settings, jobs=1, cache=None),
    )
    print("\n" + figure.to_text())

    browsing = figure.series["browsing"].measured_curve()
    ordering = figure.series["ordering"].measured_curve()
    top = max(settings.replica_counts)

    if not fast_mode:
        # Browsing: near-linear scaling.
        assert browsing.speedup()[-1] > 0.8 * top
        # Ordering: saturated by the master — the last doubling of
        # replicas buys under 15% more throughput.
        assert ordering.point_at(top).throughput < (
            1.15 * ordering.point_at(4).throughput
        )
        # The saturation plateau sits near twice the master's update
        # capacity (updates are half the committed transactions).
        assert 100 < ordering.point_at(top).throughput < 200

    assert figure.max_error() < 0.15
