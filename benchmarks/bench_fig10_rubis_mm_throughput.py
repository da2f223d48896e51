"""Figure 10: RUBiS throughput on the multi-master system.

Paper shape: browsing (100% read-only) scales linearly; bidding flattens
early — peaking around 6 replicas in the paper — because applying a RUBiS
writeset (index maintenance, integrity constraints) costs almost as much
disk time as the original update, so update propagation consumes the
replicas' capacity.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_figure10_rubis_mm_throughput(benchmark, settings, fast_mode):
    figure = run_once(
        benchmark,
        lambda: run_scenario("figure10", settings, jobs=1, cache=None),
    )
    print("\n" + figure.to_text())

    browsing = figure.series["browsing"].measured_curve()
    bidding = figure.series["bidding"].measured_curve()
    top = max(settings.replica_counts)

    if not fast_mode:
        # Browsing: linear scaling (no updates at all).
        assert browsing.speedup()[-1] > 0.9 * top
        # Bidding: severely writeset-bound — under 4x at 16 replicas.
        assert bidding.speedup()[-1] < 4.5
        # Most of bidding's gains arrive by ~6 replicas (the paper's peak).
        assert bidding.point_at(top).throughput < (
            1.3 * bidding.point_at(6).throughput
        )

    assert figure.max_error() < 0.15
