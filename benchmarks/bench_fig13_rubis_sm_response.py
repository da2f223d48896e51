"""Figure 13: RUBiS response time on the single-master system.

Paper shape: browsing flat; bidding climbs as clients queue behind the
saturated master.  The model over-predicts bidding response at high N (it
slightly under-predicts throughput there), so the error band is looser than
for throughput.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_figure13_rubis_sm_response_time(benchmark, settings, fast_mode):
    figure = run_once(
        benchmark,
        lambda: run_scenario("figure13", settings, jobs=1, cache=None),
    )
    print("\n" + figure.to_text())

    browsing = figure.series["browsing"].measured_curve()
    bidding = figure.series["bidding"].measured_curve()
    top = max(settings.replica_counts)

    b_responses = browsing.response_times
    assert max(b_responses) < 1.6 * min(b_responses)

    if not fast_mode:
        assert bidding.point_at(top).response_time > (
            5.0 * bidding.point_at(1).response_time
        )

    assert figure.max_error() < 0.55
