"""Figure 11: RUBiS response time on the multi-master system.

Paper shape: browsing stays flat; bidding's response time grows steeply
with N as writeset application competes with client transactions for the
disk.  The model tracks both curves.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_figure11_rubis_mm_response_time(benchmark, settings, fast_mode):
    figure = run_once(
        benchmark,
        lambda: run_scenario("figure11", settings, jobs=1, cache=None),
    )
    print("\n" + figure.to_text())

    browsing = figure.series["browsing"].measured_curve()
    bidding = figure.series["bidding"].measured_curve()
    top = max(settings.replica_counts)

    # Browsing flat.
    b_responses = browsing.response_times
    assert max(b_responses) < 1.6 * min(b_responses)

    if not fast_mode:
        # Bidding response grows severalfold across the sweep.
        assert bidding.point_at(top).response_time > (
            5.0 * bidding.point_at(1).response_time
        )

    assert figure.max_error() < 0.25
