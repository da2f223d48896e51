"""Figure 9: TPC-W response time on the single-master system.

Paper shape: browsing and shopping stay almost flat; ordering's response
time climbs rapidly after ~4 replicas as clients queue at the saturated
master.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_figure9_tpcw_sm_response_time(benchmark, settings, fast_mode):
    figure = run_once(
        benchmark,
        lambda: run_scenario("figure9", settings, jobs=1, cache=None),
    )
    print("\n" + figure.to_text())

    browsing = figure.series["browsing"].measured_curve()
    ordering = figure.series["ordering"].measured_curve()
    top = max(settings.replica_counts)

    # Browsing response flat.
    b_responses = browsing.response_times
    assert max(b_responses) < 1.6 * min(b_responses)

    if not fast_mode:
        # Ordering response explodes once the master saturates: by 16
        # replicas clients wait many times the single-replica latency.
        assert ordering.point_at(top).response_time > (
            10.0 * ordering.point_at(1).response_time
        )
        # And the knee is past 4 replicas (flat-ish before, steep after).
        assert ordering.point_at(4).response_time < (
            0.3 * ordering.point_at(top).response_time
        )

    # Relative response errors are leveraged: with R = N/X - Z, a few
    # percent of throughput error becomes tens of percent of response error
    # whenever R << Z (the flat low-load region of these curves).
    assert figure.max_error() < 0.60
