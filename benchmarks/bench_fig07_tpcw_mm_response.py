"""Figure 7: TPC-W response time on the multi-master system.

Paper shape: browsing stays almost flat (few updates); ordering's response
time climbs steeply as writeset processing loads every replica.  (This
benchmark reuses the Figure 6 sweep when it ran first in the session.)
"""

from conftest import run_once

from repro.engine import run_scenario


def test_figure7_tpcw_mm_response_time(benchmark, settings, fast_mode):
    figure = run_once(
        benchmark,
        lambda: run_scenario("figure7", settings, jobs=1, cache=None),
    )
    print("\n" + figure.to_text())

    browsing = figure.series["browsing"].measured_curve()
    ordering = figure.series["ordering"].measured_curve()
    top = max(settings.replica_counts)

    # Browsing response is flat: spread below 1.6x across the sweep.
    b_responses = browsing.response_times
    assert max(b_responses) < 1.6 * min(b_responses)

    if not fast_mode:
        # Ordering response climbs steeply with N (writeset load).
        assert ordering.point_at(top).response_time > (
            4.0 * ordering.point_at(1).response_time
        )

    # Predicted curves track the measured ones.  Response-time errors run
    # higher than throughput errors (the model statically partitions
    # clients while the simulated balancer routes to the least-loaded
    # replica; see the lb-policy ablation).
    assert figure.max_error() < 0.40
