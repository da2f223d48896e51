"""Figure 14: multi-master abort probability under raised conflict rates.

The §6.3.3 experiment: a high-conflict heap table is added to TPC-W
shopping, sized so the standalone abort rate A1 hits 0.24%, 0.53% and
0.90%.  Paper result: measured abort rates at 16 replicas of roughly 10%,
17% and 29%; the model captures the growth trend but under-estimates at the
largest rates.
"""

from conftest import run_once

from repro.engine import run_scenario

#: The paper's measured A16 values per A1 target (§6.3.3).
PAPER_A16 = {0.0024: 0.10, 0.0053: 0.17, 0.0090: 0.29}


def test_figure14_abort_probability_scaling(benchmark, settings, fast_mode):
    result = run_once(
        benchmark,
        lambda: run_scenario("figure14", settings, jobs=1, cache=None),
    )
    print("\n" + result.to_text())

    top = max(settings.replica_counts)
    for curve in result.curves:
        # The calibrated heap table reaches the target A1 (within noise).
        assert 0.5 * curve.target_a1 <= curve.measured_a1 <= 1.6 * curve.target_a1
        # Abort probability grows with the replica count.
        assert curve.measured[-1] > curve.measured[0]
        assert list(curve.predicted) == sorted(curve.predicted)

    if not fast_mode and top >= 16:
        for curve in result.curves:
            paper = PAPER_A16[curve.target_a1]
            measured_16 = curve.measured[-1]
            # Measured A16 lands in the paper's ballpark (within ~45%).
            assert 0.55 * paper < measured_16 < 1.45 * paper

    # Higher A1 -> uniformly higher abort curves.
    by_target = sorted(result.curves, key=lambda c: c.target_a1)
    for weaker, stronger in zip(by_target, by_target[1:]):
        assert stronger.measured[-1] > weaker.measured[-1]
        assert stronger.predicted[-1] > weaker.predicted[-1]
