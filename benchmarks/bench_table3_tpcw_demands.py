"""Table 3: re-measure TPC-W service demands with the §4 profiler.

The benchmark times the full profiling pipeline (log capture, three
utilization-law replays, one mixed run) for all three TPC-W mixes and
asserts the profiler recovers the ground-truth demands within sampling
noise.
"""

from conftest import run_once

from repro.engine import run_scenario


def test_table3_tpcw_service_demands(benchmark, settings):
    table = run_once(
        benchmark,
        lambda: run_scenario("table3", settings, jobs=1, cache=None),
    )
    print("\n" + table.to_text())
    # The Utilization Law should recover every demand within ~10%.
    assert table.max_relative_error() < 0.10
    # Spot-check the primary mix against the paper's measured values (ms).
    shopping_cpu = next(
        row for row in table.rows
        if row.mix == "shopping" and row.resource == "cpu"
    )
    assert abs(shopping_cpu.read_measured - 41.43) / 41.43 < 0.10
    assert abs(shopping_cpu.write_measured - 12.51) / 12.51 < 0.10
