"""Table 5: re-measure RUBiS service demands with the §4 profiler."""

from conftest import run_once

from repro.engine import run_scenario


def test_table5_rubis_service_demands(benchmark, settings):
    table = run_once(
        benchmark,
        lambda: run_scenario("table5", settings, jobs=1, cache=None),
    )
    print("\n" + table.to_text())
    assert table.max_relative_error() < 0.10
    # §6.2.2: writeset application for bidding is disk-heavy — the measured
    # writeset disk demand must stay close to the update disk demand.
    bidding_disk = next(
        row for row in table.rows
        if row.mix == "bidding" and row.resource == "disk"
    )
    assert bidding_disk.writeset_measured > 0.6 * bidding_disk.write_measured
