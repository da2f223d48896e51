"""Integration tests for the registered partial-replication scenarios."""

from types import SimpleNamespace

import pytest

from repro.engine import (
    CellTable,
    get_scenario,
    run_scenario,
    scenario_names_with_tag,
)
from repro.partition.scenarios import (
    WRITE_FRACTIONS,
    PartialReplicationReport,
    sharded_speedup,
    sweep_map,
)


class TestRegistration:
    def test_partition_scenarios_registered(self):
        names = scenario_names_with_tag("partition")
        assert names == [
            "certifier-sharding",
            "certifier-sharding-live",
            "partial-replication-sweep",
            "partial-replication-sweep-live",
            "placement-ablation",
            "placement-ablation-live",
        ]

    def test_live_cells_carry_the_live_tag(self):
        assert "partial-replication-sweep-live" in scenario_names_with_tag(
            "live"
        )


class TestPartialReplicationSweep:
    @pytest.fixture(scope="class")
    def report(self, tiny_settings) -> PartialReplicationReport:
        scenario = get_scenario("partial-replication-sweep")
        return run_scenario(scenario, tiny_settings, jobs=1, cache=None)

    def test_rows_cover_the_write_fraction_sweep(self, report):
        assert tuple(row.write_fraction for row in report.rows) == (
            WRITE_FRACTIONS
        )

    def test_partial_at_least_matches_full_at_high_update_fraction(
        self, report
    ):
        row = report.row_for(max(WRITE_FRACTIONS))
        assert row is not None
        assert row.sim_partial.throughput >= row.sim_full.throughput
        assert row.speedup >= 1.0

    def test_model_tracks_simulator_within_crossval_envelope(self, report):
        for row in report.rows:
            assert row.model_vs_sim_deviation < 0.25, (
                f"Pw={row.write_fraction}: model deviates "
                f"{row.model_vs_sim_deviation:.1%}"
            )

    def test_report_renders(self, report):
        text = report.to_text()
        assert "partial replication sweep" in text
        assert "speedup" in text

    def test_sweep_map_is_partial(self):
        assert not sweep_map().is_full


class TestLiveSweepAssembly:
    """The live A/B's table, assembled from two stand-in cluster results."""

    def test_one_row_per_cell_in_grid_order(self, tiny_settings):
        scenario = get_scenario("partial-replication-sweep-live")
        points = scenario.points(tiny_settings)
        results = [
            SimpleNamespace(throughput=40.0, response_time=0.25,
                            abort_rate=0.1, state_converged=True),
            SimpleNamespace(throughput=55.4, response_time=0.2,
                            abort_rate=0.0525, state_converged=True),
        ]
        report = scenario.assemble(tiny_settings, points, results)
        assert [point.tag for point in points] == ["full", "partial"]
        assert report.results == tuple(results)
        assert report.cell("partial") is results[1]
        assert report.cell("missing") is None
        assert report.to_text().splitlines() == [
            "partial replication (live cluster) — micro/partition-live, "
            "3 partitions x factor 2 over 3 replicas",
            "  placement   throughput  response  aborts",
            "  full          40.0 tps    250 ms 10.00%",
            "  partial       55.4 tps    200 ms  5.25%",
        ]


class TestCertifierSharding:
    @pytest.fixture(scope="class")
    def report(self, tiny_settings):
        scenario = get_scenario("certifier-sharding")
        report = run_scenario(scenario, tiny_settings, jobs=1, cache=None)
        assert isinstance(report, CellTable)
        return report

    def test_cells_cover_both_arms_on_both_pillars(self, report):
        labels = tuple(name for name, _ in report.cells)
        assert labels == ("sim-global", "sim-sharded",
                          "model-global", "model-sharded")

    def test_sharded_dominates_global_in_the_simulator(self, report):
        assert sharded_speedup(report, "sim") > 1.0

    def test_sharded_dominates_global_in_the_model(self, report):
        assert sharded_speedup(report, "model") > 1.0

    def test_model_tracks_simulator_within_crossval_envelope(self, report):
        for arm in ("global", "sharded"):
            sim = report.cell(f"sim-{arm}").throughput
            model = report.cell(f"model-{arm}").throughput
            assert abs(model - sim) / sim < 0.25, (
                f"{arm}: model {model:.1f} vs sim {sim:.1f}"
            )

    def test_report_renders(self, report):
        text = report.to_text()
        assert "certifier sharding" in text
        assert "sim speedup (sharded/global)" in text


class TestCertifierShardingLive:
    @pytest.fixture(scope="class")
    def report(self, tiny_settings):
        scenario = get_scenario("certifier-sharding-live")
        return run_scenario(scenario, tiny_settings, jobs=1, cache=None)

    def test_live_cells_converge(self, report):
        # Invariants only: the wall-clock claim that sharded beats global
        # on real threads lives, with a margin, in
        # benchmarks/bench_certifier_sharding.py.
        assert all(result.state_converged for result in report.results)
