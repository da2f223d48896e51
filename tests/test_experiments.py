"""Tests for the experiment harness (tables, figures, sensitivity)."""

import pytest

from repro.core.results import OperatingPoint, ValidationPoint, ValidationSeries
from repro.experiments import (
    DelaySensitivityResult,
    ExperimentSettings,
    certifier_capacity,
    clear_cache,
    clear_sweep_cache,
    get_profile,
    mva_ablation,
    table2,
    table4,
)
from repro.experiments.figures import FigureResult
from repro.experiments.settings import PAPER_REPLICA_COUNTS
from repro.experiments.tables import DemandRow, DemandTable


class TestSettings:
    def test_paper_counts_go_to_sixteen(self):
        assert PAPER_REPLICA_COUNTS[0] == 1
        assert PAPER_REPLICA_COUNTS[-1] == 16

    def test_fast_settings_cheaper(self):
        full, fast = ExperimentSettings(), ExperimentSettings.fast()
        assert fast.sim_duration < full.sim_duration
        assert len(fast.replica_counts) < len(full.replica_counts)

    def test_with_replica_counts(self):
        settings = ExperimentSettings().with_replica_counts((1, 2))
        assert settings.replica_counts == (1, 2)


class TestParameterTables:
    def test_table2_rows_match_paper(self):
        table = table2()
        rows = {row.mix: row for row in table.rows}
        assert rows["browsing"].read_fraction == pytest.approx(0.95)
        assert rows["shopping"].clients_per_replica == 40
        assert rows["ordering"].write_fraction == pytest.approx(0.50)
        assert all(row.think_time_ms == 1000.0 for row in table.rows)

    def test_table4_rows_match_paper(self):
        table = table4()
        rows = {row.mix: row for row in table.rows}
        assert rows["browsing"].read_fraction == pytest.approx(1.0)
        assert rows["bidding"].write_fraction == pytest.approx(0.2)

    def test_to_text_renders(self):
        text = table2().to_text()
        assert "browsing" in text
        assert "95%" in text


class TestDemandTableFormatting:
    def make(self):
        row = DemandRow(
            mix="shopping", resource="cpu",
            read_truth=41.43, read_measured=42.0,
            write_truth=12.51, write_measured=12.4,
            writeset_truth=3.18, writeset_measured=3.3,
        )
        return DemandTable(table_id="table3", benchmark="TPC-W", rows=(row,))

    def test_max_relative_error(self):
        table = self.make()
        expected = max(
            abs(42.0 - 41.43) / 41.43,
            abs(12.4 - 12.51) / 12.51,
            abs(3.3 - 3.18) / 3.18,
        )
        assert table.max_relative_error() == pytest.approx(expected)

    def test_to_text_contains_measured_and_truth(self):
        text = self.make().to_text()
        assert "42.00" in text
        assert "41.43" in text


class TestFigureResultFormatting:
    def make(self):
        rows = [
            ValidationPoint(
                replicas=n,
                predicted=OperatingPoint(throughput=10.0 * n,
                                         response_time=0.2),
                measured=OperatingPoint(throughput=11.0 * n,
                                        response_time=0.22),
            )
            for n in (1, 2)
        ]
        series = ValidationSeries(label="tpcw/shopping", rows=rows)
        return FigureResult(
            figure_id="figure6",
            title="demo",
            metric="throughput",
            series={"shopping": series},
        )

    def test_max_error(self):
        assert self.make().max_error() == pytest.approx(1.0 / 11.0)

    def test_to_text_has_rows_per_replica_count(self):
        text = self.make().to_text()
        assert "figure6" in text
        assert "[shopping]" in text
        assert text.count("tps") >= 4

    def test_response_metric_renders_ms(self):
        figure = FigureResult(
            figure_id="figure7", title="demo", metric="response_time",
            series=self.make().series,
        )
        assert "ms" in figure.to_text()


class TestDelaySensitivityResult:
    def test_max_throughput_drop_is_against_the_first_row(self):
        from repro.experiments.sensitivity import DelaySensitivityRow

        rows = tuple(
            DelaySensitivityRow(delay=delay, predicted_throughput=tps,
                                measured_throughput=tps)
            for delay, tps in ((0.0, 100.0), (0.005, 96.0), (0.01, 98.0))
        )
        result = DelaySensitivityResult(
            parameter="load_balancer_delay", replicas=8, rows=rows
        )
        assert result.max_throughput_drop() == pytest.approx(0.04)


class TestCertifierCapacity:
    def test_latency_flat_across_rates(self):
        result = certifier_capacity(
            rates=(25.0, 150.0, 500.0), duration=60.0
        )
        # §6.3.2: certification latency is insensitive to load thanks to
        # group commit; expect ~12 ms across two orders of magnitude of
        # load, varying by at most a few milliseconds.
        latencies = [p.mean_latency for p in result.points]
        assert all(0.008 <= lat <= 0.020 for lat in latencies)
        assert result.latency_spread() < 0.006

    def test_batches_grow_with_load(self):
        result = certifier_capacity(rates=(25.0, 500.0), duration=60.0)
        assert result.points[1].mean_batch_size > result.points[0].mean_batch_size

    def test_to_text(self):
        result = certifier_capacity(rates=(50.0,), duration=20.0)
        assert "certifier capacity" in result.to_text()


class TestMVAAblation:
    def test_schweitzer_close_at_all_populations(self):
        rows = mva_ablation(populations=(1, 10, 50))
        for row in rows:
            assert row.relative_error < 0.05

    def test_rows_cover_populations(self):
        rows = mva_ablation(populations=(2, 4))
        assert [row.population for row in rows] == [2, 4]


class TestProfileCache:
    def test_profile_cached_per_settings(self, shopping_spec, tiny_settings):
        clear_cache()
        a = get_profile(shopping_spec, tiny_settings)
        b = get_profile(shopping_spec, tiny_settings)
        assert a is b

    def test_clear_sweep_cache_is_idempotent(self):
        clear_sweep_cache()
        clear_sweep_cache()
