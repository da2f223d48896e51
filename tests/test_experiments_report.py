"""Tests for the report assembly (cheap structural checks only —
``full_report`` itself is exercised end to end by ``repro reproduce`` and
the benchmark suite)."""

import re

from repro.engine import get_scenario
from repro.experiments import ExperimentSettings, full_report
from repro.experiments.report import REPORT_SCENARIOS, _ablation_section


class TestReportStructure:
    def test_report_covers_every_figure_and_table(self):
        figures = [f"figure{i}" for i in range(6, 15)]
        tables = [f"table{i}" for i in range(2, 6)]
        assert [n for n in REPORT_SCENARIOS if n.startswith("figure")] == figures
        assert sorted(n for n in REPORT_SCENARIOS if n.startswith("table")) == tables
        assert "error-margin" in REPORT_SCENARIOS
        for name in REPORT_SCENARIOS:
            assert get_scenario(name).name == name

    def test_full_report_renders_every_artifact_in_order(self):
        settings = ExperimentSettings(
            replica_counts=(1, 2), sim_warmup=1.0, sim_duration=4.0,
            profile_duration=8.0, profile_mixed_duration=8.0,
        )
        progress = []
        report = full_report(settings, progress=progress.append)
        done = [re.search(r"\] (\S+) done in", line).group(1)
                for line in progress]
        assert done == [*REPORT_SCENARIOS, "ablations"]
        sections = report.split("\n\n")
        ids = ["->" if section.startswith("  -> max ") else
               section.split(":", 1)[0] for section in sections]
        measured = ["table3", "table5", *(f"figure{i}" for i in range(6, 14))]
        assert ids[:23] == ["table2", "table4",
                            *(id for name in measured for id in (name, "->")),
                            "figure14"]
        assert len(sections) == 23 + 4 + 1
        assert sections[-2].startswith("prediction error margins")
        assert sections[-1].startswith("mva ablation")

    def test_ablation_section_renders(self, tiny_settings):
        text = _ablation_section(tiny_settings)
        assert "mva ablation" in text
        assert "conflict-window ablation" in text
        assert "lb-policy ablation" in text
        # Every MVA row printed.
        assert text.count("schweitzer=") >= 5


class TestWorkloadSpecHelpers:
    def test_with_demands_swaps_ground_truth(self, shopping_spec):
        from repro.workloads.spec import demands_ms

        new = demands_ms(read_cpu=1.0, read_disk=1.0, write_cpu=1.0,
                         write_disk=1.0, writeset_cpu=1.0, writeset_disk=1.0)
        spec = shopping_spec.with_demands(new)
        assert spec.demands is new
        assert shopping_spec.demands is not new

    def test_with_mix_name_renames(self, shopping_spec):
        spec = shopping_spec.with_mix_name("stress")
        assert spec.name == "tpcw/stress"
        assert shopping_spec.name == "tpcw/shopping"

    def test_ground_truth_profile_read_only(self, rubis_browsing_spec):
        profile = rubis_browsing_spec.ground_truth_profile()
        assert profile.update_response_time == 0.0
        assert profile.abort_rate == 0.0
