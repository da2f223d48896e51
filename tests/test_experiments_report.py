"""Tests for the report's scenarios and the claims they declare (the
verdict step itself is exercised through the CLI in ``test_cli.py``)."""

import math

from repro.engine import BROKEN, HOLDS, get_scenario, run_scenario
from repro.experiments import REPORT_SCENARIOS, ExperimentSettings


class TestReportStructure:
    def test_report_covers_every_figure_and_table(self):
        figures = [f"figure{i}" for i in range(6, 15)]
        tables = [f"table{i}" for i in range(2, 6)]
        assert [n for n in REPORT_SCENARIOS if n.startswith("figure")] == figures
        assert sorted(n for n in REPORT_SCENARIOS if n.startswith("table")) == tables
        assert "error-margin" in REPORT_SCENARIOS
        for name in REPORT_SCENARIOS:
            assert get_scenario(name).name == name

    def test_every_claim_is_judged(self):
        """Run the report's scenarios at micro settings that hold every
        replica count a claim names, and judge every claim: each gives a
        row with a value and a verdict, and none raises.  Micro windows
        say nothing about the paper, so holds/BROKEN are both fine here;
        the claims that need a long window must say so."""
        settings = ExperimentSettings(
            replica_counts=(1, 4, 6, 16), sim_warmup=0.5, sim_duration=2.0,
            profile_duration=8.0, profile_mixed_duration=8.0,
        )
        rows = []
        for name in REPORT_SCENARIOS:
            scenario = get_scenario(name)
            artifact = run_scenario(scenario, settings)
            assert artifact.to_text()
            rows.extend(scenario.judge(settings, artifact))
        assert all(math.isfinite(row.value) for row in rows)
        windowed = [row for row in rows if row.verdict not in (HOLDS, BROKEN)]
        assert {row.verdict for row in windowed} == {
            "not checked: needs a 60 s window (ran 2 s)"}
        assert [row.scenario for row in windowed] == [
            "figure12", "figure13", "error-margin"]
        # Every paper artifact and extension declares claims; the
        # ablations do not yet.
        claimed = {row.scenario for row in rows}
        assert claimed == {name for name in REPORT_SCENARIOS
                           if not name.startswith("ablation-")}
        for number in range(6, 14):
            assert [row.bound for row in rows
                    if row.scenario == f"figure{number}"
                    and row.statement.endswith("max error")] != []
        assert len(rows) == 64


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
