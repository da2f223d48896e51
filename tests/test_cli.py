"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.engine import get_scenario


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workloads_subcommand_parses(self):
        args = build_parser().parse_args(["workloads"])
        assert args.command == "workloads"

    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict", "tpcw/shopping"])
        assert args.design == "multi-master"
        assert args.replicas == [1, 2, 4, 8, 16]

    def test_figure_choices_cover_6_to_14(self):
        names = [f"figure{i}" for i in range(6, 15)]
        args = build_parser().parse_args(["run", *names, "--fast"])
        assert args.names == names
        assert [get_scenario(name).kind for name in names] == ["figure"] * 9

    def test_invalid_figure_rejected(self, capsys):
        """An unknown name exits 2 before any name runs."""
        assert main(["run", "table2", "figure99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown scenario 'figure99'" in captured.err

    def test_table_choices(self):
        names = ["table2", "table3", "table4", "table5"]
        args = build_parser().parse_args(["run", *names])
        assert args.names == names
        assert [get_scenario(name).kind for name in names] == ["table"] * 4

    def test_plan_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "tpcw/shopping"])

    def test_plan_parses_options(self):
        args = build_parser().parse_args(
            ["plan", "tpcw/shopping", "--target", "100", "--headroom", "0.2"]
        )
        assert args.target == 100.0
        assert args.headroom == 0.2

    def test_reproduce_parses_out(self):
        args = build_parser().parse_args(["reproduce", "--fast", "--out", "x.txt"])
        assert args.out == "x.txt"

    def test_autoscale_parses_options(self):
        args = build_parser().parse_args(
            ["run", "autoscale-flashcrowd", "autoscale-diurnal-live",
             "--timeline", "--fast", "--jobs", "4"]
        )
        assert args.names == ["autoscale-flashcrowd", "autoscale-diurnal-live"]
        assert args.timeline
        assert args.jobs == 4

    def test_autoscale_rejects_unknown_trace(self, capsys):
        assert main(["run", "autoscale-sawtooth"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenarios_parses_profile(self):
        args = build_parser().parse_args(
            ["scenarios", "--profile", "figure6", "--fast"]
        )
        assert args.profile
        assert args.names == ["figure6"]


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "tpcw/shopping" in out
        assert "rubis/bidding" in out

    def test_table2_renders(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "TPC-W parameters" in out

    def test_table4_renders(self, capsys):
        assert main(["run", "table4"]) == 0
        assert "RUBiS" in capsys.readouterr().out

    def test_run_several_names_in_order(self, capsys):
        assert main(["run", "table4", "table2"]) == 0
        out = capsys.readouterr().out
        assert out.index("RUBiS") < out.index("TPC-W parameters")

    def test_profile_smoke(self, capsys):
        assert main(["profile", "tpcw/shopping"]) == 0
        out = capsys.readouterr().out
        assert "Pr/Pw measured" in out
        assert "standalone:" in out

    def test_predict_smoke(self, capsys):
        assert main(["predict", "tpcw/shopping", "--fast",
                     "--replicas", "1", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("tpcw/shopping on multi-master (predicted from "
                            "standalone profile)")
        assert [line.split()[0] for line in lines[2:]] == ["1", "4"]

    def test_simulate_standalone_smoke(self, capsys):
        code = main([
            "simulate", "tpcw/shopping", "--design", "standalone",
            "--replicas", "1", "--warmup", "2", "--duration", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tps" in out

    def test_refused_combination_is_one_line_on_every_verb(self, capsys):
        """A ConfigurationError outside the scenario verbs: one line
        naming the verb, exit 2, no traceback."""
        code = main(["simulate", "tpcw/shopping", "--design", "standalone",
                     "--replicas", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("repro simulate: standalone design requires "
                       "replicas == 1\n")

    def test_plan_smoke(self, capsys):
        code = main(["plan", "tpcw/shopping", "--target", "50", "--fast"])
        assert code == 0
        out = capsys.readouterr().out
        assert "replicas" in out

    def test_plan_unreachable_target_fails(self, capsys):
        code = main([
            "plan", "rubis/bidding", "--target", "100000", "--fast",
        ])
        assert code == 1
        assert "no deployment" in capsys.readouterr().out

    def test_run_unknown_scenario_fails_with_suggestion(self, capsys):
        """No traceback: a clean non-zero exit with a did-you-mean hint."""
        code = main(["run", "figur6"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'figur6'" in err
        assert "figure6" in err  # the did-you-mean suggestion

    def test_run_unknown_scenario_without_close_match(self, capsys):
        code = main(["run", "zzzzzzzz"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, scenario", [
        (["--capacity-source", "estimated"], "figure6"),
        (["--capacity-source", "estimated"], "capacity-estimation"),
        (["--certifier", "sharded"], "certifier-sharding"),
        (["--audit"], "table3"),
    ])
    def test_flag_that_reaches_no_point_exits_2(self, capsys, flag, scenario):
        """A run-wide flag is honoured or refused, never silently dropped:
        one line naming the flag and the scenario, before anything runs."""
        assert main(["run", scenario, "--fast", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag[0]} reaches no point of {scenario!r}" in captured.err
        assert "Traceback" not in captured.err

    def test_sharded_certifier_on_unpartitioned_workload_exits_2(self, capsys):
        assert main(["run", "figure6", "--fast", "--certifier", "sharded"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs a partitioned workload" in captured.err

    def test_audit_verdict_counts_the_audited_points(self, capsys):
        code = main(["run", "placement-ablation", "--fast", "--audit",
                     "--no-cache"])
        assert code == 0
        assert "audit: PASS — 2 point(s) audited" in capsys.readouterr().out

    def test_ops_parses_options(self):
        args = build_parser().parse_args(
            ["run", "rolling-upgrade", "rolling-upgrade-live", "--timeline",
             "--fast"]
        )
        assert args.names == ["rolling-upgrade", "rolling-upgrade-live"]
        assert args.timeline

    def test_plan_parses_capacities(self):
        args = build_parser().parse_args(
            ["plan", "tpcw/shopping", "--target", "50",
             "--capacities", "2", "1", "0.5", "--fast"]
        )
        assert args.capacities == [2.0, 1.0, 0.5]

    def test_backend_failure_is_one_line_not_traceback(self, capsys,
                                                       monkeypatch):
        """A live backend that cannot converge must produce a clean
        one-line error on stderr and exit 1 (CI smoke jobs grep stderr,
        not stack frames)."""
        from repro import cli
        from repro.core.errors import SimulationError

        def boom(*args, **kwargs):
            raise SimulationError(
                "3 traffic thread(s) still running after the drain "
                "timeout; the offered load exceeds what the cluster "
                "can drain"
            )

        monkeypatch.setattr(cli, "execute_points", boom)
        code = main(["run", "selfheal-crashstorm-live", "--fast"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "drain" in err
        assert "Traceback" not in err

    def test_scenarios_lists_ops_family(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "selfheal-crashstorm" in out
        assert "rolling-upgrade" in out
        assert "hetero-fleet" in out
        assert "selfheal-crashstorm-live" in out

    def test_scenarios_lists_autoscale_family(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "autoscale-diurnal" in out
        assert "autoscale-flashcrowd" in out
        assert "autoscale-diurnal-live" in out

    def test_scenarios_name_filter(self, capsys):
        assert main(["scenarios", "autoscale-diurnal"]) == 0
        out = capsys.readouterr().out
        assert "autoscale-diurnal" in out
        assert "table2" not in out

    def test_scenarios_bad_name_fails(self, capsys):
        assert main(["scenarios", "nope-nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenarios_profile_reports_wall_clock(self, capsys):
        assert main(["scenarios", "--profile", "table2", "--fast",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "table2:" in out
        assert "wall" in out

    def test_scenarios_profile_requires_names(self, capsys):
        """Without names --profile would run the whole registry, live
        cluster scenarios included — refuse instead."""
        assert main(["scenarios", "--profile"]) == 2
        assert "name the scenarios" in capsys.readouterr().err


class TestArtifactFailures:
    """`repro run` must exit non-zero on non-converged cluster results."""

    def _result(self, converged):
        from repro.control.autoscale import AutoscaleResult

        return AutoscaleResult(
            design="multi-master", policy="feedforward", pillar="cluster",
            trace="diurnal", slo_response=1.0, control_interval=1.0,
            window=10.0, committed=100, slo_violations=0,
            replica_seconds=20.0, timeline=(), final_members=2,
            scale_events=1, converged=converged,
        )

    def _points(self, count):
        from repro.engine import scenario_points
        from repro.experiments.settings import ExperimentSettings

        points = scenario_points("autoscale-diurnal-live",
                                 ExperimentSettings.fast())
        return points[:count]

    def test_non_converged_entries_are_failures(self):
        from repro.cli import _run_failures

        failures = _run_failures(
            self._points(2), [self._result(True), self._result(False)]
        )
        assert len(failures) == 1
        assert "did not converge" in failures[0]
        assert "live:reactive" in failures[0]

    def test_converged_artifacts_pass(self):
        from repro.cli import _run_failures

        assert _run_failures(self._points(1), [self._result(True)]) == []
        assert _run_failures([], [], ["plain", "rows"]) == []


class TestPartitionCli:
    def test_partition_parses_options(self):
        args = build_parser().parse_args(
            ["run", "partial-replication-sweep",
             "partial-replication-sweep-live", "--fast", "--jobs", "2"]
        )
        assert args.command == "run"
        assert args.names == ["partial-replication-sweep",
                              "partial-replication-sweep-live"]
        assert args.jobs == 2

    def test_partition_rejects_unknown_family(self, capsys):
        assert main(["run", "partition-shards"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenarios_tag_filter_lists_partition_family(self, capsys):
        assert main(["scenarios", "--tag", "partition"]) == 0
        out = capsys.readouterr().out
        assert "partial-replication-sweep" in out
        assert "placement-ablation" in out
        assert "figure6" not in out

    def test_scenarios_tag_live_lists_cluster_cells(self, capsys):
        assert main(["scenarios", "--tag", "live"]) == 0
        out = capsys.readouterr().out
        assert "partial-replication-sweep-live" in out
        assert "autoscale-diurnal-live" in out

    def test_scenarios_unknown_tag_exits_2_with_suggestion(self, capsys):
        assert main(["scenarios", "--tag", "partitoin"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "partition" in err

    def test_scenarios_tag_restricts_explicit_names(self, capsys):
        assert main(["scenarios", "figure6", "placement-ablation",
                     "--tag", "partition"]) == 0
        out = capsys.readouterr().out
        assert "placement-ablation" in out
        assert "figure6" not in out


class TestPerfCli:
    """The performance-observability surface: `run --timeline`, the
    `--capacity-source` engine option, and the gray-failure ops family."""

    def test_perf_parses_options(self):
        args = build_parser().parse_args(
            ["run", "capacity-estimation", "capacity-estimation-live",
             "--timeline", "--fast"]
        )
        assert args.command == "run"
        assert args.timeline and args.fast

    def test_capacity_source_accepts_both_sources(self):
        for source in ("declared", "estimated"):
            args = build_parser().parse_args(
                ["run", "brownout-detection", "--capacity-source", source]
            )
            assert args.capacity_source == source

    def test_capacity_source_defaults_to_none(self):
        args = build_parser().parse_args(["run", "brownout-detection"])
        assert args.capacity_source is None

    def test_unknown_capacity_source_exits_2_with_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["run", "capacity-estimation", "--capacity-source",
                 "estimatd"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "estimated" in err
        assert "Traceback" not in err

    def test_ops_parses_gray_failure_operations(self):
        names = ["brownout-detection", "capacity-estimation"]
        args = build_parser().parse_args(["run", *names, "--fast"])
        assert args.names == names
        assert [get_scenario(name).kind for name in names] == ["ops"] * 2


class TestTraceNotice:
    def test_trace_reports_missing_telemetry_and_exits_0(self, capsys,
                                                         monkeypatch):
        """Like `repro metrics`, a trace run whose telemetry came back
        empty prints the notice and exits 0 instead of crashing."""
        import repro.cli as cli

        class _Empty:
            telemetry = None

        monkeypatch.setattr(cli, "simulate", lambda *args, **kwargs: _Empty())
        code = cli.main(["trace", "--pillar", "simulator",
                         "--warmup", "1", "--duration", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no telemetry recorded (telemetry disabled?)" in out


class TestRunVerdicts:
    """What `repro run` and `repro reproduce` read off a result besides
    its text: the claims its scenario declares and, with --timeline, the
    elastic runs' perf reports and timelines."""

    @pytest.fixture
    def error_margin(self, monkeypatch):
        """Register an `error-margin` that runs no point and assembles
        the given mean error."""
        import dataclasses

        from repro.engine import registry
        from repro.experiments import ErrorMarginResult

        def stub(mean):
            scenario = get_scenario("error-margin")
            result = ErrorMarginResult(
                per_series={"tpcw/shopping multi-master": mean},
                mean_throughput_error=mean, max_throughput_error=mean,
            )
            monkeypatch.setitem(registry._SCENARIOS, "error-margin",
                                dataclasses.replace(
                                    scenario, points=lambda settings: (),
                                    assemble=lambda *args: result))
            return result
        return stub

    def test_mean_error_above_the_claim_exits_1(self, error_margin, capsys):
        result = error_margin(0.16)
        assert main(["run", "error-margin", "--fast", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(result.to_text() + "\n")
        assert ("FAIL: error-margin: predictions within 15%: mean throughput "
                "error = 0.16, claimed < 0.08 (§6.2)") in out
        # The max-error claim reads a saturated point: at --fast's 16 s
        # window it is reported, with its value, but not judged.
        assert "0.16 < 0.15           not checked: needs a 60 s window" in out

    def test_mean_error_within_the_claim_exits_0(self, error_margin, capsys):
        error_margin(0.07)
        assert main(["run", "error-margin", "--fast", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "claims: 1 hold, 0 broken, 1 not checked" in out

    def test_a_broken_claim_fails_run_and_reproduce(self, monkeypatch,
                                                    capsys):
        """`reproduce` goes through the same verdict step as `run`: a
        broken claim prints its BROKEN row and exits 1 on both verbs."""
        import dataclasses

        from repro import cli
        from repro.engine import Claim, registry

        broken = Claim("table 2", "stand-in: browsing clients per replica",
                       lambda table: table.rows[0].clients_per_replica,
                       "> 1000")
        table2 = get_scenario("table2")
        monkeypatch.setitem(registry._SCENARIOS, "table2", dataclasses.replace(
            table2, claims=(*table2.claims, broken)))
        monkeypatch.setattr(cli.experiments, "REPORT_SCENARIOS",
                            ("table2",))
        row = ("  table2                  table 2    stand-in: browsing clients "
               "per replica        30 > 1000           BROKEN")
        for argv in (["run", "table2"], ["reproduce", "--jobs", "1"]):
            assert main([*argv, "--fast", "--no-cache"]) == 1
            out = capsys.readouterr().out
            assert out.startswith(table2.assemble(None, (), ()).to_text())
            assert "claims: 3 hold, 1 broken, 0 not checked" in out
            assert row in out

    def test_timeline_prints_perf_report_and_timeline_of_elastic_runs(
        self, capsys
    ):
        import dataclasses

        from repro.cli import _print_timelines
        from repro.control.autoscale import render_timeline

        class Perf:
            def to_text(self):
                return "perf report"

        plain = TestArtifactFailures()._result(True)
        estimated = dataclasses.replace(plain, policy="reactive", perf=Perf())
        _print_timelines([plain, "not an elastic run", estimated])
        out = capsys.readouterr().out
        assert out == (f"\n{render_timeline(plain)}\n\nperf report\n\n"
                       f"{render_timeline(estimated)}\n")
