"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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
        for i in range(6, 15):
            args = build_parser().parse_args(["figure", f"figure{i}", "--fast"])
            assert args.name == f"figure{i}"

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "figure99"])

    def test_table_choices(self):
        for name in ("table2", "table3", "table4", "table5"):
            args = build_parser().parse_args(["table", name])
            assert args.name == name

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
            ["autoscale", "--trace", "flashcrowd", "--live", "--timeline",
             "--fast", "--jobs", "4"]
        )
        assert args.trace == "flashcrowd"
        assert args.live and args.timeline
        assert args.jobs == 4

    def test_autoscale_rejects_unknown_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["autoscale", "--trace", "sawtooth"])

    def test_scenarios_parses_profile(self):
        args = build_parser().parse_args(
            ["scenarios", "--profile", "fig06", "--fast"]
        )
        assert args.profile
        assert args.names == ["fig06"]


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "tpcw/shopping" in out
        assert "rubis/bidding" in out

    def test_table2_renders(self, capsys):
        assert main(["table", "table2"]) == 0
        out = capsys.readouterr().out
        assert "TPC-W parameters" in out

    def test_table4_renders(self, capsys):
        assert main(["table", "table4"]) == 0
        assert "RUBiS" in capsys.readouterr().out

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
            ["ops", "--operation", "rolling", "--live", "--timeline",
             "--fast"]
        )
        assert args.operation == "rolling"
        assert args.live and args.timeline

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
        assert main(["scenarios", "autoscale"]) == 0  # alias resolves
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
            ["partition", "--family", "sweep", "--live", "--fast",
             "--jobs", "2"]
        )
        assert args.command == "partition"
        assert args.family == "sweep"
        assert args.live
        assert args.jobs == 2

    def test_partition_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--family", "shards"])

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
    """The performance-observability surface: the `perf` verb, the
    `--capacity-source` engine option, and the gray-failure ops family."""

    def test_perf_parses_options(self):
        args = build_parser().parse_args(
            ["perf", "--live", "--timeline", "--fast"]
        )
        assert args.command == "perf"
        assert args.live and args.timeline and args.fast

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
                ["perf", "--capacity-source", "estimatd"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "estimated" in err
        assert "Traceback" not in err

    def test_ops_parses_gray_failure_operations(self):
        for operation in ("brownout", "capest"):
            args = build_parser().parse_args(
                ["ops", "--operation", operation, "--fast"]
            )
            assert args.operation == operation


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


class TestFamilyVerbs:
    """`autoscale`/`ops`/`perf`/`partition` resolve every choice to
    registered scenarios, and `--live` adds their registered `-live`
    twins — checked with the runner stubbed out, so nothing executes."""

    #: (verb, choice flag or None, scenario kind).
    VERBS = (("autoscale", "--trace", "autoscale"),
             ("ops", "--operation", "ops"),
             ("perf", None, "ops"),
             ("partition", "--family", "partition"))

    @staticmethod
    def _choices(verb, flag):
        import argparse

        if flag is None:
            return [None]
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        return next(action.choices
                    for action in commands.choices[verb]._actions
                    if flag in action.option_strings)

    @pytest.mark.parametrize("verb, flag, kind", VERBS)
    def test_every_choice_resolves_and_live_adds_the_twins(
        self, monkeypatch, verb, flag, kind
    ):
        import repro.cli as cli
        from repro.engine import all_scenarios

        resolved = []
        monkeypatch.setattr(
            cli, "_run_each",
            lambda args, names, after_render=None: resolved.append(names) or 0,
        )

        def names(choice, *extra):
            argv = [verb] + ([flag, choice] if flag else []) + list(extra)
            resolved.clear()
            assert main(argv) == 0
            return list(resolved[0])

        registered = all_scenarios()
        for choice in self._choices(verb, flag):
            base = names(choice)
            assert base, f"{verb} {flag} {choice} resolves to nothing"
            for name in base:
                assert registered[name].kind == kind
                assert "live" not in registered[name].tags
            if choice == "all":
                assert set(base) == {
                    name for name, scenario in registered.items()
                    if scenario.kind == kind and "live" not in scenario.tags
                }
            live = names(choice, "--live")
            assert live[:len(base)] == base
            added = live[len(base):]
            if verb == "autoscale":
                # One live validation cell serves every trace.
                assert added == ["autoscale-diurnal-live"]
            else:
                assert added == [f"{name}-live" for name in base]
            for name in added:
                assert "live" in registered[name].tags
