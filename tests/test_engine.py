"""Tests for the scenario engine: registry, caching, parallel determinism.

The engine's core guarantee is that *how* a scenario is executed — serial,
fanned out over a process pool, or served from the result cache — never
changes *what* it produces.  The determinism tests assert byte-identical
artifacts across all three paths on a deliberately tiny sweep.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, EngineError
from repro.engine import (
    RUN_WIDE,
    ResultCache,
    SweepPoint,
    UnknownScenarioError,
    all_scenarios,
    apply_run_wide,
    clear_memo,
    default_jobs,
    execute_points,
    get_scenario,
    memo_size,
    point_key,
    profile_key,
    profile_task,
    run_scenario,
    scenario_names,
    sim_point,
)
from repro.experiments import ExperimentSettings, clear_cache
from repro.experiments.figures import sweep_points
from repro.workloads import tpcw


@pytest.fixture
def micro_settings():
    """The cheapest settings that still exercise profiling + sweeping."""
    return ExperimentSettings(
        replica_counts=(1, 2),
        sim_warmup=1.0,
        sim_duration=4.0,
        profile_duration=8.0,
        profile_mixed_duration=8.0,
    )


@pytest.fixture(autouse=True)
def fresh_engine():
    """Each test starts and ends with empty memo/profile caches."""
    clear_memo()
    clear_cache()
    yield
    clear_memo()
    clear_cache()


def _bad_point():
    """A point that raises inside its backend (standalone needs N == 1)."""
    spec = tpcw.SHOPPING
    return sim_point(
        spec, spec.replication_config(2), "standalone",
        seed=1, warmup=1.0, duration=4.0,
    )


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        names = scenario_names()
        for i in range(6, 15):
            assert f"figure{i}" in names
        for i in range(2, 6):
            assert f"table{i}" in names
        assert "error-margin" in names
        assert "crossval" in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            get_scenario("figure99")

    def test_suggestions_are_canonical_names(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            get_scenario("fig06")
        assert excinfo.value.suggestions
        assert set(excinfo.value.suggestions) <= set(scenario_names())

    def test_scenarios_carry_metadata(self):
        scenario = get_scenario("figure6")
        assert scenario.kind == "figure"
        assert scenario.all_tags == ("figure",)
        assert scenario.title.startswith("TPC-W throughput")


class TestCacheKeys:
    def test_tag_is_a_label_not_an_input(self, micro_settings):
        spec = tpcw.SHOPPING
        config = spec.replication_config(2)
        a = sim_point(spec, config, "multi-master", seed=1, warmup=1.0,
                      duration=4.0, tag="x")
        b = sim_point(spec, config, "multi-master", seed=1, warmup=1.0,
                      duration=4.0, tag="y")
        assert point_key(a) == point_key(b)

    def test_seed_and_config_change_the_key(self):
        spec = tpcw.SHOPPING
        base = sim_point(spec, spec.replication_config(2), "multi-master",
                         seed=1, warmup=1.0, duration=4.0)
        other_seed = sim_point(spec, spec.replication_config(2),
                               "multi-master", seed=2, warmup=1.0,
                               duration=4.0)
        other_n = sim_point(spec, spec.replication_config(4), "multi-master",
                            seed=1, warmup=1.0, duration=4.0)
        assert point_key(base) != point_key(other_seed)
        assert point_key(base) != point_key(other_n)

    def test_model_key_depends_on_profile_task(self, micro_settings):
        from repro.engine import model_point

        spec = tpcw.SHOPPING
        config = spec.replication_config(2)
        task = profile_task(spec, micro_settings)
        other = profile_task(spec, ExperimentSettings())
        a = model_point(spec, config, "multi-master", profile=task)
        b = model_point(spec, config, "multi-master", profile=other)
        assert point_key(a) != point_key(b)

    def test_profile_point_key_matches_profile_key(self, micro_settings):
        from repro.engine import profile_point

        point = profile_point(tpcw.SHOPPING, micro_settings)
        assert point_key(point) == profile_key(point.profile)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"x": 1})
        hit, value = cache.get("a" * 64)
        assert hit and value == {"x": 1}
        assert len(cache) == 1

    def test_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, value = cache.get("b" * 64)
        assert not hit and value is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "c" * 64
        cache.put(key, [1, 2, 3])
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("d" * 64, 1)
        cache.clear()
        assert len(cache) == 0


class TestDeterminism:
    def test_parallel_identical_to_serial(self, micro_settings):
        serial = run_scenario("figure6", micro_settings)
        clear_memo()
        clear_cache()
        parallel = run_scenario("figure6", micro_settings, jobs=4)
        assert serial == parallel

    def test_cache_hits_identical_to_cold_run(self, micro_settings, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_scenario("figure6", micro_settings, cache=cache)
        clear_memo()
        clear_cache()
        warm = run_scenario("figure6", micro_settings, cache=cache)
        assert cold == warm
        assert cache.hits > 0

    def test_memo_shares_points_across_scenarios(self, micro_settings):
        points = sweep_points("tpcw", "multi-master", micro_settings)
        execute_points(points)
        before = memo_size()
        again = execute_points(points)
        assert memo_size() == before
        assert all(result is not None for result in again)

    def test_run_scenario_by_name(self, micro_settings):
        direct = run_scenario(get_scenario("figure6"), micro_settings)
        result = run_scenario("figure6", micro_settings)
        assert result == direct


class TestFailurePropagation:
    def test_worker_failure_raises_engine_error(self):
        good = sim_point(
            tpcw.SHOPPING, tpcw.SHOPPING.replication_config(1),
            "standalone", seed=1, warmup=1.0, duration=4.0,
        )
        with pytest.raises(EngineError) as excinfo:
            execute_points([good, _bad_point()], jobs=2)
        assert "standalone" in str(excinfo.value)
        assert excinfo.value.point is not None

    def test_serial_failure_raises_original_error(self):
        with pytest.raises(ConfigurationError):
            execute_points([_bad_point()], jobs=1)

    def test_reproduce_exit_code_on_engine_error(self, monkeypatch, capsys):
        from repro import cli

        def boom(*args, **kwargs):
            raise EngineError("sweep point failed in worker [test]")

        monkeypatch.setattr(cli, "execute_points", boom)
        monkeypatch.setattr(cli.experiments, "REPORT_SCENARIOS",
                            ("table2", "table4"))
        assert cli.main(["reproduce", "--fast"]) == 1
        err = capsys.readouterr().err
        assert "[table2] error: sweep point failed in worker [test]" in err
        assert "[table4] error: sweep point failed in worker [test]" in err


class TestJobs:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_jobs_none_means_cpu_count(self, micro_settings):
        # jobs=None must not crash and must produce the same artifact.
        serial = run_scenario("figure6", micro_settings)
        clear_memo()
        clear_cache()
        assert run_scenario("figure6", micro_settings, jobs=None) == serial


class TestCLI:
    def test_scenarios_command_lists_registry(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "figure6" in out
        assert "table3" in out
        assert "error-margin" in out

    def test_reproduce_jobs_defaults_to_cpu_count(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["reproduce", "--fast"])
        assert args.jobs is None  # engine maps None -> os.cpu_count()

    def test_figure_jobs_defaults_to_serial(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "figure6"])
        assert args.jobs == 1

    def test_table_runs_through_registry(self, capsys):
        from repro.cli import main

        code = main(["run", "table2", "--no-cache", "--jobs", "2"])
        assert code == 0
        assert "TPC-W parameters" in capsys.readouterr().out

    def test_run_command_handles_any_scenario(self, capsys):
        from repro.cli import main

        code = main(["run", "ablation-mva", "--no-cache"])
        assert code == 0
        # An ablation renders its own rows under its heading.
        out = capsys.readouterr().out
        assert out.startswith("mva ablation (exact vs Schweitzer):\n  n=   1 ")


class TestRunWideOptions:
    """Run-wide settings are applied by the engine, in one place: a flag
    either reaches every point that can take it or the grid refuses to
    build — it is never a silent no-op."""

    @pytest.fixture(scope="class")
    def grids(self):
        """Every registered grid at fast(), built once: the builders no
        longer read the run-wide settings fields."""
        settings = ExperimentSettings.fast()
        return {name: (scenario, list(scenario.points(settings)))
                for name, scenario in all_scenarios().items()}

    def test_default_settings_leave_the_grid_untouched(self, grids):
        settings = ExperimentSettings.fast()
        assert all(getattr(settings, name) is None for name in RUN_WIDE)
        for scenario, points in grids.values():
            assert apply_run_wide(scenario, settings, points) is points

    def test_audit_reaches_every_executable_point(self, grids):
        settings = ExperimentSettings.fast().audited()
        for name, (scenario, points) in grids.items():
            for point in apply_run_wide(scenario, settings, points):
                if point.backend in ("simulator", "cluster", "autoscale"):
                    assert point.option("telemetry") is not None, (
                        f"--audit is a no-op on {name} [{point.tag}]")
                else:
                    assert point.option("telemetry") is None

    def test_certifier_reaches_every_multi_master_point_or_refuses(self, grids):
        settings = ExperimentSettings.fast().with_certifier("sharded")
        reached = refused = 0
        for name, (scenario, points) in grids.items():
            try:
                overlaid = apply_run_wide(scenario, settings, points)
            except ConfigurationError as exc:
                # Unpartitioned workloads cannot run sharded: loud, early.
                assert "partitioned workload" in str(exc)
                refused += 1
                continue
            for before, point in zip(points, overlaid):
                takes = (point.design == "multi-master"
                         and point.backend in ("model", "simulator", "cluster"))
                if "certifier" in scenario.owns or not takes:
                    assert point is before or (
                        point.option("certifier") == before.option("certifier")
                    )
                else:
                    assert point.option("certifier") is not None, (
                        f"--certifier is a no-op on {name} [{point.tag}]")
                    reached += 1
        assert reached and refused

    def test_capacity_source_reaches_autoscale_points_only(self, grids):
        settings = ExperimentSettings.fast().with_capacity_source("estimated")
        for name, (scenario, points) in grids.items():
            for before, point in zip(
                    points, apply_run_wide(scenario, settings, points)):
                if point.backend != "autoscale" or \
                        "capacity_source" in scenario.owns:
                    assert point == before
                else:
                    assert point.option("capacity_source") == "estimated"

    def test_sim_and_live_twins_take_the_same_flags(self, grids):
        """The bug this design removes: --certifier reached the live
        partial-replication cells but not their simulator twins."""
        settings = ExperimentSettings.fast().with_certifier("sharded")
        for name in ("partial-replication-sweep",
                     "partial-replication-sweep-live"):
            scenario, points = grids[name]
            overlaid = apply_run_wide(scenario, settings, points)
            assert all(p.option("certifier") == settings.certifier
                       for p in overlaid if p.backend != "profile")

    def test_unknown_option_fails_when_the_point_is_built(self):
        spec = tpcw.SHOPPING
        with pytest.raises(ConfigurationError, match="telemetri"):
            sim_point(spec, spec.replication_config(2), "multi-master",
                      seed=1, warmup=1.0, duration=4.0, telemetri=True)


class TestPointIntrospection:
    def test_replicas_property(self):
        spec = tpcw.SHOPPING
        point = sim_point(spec, spec.replication_config(8), "multi-master",
                          seed=1, warmup=1.0, duration=4.0)
        assert point.replicas == 8
        profile_only = SweepPoint(backend="profile", spec=spec)
        assert profile_only.replicas == 1

    def test_option_lookup(self):
        spec = tpcw.SHOPPING
        point = sim_point(spec, spec.replication_config(1), "standalone",
                          seed=1, warmup=1.0, duration=4.0,
                          arrival_rate=25.0)
        assert point.option("arrival_rate") == 25.0
        assert point.option("missing", "fallback") == "fallback"
        assert point.options_dict()["duration"] == 4.0
