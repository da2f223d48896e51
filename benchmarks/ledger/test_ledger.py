"""Fast self-tests of the ledger (no workload is run).

They cover what a wrong number would hide behind: span self-time
arithmetic, the percentile rule, the ``--compare`` verdicts, ``--list``,
and that ``BENCHMARK.json`` names exactly the workloads and metrics the
code emits.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import ledger_compare
import ledger_spec as spec
import ledger_trace
from ledger_trace import Recorder, Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- span self time ----------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_cover():
    spans = [
        Span("pass", 0.0, 10.0, None, "w"),
        Span("child", 1.0, 3.0, 0, "w"),
        Span("child", 2.0, 5.0, 0, "w"),     # overlaps the first child
        Span("child", 7.0, 8.0, 0, "w"),
        Span("grandchild", 2.5, 3.0, 2, "w"),
    ]
    totals = ledger_trace.self_times(spans)
    assert totals["pass"] == 10.0 - (4.0 + 1.0)
    assert totals["child"] == 2.0 + (3.0 - 0.5) + 1.0
    assert totals["grandchild"] == 0.5


def test_child_cover_is_clipped_to_the_parent_interval():
    spans = [Span("pass", 2.0, 4.0, None, "w"),
             Span("late", 3.0, 9.0, 0, "w")]
    assert ledger_trace.self_times(spans)["pass"] == 1.0
    assert ledger_trace.covered([(0.0, 1.0), (5.0, 6.0)], 2.0, 4.0) == 0.0


def test_recorder_nests_spans_and_counts_at_the_boundary():
    rec = Recorder("w", enabled=True)
    with rec.span("pass"):
        with rec.span("call"):
            rec.count("points", 3)
        with rec.span("call"):
            rec.count("points", 2)
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("pass", None), ("call", 0), ("call", 0)]
    assert all(s.end >= s.start > 0.0 for s in rec.spans)
    assert rec.counts == {"points": 5}
    events = rec.chrome_trace()["traceEvents"]
    assert [e["ph"] for e in events] == ["X"] * 3


def test_disabled_recorder_records_nothing():
    rec = Recorder("w", enabled=False)
    with rec.span("pass"):
        rec.count("points")
    assert rec.spans == [] and rec.counts == {}


def test_timed_classes_charge_their_busy_total_not_the_pass():
    rec = Recorder("w", enabled=True)
    work = rec.timed("sidb.get", lambda x: x + 1)
    with rec.span("pass"):
        rec.sample_spans = True
        assert work(1) == 2
        rec.sample_spans = False
        for _ in range(9):
            work(1)
    assert rec.calls["sidb.get"] == 10
    assert [s.name for s in rec.spans] == ["pass", "sidb.get"]
    totals = rec.self_seconds()
    assert totals["sidb.get"] == rec.busy["sidb.get"]
    whole = rec.spans[0].duration
    assert abs(totals["pass"] + totals["sidb.get"] - whole) < 1e-9


# -- percentile rule ----------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert ledger_trace.tail_percentile(39) is None
    assert ledger_trace.tail_percentile(40) == 75.0
    assert ledger_trace.tail_percentile(100) == 90.0
    assert ledger_trace.tail_percentile(200) == 95.0
    assert ledger_trace.tail_percentile(999) == 95.0
    assert ledger_trace.tail_percentile(1000) == 99.0
    assert ledger_trace.tail_percentile(10_000) == 99.9


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))
    assert ledger_trace.percentile(samples, 99.0) == 990
    assert ledger_trace.percentile(samples, 100.0) == 1000
    assert ledger_trace.percentile([5.0], 50.0) == 5.0
    summary = ledger_trace.summarize(samples)
    assert (summary["tail"], summary["tail_value"], summary["n"]) == (
        "p99", 990, 1000)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert abs(ledger_trace.spread(values) - 5.5 / 14.5) < 1e-12
    assert ledger_trace.spread([10.0, 12.0]) == 2.0 / 11.0
    assert ledger_trace.spread([7.0]) == 0.0


# -- compare ----------------------------------------------------------------


def test_verdicts_apply_the_bound_per_metric():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert ledger_compare.verdict(
        "lower", 0.15, False, steady, [11.0, 11.1, 10.9, 11.0]
    )[0] == ledger_compare.OK
    assert ledger_compare.verdict(
        "lower", 0.15, False, steady, [12.0, 12.1, 11.9, 12.0]
    )[0] == ledger_compare.REGRESSED
    assert ledger_compare.verdict(
        "higher", 0.15, False, steady, [8.0, 8.1, 7.9, 8.0]
    )[0] == ledger_compare.REGRESSED
    # A uniform slowdown is a regression: nothing is normalised away.
    assert ledger_compare.verdict(
        "lower", 0.15, False, [1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2]
    )[0] == ledger_compare.REGRESSED


def test_wide_spread_or_host_drift_is_unresolved_unless_all_better():
    noisy = [10.0, 14.0, 8.0, 12.0]
    assert ledger_compare.verdict(
        "lower", 0.15, False, noisy, [10.5, 13.0, 9.0, 11.0]
    )[0] == ledger_compare.UNRESOLVED
    assert ledger_compare.verdict(
        "lower", 0.15, False, noisy, [5.0, 7.0, 4.0, 6.0]
    )[0] == ledger_compare.OK
    steady = [10.0, 10.1, 9.9, 10.0]
    assert ledger_compare.verdict(
        "lower", 0.15, False, steady, steady, drifted=True
    )[0] == ledger_compare.UNRESOLVED


def test_absolute_bounds_are_in_the_metrics_own_unit():
    assert ledger_compare.verdict(
        "higher", 0.03, True, [0.89], [0.87])[0] == ledger_compare.OK
    assert ledger_compare.verdict(
        "higher", 0.03, True, [0.89], [0.85])[0] == ledger_compare.REGRESSED
    assert ledger_compare.verdict(
        "lower", 0.0, True, [0.0], [0.001])[0] == ledger_compare.REGRESSED


def _ledger(wall: float) -> dict:
    return {"runs": [
        {"workload": name, "calib_drift": 0.01,
         "values": {"wall_s": wall, "failed_share": 0.0},
         "ranges": {"wall_s": [wall, wall]}}
        for name in spec.WORKLOAD_NAMES
    ]}


def test_compare_prints_one_row_per_workload():
    lines, regressed = ledger_compare.compare(_ledger(1.0), _ledger(1.05))
    assert not regressed
    assert [line.split()[0] for line in lines] == list(spec.WORKLOAD_NAMES)
    assert all("wall_s=ok" in line for line in lines)
    lines, regressed = ledger_compare.compare(_ledger(1.0), _ledger(1.3))
    assert regressed and all("wall_s=regressed" in line for line in lines)


# -- the contract -------------------------------------------------------------


def test_benchmark_json_is_the_spec_written_out():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert on_disk == spec.benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}


def test_names_units_and_bounds_fit_the_contract():
    names = (list(spec.WORKLOAD_NAMES)
             + [m.name for m in spec.END_TO_END] + list(spec.LAYER_NAMES))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m.unit)
               for m in spec.END_TO_END + spec.PER_LAYER + spec.EXTRAS)
    assert all(m.better in ("lower", "higher")
               for m in spec.END_TO_END + spec.PER_LAYER + spec.EXTRAS)
    assert all(0.0 < m.bound <= 0.25 for m in spec.END_TO_END)
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in spec.WORKLOADS)
    assert all(m.moves for m in spec.PER_LAYER)
    assert 1 <= spec.RUN_SECONDS <= 60
    assert spec.PATHS == ("benchmarks/ledger",)


def test_the_code_emits_exactly_the_named_workloads_and_metrics():
    import ledger_workloads
    import run

    assert tuple(ledger_workloads.WORKLOADS) == spec.WORKLOAD_NAMES
    one = ledger_workloads.PassResult(wall=2.0, cpu=1.0, work=10,
                                      attempted=10)
    stats = run.end_to_end([0.5, 0.7, 0.6], [one, one], 40.0)
    assert tuple(stats) == tuple(m.name for m in spec.END_TO_END)
    assert stats["setup_s"]["value"] == 0.6
    assert stats["work_per_s"]["value"] == 5.0
    # Every layer metric is spelt out where its source says it is made;
    # a traced run checks the reverse (nothing off contract is emitted).
    sources = {
        "probe": (HERE / "ledger_probes.py").read_text("utf-8"),
        "pass": (HERE / "ledger_workloads.py").read_text("utf-8"),
    }
    made_by_run = {"bench.trace_overhead_pct", "host.calib_ms",
                   "host.calib_drift_pct"}
    run_source = (HERE / "run.py").read_text("utf-8")
    for metric in spec.PER_LAYER:
        source = (run_source if metric.name in made_by_run
                  else sources[metric.source])
        assert f'"{metric.name}"' in source, metric.name
    # Named extras are either a universal metric under the workload's own
    # name (run.py copies it) or made by the workload itself.
    for extra in spec.EXTRAS:
        if extra.alias_of:
            assert extra.alias_of in stats
        else:
            assert f'"{extra.name}"' in sources["pass"] + run_source


def test_list_prints_every_workload_and_metric():
    listed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--list"],
        capture_output=True, text=True, check=True,
    ).stdout
    for name in (spec.WORKLOAD_NAMES + spec.LAYER_NAMES
                 + tuple(m.name for m in spec.END_TO_END)
                 + tuple(e.name for e in spec.EXTRAS)):
        assert f" {name} " in listed, name
