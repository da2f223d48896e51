"""Tier-1 guard: what the DES spends per committed transaction.

``scripts/golden.py``'s ``costs`` group counts, on five write-heavy
runs and one standalone run, the heap pushes, the processes started and the calls (Python and
builtin) per committed transaction, and ``tests/golden/costs.json`` pins them.
Counts are exact where timings are noisy, so a change to the hot path
is judged by them: any count may fall, none may rise by more than
``COST_TOLERANCE``.  Call counts depend on the interpreter and are
gated only on the Python the pins were taken on; elsewhere they are
reported, not checked.  A PR that moves a count on purpose re-pins it
with ``python scripts/golden.py --only costs --update`` and says why.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.simulator.des import Environment
from repro.simulator.runner import simulate

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_costs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def measured(golden):
    return json.loads(golden.dump(golden.costs_manifest()))


def test_no_pinned_cost_rose(golden, measured, record_property):
    committed = json.loads((golden.GOLDEN / "costs.json").read_text())
    for case, counts in measured["cases"].items():
        record_property(f"{case} calls", counts["calls"])
    assert golden.cost_differences(committed, measured) == []


def test_a_rise_past_the_tolerance_is_reported(golden, measured):
    pinned = json.loads(json.dumps(measured))
    case = pinned["cases"]["write_mm"]
    case["heap_pushes"] = round(case["heap_pushes"] / 1.02, 3)
    case["processes"] = round(case["processes"] / 1.005, 3)
    assert golden.cost_differences(pinned, measured) == [
        f"costs: write_mm heap_pushes rose {case['heap_pushes']} -> "
        f"{measured['cases']['write_mm']['heap_pushes']} per committed "
        f"transaction",
    ]


def test_call_counts_are_gated_only_on_the_pinned_python(golden, measured):
    pinned = json.loads(json.dumps(measured))
    pinned["cases"]["write_sm"]["calls"] /= 2
    assert len(golden.cost_differences(pinned, measured)) == 1
    pinned["python"] = "2.7"
    assert golden.cost_differences(pinned, measured) == []


def test_writeset_application_starts_no_process(golden, monkeypatch):
    # A closed-loop run without faults or telemetry starts one process
    # per client and nothing else: propagated writesets are applied by
    # callback objects, not processes.
    started = []
    start = Environment.start
    monkeypatch.setattr(Environment, "start",
                        lambda env, process: started.append(start(env, process)))
    case = dict(golden.cost_cases()["write_mm"])
    spec, config = case.pop("spec"), case.pop("config")
    result = simulate(spec, config, **case)
    assert result.total_certifications > 0
    assert len(started) == config.total_clients


def test_measure_costs_puts_the_previous_profile_hook_back(golden):
    # scripts/never_run.py traces tier-1 with a profile hook; a count
    # that dropped it would leave every later test file untraced.
    import sys

    from repro.workloads import tpcw

    def hook(frame, event, arg):
        pass

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        golden.measure_costs(dict(
            spec=tpcw.ORDERING, config=tpcw.ORDERING.replication_config(2),
            design="multi-master", seed=1, warmup=0.5, duration=1.0,
        ))
        assert sys.getprofile() is hook
    finally:
        sys.setprofile(before)
