"""Golden manifests: byte-identity of grids and results as a command.

Three committed files under ``tests/golden/`` pin the behaviour a
refactor must preserve and what it costs:

* ``points.json`` — for every registered scenario at
  ``ExperimentSettings.fast()``, the ordered list of ``[tag, backend,
  design, replicas, cacheable, key]`` where *key* is the engine's
  ``point_key`` with the source fingerprint patched to a constant (so it
  hashes only the point's declared inputs, not the code).
* ``digests.json`` — the ledger's ``result_digest`` recipe
  (``sha256(repr(replace(r, telemetry=None, perf=None)))``) over an
  18-case DES grid, the model curve of both designs up to N=32 (where
  the single-master population lattice is largest, one workload per
  rebalancing regime), the same models on one *measured* profile (its
  non-zero abort rate drives the abort fixed point through several
  balancing passes), a reachable plus an unreachable deployment plan,
  the elastic loop (every autoscale point of the simulator's elastic
  scenarios, their rendered artifacts, and three direct
  ``autoscale_sim`` runs), the rendered tables of the simulator's
  labelled-cell comparisons (``hetero-fleet``, ``placement-ablation``,
  ``certifier-sharding``) and the ``repr`` of audited, fully traced
  telemetry (which pins every recorder ``attached`` baseline).

* ``costs.json`` — what the DES spends per committed transaction on
  five write-heavy runs and one standalone run: heap pushes, processes
  started and calls
  (see :func:`measure_costs`).  These are counts, not timings, so
  a spend PR is judged by them exactly; a count may fall freely but not
  rise by more than :data:`COST_TOLERANCE`, and call counts are gated
  only on the Python version they were pinned on.

``python scripts/golden.py`` recomputes all three and diffs them against
the committed files (exit 1 on any difference, or any cost rise);
``--update`` rewrites them.  A PR that moves an entry re-pins it here and
says which and why.  ``tests/test_golden.py`` and ``tests/test_costs.py``
run the same comparisons in tier-1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: Stand-in for ``source_fingerprint()`` while point keys are computed.
FINGERPRINT = "golden"
SEED = 20090401
MODEL_REPLICAS = (1, 2, 4, 8, 16, 32)
#: Replica counts predicted on the measured profile.
MEASURED_REPLICAS = (2, 8)


def points_manifest() -> Dict[str, List[list]]:
    """``{scenario: [[tag, backend, design, replicas, cacheable, key]]}``."""
    from repro.engine import all_scenarios, cache, point_key
    from repro.experiments.settings import ExperimentSettings

    settings = ExperimentSettings.fast()
    real = cache.source_fingerprint
    cache.source_fingerprint = lambda: FINGERPRINT
    try:
        return {
            name: [
                [p.tag, p.backend, p.design, p.replicas, p.cacheable, point_key(p)]
                for p in scenario.points(settings)
            ]
            for name, scenario in sorted(all_scenarios().items())
        }
    finally:
        cache.source_fingerprint = real


def result_digest(result: object) -> str:
    """A result's identity with the observation fields left out (``None``
    — an unreachable plan — digests as itself)."""
    if dataclasses.is_dataclass(result):
        dropped = {
            f.name: None
            for f in dataclasses.fields(result)
            if f.name in ("telemetry", "perf")
        }
        result = dataclasses.replace(result, **dropped)
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


def des_cases() -> Dict[str, dict]:
    """The DES grid: design x certifier x service_time x partial map x
    drain/crash faults x LB policy x open loop x standalone, as
    ``simulate`` keyword sets (spec and config included)."""
    from repro.partition.placement import PartitionMap
    from repro.sidb.certifier_api import CertifierSpec
    from repro.simulator.faults import ReplicaFault, crash_fault
    from repro.workloads import tpcw

    plain = tpcw.ORDERING
    parts = tpcw.ORDERING.with_partitions(8, 0.1)
    ring = PartitionMap.ring(8, 4, 2)

    def case(spec, replicas=4, design="multi-master", **options):
        return dict(
            spec=spec,
            config=spec.replication_config(replicas),
            design=design,
            seed=SEED,
            warmup=1.0,
            duration=4.0,
            **options,
        )

    def timed(kind):
        return CertifierSpec(kind, service_time=0.004)

    return {
        "mm": case(plain),
        "sm": case(plain, design="single-master"),
        "standalone": case(plain, replicas=1, design="standalone"),
        "standalone-partitioned": case(parts, replicas=1, design="standalone"),
        "mm-read-heavy": case(tpcw.BROWSING),
        "mm-partitioned": case(parts),
        "mm-sharded": case(parts, certifier="sharded"),
        "mm-global-service-time": case(parts, certifier=timed("global")),
        "mm-sharded-service-time": case(parts, certifier=timed("sharded")),
        "mm-partial-map": case(parts, partition_map=ring, lb_policy="partition-aware"),
        "mm-sharded-partial-map": case(
            parts, partition_map=ring, lb_policy="partition-aware", certifier="sharded"
        ),
        "mm-drain": case(plain, faults=(ReplicaFault(1, 1.5, downtime=1.5),)),
        "sm-drain": case(
            plain,
            design="single-master",
            faults=(ReplicaFault(2, 1.5, downtime=1.5),),
        ),
        "mm-crash": case(plain, faults=(crash_fault(2, 2.0),)),
        "mm-random-lb": case(plain, lb_policy="random"),
        "mm-open-loop": case(plain, arrival_rate=60.0),
        "sm-open-loop": case(plain, design="single-master", arrival_rate=40.0),
        "mm-hetero-lognormal": case(
            plain,
            capacities=(2.0, 1.0, 1.0, 0.5),
            lb_policy="capacity-weighted",
            distribution="lognormal",
        ),
    }


#: The simulator's elastic scenarios (autoscale backend), pinned point by
#: point and as rendered artifacts.
ELASTIC_SCENARIOS = (
    "autoscale-diurnal", "autoscale-flashcrowd", "brownout-detection",
    "capacity-estimation", "rolling-upgrade", "selfheal-crashstorm",
)
#: The simulator's labelled-cell comparison scenarios, pinned as rendered
#: artifacts (their points are pinned by ``points.json``).
TABLE_SCENARIOS = ("certifier-sharding", "hetero-fleet", "placement-ablation")


def elastic_cases() -> Dict[str, dict]:
    """Direct ``autoscale_sim`` runs the scenarios do not reach: a pinned
    fleet, detection on its own timer, and a rolling cycle the end of
    the run cuts short."""
    from repro.control.controller import FixedPolicy
    from repro.control.trace import DiurnalTrace
    from repro.ops import OpsPlan
    from repro.simulator.faults import crash_fault
    from repro.workloads import tpcw

    def case(design="multi-master", **options):
        return dict(
            spec=tpcw.SHOPPING,
            trace=DiurnalTrace(base_rate=30.0, peak_rate=30.0, period=60.0),
            policy=FixedPolicy(replicas=3),
            design=design,
            seed=SEED,
            warmup=5.0,
            duration=40.0,
            control_interval=5.0,
            slo_response=1.5,
            max_replicas=6,
            **options,
        )

    return {
        "fixed-3": case(),
        "selfheal-detect-interval": case(ops=OpsPlan(
            faults=(crash_fault(1, 15.0),), self_heal=True,
            detect_interval=1.5,
        )),
        # The second slave's replacement is still joining when the drain
        # phase ends (t=60): no "upgraded", no "rolling-complete".
        "rolling-cut-short": case(
            "single-master",
            ops=OpsPlan(rolling_start=55.0, transfer_writesets=400),
        ),
    }


def elastic_digests() -> Dict[str, str]:
    """The elastic scenarios through the engine (``scenario_points`` ->
    ``execute_points`` -> ``assemble`` -> ``to_text``), the rendered
    tables of the comparison scenarios, plus the direct cases."""
    from repro.control.autoscale import autoscale_sim
    from repro.engine import execute_points, get_scenario, scenario_points
    from repro.experiments.settings import ExperimentSettings

    settings = ExperimentSettings.fast()
    digests = {}
    for name in ELASTIC_SCENARIOS:
        scenario = get_scenario(name)
        points = scenario_points(scenario, settings)
        results = execute_points(points, cache=None)
        for index, (point, result) in enumerate(zip(points, results)):
            digests[f"{name}[{index}] {point.tag}"] = result_digest(result)
        artifact = scenario.assemble(settings, points, results)
        digests[f"{name} text"] = result_digest(artifact.to_text())
    for name in TABLE_SCENARIOS:
        scenario = get_scenario(name)
        points = scenario_points(scenario, settings)
        results = execute_points(points, cache=None)
        artifact = scenario.assemble(settings, points, results)
        digests[f"{name} text"] = result_digest(artifact.to_text())
    for label, kwargs in elastic_cases().items():
        digests[label] = result_digest(autoscale_sim(**kwargs))
    return digests


def telemetry_digests() -> Dict[str, str]:
    """``repr`` of audited, fully traced telemetry: three DES designs and
    one self-healing run per elastic design."""
    from repro.control.autoscale import autoscale_sim
    from repro.ops import OpsPlan
    from repro.simulator.faults import crash_fault
    from repro.simulator.runner import simulate
    from repro.telemetry import TelemetryConfig

    audited = TelemetryConfig(span_sample_rate=1.0, audit=True)
    digests = {}
    cases = des_cases()
    for label in ("mm", "sm", "mm-sharded"):
        kwargs = cases[label]
        spec, config = kwargs.pop("spec"), kwargs.pop("config")
        result = simulate(spec, config, telemetry=audited, **kwargs)
        digests[label] = result_digest(result.telemetry)
    heal = OpsPlan(faults=(crash_fault(1, 10.0),), self_heal=True)
    for design in ("multi-master", "single-master"):
        kwargs = elastic_cases()["fixed-3"]
        kwargs.update(design=design, duration=25.0, ops=heal,
                      telemetry=audited)
        result = autoscale_sim(**kwargs)
        digests[f"{design} selfheal"] = result_digest(result.telemetry)
    return digests


def digests_manifest() -> Dict[str, Dict[str, str]]:
    """``{"des": {case: digest}, "model": {"<workload> <design> N=n": digest},
    "plan": {"reachable" | "unreachable": digest}, "elastic": {...},
    "telemetry": {...}}``."""
    from repro.core.errors import ConvergenceError
    from repro.models.api import DESIGNS, predict
    from repro.models.planning import plan_deployment
    from repro.profiling import profile_standalone
    from repro.simulator.runner import simulate
    from repro.workloads import rubis, tpcw

    def predicted(design, profile, config) -> str:
        # A diverging abort fixed point (rubis/bidding single-master at
        # N=32) is pinned as the error it raises.
        try:
            return result_digest(predict(design, profile, config))
        except ConvergenceError as error:
            return result_digest(repr(error))

    des = {}
    for label, kwargs in des_cases().items():
        spec, config = kwargs.pop("spec"), kwargs.pop("config")
        des[label] = result_digest(simulate(spec, config, **kwargs))
    model = {}
    for spec in (tpcw.SHOPPING, rubis.BIDDING):
        profile = spec.ground_truth_profile(
            abort_rate=0.0002, update_response_time=0.05
        )
        for design in DESIGNS:
            for n in MODEL_REPLICAS:
                model[f"{spec.name} {design} N={n}"] = predicted(
                    design, profile, spec.replication_config(n)
                )
    measured = profile_standalone(
        tpcw.SHOPPING, seed=SEED, replay_duration=40.0, mixed_duration=40.0
    ).profile
    config = tpcw.SHOPPING.replication_config(1)
    for design in DESIGNS:
        for n in MEASURED_REPLICAS:
            model[f"tpcw/shopping measured {design} N={n}"] = predicted(
                design, measured, config.with_replicas(n)
            )
    plan = {
        "reachable": result_digest(
            plan_deployment(measured, config, 50.0, max_replicas=4)
        ),
        "unreachable": result_digest(
            plan_deployment(measured, config, 100_000.0, max_replicas=3)
        ),
    }
    return {"des": des, "model": model, "plan": plan,
            "elastic": elastic_digests(), "telemetry": telemetry_digests()}


#: A pinned cost may rise by this fraction before it fails.
COST_TOLERANCE = 0.01
#: The cost counts, in manifest order.
COSTS = ("heap_pushes", "processes", "calls")


def cost_cases() -> Dict[str, dict]:
    """The cost grid: the ledger's three ``des-write-heavy`` points over
    their ``shortened()`` windows (1 s warm-up, 2 s window), then the
    faulted and the sharded DES golden cases, then the standalone
    database the profiler runs (a 60 s window: over 2 s its few
    transactions would mostly count the set-up)."""
    from repro.workloads import tpcw

    def point(spec, replicas, design, duration=2.0, **options):
        return dict(spec=spec, config=spec.replication_config(replicas),
                    design=design, seed=SEED, warmup=1.0, duration=duration,
                    **options)

    sharded = tpcw.ORDERING.with_partitions(8, 0.1)
    cases = des_cases()
    return {
        "write_mm": point(tpcw.ORDERING, 16, "multi-master"),
        "write_sm": point(tpcw.ORDERING, 8, "single-master"),
        "write_sharded": point(sharded, 8, "multi-master",
                               certifier="sharded"),
        "des/mm-crash": cases["mm-crash"],
        "des/mm-sharded": cases["mm-sharded"],
        "standalone": point(tpcw.SHOPPING, 1, "standalone", duration=60.0),
    }


def measure_costs(kwargs: dict) -> Dict[str, float]:
    """Run one ``simulate`` call under a ``sys.setprofile`` counter and
    return its costs per committed (window) transaction (the hook in
    place before the call, e.g. ``scripts/never_run.py``'s, is put back
    after it):

    * ``heap_pushes`` — ``Environment._sequence`` at the end of the run;
    * ``processes`` — calls of ``Environment.start``;
    * ``calls`` — every call a profiler sees: Python functions,
      generator resumptions and builtins (profile ``call`` and
      ``c_call`` events, what cProfile counts).
    """
    from repro.simulator.des import Environment
    from repro.simulator.runner import simulate

    kwargs = dict(kwargs)
    spec, config = kwargs.pop("spec"), kwargs.pop("config")
    start, init = Environment.start.__code__, Environment.__init__.__code__
    counts = {"calls": 0, "processes": 0}
    environments = []

    def count(frame, event, arg):
        if event == "c_call":
            counts["calls"] += 1
        elif event == "call":
            counts["calls"] += 1
            code = frame.f_code
            if code is start:
                counts["processes"] += 1
            elif code is init:
                environments.append(frame.f_locals["self"])

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = simulate(spec, config, **kwargs)
    finally:
        sys.setprofile(previous)
    counts["heap_pushes"] = sum(env._sequence for env in environments)
    committed = result.committed_transactions
    return {name: round(counts[name] / committed, 3) for name in COSTS}


def costs_manifest() -> dict:
    """``{"python": "<major.minor>", "cases": {case: {count: per txn}}}``."""
    from repro.simulator.runner import simulate
    from repro.workloads import tpcw

    # Lazy imports and first-use set-up are not a run's cost: pay them
    # before anything is counted.
    simulate(tpcw.ORDERING, tpcw.ORDERING.replication_config(2),
             warmup=0.1, duration=0.2)
    return {
        # Call counts vary between interpreter versions.
        "python": "%d.%d" % sys.version_info[:2],
        "cases": {label: measure_costs(kwargs)
                  for label, kwargs in cost_cases().items()},
    }


def cost_differences(committed: dict, current: dict) -> List[str]:
    """One line per pinned count that rose by more than the tolerance,
    or per case added or gone.  Call counts depend on the interpreter:
    they are compared only when *current* was measured on the Python
    *committed* was pinned on."""
    gated = [name for name in COSTS
             if name != "calls" or current["python"] == committed["python"]]
    old, new = committed["cases"], current["cases"]
    lines = [f"costs: {case} {'added' if case in new else 'removed'}"
             for case in sorted(set(old) ^ set(new))]
    for case in sorted(set(old) & set(new)):
        for name in gated:
            pinned, measured = old[case][name], new[case][name]
            if measured > pinned * (1.0 + COST_TOLERANCE):
                lines.append(f"costs: {case} {name} rose {pinned} -> "
                             f"{measured} per committed transaction")
    return lines


def _report_costs(current: dict) -> None:
    """Print every measured count beside its pin."""
    path = GOLDEN / "costs.json"
    committed = json.loads(path.read_text()) if path.exists() else {}
    pins = committed.get("cases", {})
    print(f"costs per committed transaction on Python {current['python']} "
          f"(pinned on {committed.get('python')}):")
    for case, counts in current["cases"].items():
        print(f"  {case}: " + ", ".join(
            f"{name} {value} (pinned {pins.get(case, {}).get(name)})"
            for name, value in counts.items()))


MANIFESTS = {"points": points_manifest, "digests": digests_manifest,
             "costs": costs_manifest}


def dump(manifest: object) -> str:
    """The committed file's exact text."""
    return json.dumps(manifest, indent=1, sort_keys=True) + "\n"


def _entries(name: str, manifest: dict) -> Dict[str, object]:
    """A manifest as flat ``{entry name: pinned value}``."""
    if name == "digests":
        return {f"{group}/{case}": value
                for group, cases in manifest.items()
                for case, value in cases.items()}
    entries = {scenario: len(rows) for scenario, rows in manifest.items()}
    for scenario, rows in manifest.items():
        for index, row in enumerate(rows):
            entries[f"{scenario}[{index}] {row[0]}"] = row
    return entries


def differences(name: str, current: dict) -> List[str]:
    """One line per entry of ``<name>.json`` that moved (or is new/gone)."""
    path = GOLDEN / f"{name}.json"
    if not path.exists():
        return [f"{path} is missing (run scripts/golden.py --update)"]
    if name == "costs":
        return cost_differences(json.loads(path.read_text()), current)
    committed = _entries(name, json.loads(path.read_text()))
    current = _entries(name, current)
    lines = []
    for key in sorted(set(committed) | set(current)):
        old, new = committed.get(key), current.get(key)
        if old != new:
            verb = "added" if old is None else "removed" if new is None else "moved"
            lines.append(f"{name}: {key} {verb}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed manifests")
    parser.add_argument("--only", choices=sorted(MANIFESTS), default=None)
    args = parser.parse_args(argv)
    failed = False
    for name in [args.only] if args.only else sorted(MANIFESTS):
        current = json.loads(dump(MANIFESTS[name]()))
        if args.update:
            GOLDEN.mkdir(parents=True, exist_ok=True)
            (GOLDEN / f"{name}.json").write_text(dump(current))
            print(f"wrote tests/golden/{name}.json")
            continue
        if name == "costs":
            _report_costs(current)
        lines = differences(name, current)
        failed = failed or bool(lines)
        for line in lines:
            print(line)
        if not lines:
            print(f"tests/golden/{name}.json: "
                  + ("no count rose" if name == "costs" else "unchanged"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
