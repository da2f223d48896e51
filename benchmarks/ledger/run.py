#!/usr/bin/env python3
"""The performance ledger: one command, seven workloads, every metric.

Two ways in:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
  workload in this process and prints, as the last line of its output,
  one JSON object ``{"correct", "attempted", "failed", "metrics"}`` —
  the end-to-end metrics with ``--trace 0``, the per-layer ones with
  ``--trace 1``.  This is the form ``BENCHMARK.json`` names.
* ``run.py --seed N [--trace] [--runs K] [--out FILE]`` runs all seven,
  one after another, each in its own fresh process, prints every metric
  by name with its unit, and exits non-zero if any check failed.

``run.py --compare A.json B.json`` gates two ``--out`` files against the
bounds; ``run.py --list`` prints the workloads and metrics.  The
benchmark reads and writes only under the checkout (scratch space and
traces go to ``.ledger/`` at its root).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

import ledger_spec as spec
from ledger_trace import Recorder, Stopwatch, calibrate, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".ledger"


def _program_on_path() -> None:
    """Put the program under test on ``sys.path`` or give up: the
    benchmark measures ``src/repro`` of this checkout and nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


#: Passes a run makes at the least, however short ``--seconds`` is.
MIN_PASSES = 3


def _stats(samples: List[float], pick=statistics.median
           ) -> Dict[str, float]:
    return {"value": pick(samples), "median": statistics.median(samples),
            "min": min(samples), "max": max(samples), "n": len(samples)}


def end_to_end(setup_s: List[float], passes, peak_rss_mb: float
               ) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics of one run, each with the median, range
    and count over set-ups or passes beside the reported value.

    ``setup_s`` is the median set-up.  The per-pass metrics report the
    *best* pass: this box's noise is one-sided (a neighbour slows a run
    by a third for ten seconds at a time, nothing ever speeds it up), so
    the fastest of a few passes is the program's cost and the median
    mostly the host's mood.
    """
    return {
        "setup_s": _stats(setup_s),
        "wall_s": _stats([p.wall for p in passes], min),
        "cpu_s": _stats([p.cpu for p in passes], min),
        "peak_rss_mb": _stats([peak_rss_mb]),
        "work_per_s": _stats([p.work / p.wall for p in passes], max),
    }


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload in this process.

    Returns the run's detail record (what ``--detail`` writes and
    ``--compare`` reads) and the probes' per-call samples.
    """
    from ledger_probes import run_probes
    from ledger_workloads import WORKLOADS, Checks

    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT / "work"))
    try:
        checks = Checks()
        calib_before = calibrate()
        workload = WORKLOADS[name](seed, workdir)

        setup_s = []
        for _ in range(workload.setup_reps):
            with Stopwatch() as watch:
                workload.setup(checks)
            setup_s.append(watch.wall)

        quiet = Recorder(name, enabled=False)
        passes = []
        started = time.perf_counter()
        while True:
            passes.append(workload.run_pass(quiet, checks))
            elapsed = time.perf_counter() - started
            # Stop once another pass would overshoot by more than half.
            if (len(passes) >= MIN_PASSES
                    and elapsed + 0.5 * elapsed / len(passes) >= seconds):
                break
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        digests = {p.digest for p in passes}
        checks.expect(len(digests) == 1,
                      f"result_digest differs across passes: {digests}")

        stats = end_to_end(setup_s, passes, peak_rss_mb)
        for key in passes[0].extras:
            stats[key] = _stats([p.extras[key] for p in passes])
        # The workload's own name for a universal metric.
        for extra in spec.EXTRAS:
            if extra.alias_of and name in extra.workloads:
                stats[extra.name] = stats[extra.alias_of]

        layer: Dict[str, float] = {}
        samples: Dict[str, List[float]] = {}
        if trace:
            recorder = Recorder(name, enabled=True)
            traced = workload.run_pass(recorder, checks)
            layer = dict.fromkeys(spec.LAYER_NAMES, 0.0)
            layer.update(traced.layer)
            layer.update(
                workload.traced_extras(recorder, checks, traced, passes)
            )
            layer["bench.trace_overhead_pct"] = (
                traced.wall / stats["wall_s"]["median"] - 1.0
            ) * 100.0
            layer.update(run_probes(seed, workdir, SRC, samples))
            recorder.write(OUT / f"trace-{name}.json")

        calib_after = calibrate()
        calib_drift = abs(calib_after - calib_before) / calib_before
        if trace:
            layer["host.calib_ms"] = (calib_before + calib_after) / 2.0
            layer["host.calib_drift_pct"] = calib_drift * 100.0
            checks.expect(
                set(layer) == set(spec.LAYER_NAMES),
                "layer metrics off contract: "
                f"{sorted(set(layer) ^ set(spec.LAYER_NAMES))}",
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes) + checks.attempted
    failed = len(checks.failures)
    stats["failed_share"] = _stats([failed / attempted])
    detail = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "passes": len(passes), "setups": len(setup_s),
        "stats": stats,
        "values": {key: stat["value"] for key, stat in stats.items()},
        "ranges": {key: [stat["min"], stat["max"]]
                   for key, stat in stats.items()},
        "pass_wall_s": [p.wall for p in passes],
        "layer": layer,
        "calib_ms": [calib_before, calib_after],
        "calib_drift": calib_drift,
        "result_digest": passes[0].digest,
        "attempted": attempted, "failed": failed,
        "failures": checks.failures,
    }
    return detail, samples


UNITS = {m.name: m.unit
         for m in spec.END_TO_END + spec.EXTRAS + spec.PER_LAYER}


def print_report(detail: dict, samples: Dict[str, List[float]]) -> None:
    """Every metric of one run by name, with its unit."""
    name = detail["workload"]
    work_unit = next(w.work_unit for w in spec.WORKLOADS if w.name == name)
    print(f"== {name}  seed={detail['seed']}  passes={detail['passes']}  "
          f"setups={detail['setups']}  work unit: {work_unit}")
    for key, stat in detail["stats"].items():
        print(f"  {key:28s} {stat['value']:>14.6g} {UNITS[key]:6s}"
              f" median {stat['median']:.6g}  min {stat['min']:.6g}"
              f"  max {stat['max']:.6g}  n={stat['n']}")
    for key, value in detail["layer"].items():
        print(f"  {key:36s} {value:>14.6g} {UNITS[key]}")
    for key, values in samples.items():
        summary = summarize(values)
        tail = (f"{summary['tail']} {summary['tail_value']:.4g}"
                if summary["tail"] else "no tail")
        print(f"    {key:34s} p50 {summary['median']:.4g}  {tail}"
              f"  n={summary['n']}")
    before, after = detail["calib_ms"]
    drift_note = (" UNRESOLVED: host drifted"
                  if detail["calib_drift"] > spec.CALIB_DRIFT_LIMIT else "")
    print(f"  host.calib_ms before {before:.3f} after {after:.3f} "
          f"drift {detail['calib_drift']:.1%}{drift_note}")
    print("  result_digest "
          + (detail["result_digest"] or "(not deterministic)"))
    for failure in detail["failures"]:
        print(f"  CHECK FAILED: {failure}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 detail_path=None) -> int:
    """Measure one workload, report it, and print the driver's JSON
    object as the last line; returns the exit status."""
    _program_on_path()
    detail, samples = measure(name, seed, seconds, trace)
    print_report(detail, samples)
    if detail_path is not None:
        Path(detail_path).write_text(json.dumps(detail), encoding="utf-8")
    reported = detail["layer"] if trace else {
        m.name: detail["values"][m.name] for m in spec.END_TO_END
    }
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {key: {"value": value, "unit": UNITS[key]}
                    for key, value in reported.items()},
    }))
    return 0 if detail["failed"] == 0 else 1


def run_all(seed: int, seconds: float, trace: bool, runs: int,
            out_path) -> int:
    """Every workload in turn, each in a fresh process, never two at
    once; returns non-zero if any run failed a check."""
    _program_on_path()
    OUT.mkdir(parents=True, exist_ok=True)
    details, status = [], 0
    for name in spec.WORKLOAD_NAMES:
        for run in range(runs):
            detail_path = OUT / f"detail-{name}.json"
            detail_path.unlink(missing_ok=True)
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed + run), "--seconds", str(seconds),
                 "--trace", str(int(trace)), "--detail", str(detail_path)],
                stdout=subprocess.PIPE, text=True,
            )
            # The child's last line is the driver's JSON; the rest is
            # the per-metric report.
            print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
            if child.returncode != 0:
                status = 1
            if detail_path.is_file():
                details.append(json.loads(detail_path.read_text("utf-8")))
                detail_path.unlink()
            else:
                print(f"  {name}: exited {child.returncode} with no result")
                status = 1
    ledger = {"ledger": 1, "seed": seed, "seconds": seconds,
              "trace": int(trace), "runs": details}
    if out_path is not None:
        Path(out_path).write_text(json.dumps(ledger, indent=1),
                                  encoding="utf-8")
        print(f"ledger written to {out_path}")
    names = [m.name for m in spec.END_TO_END]
    print(f"{'workload':16s} seed      " + " ".join(
        f"{name:>12s}" for name in names) + "  failed/attempted")
    for detail in details:
        print(f"{detail['workload']:16s} {detail['seed']:<9d} " + " ".join(
            f"{detail['values'][name]:>12.5g}" for name in names)
            + f"  {detail['failed']}/{detail['attempted']}")
    return status


def list_contract() -> None:
    print("workloads:")
    for workload in spec.WORKLOADS:
        print(f"  {workload.name:16s} [{workload.work_unit}] {workload.why}")
    print("end-to-end metrics (every workload, tracing off):")
    for metric in spec.END_TO_END:
        print(f"  {metric.name:20s} {metric.unit:6s} {metric.better:6s} "
              f"bound {metric.bound:.0%}")
    print("named per-workload end-to-end metrics:")
    for extra in spec.EXTRAS:
        bound = (f"{extra.bound:g} {extra.unit}" if extra.absolute
                 else f"{extra.bound:.0%}")
        alias = f" (= {extra.alias_of})" if extra.alias_of else ""
        print(f"  {extra.name:20s} {extra.unit:6s} {extra.better:6s} "
              f"bound {bound}{alias} on {', '.join(extra.workloads)}")
    print("per-layer metrics (--trace):")
    for metric in spec.PER_LAYER:
        print(f"  {metric.name:36s} {metric.unit:6s} {metric.better:6s} "
              f"{metric.source:5s} -> {metric.moves}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=20090401)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="add a traced pass and the layer probes")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (seed, seed+1, ...)")
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="gate ledger B against ledger A")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics, then exit")
    args = parser.parse_args(argv)

    if args.list:
        list_contract()
        return 0
    if args.compare:
        from ledger_compare import compare

        parent, change = (
            json.loads(Path(path).read_text("utf-8"))
            for path in args.compare
        )
        lines, regressed = compare(parent, change)
        print("\n".join(lines))
        return 1 if regressed else 0
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.detail)
    return run_all(args.seed, args.seconds, bool(args.trace), args.runs,
                   args.out)


if __name__ == "__main__":
    sys.exit(main())
