"""``run.py --compare A.json B.json``: the absolute-rate gate.

Each end-to-end metric's own bound is applied per metric and workload to
the medians of two ledger files (A the parent, B the change) — no
suite-wide normalisation, so a uniform slowdown regresses every row.
A row is ``unresolved`` rather than ``ok`` or ``regressed`` when the
run-to-run spread is wider than the bound or the host calibration loop
drifted, unless every run of B reads better than every run of A.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from ledger_spec import (
    CALIB_DRIFT_LIMIT,
    END_TO_END,
    EXTRAS,
    WORKLOAD_NAMES,
)
from ledger_trace import spread

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"

#: Metrics a drifting host cannot blur: exact counts and sizes.
HOST_FREE = frozenset({"failed_share", "peak_rss_mb", "model_err_max_pct"})

#: name -> (better, bound, absolute, workloads or None for all)
GATES: Dict[str, Tuple[str, float, bool, Optional[Tuple[str, ...]]]] = {
    m.name: (m.better, m.bound, False, None) for m in END_TO_END
}
GATES.update({
    e.name: (e.better, e.bound, e.absolute, e.workloads)
    for e in EXTRAS if e.alias_of is None
})


def noise(values: Sequence[float]) -> float:
    """Run-to-run spread of *values* in the metric's own unit."""
    return spread(values) * abs(statistics.median(values))


def verdict(better: str, bound: float, absolute: bool,
            parent: Sequence[float], change: Sequence[float],
            drifted: bool = False,
            noisiest: Optional[float] = None) -> Tuple[str, float]:
    """``(verdict, worsening)`` of *change* against *parent*.

    The worsening is positive when the change's median is worse, as a
    share of the parent's median (or in the metric's unit when the bound
    is absolute).  *noisiest* is the wider of the two sides' spreads in
    the metric's unit; by default it is taken from the values.
    """
    a, b = statistics.median(parent), statistics.median(change)
    worse = (b - a) if better == "lower" else (a - b)
    scale = 1.0 if absolute or a == 0 else abs(a)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if noisiest is None:
        noisiest = max(noise(parent), noise(change))
    if (drifted or noisiest / scale > bound) and not all_better:
        return UNRESOLVED, worse / scale
    if worse / scale > bound:
        return REGRESSED, worse / scale
    return OK, worse / scale


def _by_workload(ledger: dict) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for run in ledger["runs"]:
        runs.setdefault(run["workload"], []).append(run)
    return runs


def _values(runs: List[dict], metric: str) -> List[float]:
    return [run["values"][metric] for run in runs
            if metric in run["values"]]


def _noise(runs: List[dict], metric: str) -> float:
    """Spread across runs; a single run falls back to the range across
    its passes so some spread is still visible."""
    if len(runs) == 1 and metric in runs[0].get("ranges", {}):
        low, high = runs[0]["ranges"][metric]
        return high - low
    return noise(_values(runs, metric))


def compare(parent: dict, change: dict) -> Tuple[List[str], bool]:
    """Report lines (one row per workload) and whether any metric
    regressed."""
    a_runs, b_runs = _by_workload(parent), _by_workload(change)
    lines, regressed = [], False
    for workload in WORKLOAD_NAMES:
        if workload not in a_runs or workload not in b_runs:
            lines.append(f"{workload:16s} missing from one ledger")
            regressed = True
            continue
        drifted = any(
            run["calib_drift"] > CALIB_DRIFT_LIMIT
            for run in a_runs[workload] + b_runs[workload]
        )
        cells = []
        for metric, (better, bound, absolute, only) in GATES.items():
            if only is not None and workload not in only:
                continue
            a = _values(a_runs[workload], metric)
            b = _values(b_runs[workload], metric)
            if not a or not b:
                continue
            what, worse = verdict(
                better, bound, absolute, a, b,
                drifted and metric not in HOST_FREE,
                max(_noise(a_runs[workload], metric),
                    _noise(b_runs[workload], metric)),
            )
            regressed = regressed or what == REGRESSED
            amount = f"{worse:+.3g}" if absolute else f"{worse:+.1%}"
            cells.append(f"{metric}={what}({amount})")
        note = "  [host.calib_ms drifted]" if drifted else ""
        lines.append(f"{workload:16s} " + " ".join(cells) + note)
    return lines, regressed
