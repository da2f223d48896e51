"""Full reproduction reports: regenerate every artifact into one document.

:func:`full_report` runs Tables 2-5, Figures 6-14, the §6.3 sensitivity
analyses, the §6.2 error margin and the ablations, and renders them as one
text report — the program behind ``repro reproduce``.  Every artifact is a
registered scenario run by name through the engine, so ``jobs`` fans each
sweep out over a process pool and ``cache`` makes interrupted reports
resume incrementally; the progress heartbeat reports per-scenario
wall-clock so parallel speedup is visible.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from ..engine import run_scenario
from . import ablations
from .figures import FigureResult
from .settings import ExperimentSettings
from .tables import DemandTable

#: The paper's artifacts in report order, by canonical scenario name.
REPORT_SCENARIOS = (
    "table2", "table4", "table3", "table5",
    *(f"figure{i}" for i in range(6, 15)),
    "sens-lb-delay", "sens-certifier-delay", "sens-certifier-capacity",
    "error-margin",
)


def _summary(artifact) -> Optional[str]:
    """The one-line accuracy summary printed under a measured table or a
    validation figure (``None`` for every other artifact)."""
    if isinstance(artifact, DemandTable):
        return f"  -> max profiling error {artifact.max_relative_error():.2%}"
    if isinstance(artifact, FigureResult):
        return f"  -> max {artifact.metric} error {artifact.max_error():.1%}"
    return None


def full_report(
    settings: Optional[ExperimentSettings] = None,
    progress: Optional[Callable[[str], None]] = None,
    *,
    jobs: Optional[int] = 1,
    cache: object = None,
) -> str:
    """Regenerate every paper artifact; returns the combined text report.

    *progress* (if given) receives one line per completed artifact — total
    elapsed plus the artifact's own wall-clock — for long-running
    invocations that want a heartbeat.  ``jobs=None`` uses one worker per
    CPU.
    """
    settings = settings or ExperimentSettings()
    started = time.time()
    last = started
    sections: List[str] = []

    def note(name: str) -> None:
        nonlocal last
        now = time.time()
        if progress is not None:
            progress(
                f"[{now - started:6.0f}s] {name} done in {now - last:.1f}s"
            )
        last = now

    for name in REPORT_SCENARIOS:
        artifact = run_scenario(name, settings, jobs=jobs, cache=cache)
        sections.append(artifact.to_text())
        summary = _summary(artifact)
        if summary is not None:
            sections.append(summary)
        note(name)

    sections.append(_ablation_section(settings, jobs=jobs, cache=cache))
    note("ablations")

    return "\n\n".join(sections)


def _ablation_section(
    settings: ExperimentSettings,
    *,
    jobs: Optional[int] = 1,
    cache: object = None,
) -> str:
    lines: List[str] = ["mva ablation (exact vs Schweitzer):"]
    for row in ablations.mva_ablation():
        lines.append(
            f"  n={row.population:>4d} exact={row.exact_throughput:8.2f} "
            f"schweitzer={row.approximate_throughput:8.2f} "
            f"err={row.relative_error:.2%}"
        )
    lines.append("conflict-window ablation (one-step lag vs fixed point):")
    for row in ablations.conflict_window_ablation(settings, jobs=jobs,
                                                  cache=cache):
        lines.append(
            f"  N={row.replicas:>2d} lag={row.one_step_lag_abort:.4%} "
            f"fixed={row.fixed_point_abort:.4%}"
        )
    lines.append("service-distribution ablation (MM, N=4):")
    for row in ablations.distribution_ablation(settings, jobs=jobs,
                                               cache=cache):
        lines.append(
            f"  {row.distribution:<14s} measured={row.measured_throughput:7.1f} "
            f"predicted={row.predicted_throughput:7.1f} "
            f"err={row.relative_error:.1%}"
        )
    lines.append("lb-policy ablation (MM, N=8):")
    for row in ablations.lb_policy_ablation(settings, jobs=jobs, cache=cache):
        lines.append(
            f"  {row.policy:<13s} measured X={row.measured_throughput:7.1f} "
            f"R={row.measured_response_time * 1000:6.1f}ms | predicted "
            f"X={row.predicted_throughput:7.1f} "
            f"R={row.predicted_response_time * 1000:6.1f}ms"
        )
    return "\n".join(lines)
