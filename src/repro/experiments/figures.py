"""Reproduction of Figures 6-14 as declarative engine scenarios.

Each ``figureN`` function regenerates the corresponding paper artifact:

====== ====================================================== =============
Figure Contents                                                Runner
====== ====================================================== =============
6      TPC-W throughput, multi-master, 3 mixes, N=1..16       :func:`figure6`
7      TPC-W response time, multi-master                      :func:`figure7`
8      TPC-W throughput, single-master                        :func:`figure8`
9      TPC-W response time, single-master                     :func:`figure9`
10     RUBiS throughput, multi-master                         :func:`figure10`
11     RUBiS response time, multi-master                      :func:`figure11`
12     RUBiS throughput, single-master                        :func:`figure12`
13     RUBiS response time, single-master                     :func:`figure13`
14     Multi-master abort probability at elevated A1          :func:`figure14`
====== ====================================================== =============

The *measured* side is the discrete-event simulation of the prototypes; the
*predicted* side is the analytical model fed only by standalone profiling.
Each figure is a :class:`~repro.engine.scenario.Scenario` — a declarative
(workload × design × replica-count) grid with one model point and one
simulator point per cell — registered in the scenario registry and executed
by the shared sweep runner.  Sweep points are keyed by content, so figure
pairs that share runs (6/7, 8/9, 10/11, 12/13) cost one sweep, and
``--jobs N`` fans the points out over a process pool with identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.results import (
    OperatingPoint,
    ValidationPoint,
    ValidationSeries,
)
from ..core.topology import MULTI_MASTER, SINGLE_MASTER
from ..core.units import to_ms
from ..engine import (
    MODEL,
    Scenario,
    clear_memo,
    execute_points,
    model_point,
    profile_task,
    register_scenario,
    sim_point,
)
from ..workloads import microbench, rubis, tpcw
from ..workloads.spec import WorkloadSpec
from .context import get_profiling_report
from .settings import ExperimentSettings

_BENCHMARKS: Dict[str, Dict[str, WorkloadSpec]] = {
    "tpcw": dict(tpcw.MIXES),
    "rubis": dict(rubis.MIXES),
}


@dataclass(frozen=True)
class FigureResult:
    """One reproduced figure: a family of predicted-vs-measured curves."""

    figure_id: str
    title: str
    #: Which operating-point field the figure plots.
    metric: str  # "throughput" | "response_time"
    #: Mix name -> validation series (one curve pair per mix).
    series: Dict[str, ValidationSeries]

    def max_error(self) -> float:
        """Worst relative error of the plotted metric across all curves."""
        errors = []
        for validation in self.series.values():
            for row in validation.rows:
                if self.metric == "throughput":
                    errors.append(row.throughput_error)
                else:
                    errors.append(row.response_time_error)
        return max(errors)

    def to_text(self) -> str:
        """Render the figure as a paper-style text table."""
        lines = [f"{self.figure_id}: {self.title}"]
        unit = "tps" if self.metric == "throughput" else "ms"
        for mix, validation in self.series.items():
            lines.append(f"  [{mix}]")
            lines.append(
                f"    {'N':>3s} {'measured':>12s} {'predicted':>12s} {'err%':>7s}"
            )
            for row in validation.rows:
                measured, predicted = _metric_values(self.metric, row)
                err = abs(predicted - measured) / measured * 100.0
                lines.append(
                    f"    {row.replicas:>3d} {measured:>10.1f} {unit} "
                    f"{predicted:>9.1f} {unit} {err:>6.1f}%"
                )
        return "\n".join(lines)


def _metric_values(metric: str, row: ValidationPoint) -> Tuple[float, float]:
    if metric == "throughput":
        return row.measured.throughput, row.predicted.throughput
    return to_ms(row.measured.response_time), to_ms(row.predicted.response_time)


# ---------------------------------------------------------------------------
# The validation sweep grid shared by Figures 6-13 and the error margin
# ---------------------------------------------------------------------------


def sweep_points(
    benchmark: str, design: str, settings: ExperimentSettings
) -> List:
    """The (mix × N × pillar) grid behind one benchmark/design sweep."""
    points = []
    for mix_name, spec in _BENCHMARKS[benchmark].items():
        task = profile_task(spec, settings)
        for n in settings.replica_counts:
            config = spec.replication_config(
                n,
                load_balancer_delay=settings.load_balancer_delay,
                certifier_delay=settings.certifier_delay,
            )
            points.append(
                model_point(spec, config, design, profile=task, tag=mix_name)
            )
            points.append(
                sim_point(
                    spec, config, design,
                    seed=settings.seed,
                    warmup=settings.sim_warmup,
                    duration=settings.sim_duration,
                    tag=mix_name,
                )
            )
    return points


def assemble_sweep(
    settings: ExperimentSettings, points: Sequence, results: Sequence
) -> Dict[str, ValidationSeries]:
    """Pair model and simulator points back into validation series."""
    predicted: Dict[Tuple[str, int], OperatingPoint] = {}
    measured: Dict[Tuple[str, int], OperatingPoint] = {}
    labels: Dict[str, str] = {}
    order: List[str] = []
    for point, result in zip(points, results):
        key = (point.tag, point.replicas)
        if point.backend == MODEL:
            predicted[key] = result.point
        else:
            measured[key] = result.point
        if point.tag not in labels:
            labels[point.tag] = f"{point.spec.name} {point.design}"
            order.append(point.tag)
    series: Dict[str, ValidationSeries] = {}
    for mix in order:
        rows = [
            ValidationPoint(
                replicas=n,
                predicted=predicted[(mix, n)],
                measured=measured[(mix, n)],
            )
            for n in settings.replica_counts
        ]
        series[mix] = ValidationSeries(label=labels[mix], rows=rows)
    return series


def validation_sweep(
    benchmark: str,
    design: str,
    settings: ExperimentSettings,
    *,
    jobs: Optional[int] = 1,
    cache: object = None,
) -> Dict[str, ValidationSeries]:
    """Predicted and measured curves for every mix of *benchmark* (cached)."""
    points = sweep_points(benchmark, design, settings)
    results = execute_points(points, jobs=jobs, cache=cache)
    return assemble_sweep(settings, points, results)


def clear_sweep_cache() -> None:
    """Drop memoized sweep points (tests use this for isolation)."""
    clear_memo()


# ---------------------------------------------------------------------------
# Figures 6-13
# ---------------------------------------------------------------------------

#: (figure number, title, benchmark, design, metric)
_FIGURE_DEFS: Tuple[Tuple[int, str, str, str, str], ...] = (
    (6, "TPC-W throughput on MM system", "tpcw", MULTI_MASTER, "throughput"),
    (7, "TPC-W response time on MM system", "tpcw", MULTI_MASTER,
     "response_time"),
    (8, "TPC-W throughput on SM system", "tpcw", SINGLE_MASTER, "throughput"),
    (9, "TPC-W response time on SM system", "tpcw", SINGLE_MASTER,
     "response_time"),
    (10, "RUBiS throughput on MM system", "rubis", MULTI_MASTER, "throughput"),
    (11, "RUBiS response time on MM system", "rubis", MULTI_MASTER,
     "response_time"),
    (12, "RUBiS throughput on SM system", "rubis", SINGLE_MASTER,
     "throughput"),
    (13, "RUBiS response time on SM system", "rubis", SINGLE_MASTER,
     "response_time"),
)


def _assemble_figure(
    figure_id: str,
    title: str,
    metric: str,
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> FigureResult:
    return FigureResult(
        figure_id=figure_id,
        title=title,
        metric=metric,
        series=assemble_sweep(settings, points, results),
    )


def _figure_scenario(
    number: int, title: str, benchmark: str, design: str, metric: str
) -> Scenario:
    figure_id = f"figure{number}"
    aliases = tuple(dict.fromkeys((f"fig{number:02d}", f"fig{number}")))
    return Scenario(
        name=figure_id,
        title=title,
        kind="figure",
        metrics=(metric,),
        points=partial(sweep_points, benchmark, design),
        assemble=partial(_assemble_figure, figure_id, title, metric),
        aliases=aliases,
    )


_FIGURE_SCENARIOS: Dict[str, Scenario] = {
    f"figure{number}": register_scenario(
        _figure_scenario(number, title, benchmark, design, metric)
    )
    for number, title, benchmark, design, metric in _FIGURE_DEFS
}


def _run_figure(
    figure_id: str,
    settings: ExperimentSettings,
    jobs: Optional[int],
    cache: object,
) -> FigureResult:
    from ..engine.runner import run_scenario

    return run_scenario(
        _FIGURE_SCENARIOS[figure_id], settings, jobs=jobs, cache=cache
    )


def figure6(settings: ExperimentSettings = ExperimentSettings(),
            *, jobs: Optional[int] = 1, cache: object = None) -> FigureResult:
    """TPC-W throughput on the multi-master system."""
    return _run_figure("figure6", settings, jobs, cache)


def figure7(settings: ExperimentSettings = ExperimentSettings(),
            *, jobs: Optional[int] = 1, cache: object = None) -> FigureResult:
    """TPC-W response time on the multi-master system."""
    return _run_figure("figure7", settings, jobs, cache)


def figure8(settings: ExperimentSettings = ExperimentSettings(),
            *, jobs: Optional[int] = 1, cache: object = None) -> FigureResult:
    """TPC-W throughput on the single-master system."""
    return _run_figure("figure8", settings, jobs, cache)


def figure9(settings: ExperimentSettings = ExperimentSettings(),
            *, jobs: Optional[int] = 1, cache: object = None) -> FigureResult:
    """TPC-W response time on the single-master system."""
    return _run_figure("figure9", settings, jobs, cache)


def figure10(settings: ExperimentSettings = ExperimentSettings(),
             *, jobs: Optional[int] = 1, cache: object = None) -> FigureResult:
    """RUBiS throughput on the multi-master system."""
    return _run_figure("figure10", settings, jobs, cache)


def figure11(settings: ExperimentSettings = ExperimentSettings(),
             *, jobs: Optional[int] = 1, cache: object = None) -> FigureResult:
    """RUBiS response time on the multi-master system."""
    return _run_figure("figure11", settings, jobs, cache)


def figure12(settings: ExperimentSettings = ExperimentSettings(),
             *, jobs: Optional[int] = 1, cache: object = None) -> FigureResult:
    """RUBiS throughput on the single-master system."""
    return _run_figure("figure12", settings, jobs, cache)


def figure13(settings: ExperimentSettings = ExperimentSettings(),
             *, jobs: Optional[int] = 1, cache: object = None) -> FigureResult:
    """RUBiS response time on the single-master system."""
    return _run_figure("figure13", settings, jobs, cache)


# ---------------------------------------------------------------------------
# Figure 14: abort probability under artificially raised conflict rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbortCurve:
    """One Figure-14 curve: abort probability vs N at a fixed A1."""

    target_a1: float
    measured_a1: float
    replica_counts: Sequence[int]
    measured: Sequence[float]
    predicted: Sequence[float]


@dataclass(frozen=True)
class Figure14Result:
    """All Figure-14 curves."""

    curves: Sequence[AbortCurve]

    def to_text(self) -> str:
        """Render as a paper-style text table."""
        lines = ["figure14: TPC-W shopping MM abort probabilities"]
        for curve in self.curves:
            lines.append(
                f"  [A1 target={curve.target_a1:.2%} "
                f"measured={curve.measured_a1:.2%}]"
            )
            lines.append(f"    {'N':>3s} {'measured AN':>12s} {'predicted AN':>13s}")
            for n, m, p in zip(curve.replica_counts, curve.measured, curve.predicted):
                lines.append(f"    {n:>3d} {m:>11.2%} {p:>12.2%}")
        return "\n".join(lines)


def _figure14_points(
    abort_rates: Sequence[float], settings: ExperimentSettings
) -> List:
    """Derive the heap-table specs (§6.3.3) and lay out their grid.

    Building the grid profiles the base workload and each derived spec in
    the parent process (the derived spec's *shape* depends on the base
    profile); those reports land in the shared profiling cache, so the
    assemble step reads the measured A1 values for free.
    """
    base = tpcw.SHOPPING
    base_report = get_profiling_report(base, settings)
    base_profile = base_report.profile
    update_rate = (
        base_report.standalone_throughput * base_profile.mix.write_fraction
    )
    points = []
    for target in abort_rates:
        spec = microbench.heap_table_spec(
            target,
            update_response_time=base_profile.update_response_time,
            update_rate=update_rate,
            base=base,
        )
        task = profile_task(spec, settings)
        tag = f"{target:.6f}"
        for n in settings.replica_counts:
            config = spec.replication_config(
                n,
                load_balancer_delay=settings.load_balancer_delay,
                certifier_delay=settings.certifier_delay,
            )
            points.append(
                model_point(spec, config, MULTI_MASTER, profile=task, tag=tag)
            )
            points.append(
                sim_point(
                    spec, config, MULTI_MASTER,
                    seed=settings.seed,
                    warmup=settings.sim_warmup,
                    duration=settings.sim_duration,
                    tag=tag,
                )
            )
    return points


def _figure14_assemble(
    abort_rates: Sequence[float],
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> Figure14Result:
    predicted: Dict[Tuple[str, int], float] = {}
    measured: Dict[Tuple[str, int], float] = {}
    spec_by_tag: Dict[str, WorkloadSpec] = {}
    for point, result in zip(points, results):
        key = (point.tag, point.replicas)
        if point.backend == MODEL:
            predicted[key] = result.abort_rate
        else:
            measured[key] = result.abort_rate
        spec_by_tag[point.tag] = point.spec
    curves: List[AbortCurve] = []
    for target in abort_rates:
        tag = f"{target:.6f}"
        profile = get_profiling_report(spec_by_tag[tag], settings).profile
        curves.append(
            AbortCurve(
                target_a1=target,
                measured_a1=profile.abort_rate,
                replica_counts=tuple(settings.replica_counts),
                measured=tuple(
                    measured[(tag, n)] for n in settings.replica_counts
                ),
                predicted=tuple(
                    predicted[(tag, n)] for n in settings.replica_counts
                ),
            )
        )
    return Figure14Result(curves=tuple(curves))


def _figure14_scenario(abort_rates: Sequence[float]) -> Scenario:
    rates = tuple(abort_rates)
    return Scenario(
        name="figure14",
        title="TPC-W shopping MM abort probability at elevated A1",
        kind="figure",
        metrics=("abort_rate",),
        points=partial(_figure14_points, rates),
        assemble=partial(_figure14_assemble, rates),
        aliases=("fig14",),
    )


register_scenario(_figure14_scenario(microbench.FIGURE14_ABORT_RATES))


def figure14(
    settings: ExperimentSettings = ExperimentSettings(),
    abort_rates: Sequence[float] = microbench.FIGURE14_ABORT_RATES,
    *,
    jobs: Optional[int] = 1,
    cache: object = None,
) -> Figure14Result:
    """Multi-master abort probability with an injected high-conflict table.

    Following §6.3.3: the conflict footprint of TPC-W shopping is shrunk
    (the "heap table") until the standalone abort rate A1 reaches each
    target; the model then predicts AN from the *measured* A1 while the
    simulator measures AN directly.
    """
    from ..engine.runner import run_scenario

    return run_scenario(
        _figure14_scenario(abort_rates), settings, jobs=jobs, cache=cache
    )
