"""Reproduction of Figures 6-14 as declarative engine scenarios.

Each figure is a registered scenario named ``figureN``; run one with
``run_scenario("figure6", settings)`` or ``repro run figure6``:

====== ======================================================
Figure Contents
====== ======================================================
6      TPC-W throughput, multi-master, 3 mixes, N=1..16
7      TPC-W response time, multi-master
8      TPC-W throughput, single-master
9      TPC-W response time, single-master
10     RUBiS throughput, multi-master
11     RUBiS response time, multi-master
12     RUBiS throughput, single-master
13     RUBiS response time, single-master
14     Multi-master abort probability at elevated A1
====== ======================================================

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
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.results import (
    OperatingPoint,
    ValidationPoint,
    ValidationSeries,
)
from ..core.topology import MULTI_MASTER, SINGLE_MASTER
from ..core.units import to_ms
from ..engine import (
    MODEL,
    Claim,
    Scenario,
    clear_memo,
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


# What each figure's measured curves show in the paper.  ``X`` is
# throughput, ``R`` response time, both at the replica count named.


def _at(figure: FigureResult, mix: str, n: int) -> OperatingPoint:
    return figure.series[mix].measured_curve().point_at(n)


def _speedup(figure: FigureResult, mix: str, n: int) -> float:
    """Throughput at *n* over the first grid point's (N=1)."""
    curve = figure.series[mix].measured_curve()
    return curve.speedup()[curve.replica_counts.index(n)]


def _ratio(field: str, mix: str, n: int, m: int) -> Callable:
    return lambda f: getattr(_at(f, mix, n), field) / getattr(_at(f, mix, m),
                                                                field)


def _linear(figure: str, mix: str, fraction: float) -> Claim:
    return Claim(figure, f"{mix} scales near-linearly: speedup(16) / 16",
                 lambda f: _speedup(f, mix, 16) / 16, f"> {fraction}",
                 replicas=(1, 16))


def _flat(figure: str, mix: str) -> Claim:
    def spread(f: FigureResult) -> float:
        responses = f.series[mix].measured_curve().response_times
        return max(responses) / min(responses)

    return Claim(figure, f"{mix} response stays flat: max R / min R",
                 spread, "< 1.6")


def _climbs(figure: str, mix: str, factor: float) -> Claim:
    return Claim(figure, f"{mix} response climbs with N: R(16) / R(1)",
                 _ratio("response_time", mix, 16, 1), f"> {factor:g}",
                 replicas=(1, 16))


def _tracks(figure: str, bound: float, window: float = 0.0) -> Claim:
    return Claim(figure, "predictions track measurements: max error",
                 lambda f: f.max_error(), f"< {bound}", window=window)


#: The window the saturated single-master RUBiS points need to reach their
#: steady-state mix: their max-error bounds hold at 60 s, while at
#: ``fast()``'s 16 s figure 13's response error reads over 100%.
SATURATED_WINDOW = 60.0

_FIGURE_CLAIMS: Dict[int, Tuple[Claim, ...]] = {
    6: (
        Claim("§6.2.1", "reads cost more than updates: X_ordering(1) / "
              "X_browsing(1)", lambda f: (_at(f, "ordering", 1).throughput
                                          / _at(f, "browsing", 1).throughput),
              "> 1", replicas=(1,)),
        _linear("figure 6", "browsing", 0.8),
        Claim("figure 6", "ordering is writeset-bound: speedup(16) / 16",
              lambda f: _speedup(f, "ordering", 16) / 16, "< 0.6",
              replicas=(1, 16)),
        Claim("figure 6", "browsing out-scales ordering: ratio of "
              "speedups at 16",
              lambda f: (_speedup(f, "browsing", 16)
                         / _speedup(f, "ordering", 16)),
              "> 1", replicas=(1, 16)),
        _tracks("§6.2", 0.15),
    ),
    7: (
        _flat("figure 7", "browsing"),
        _climbs("figure 7", "ordering", 4.0),
        _tracks("figure 7", 0.40),
    ),
    8: (
        _linear("figure 8", "browsing", 0.8),
        Claim("figure 8", "ordering saturates at the master: X(16) / X(4)",
              _ratio("throughput", "ordering", 16, 4), "< 1.15",
              replicas=(4, 16)),
        Claim("figure 8", "ordering plateau ~2x the master's update "
              "capacity: X(16) tps",
              lambda f: _at(f, "ordering", 16).throughput,
              "> 100 and < 200", replicas=(16,)),
        _tracks("§6.2", 0.15),
    ),
    9: (
        _flat("figure 9", "browsing"),
        _climbs("figure 9", "ordering", 10.0),
        Claim("figure 9", "ordering's knee is past 4 replicas: R(4) / R(16)",
              _ratio("response_time", "ordering", 4, 16), "< 0.3",
              replicas=(4, 16)),
        _tracks("figure 9", 0.60),
    ),
    10: (
        _linear("figure 10", "browsing", 0.9),
        Claim("§6.2.2", "bidding is writeset-bound: speedup(16)",
              lambda f: _speedup(f, "bidding", 16), "< 4.5",
              replicas=(1, 16)),
        Claim("figure 10", "bidding gains little past 6 replicas: "
              "X(16) / X(6)",
              _ratio("throughput", "bidding", 16, 6), "< 1.3",
              replicas=(6, 16)),
        _tracks("§6.2", 0.15),
    ),
    11: (
        _flat("figure 11", "browsing"),
        _climbs("figure 11", "bidding", 5.0),
        _tracks("figure 11", 0.25),
    ),
    12: (
        _linear("figure 12", "browsing", 0.9),
        Claim("figure 12", "bidding is bounded by the master: X(16) / X(4)",
              _ratio("throughput", "bidding", 16, 4), "< 1.25",
              replicas=(4, 16)),
        _tracks("§6.2", 0.15, SATURATED_WINDOW),
    ),
    13: (
        _flat("figure 13", "browsing"),
        _climbs("figure 13", "bidding", 5.0),
        _tracks("figure 13", 0.55, SATURATED_WINDOW),
    ),
}


def _figure_scenario(
    number: int, title: str, benchmark: str, design: str, metric: str
) -> Scenario:
    figure_id = f"figure{number}"
    return Scenario(
        name=figure_id,
        title=title,
        kind="figure",
        points=partial(sweep_points, benchmark, design),
        assemble=partial(_assemble_figure, figure_id, title, metric),
        claims=_FIGURE_CLAIMS[number],
    )


for _number, _title, _benchmark, _design, _metric in _FIGURE_DEFS:
    register_scenario(
        _figure_scenario(_number, _title, _benchmark, _design, _metric)
    )


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


#: The paper's measured A16 per A1 target (§6.3.3).
PAPER_A16 = {0.0024: 0.10, 0.0053: 0.17, 0.0090: 0.29}


def _a16_over_paper(result: Figure14Result) -> List[float]:
    """Measured A16 over the paper's A16, one per curve."""
    return [curve.measured[list(curve.replica_counts).index(16)]
            / PAPER_A16[curve.target_a1] for curve in result.curves]


def _top_gaps(result: Figure14Result, side: str) -> List[float]:
    """How far each curve's top-N abort rate (*side*: ``measured`` or
    ``predicted``) sits above the next-lower A1 target's."""
    tops = [getattr(curve, side)[-1] for curve in
            sorted(result.curves, key=lambda c: c.target_a1)]
    return [b - a for a, b in zip(tops, tops[1:])]


_FIGURE14_CLAIMS = (
    Claim("§6.3.3", "the heap table reaches its A1 target: "
          "min measured A1 / target",
          lambda r: min(c.measured_a1 / c.target_a1 for c in r.curves),
          ">= 0.5"),
    Claim("§6.3.3", "the heap table reaches its A1 target: "
          "max measured A1 / target",
          lambda r: max(c.measured_a1 / c.target_a1 for c in r.curves),
          "<= 1.6"),
    Claim("figure 14", "measured aborts grow with N: "
          "min A(top N) - A(first N)",
          lambda r: min(c.measured[-1] - c.measured[0] for c in r.curves),
          "> 0"),
    Claim("figure 14", "predicted aborts never fall with N: "
          "min step between neighbouring N",
          lambda r: min((b - a for c in r.curves
                         for a, b in zip(c.predicted, c.predicted[1:])),
                        default=0.0),
          ">= 0"),
    Claim("§6.3.3", "measured A16 in the paper's ballpark: "
          "min A16 / paper's A16",
          lambda r: min(_a16_over_paper(r)), "> 0.55", replicas=(16,)),
    Claim("§6.3.3", "measured A16 in the paper's ballpark: "
          "max A16 / paper's A16",
          lambda r: max(_a16_over_paper(r)), "< 1.45", replicas=(16,)),
    Claim("figure 14", "higher A1, higher measured curve: "
          "min gap at the top N",
          lambda r: min(_top_gaps(r, "measured")), "> 0"),
    Claim("figure 14", "higher A1, higher predicted curve: "
          "min gap at the top N",
          lambda r: min(_top_gaps(r, "predicted")), "> 0"),
)

# Following §6.3.3: the conflict footprint of TPC-W shopping is shrunk (the
# "heap table") until the standalone abort rate A1 reaches each target; the
# model then predicts AN from the *measured* A1 while the simulator
# measures AN directly.
register_scenario(Scenario(
    name="figure14",
    title="TPC-W shopping MM abort probability at elevated A1",
    kind="figure",
    points=partial(_figure14_points, microbench.FIGURE14_ABORT_RATES),
    assemble=partial(_figure14_assemble, microbench.FIGURE14_ABORT_RATES),
    claims=_FIGURE14_CLAIMS,
))
