"""Reproduction of Tables 2-5 as declarative engine scenarios.

Tables 2 and 4 are *inputs* (the benchmark definitions); regenerating them
verifies the workload specs carry the paper's parameters — their scenarios
have empty sweep grids.  Tables 3 and 5 are *measurements*: each mix is one
profiling point in the scenario grid (the profiler replays each transaction
class on the standalone simulator and recovers the per-class CPU/disk
demands via the Utilization Law), so ``--jobs N`` profiles the mixes in
parallel and the reproduced table reports measured next to ground truth,
with the recovery error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence

from ..core.units import to_ms
from ..engine import Claim, Scenario, profile_point, register_scenario
from ..workloads import rubis, tpcw
from ..workloads.spec import WorkloadSpec
from .settings import ExperimentSettings


@dataclass(frozen=True)
class ParameterRow:
    """One row of Table 2 / Table 4."""

    mix: str
    read_fraction: float
    write_fraction: float
    clients_per_replica: int
    think_time_ms: float


@dataclass(frozen=True)
class ParameterTable:
    """A reproduced parameters table."""

    table_id: str
    benchmark: str
    rows: Sequence[ParameterRow]

    def to_text(self) -> str:
        """Render as a paper-style text table."""
        lines = [f"{self.table_id}: {self.benchmark} parameters"]
        lines.append(
            f"  {'mix':<10s} {'Pr':>6s} {'Pw':>6s} {'C':>4s} {'Z':>8s}"
        )
        for row in self.rows:
            lines.append(
                f"  {row.mix:<10s} {row.read_fraction:>5.0%} "
                f"{row.write_fraction:>5.0%} {row.clients_per_replica:>4d} "
                f"{row.think_time_ms:>6.0f}ms"
            )
        return "\n".join(lines)


def _parameter_table(table_id: str, benchmark: str, mixes) -> ParameterTable:
    rows = [
        ParameterRow(
            mix=spec.mix_name,
            read_fraction=spec.mix.read_fraction,
            write_fraction=spec.mix.write_fraction,
            clients_per_replica=spec.clients_per_replica,
            think_time_ms=spec.think_time * 1000.0,
        )
        for spec in mixes.values()
    ]
    return ParameterTable(table_id=table_id, benchmark=benchmark, rows=rows)


def table2() -> ParameterTable:
    """Table 2: TPC-W parameters."""
    return _parameter_table("table2", "TPC-W", tpcw.MIXES)


def table4() -> ParameterTable:
    """Table 4: RUBiS parameters."""
    return _parameter_table("table4", "RUBiS", rubis.MIXES)


@dataclass(frozen=True)
class DemandRow:
    """One (mix, resource) row of Table 3 / Table 5, measured vs truth (ms)."""

    mix: str
    resource: str
    read_truth: float
    read_measured: float
    write_truth: float
    write_measured: float
    writeset_truth: float
    writeset_measured: float

    def max_relative_error(self) -> float:
        """Worst profiling error across the three classes on this resource."""
        errors = []
        for truth, measured in (
            (self.read_truth, self.read_measured),
            (self.write_truth, self.write_measured),
            (self.writeset_truth, self.writeset_measured),
        ):
            if truth > 0:
                errors.append(abs(measured - truth) / truth)
        return max(errors) if errors else 0.0


@dataclass(frozen=True)
class DemandTable:
    """A reproduced service-demand table."""

    table_id: str
    benchmark: str
    rows: Sequence[DemandRow]

    def max_relative_error(self) -> float:
        """Worst profiling error in the whole table."""
        return max(row.max_relative_error() for row in self.rows)

    def to_text(self) -> str:
        """Render as a paper-style text table (measured values, truth in parens)."""
        lines = [
            f"{self.table_id}: measured service demands (ms) for "
            f"{self.benchmark} — profiler vs ground truth"
        ]
        lines.append(
            f"  {'mix':<10s} {'res':<5s} {'read':>16s} {'write':>16s} "
            f"{'writeset':>16s}"
        )
        for row in self.rows:
            lines.append(
                f"  {row.mix:<10s} {row.resource:<5s} "
                f"{row.read_measured:>7.2f} ({row.read_truth:>5.2f}) "
                f"{row.write_measured:>7.2f} ({row.write_truth:>5.2f}) "
                f"{row.writeset_measured:>7.2f} ({row.writeset_truth:>5.2f})"
            )
        return "\n".join(lines)


def _demand_points(
    mixes: Dict[str, WorkloadSpec], settings: ExperimentSettings
) -> List:
    return [
        profile_point(spec, settings, tag=spec.name)
        for spec in mixes.values()
    ]


def _assemble_demands(
    table_id: str,
    benchmark: str,
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> DemandTable:
    rows: List[DemandRow] = []
    for point, report in zip(points, results):
        spec = point.spec
        measured = report.profile.demands
        truth = spec.demands
        for resource in ("cpu", "disk"):
            rows.append(
                DemandRow(
                    mix=spec.mix_name,
                    resource=resource,
                    read_truth=to_ms(truth.read.get(resource)),
                    read_measured=to_ms(measured.read.get(resource)),
                    write_truth=to_ms(truth.write.get(resource)),
                    write_measured=to_ms(measured.write.get(resource)),
                    writeset_truth=to_ms(truth.writeset.get(resource)),
                    writeset_measured=to_ms(measured.writeset.get(resource)),
                )
            )
    return DemandTable(table_id=table_id, benchmark=benchmark, rows=rows)


def _row(table, mix: str, resource: str = ""):
    """The row of *mix* (and *resource*, for the demand tables)."""
    return next(row for row in table.rows if row.mix == mix
                and getattr(row, "resource", "") == resource)


def _recovers(table_id: str) -> Claim:
    return Claim(table_id.replace("table", "table "),
                 "the profiler recovers every demand: max relative error",
                 lambda t: t.max_relative_error(), "< 0.1")


def _matches_paper(klass: str, paper_ms: float) -> Claim:
    def error(table: DemandTable) -> float:
        measured = getattr(_row(table, "shopping", "cpu"), f"{klass}_measured")
        return abs(measured - paper_ms) / paper_ms

    return Claim("table 3", f"shopping {klass} CPU demand vs the paper's "
                 f"{paper_ms} ms: relative error", error, "< 0.1")


_TABLE_CLAIMS = {
    "table2": (
        Claim("table 2", "browsing read fraction",
              lambda t: _row(t, "browsing").read_fraction, "== 0.95"),
        Claim("table 2", "shopping write fraction",
              lambda t: _row(t, "shopping").write_fraction, "== 0.2"),
        Claim("table 2", "ordering clients per replica",
              lambda t: _row(t, "ordering").clients_per_replica, "== 50"),
    ),
    "table4": (
        Claim("table 4", "browsing write fraction",
              lambda t: _row(t, "browsing").write_fraction, "== 0"),
        Claim("table 4", "bidding write fraction",
              lambda t: _row(t, "bidding").write_fraction, "== 0.2"),
        Claim("table 4", "every mix thinks 1000 ms: max |Z - 1000 ms|",
              lambda t: max(abs(row.think_time_ms - 1000.0)
                            for row in t.rows), "== 0"),
    ),
    "table3": (
        _recovers("table3"),
        _matches_paper("read", 41.43),
        _matches_paper("write", 12.51),
    ),
    "table5": (
        _recovers("table5"),
        Claim("§6.2.2", "bidding writesets are disk-heavy: writeset / "
              "update disk demand",
              lambda t: (_row(t, "bidding", "disk").writeset_measured
                         / _row(t, "bidding", "disk").write_measured),
              "> 0.6"),
    ),
}

for _table_id, _benchmark, _mixes in (
    ("table3", "TPC-W", tpcw.MIXES),
    ("table5", "RUBiS", rubis.MIXES),
):
    register_scenario(Scenario(
        name=_table_id,
        title=f"{_benchmark} measured service demands",
        kind="table",
        points=partial(_demand_points, dict(_mixes)),
        assemble=partial(_assemble_demands, _table_id, _benchmark),
        claims=_TABLE_CLAIMS[_table_id],
    ))

for _table_id, _benchmark, _builder in (
    ("table2", "TPC-W", table2),
    ("table4", "RUBiS", table4),
):
    register_scenario(Scenario(
        name=_table_id,
        title=f"{_benchmark} workload parameters",
        kind="table",
        points=lambda settings: (),
        assemble=(lambda builder: lambda settings, points, results: builder())(
            _builder
        ),
        claims=_TABLE_CLAIMS[_table_id],
    ))
