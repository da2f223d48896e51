"""Sensitivity analyses of §6.3 and the §6.2 error-margin claim.

* ``sens-lb-delay`` — §6.3.1: the combined load-balancer and network delay
  is ~1 ms; sweeping it shows predictions are insensitive in the
  sub-millisecond regime.
* ``sens-certifier-capacity`` (:func:`certifier_capacity`) — §6.3.2: the
  certification service time is dominated by batched disk writes and stays
  nearly constant with load, justifying modelling the certifier as a
  *delay* center.  This runs a dedicated discrete-event model of the
  group-committing certifier disk.
* ``sens-certifier-delay`` — how predictions move when the certification
  delay changes (6/12/24 ms).
* ``error-margin`` — aggregates |predicted - measured| / measured over
  every point of Figures 6, 8, 10 and 12; its claims are the paper's
  "within 15%" (the maximum) and a mean under 8%.

Each is a registered scenario run by name through
:func:`~repro.engine.runner.run_scenario`; the error margin's grid is
exactly the union of the four validation sweeps, so after the figures have
run it assembles entirely from cached points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence

from ..core import rng as rng_util
from ..core.topology import MULTI_MASTER, SINGLE_MASTER
from ..engine import (
    Claim,
    Scenario,
    model_point,
    profile_task,
    register_scenario,
    sim_point,
)
from ..simulator.des import Environment, Timeout
from ..simulator.stats import RunningStats
from ..workloads import tpcw
from .figures import SATURATED_WINDOW, assemble_sweep, sweep_points
from .settings import ExperimentSettings


# ---------------------------------------------------------------------------
# §6.3.1 — load balancer and network delays
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelaySensitivityRow:
    """Model and simulator throughput at one injected delay."""

    delay: float
    predicted_throughput: float
    measured_throughput: float


@dataclass(frozen=True)
class DelaySensitivityResult:
    """Throughput sensitivity to a delay parameter."""

    parameter: str
    replicas: int
    rows: Sequence[DelaySensitivityRow]

    def max_throughput_drop(self) -> float:
        """Largest fractional throughput drop relative to the first row."""
        base = self.rows[0].predicted_throughput
        return max(
            (base - row.predicted_throughput) / base for row in self.rows
        )

    def to_text(self) -> str:
        """Render as a text table."""
        lines = [
            f"{self.parameter} sensitivity (TPC-W shopping, MM, "
            f"N={self.replicas})"
        ]
        lines.append(f"  {'delay':>8s} {'predicted':>10s} {'measured':>10s}")
        for row in self.rows:
            lines.append(
                f"  {row.delay*1000:>6.1f}ms {row.predicted_throughput:>8.1f} "
                f"tps {row.measured_throughput:>8.1f} tps"
            )
        return "\n".join(lines)


def _delay_points(
    parameter: str,
    delays: Sequence[float],
    replicas: int,
    settings: ExperimentSettings,
) -> List:
    spec = tpcw.SHOPPING
    task = profile_task(spec, settings)
    points = []
    for delay in delays:
        kwargs = {
            "load_balancer_delay": settings.load_balancer_delay,
            "certifier_delay": settings.certifier_delay,
            parameter: delay,
        }
        config = spec.replication_config(replicas, **kwargs)
        tag = f"{delay:.6f}"
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


def _delay_assemble(
    parameter: str,
    delays: Sequence[float],
    replicas: int,
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> DelaySensitivityResult:
    predicted: Dict[str, float] = {}
    measured: Dict[str, float] = {}
    for point, result in zip(points, results):
        if point.backend == "model":
            predicted[point.tag] = result.throughput
        else:
            measured[point.tag] = result.throughput
    rows = [
        DelaySensitivityRow(
            delay=delay,
            predicted_throughput=predicted[f"{delay:.6f}"],
            measured_throughput=measured[f"{delay:.6f}"],
        )
        for delay in delays
    ]
    return DelaySensitivityResult(
        parameter=parameter, replicas=replicas, rows=tuple(rows)
    )


register_scenario(Scenario(
    name="sens-lb-delay",
    title="Throughput sensitivity to load-balancer/network delay",
    kind="sensitivity",
    points=partial(_delay_points, "load_balancer_delay",
                   (0.0, 0.001, 0.005, 0.010), 8),
    assemble=partial(_delay_assemble, "load_balancer_delay",
                     (0.0, 0.001, 0.005, 0.010), 8),
    claims=(
        Claim("§6.3.1", "0-10 ms LB delay barely moves predictions: "
              "max X drop",
              lambda r: r.max_throughput_drop(), "< 0.01"),
        Claim("§6.3.1", "model and simulator agree at every delay: "
              "max X error",
              lambda r: max(abs(row.predicted_throughput
                                - row.measured_throughput)
                            / row.measured_throughput for row in r.rows),
              "< 0.1"),
    ),
))

register_scenario(Scenario(
    name="sens-certifier-delay",
    title="Throughput sensitivity to certification delay",
    kind="sensitivity",
    points=partial(_delay_points, "certifier_delay", (0.006, 0.012, 0.024), 8),
    assemble=partial(_delay_assemble, "certifier_delay",
                     (0.006, 0.012, 0.024), 8),
    claims=(
        Claim("§6.3.2", "6-24 ms certification barely moves "
              "predictions: max X drop",
              lambda r: r.max_throughput_drop(), "< 0.02"),
    ),
))


# ---------------------------------------------------------------------------
# §6.3.2 — the certifier as a delay center
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifierLoadPoint:
    """Measured certifier behaviour at one request rate."""

    request_rate: float
    mean_latency: float
    mean_batch_size: float


@dataclass(frozen=True)
class CertifierCapacityResult:
    """Latency of the group-committing certifier across loads."""

    write_time: float
    points: Sequence[CertifierLoadPoint]

    def latency_spread(self) -> float:
        """(max - min) mean latency across the probed rates, in seconds."""
        latencies = [p.mean_latency for p in self.points]
        return max(latencies) - min(latencies)

    def to_text(self) -> str:
        """Render as a text table."""
        lines = [
            f"certifier capacity (leader disk write = "
            f"{self.write_time*1000:.0f} ms, group commit)"
        ]
        lines.append(f"  {'rate':>8s} {'latency':>9s} {'batch':>7s}")
        for p in self.points:
            lines.append(
                f"  {p.request_rate:>6.0f}/s {p.mean_latency*1000:>7.1f}ms "
                f"{p.mean_batch_size:>7.1f}"
            )
        return "\n".join(lines)


def certifier_capacity(
    rates: Sequence[float] = (25.0, 50.0, 150.0, 300.0, 500.0),
    write_time: float = 0.008,
    duration: float = 120.0,
    seed: int = rng_util.DEFAULT_SEED,
) -> CertifierCapacityResult:
    """Simulate the certifier's batched persistent log under open load.

    Requests arrive Poisson at each rate; the leader batches all pending
    writesets into one disk write of ``write_time`` (6-8 ms in the paper).
    A request therefore waits half a write on average plus its own write —
    about 12 ms — *independent of load*, because batching absorbs bursts:
    the paper's justification for modelling certification as a delay center.
    """
    points: List[CertifierLoadPoint] = []
    for rate in rates:
        env = Environment()
        rng = rng_util.spawn(seed, "certifier-capacity", rate)
        latencies = RunningStats()
        batches = RunningStats()
        pending: List[float] = []
        busy = [False]

        def writer():
            while pending:
                batch = pending[:]
                pending.clear()
                yield Timeout(write_time)
                batches.add(len(batch))
                for arrived in batch:
                    latencies.add(env.now - arrived)
            busy[0] = False

        def arrivals():
            while True:
                yield Timeout(float(rng.exponential(1.0 / rate)))
                pending.append(env.now)
                if not busy[0]:
                    busy[0] = True
                    env.start(writer())

        env.start(arrivals())
        env.run_until(duration)
        points.append(
            CertifierLoadPoint(
                request_rate=rate,
                mean_latency=latencies.mean,
                mean_batch_size=batches.mean,
            )
        )
    return CertifierCapacityResult(write_time=write_time, points=tuple(points))


register_scenario(Scenario(
    name="sens-certifier-capacity",
    title="Group-committing certifier latency across load",
    kind="sensitivity",
    points=lambda settings: (),
    assemble=lambda settings, points, results: certifier_capacity(),
    claims=(
        Claim("§6.3.2", "half a batched write plus one: min latency in s",
              lambda r: min(p.mean_latency for p in r.points), ">= 0.008"),
        Claim("§6.3.2", "half a batched write plus one: max latency in s",
              lambda r: max(p.mean_latency for p in r.points), "<= 0.014"),
        Claim("§6.3.2", "latency is load-insensitive: spread across rates "
              "in s", lambda r: r.latency_spread(), "< 0.005"),
        Claim("§6.3.2", "batching absorbs the load: mean batch at the top "
              "rate", lambda r: r.points[-1].mean_batch_size, "> 2"),
    ),
))


# ---------------------------------------------------------------------------
# §6.2 — the "within 15%" error-margin claim
# ---------------------------------------------------------------------------

#: The validation sweeps the error margin aggregates (Figures 6, 8, 10, 12).
_ERROR_MARGIN_COMBOS = (
    ("tpcw", MULTI_MASTER),
    ("tpcw", SINGLE_MASTER),
    ("rubis", MULTI_MASTER),
    ("rubis", SINGLE_MASTER),
)


@dataclass(frozen=True)
class ErrorMarginResult:
    """Aggregate prediction error over all validation figures."""

    per_series: Dict[str, float]
    mean_throughput_error: float
    max_throughput_error: float

    def to_text(self) -> str:
        """Render as a text table."""
        lines = ["prediction error margins (throughput, |pred-meas|/meas)"]
        for label, err in sorted(self.per_series.items()):
            lines.append(f"  {label:<28s} max {err:6.1%}")
        lines.append(f"  {'MEAN over all points':<28s} {self.mean_throughput_error:10.1%}")
        lines.append(f"  {'MAX over all points':<28s} {self.max_throughput_error:10.1%}")
        return "\n".join(lines)


def _error_margin_points(settings: ExperimentSettings) -> List:
    points = []
    for benchmark, design in _ERROR_MARGIN_COMBOS:
        points.extend(sweep_points(benchmark, design, settings))
    return points


def _error_margin_assemble(
    settings: ExperimentSettings, points: Sequence, results: Sequence
) -> ErrorMarginResult:
    per_series: Dict[str, float] = {}
    all_errors: List[float] = []
    for benchmark, design in _ERROR_MARGIN_COMBOS:
        subset = [
            (point, result)
            for point, result in zip(points, results)
            if point.design == design
            and point.spec.name.split("/")[0] == benchmark
        ]
        sweep = assemble_sweep(
            settings, [p for p, _ in subset], [r for _, r in subset]
        )
        for mix, series in sweep.items():
            errors = [row.throughput_error for row in series.rows]
            per_series[f"{benchmark}/{mix} {design}"] = max(errors)
            all_errors.extend(errors)
    return ErrorMarginResult(
        per_series=per_series,
        mean_throughput_error=sum(all_errors) / len(all_errors),
        max_throughput_error=max(all_errors),
    )


register_scenario(Scenario(
    name="error-margin",
    title="Aggregate prediction error over Figures 6/8/10/12 (§6.2, <=15%)",
    kind="sensitivity",
    points=_error_margin_points,
    assemble=_error_margin_assemble,
    claims=(
        Claim("§6.2", "predictions within 15%: max throughput error",
              lambda r: r.max_throughput_error, "< 0.15",
              window=SATURATED_WINDOW),
        Claim("§6.2", "predictions within 15%: mean throughput error",
              lambda r: r.mean_throughput_error, "< 0.08"),
    ),
))
