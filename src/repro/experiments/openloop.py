"""Open vs. closed arrivals: why §3.1 adopts the closed-loop model.

The paper cites [Schroeder 2006] ("Open versus closed: a cautionary tale")
when fixing its workload model: e-commerce clients are *closed* — each
waits for its response before thinking and submitting again, so the
resident population is bounded and the system degrades gracefully.  An
*open* Poisson stream has no such feedback: past the capacity knee the
queue grows for as long as the overload lasts and response times explode.

This experiment drives the same workload both ways at matched loads and
reports the divergence — a validation that the simulator reproduces the
classic open/closed contrast, and a caution for anyone applying the
closed-loop models of this library to open traffic.

Implemented as an engine scenario: the grid holds one open-arrival and one
matched closed-population simulator point per load fraction (the closed
population is sized with the analytical model while the grid is built), so
all the simulations fan out in parallel.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.topology import STANDALONE
from ..engine import Scenario, register_scenario, sim_point
from ..models.standalone import predict_standalone
from ..workloads import tpcw
from ..workloads.spec import WorkloadSpec
from .context import get_profile
from .settings import ExperimentSettings


@dataclass(frozen=True)
class OpenClosedRow:
    """One matched-load comparison point."""

    #: Offered open-loop rate as a fraction of the capacity bound.
    load_fraction: float
    arrival_rate: float
    open_response: float
    #: Closed-loop response at (approximately) the same throughput.
    closed_response: float
    closed_clients: int


@dataclass(frozen=True)
class OpenClosedResult:
    """The open-vs-closed comparison for one workload."""

    workload: str
    capacity: float
    rows: Sequence[OpenClosedRow]

    def to_text(self) -> str:
        """Render as a text table."""
        lines = [
            f"open vs closed arrivals ({self.workload}, standalone, "
            f"capacity ≈ {self.capacity:.1f} tps)"
        ]
        lines.append(
            f"  {'load':>5s} {'rate':>7s} {'open R':>9s} {'closed R':>9s}"
            f" {'clients':>8s}"
        )
        for row in self.rows:
            lines.append(
                f"  {row.load_fraction:>4.0%} {row.arrival_rate:>6.1f}/s "
                f"{row.open_response*1000:>7.0f}ms "
                f"{row.closed_response*1000:>7.0f}ms {row.closed_clients:>8d}"
            )
        return "\n".join(lines)


def _capacity(profile) -> float:
    """Throughput bound from the busiest resource's aggregate demand."""
    demand_bound = max(
        profile.mix.read_fraction * profile.demands.read.cpu
        + profile.mix.write_fraction * profile.demands.write.cpu,
        profile.mix.read_fraction * profile.demands.read.disk
        + profile.mix.write_fraction * profile.demands.write.disk,
    )
    return 1.0 / demand_bound


def _openloop_points(
    spec: WorkloadSpec,
    load_fractions: Sequence[float],
    max_clients: int,
    settings: ExperimentSettings,
) -> List:
    profile = get_profile(spec, settings)
    capacity = _capacity(profile)
    base_config = spec.replication_config(1, load_balancer_delay=0.0)
    points = []
    for i, fraction in enumerate(load_fractions):
        rate = fraction * capacity
        points.append(
            sim_point(
                spec, base_config, STANDALONE,
                seed=settings.seed,
                warmup=settings.sim_warmup,
                duration=settings.sim_duration,
                arrival_rate=rate,
                tag=f"open:{i}",
            )
        )
        clients = _clients_for_rate(profile, spec, rate, max_clients)
        closed_config = dataclasses.replace(
            base_config, clients_per_replica=clients
        )
        points.append(
            sim_point(
                spec, closed_config, STANDALONE,
                seed=settings.seed,
                warmup=settings.sim_warmup,
                duration=settings.sim_duration,
                tag=f"closed:{i}",
            )
        )
    return points


def _openloop_assemble(
    spec: WorkloadSpec,
    load_fractions: Sequence[float],
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> OpenClosedResult:
    capacity = _capacity(get_profile(spec, settings))
    by_tag = dict(zip((p.tag for p in points), zip(points, results)))
    rows: List[OpenClosedRow] = []
    for i, fraction in enumerate(load_fractions):
        open_point, open_result = by_tag[f"open:{i}"]
        closed_point, closed_result = by_tag[f"closed:{i}"]
        rows.append(
            OpenClosedRow(
                load_fraction=fraction,
                arrival_rate=open_point.option("arrival_rate"),
                open_response=open_result.response_time,
                closed_response=closed_result.response_time,
                closed_clients=closed_point.config.clients_per_replica,
            )
        )
    return OpenClosedResult(
        workload=spec.name, capacity=capacity, rows=tuple(rows)
    )


def _openloop_scenario(
    spec: WorkloadSpec,
    load_fractions: Sequence[float],
    max_clients: int,
    name: str = "ext-openloop",
) -> Scenario:
    fractions = tuple(load_fractions)

    def points(settings):
        return _openloop_points(spec, fractions, max_clients, settings)

    def assemble(settings, pts, results):
        return _openloop_assemble(spec, fractions, settings, pts, results)

    return Scenario(
        name=name,
        title=f"Open vs closed arrivals ({spec.name}, standalone)",
        kind="extension",
        metrics=("response_time",),
        points=points,
        assemble=assemble,
        aliases=("openloop", "open-vs-closed"),
    )


register_scenario(
    _openloop_scenario(tpcw.SHOPPING, (0.5, 0.8, 0.95, 1.1), 400)
)


def open_vs_closed(
    spec: WorkloadSpec,
    settings: ExperimentSettings = ExperimentSettings(),
    load_fractions: Sequence[float] = (0.5, 0.8, 0.95, 1.1),
    max_clients: int = 400,
    *,
    jobs: Optional[int] = 1,
    cache: object = None,
) -> OpenClosedResult:
    """Compare open and closed arrivals on the standalone system.

    For each load fraction f, the open side receives Poisson arrivals at
    ``f * capacity``; the closed side uses the smallest client population
    whose predicted throughput reaches the same rate (capped — beyond the
    knee a closed system cannot exceed capacity, which is the point).
    """
    if not load_fractions:
        raise ConfigurationError("need at least one load fraction")
    from ..engine.runner import run_scenario

    scenario = _openloop_scenario(spec, load_fractions, max_clients)
    return run_scenario(scenario, settings, jobs=jobs, cache=cache)


def _clients_for_rate(profile, spec, rate, max_clients):
    """Smallest closed population reaching *rate*, capped at the knee.

    Past the saturation knee a closed system cannot raise its throughput by
    adding clients — offered load self-throttles.  So for unreachable rates
    the comparison uses a knee-sized population (~20% past the knee): the
    closed system then runs *at* capacity with bounded response, which is
    precisely the contrast with the diverging open queue.
    """
    for clients in range(1, max_clients + 1):
        prediction = predict_standalone(
            profile, clients=clients, think_time=spec.think_time
        )
        if prediction.throughput >= rate:
            return clients
    # Unreachable: size to 1.2x the knee population.
    demand = (
        profile.mix.read_fraction * profile.demands.read.total
        + profile.mix.write_fraction * profile.demands.write.total
    )
    bottleneck = max(
        profile.mix.read_fraction * profile.demands.read.cpu
        + profile.mix.write_fraction * profile.demands.write.cpu,
        profile.mix.read_fraction * profile.demands.read.disk
        + profile.mix.write_fraction * profile.demands.write.disk,
    )
    knee = (demand + spec.think_time) / bottleneck
    return min(max_clients, int(math.ceil(1.2 * knee)))
