"""Ablations for the design choices called out in DESIGN.md.

* ``ablation-mva`` (:func:`mva_ablation`) — exact MVA vs Schweitzer's
  approximation at the populations the experiments use.
* ``ablation-conflict-window`` — the paper's one-step-lag conflict
  window vs a converged per-population fixed point (§4.1.1 notes the lag
  "slightly underestimates the abort probability").
* ``ablation-distributions`` — MVA assumes exponential service demands
  (§3.4 assumption 6); the simulator can draw deterministic or lognormal
  demands instead to probe how much the prediction error moves.
* ``ablation-lb-policy`` — the prototypes route to the least-loaded
  replica while the model statically partitions clients (§3.4 assumption
  6, "perfect load balancing").  Least-loaded routing outperforms static
  partitioning at high utilization, which is why measured response times
  can undercut predictions.

Each ablation is a registered engine scenario: the sweep grid declares the
model and simulator points, the shared runner executes them (parallel and
cached like every other scenario), and the assemble step pairs them into
an :class:`AblationResult`, whose rows render themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

from ..core.params import CPU, DISK
from ..core.topology import MULTI_MASTER
from ..engine import (
    Scenario,
    model_point,
    profile_task,
    register_scenario,
    sim_point,
)
from ..models.demands import standalone_demand
from ..models.multimaster import CW_FIXED_POINT, CW_ONE_STEP_LAG
from ..queueing.mva import approximate_mva, solve_mva
from ..queueing.network import ClosedNetwork, queueing_center
from ..workloads import tpcw
from .settings import ExperimentSettings


@dataclass(frozen=True)
class AblationResult:
    """One ablation's rows under its heading."""

    title: str
    rows: Tuple[object, ...]

    def to_text(self) -> str:
        """The heading, then one indented line per row."""
        return "\n".join([self.title,
                          *(f"  {row.to_text()}" for row in self.rows)])


@dataclass(frozen=True)
class MVAAblationRow:
    """Exact vs approximate MVA at one population."""

    population: int
    exact_throughput: float
    approximate_throughput: float

    @property
    def relative_error(self) -> float:
        """Approximation error relative to the exact solution."""
        return (
            abs(self.approximate_throughput - self.exact_throughput)
            / self.exact_throughput
        )

    def to_text(self) -> str:
        return (f"n={self.population:>4d} exact={self.exact_throughput:8.2f} "
                f"schweitzer={self.approximate_throughput:8.2f} "
                f"err={self.relative_error:.2%}")


def mva_ablation(
    populations: Sequence[int] = (1, 5, 10, 20, 40, 80, 200),
) -> List[MVAAblationRow]:
    """Compare exact MVA against Schweitzer on the TPC-W shopping network."""
    spec = tpcw.SHOPPING
    demand = standalone_demand(spec.demands, spec.mix, abort_rate=0.0)
    network = ClosedNetwork(
        centers=(
            queueing_center(CPU, demand.cpu),
            queueing_center(DISK, demand.disk),
        ),
        think_time=spec.think_time,
    )
    rows = []
    for n in populations:
        exact = solve_mva(network, n).throughput
        approx = approximate_mva(network, n).throughput
        rows.append(
            MVAAblationRow(
                population=n,
                exact_throughput=exact,
                approximate_throughput=approx,
            )
        )
    return rows


@dataclass(frozen=True)
class ConflictWindowAblationRow:
    """Predicted abort rate under the two conflict-window schemes."""

    replicas: int
    one_step_lag_abort: float
    fixed_point_abort: float

    def to_text(self) -> str:
        return (f"N={self.replicas:>2d} lag={self.one_step_lag_abort:.4%} "
                f"fixed={self.fixed_point_abort:.4%}")


def _conflict_window_points(
    replica_counts: Sequence[int], settings: ExperimentSettings
) -> List:
    spec = tpcw.SHOPPING
    task = profile_task(spec, settings)
    points = []
    for n in replica_counts:
        config = spec.replication_config(n)
        for mode in (CW_ONE_STEP_LAG, CW_FIXED_POINT):
            points.append(
                model_point(spec, config, MULTI_MASTER, profile=task,
                            cw_mode=mode, tag=mode)
            )
    return points


def _conflict_window_assemble(
    replica_counts: Sequence[int],
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> AblationResult:
    aborts = {
        (point.tag, point.replicas): result.abort_rate
        for point, result in zip(points, results)
    }
    return AblationResult(
        "conflict-window ablation (one-step lag vs fixed point):",
        tuple(
            ConflictWindowAblationRow(
                replicas=n,
                one_step_lag_abort=aborts[(CW_ONE_STEP_LAG, n)],
                fixed_point_abort=aborts[(CW_FIXED_POINT, n)],
            )
            for n in replica_counts
        ),
    )


@dataclass(frozen=True)
class DistributionAblationRow:
    """Prediction error when the simulator draws non-exponential demands."""

    distribution: str
    measured_throughput: float
    predicted_throughput: float

    @property
    def relative_error(self) -> float:
        """Prediction error against this distribution's measurement."""
        return (
            abs(self.predicted_throughput - self.measured_throughput)
            / self.measured_throughput
        )

    def to_text(self) -> str:
        return (f"{self.distribution:<14s} "
                f"measured={self.measured_throughput:7.1f} "
                f"predicted={self.predicted_throughput:7.1f} "
                f"err={self.relative_error:.1%}")


@dataclass(frozen=True)
class LBPolicyAblationRow:
    """Measured performance under one load-balancer routing policy."""

    policy: str
    measured_throughput: float
    measured_response_time: float
    predicted_throughput: float
    predicted_response_time: float

    def to_text(self) -> str:
        return (f"{self.policy:<13s} "
                f"measured X={self.measured_throughput:7.1f} "
                f"R={self.measured_response_time * 1000:6.1f}ms | predicted "
                f"X={self.predicted_throughput:7.1f} "
                f"R={self.predicted_response_time * 1000:6.1f}ms")


def _axis_points(
    axis: str,
    values: Sequence[str],
    replicas: int,
    settings: ExperimentSettings,
) -> List:
    """One model point plus one simulator point per axis value
    (*axis* is the ``sim_point`` keyword being swept)."""
    spec = tpcw.SHOPPING
    config = spec.replication_config(
        replicas,
        load_balancer_delay=settings.load_balancer_delay,
        certifier_delay=settings.certifier_delay,
    )
    points = [
        model_point(spec, config, MULTI_MASTER,
                    profile=profile_task(spec, settings), tag="model")
    ]
    for value in values:
        points.append(
            sim_point(
                spec, config, MULTI_MASTER,
                seed=settings.seed,
                warmup=settings.sim_warmup,
                duration=settings.sim_duration,
                tag=value,
                **{axis: value},
            )
        )
    return points


def _lb_policy_assemble(
    policies: Sequence[str],
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> AblationResult:
    by_tag = dict(zip((p.tag for p in points), results))
    prediction = by_tag["model"]
    return AblationResult(
        "lb-policy ablation (MM, N=8):",
        tuple(
            LBPolicyAblationRow(
                policy=policy,
                measured_throughput=by_tag[policy].throughput,
                measured_response_time=by_tag[policy].response_time,
                predicted_throughput=prediction.throughput,
                predicted_response_time=prediction.response_time,
            )
            for policy in policies
        ),
    )


def _distribution_assemble(
    distributions: Sequence[str],
    settings: ExperimentSettings,
    points: Sequence,
    results: Sequence,
) -> AblationResult:
    by_tag = dict(zip((p.tag for p in points), results))
    predicted = by_tag["model"].throughput
    return AblationResult(
        "service-distribution ablation (MM, N=4):",
        tuple(
            DistributionAblationRow(
                distribution=distribution,
                measured_throughput=by_tag[distribution].throughput,
                predicted_throughput=predicted,
            )
            for distribution in distributions
        ),
    )


# ---------------------------------------------------------------------------
# Registry entries (default parameterisations)
# ---------------------------------------------------------------------------

register_scenario(Scenario(
    name="ablation-mva",
    title="Exact MVA vs Schweitzer approximation",
    kind="ablation",
    points=lambda settings: (),
    assemble=lambda settings, points, results: AblationResult(
        "mva ablation (exact vs Schweitzer):", tuple(mva_ablation())),
))

register_scenario(Scenario(
    name="ablation-conflict-window",
    title="Conflict window: one-step lag vs fixed point",
    kind="ablation",
    points=partial(_conflict_window_points, (2, 4, 8, 16)),
    assemble=partial(_conflict_window_assemble, (2, 4, 8, 16)),
))

register_scenario(Scenario(
    name="ablation-distributions",
    title="Service-demand distribution vs MVA's exponential assumption",
    kind="ablation",
    points=lambda settings: _axis_points(
        "distribution", ("exponential", "deterministic", "lognormal"), 4,
        settings,
    ),
    assemble=partial(
        _distribution_assemble, ("exponential", "deterministic", "lognormal")
    ),
))

register_scenario(Scenario(
    name="ablation-lb-policy",
    title="Load-balancer routing policy vs static partitioning",
    kind="ablation",
    points=lambda settings: _axis_points(
        "lb_policy", ("least-loaded", "pinned", "random"), 8, settings,
    ),
    assemble=partial(
        _lb_policy_assemble, ("least-loaded", "pinned", "random")
    ),
))
