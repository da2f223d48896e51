"""Asymptotic bounds on closed-network performance [Lazowska 1984, ch. 5].

The bounds give quick capacity-planning envelopes without solving MVA and
are used by tests as invariants that every exact MVA solution must satisfy:

* throughput is bounded by ``min(N / (D + Z), 1 / Dmax)``;
* response time is bounded below by ``max(D, N * Dmax - Z)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError
from .network import Center, CenterKind, ClosedNetwork


@dataclass(frozen=True)
class AsymptoticBounds:
    """Throughput/response-time envelopes for a network at population N."""

    population: float
    throughput_upper: float
    response_time_lower: float
    #: Population at which the light-load and heavy-load throughput
    #: asymptotes cross — the classic "knee" of the scalability curve.
    saturation_population: float


def asymptotic_bounds(network: ClosedNetwork, population: float) -> AsymptoticBounds:
    """Compute asymptotic bounds for *network* with *population* clients."""
    if population < 0:
        raise ConfigurationError("population must be non-negative")
    total_demand = network.total_demand
    queueing = [c for c in network.centers if c.kind is CenterKind.QUEUEING]
    d_max = max((c.demand for c in queueing), default=0.0)
    z = network.think_time

    light = population / (total_demand + z) if (total_demand + z) > 0 else float("inf")
    heavy = 1.0 / d_max if d_max > 0 else float("inf")
    throughput_upper = min(light, heavy)

    if d_max > 0:
        response_lower = max(total_demand, population * d_max - z)
    else:
        response_lower = total_demand

    if d_max > 0:
        saturation = (total_demand + z) / d_max
    else:
        saturation = float("inf")
    return AsymptoticBounds(
        population=population,
        throughput_upper=throughput_upper,
        response_time_lower=response_lower,
        saturation_population=saturation,
    )


@dataclass(frozen=True)
class BalancedBounds:
    """Balanced-job bounds: tighter than asymptotic [Lazowska 1984, ch. 5.4].

    Lower bound (pessimistic): every other customer delays a tagged one by
    at most the bottleneck demand, so ``X >= N / (D + Z + (N-1)·Dmax)``.

    Upper bound: among networks with the same total queueing demand spread
    over the same number of centers (and the same delays), the *balanced*
    one maximises throughput; we solve that balanced equivalent exactly
    with MVA and cap by the bottleneck capacity ``1/Dmax``.
    """

    population: float
    throughput_lower: float
    throughput_upper: float

    def contains(self, throughput: float, tolerance: float = 1e-9) -> bool:
        """True when *throughput* lies within the bounds."""
        return (
            self.throughput_lower - tolerance
            <= throughput
            <= self.throughput_upper + tolerance
        )


def balanced_bounds(network: ClosedNetwork, population: float) -> BalancedBounds:
    """Compute balanced-job bounds for *network* at *population*."""
    if population < 0:
        raise ConfigurationError("population must be non-negative")
    queueing = [c for c in network.centers if c.kind is CenterKind.QUEUEING]
    if not queueing:
        # Pure delay network: throughput is exactly N / (D + Z).
        exact = (
            population / (network.total_demand + network.think_time)
            if (network.total_demand + network.think_time) > 0
            else float("inf")
        )
        return BalancedBounds(
            population=population,
            throughput_lower=exact,
            throughput_upper=exact,
        )
    d_total = network.total_demand
    d_max = max(c.demand for c in queueing)
    d_avg = sum(c.demand for c in queueing) / len(queueing)
    z = network.think_time
    n = population
    lower = n / (d_total + z + max(0.0, n - 1) * d_max) if n > 0 else 0.0

    if n == 0:
        upper = 0.0
    else:
        from .mva import solve_mva  # local import: bounds <- mva only here

        balanced_centers = tuple(
            Center(name=f"balanced{i}", kind=CenterKind.QUEUEING, demand=d_avg)
            for i in range(len(queueing))
        ) + tuple(
            c for c in network.centers if c.kind is CenterKind.DELAY
        )
        balanced_network = ClosedNetwork(
            centers=balanced_centers, think_time=z
        )
        upper = solve_mva(balanced_network, n).throughput
        upper = min(upper, 1.0 / d_max if d_max > 0 else float("inf"))
    return BalancedBounds(
        population=population,
        throughput_lower=lower,
        throughput_upper=upper,
    )


def max_useful_replicas(
    per_replica_capacity: float, workload_rate_per_replica: float
) -> float:
    """Upper bound on useful replicas when each added replica also adds load.

    A coarse planning helper: if each replica contributes capacity
    ``per_replica_capacity`` (tps) but the scaled workload adds
    ``workload_rate_per_replica`` (tps) of offered load per replica, the
    system stays un-saturated while the ratio exceeds one.
    """
    if per_replica_capacity <= 0:
        raise ConfigurationError("capacity must be positive")
    if workload_rate_per_replica <= 0:
        return float("inf")
    return per_replica_capacity / workload_rate_per_replica
