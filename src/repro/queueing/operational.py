"""Operational laws used for profiling and sanity checks.

The profiler estimates service demands with the **Utilization Law**
(``D = U / X``, §4.1.1 of the paper) and the experiments convert between
populations, throughput, and response time with **Little's law** and the
**interactive response-time law**.
"""

from __future__ import annotations

from ..core.errors import ConfigurationError


def utilization_law_demand(busy_time: float, completions: float) -> float:
    """Service demand from measured busy time and completion count.

    ``D = U / X = (busy_time / T) / (completions / T) = busy_time /
    completions`` — the measurement window cancels, so callers can pass raw
    totals.
    """
    if completions <= 0:
        raise ConfigurationError("completions must be positive")
    if busy_time < 0:
        raise ConfigurationError("busy time must be non-negative")
    return busy_time / completions


def utilization(throughput: float, demand: float) -> float:
    """Utilization Law: ``U = X * D``."""
    if throughput < 0 or demand < 0:
        raise ConfigurationError("throughput and demand must be non-negative")
    return throughput * demand


def littles_law_population(throughput: float, residence_time: float) -> float:
    """Little's law: mean population ``L = X * R``."""
    if throughput < 0 or residence_time < 0:
        raise ConfigurationError("inputs must be non-negative")
    return throughput * residence_time


def interactive_response_time(
    population: float, throughput: float, think_time: float
) -> float:
    """Interactive response-time law: ``R = N / X - Z``.

    This is how both the single-master model and the simulator convert a
    closed-loop population and throughput into the client-visible response
    time.  The result is clamped at zero to absorb floating-point noise at
    very light loads.
    """
    if throughput <= 0:
        raise ConfigurationError("throughput must be positive")
    if population < 0 or think_time < 0:
        raise ConfigurationError("population and think time must be non-negative")
    return max(0.0, population / throughput - think_time)


def closed_loop_throughput(
    population: float, response_time: float, think_time: float
) -> float:
    """Inverse of the interactive response-time law: ``X = N / (R + Z)``.

    Both exact MVA solvers take every throughput from here, so a network
    with no demand and no think time fails in this one place.
    """
    if population < 0:
        raise ConfigurationError("population must be non-negative")
    denom = response_time + think_time
    if denom <= 0:
        raise ConfigurationError(
            "R + Z must be positive: a closed network with no service "
            "demand and no think time has no throughput"
        )
    return population / denom
