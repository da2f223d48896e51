"""Closed queueing networks and exact Mean Value Analysis."""

from .bounds import (
    AsymptoticBounds,
    BalancedBounds,
    asymptotic_bounds,
    balanced_bounds,
    max_useful_replicas,
)
from .mva import (
    MVASolution,
    MVAStepper,
    MulticlassLattice,
    MulticlassSolution,
    approximate_mva,
    solve_mva,
    solve_mva_multiclass,
)
from .network import (
    Center,
    CenterKind,
    ClosedNetwork,
    MulticlassNetwork,
    delay_center,
    queueing_center,
)
from .operational import (
    closed_loop_throughput,
    interactive_response_time,
    littles_law_population,
    utilization,
    utilization_law_demand,
)

__all__ = [
    "AsymptoticBounds",
    "BalancedBounds",
    "balanced_bounds",
    "Center",
    "CenterKind",
    "ClosedNetwork",
    "MVASolution",
    "MVAStepper",
    "MulticlassLattice",
    "MulticlassNetwork",
    "MulticlassSolution",
    "approximate_mva",
    "asymptotic_bounds",
    "closed_loop_throughput",
    "delay_center",
    "interactive_response_time",
    "littles_law_population",
    "max_useful_replicas",
    "queueing_center",
    "solve_mva",
    "solve_mva_multiclass",
    "utilization",
    "utilization_law_demand",
]
