"""Capacity planning and dynamic provisioning on top of the predictors.

The paper's introduction names two consumers for its models: *capacity
planning* and *dynamic service provisioning* in data centers whose load
follows diurnal cycles.  This module implements both:

* :func:`replicas_for_response_time` — smallest deployment meeting a
  latency SLA;
* :func:`plan_deployment` — pick a design and size for a joint
  throughput + latency target, with head-room;
* :func:`provisioning_schedule` — replica counts per period for a load
  forecast (the diurnal-cycle use case), plus how many replica-hours the
  predictions save against static peak provisioning.

All three, and the feed-forward controller, find "the smallest deployment
that ..." through one helper, :class:`ReplicaScan`.

Everything here consumes only a :class:`~repro.core.params.StandaloneProfile`
— the point of the paper is that no replicated measurements are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import ConfigurationError, ConvergenceError
from ..core.params import ReplicationConfig, StandaloneProfile
from ..core.results import Prediction
from ..core.topology import topology_of
from .api import DESIGNS, predict

#: Relative slack on the population bound: ``Pr + Pw`` may miss 1 by 1e-9
#: and the balancing arithmetic rounds, so the clients the models spread
#: over their sub-networks can exceed ``n * clients_per_replica`` by that.
_BOUND_SLACK = 1e-6


class ReplicaScan:
    """One design's predictions across replica counts, and the scan for the
    smallest deployment that meets a target.

    Predictions are computed on first use and kept for the life of this
    object — one scan, one forecast, one controller — so sizing many loads
    against the same ``(design, profile, config)`` predicts each replica
    count once.  There is nothing to invalidate: a new profile or config
    is a new scan.
    """

    def __init__(
        self, design: str, profile: StandaloneProfile, config: ReplicationConfig
    ) -> None:
        # Checked here, not at the first prediction: the scan may skip
        # them all.
        topology_of(design, DESIGNS)
        self._design = design
        self._profile = profile
        self._config = config
        self._memo: Dict[int, Union[Prediction, ConvergenceError]] = {}

    def at(self, replicas: int) -> Prediction:
        """The prediction at *replicas*; a diverged one raises every time."""
        cached = self._memo.get(replicas)
        if cached is None:
            try:
                cached = predict(
                    self._design, self._profile, self._config.with_replicas(replicas)
                )
            except ConvergenceError as error:
                cached = error
            self._memo[replicas] = cached
        if isinstance(cached, ConvergenceError):
            # Dropping the traceback frees the solver frames (and their
            # lattices) the kept error would otherwise hold for our life.
            raise cached.with_traceback(None)
        return cached

    def population_bound(self, replicas: int) -> float:
        """Throughput no prediction at *replicas* can exceed.

        Little's law with zero response time: both designs close every
        sub-network over a share of the ``replicas * clients_per_replica``
        clients, each of which completes at most one transaction per think
        time.  Infinite (no bound) when clients do not think.
        """
        think_time = self._config.think_time
        if think_time <= 0.0:
            return math.inf
        clients = replicas * self._config.clients_per_replica
        return clients / think_time * (1.0 + _BOUND_SLACK)

    def smallest(
        self,
        max_replicas: int,
        min_throughput: float = 0.0,
        max_response_time: Optional[float] = None,
        skip_diverged: bool = False,
    ) -> Optional[Prediction]:
        """Prediction of the fewest replicas meeting both targets, or
        ``None`` when no deployment up to *max_replicas* does.

        A replica count whose :meth:`population_bound` is already below
        *min_throughput* is passed over without being predicted.
        *skip_diverged* treats a deployment whose abort fixed point
        diverges as one that misses the targets instead of raising.
        """
        if max_replicas < 1:
            raise ConfigurationError(
                f"max_replicas must be >= 1, got {max_replicas}"
            )
        for n in range(1, max_replicas + 1):
            if self.population_bound(n) < min_throughput:
                continue
            try:
                prediction = self.at(n)
            except ConvergenceError:
                if skip_diverged:
                    continue
                raise
            if prediction.throughput >= min_throughput and (
                max_response_time is None
                or prediction.response_time <= max_response_time
            ):
                return prediction
        return None


def replicas_for_response_time(
    design: str,
    profile: StandaloneProfile,
    config: ReplicationConfig,
    max_response_time: float,
    max_replicas: int = 64,
) -> Optional[int]:
    """Smallest replica count whose predicted response time meets the SLA.

    Returns ``None`` when no deployment up to *max_replicas* meets it
    (e.g. the SLA is below the zero-load service time, or a saturated
    single-master system whose latency grows with N).
    """
    if max_response_time <= 0:
        raise ConfigurationError("max response time must be positive")
    found = ReplicaScan(design, profile, config).smallest(
        max_replicas, max_response_time=max_response_time
    )
    return None if found is None else found.replicas


@dataclass(frozen=True)
class DeploymentPlan:
    """A sized deployment meeting throughput and latency targets."""

    design: str
    replicas: int
    predicted_throughput: float
    predicted_response_time: float
    #: Fraction of predicted capacity the target consumes (<= 1).
    load_factor: float


def plan_deployment(
    profile: StandaloneProfile,
    config: ReplicationConfig,
    target_throughput: float,
    max_response_time: Optional[float] = None,
    designs: Sequence[str] = DESIGNS,
    headroom: float = 0.0,
    max_replicas: int = 64,
) -> Optional[DeploymentPlan]:
    """Choose the cheapest (fewest replicas) deployment meeting the targets.

    ``headroom`` over-provisions capacity by the given fraction (0.2 keeps
    20% spare).  Ties between designs break toward fewer replicas, then
    toward multi-master (the more scalable design).
    """
    if target_throughput <= 0:
        raise ConfigurationError("target throughput must be positive")
    if not 0.0 <= headroom < 1.0:
        raise ConfigurationError("headroom must be in [0, 1)")
    required = target_throughput / (1.0 - headroom)

    best: Optional[DeploymentPlan] = None
    for design in designs:
        found = ReplicaScan(design, profile, config).smallest(
            max_replicas, required, max_response_time
        )
        if found is not None and (best is None or found.replicas < best.replicas):
            best = DeploymentPlan(
                design=design,
                replicas=found.replicas,
                predicted_throughput=found.throughput,
                predicted_response_time=found.response_time,
                load_factor=target_throughput / found.throughput,
            )
    return best


@dataclass(frozen=True)
class MixedFleetPlan:
    """A heterogeneous deployment sized from an inventory of machines."""

    design: str
    #: Capacity multipliers of the machines picked, largest first.
    capacities: Tuple[float, ...]
    #: Sum of the picked multipliers (homogeneous-replica equivalents).
    effective_replicas: float
    predicted_throughput: float
    predicted_response_time: float
    #: Fraction of predicted capacity the target consumes (<= 1).
    load_factor: float

    @property
    def machines(self) -> int:
        """Number of physical machines in the fleet."""
        return len(self.capacities)

    def to_text(self) -> str:
        """Render the plan."""
        fleet = " + ".join(f"{c:g}x" for c in self.capacities)
        return (
            f"{self.design}: {self.machines} machines [{fleet}] "
            f"(~{self.effective_replicas:g} replica-equivalents) -> "
            f"{self.predicted_throughput:.1f} tps predicted "
            f"(load factor {self.load_factor:.0%})"
        )


def _interpolated_throughput(
    scan: ReplicaScan, effective: float, max_replicas: int
) -> float:
    """Predicted throughput at a *fractional* replica count.

    The capacity model of heterogeneous fleets: a 1.5x machine
    contributes 1.5 homogeneous-replica equivalents, and the fleet's
    throughput is the homogeneous curve evaluated at the summed
    equivalents, interpolated linearly between the bracketing integer
    deployments.  Sub-linear effects (writeset propagation, certifier
    load) are inherited from the curve itself.
    """
    if effective <= 0.0:
        return 0.0
    lo = max(1, min(max_replicas, int(effective)))
    hi = min(max_replicas, lo + 1)
    t_lo = scan.at(lo).throughput
    if effective <= lo or hi == lo:
        return t_lo * min(1.0, effective / lo)
    t_hi = scan.at(hi).throughput
    return t_lo + (t_hi - t_lo) * (effective - lo)


def plan_mixed_fleet(
    profile: StandaloneProfile,
    config: ReplicationConfig,
    target_throughput: float,
    capacities: Sequence[float],
    design: str = "multi-master",
    max_response_time: Optional[float] = None,
    headroom: float = 0.0,
) -> Optional[MixedFleetPlan]:
    """Size a fleet from a heterogeneous machine inventory.

    *capacities* is the inventory of available machines as speed
    multipliers (e.g. ``(2.0, 1.0, 1.0, 0.5)``).  Machines are taken
    largest-first (fewest machines for the capacity, the cheapest fleet
    under per-machine pricing) until the interpolated throughput curve
    clears the target with *headroom*.  Returns ``None`` when even the
    whole inventory cannot serve the target — the signal to buy bigger
    boxes or shard.
    """
    if target_throughput <= 0:
        raise ConfigurationError("target throughput must be positive")
    if not capacities:
        raise ConfigurationError("the machine inventory must not be empty")
    if any(c <= 0 for c in capacities):
        raise ConfigurationError("every capacity multiplier must be positive")
    if not 0.0 <= headroom < 1.0:
        raise ConfigurationError("headroom must be in [0, 1)")
    required = target_throughput / (1.0 - headroom)
    inventory = sorted((float(c) for c in capacities), reverse=True)
    max_replicas = max(64, int(sum(inventory)) + 1)

    scan = ReplicaScan(design, profile, config)
    picked: List[float] = []
    for capacity in inventory:
        picked.append(capacity)
        effective = sum(picked)
        throughput = _interpolated_throughput(scan, effective, max_replicas)
        if throughput < required:
            continue
        # Latency is read at the bracketing integer deployment (the
        # conservative, larger-population side).
        response_time = scan.at(max(1, int(round(effective)))).response_time
        if max_response_time is not None and response_time > max_response_time:
            continue
        return MixedFleetPlan(
            design=design,
            capacities=tuple(picked),
            effective_replicas=effective,
            predicted_throughput=throughput,
            predicted_response_time=response_time,
            load_factor=target_throughput / throughput,
        )
    return None


@dataclass(frozen=True)
class PlacementPlan:
    """A weight-balanced partition placement (partial replication)."""

    #: The placement itself, consumable by all three pillars.
    partition_map: "PartitionMap"
    #: Normalised partition weights the plan balanced.
    weights: Tuple[float, ...]
    #: Per-replica hosted weight (sum over hosted partitions).
    replica_loads: Tuple[float, ...]

    @property
    def max_load(self) -> float:
        """Heaviest replica's hosted weight."""
        return max(self.replica_loads)

    @property
    def imbalance(self) -> float:
        """Max replica load over the mean (1.0 = perfectly balanced)."""
        mean = sum(self.replica_loads) / len(self.replica_loads)
        if mean <= 0.0:
            return 1.0
        return self.max_load / mean

    def to_text(self) -> str:
        """Render the plan."""
        lines = [self.partition_map.to_text()]
        loads = " ".join(f"{load:.3f}" for load in self.replica_loads)
        lines.append(
            f"  per-replica hosted weight: [{loads}] "
            f"(imbalance {self.imbalance:.2f}x)"
        )
        return "\n".join(lines)


def plan_placement(
    partitions: int,
    replicas: int,
    replication_factor: int,
    weights: Optional[Sequence[float]] = None,
) -> PlacementPlan:
    """Weight-balanced partition assignment under a replication factor.

    Places each of *partitions* partitions on exactly
    *replication_factor* replicas so that the per-replica hosted weight —
    each replica's share of the update-propagation load, the term the
    partition-aware model sums over hosted partitions — is as even as
    greedy LPT gets it: partitions are taken heaviest-first and each goes
    to the ``rf`` least-loaded replicas.  *weights* is the relative
    update popularity per partition (uniform when ``None``).

    Requires ``partitions * replication_factor >= replicas`` so every
    replica can host at least one partition (greedy always fills an
    empty replica first, so coverage follows).
    """
    from ..partition.placement import PartitionMap, _normalized_weights

    if partitions < 1:
        raise ConfigurationError("need at least one partition")
    if replicas < 1:
        raise ConfigurationError("need at least one replica")
    if not 1 <= replication_factor <= replicas:
        raise ConfigurationError(
            f"replication factor must be in [1, {replicas}], got "
            f"{replication_factor}"
        )
    if partitions * replication_factor < replicas:
        raise ConfigurationError(
            f"{partitions} partitions x factor {replication_factor} cannot "
            f"cover {replicas} replicas; shrink the fleet or raise the "
            f"factor"
        )
    normalised = _normalized_weights(weights, partitions)
    loads = [0.0] * replicas
    placement: List[Tuple[int, ...]] = [()] * partitions
    order = sorted(range(partitions), key=lambda p: (-normalised[p], p))
    for p in order:
        # The rf least-loaded replicas host this partition (ties break
        # by index, keeping the plan deterministic).
        chosen = sorted(range(replicas),
                        key=lambda r: (loads[r], r))[:replication_factor]
        placement[p] = tuple(sorted(chosen))
        for r in chosen:
            loads[r] += normalised[p]
    partition_map = PartitionMap(partitions, replicas, tuple(placement))
    return PlacementPlan(
        partition_map=partition_map,
        weights=normalised,
        replica_loads=tuple(loads),
    )


@dataclass(frozen=True)
class ProvisioningSchedule:
    """Replica counts per forecast period."""

    design: str
    #: (period label, offered load tps, replicas) per period.
    periods: Tuple[Tuple[str, float, int], ...]
    #: Replicas a static deployment would need for the peak period.
    static_replicas: int

    @property
    def replica_periods(self) -> int:
        """Total replica-periods the dynamic schedule uses."""
        return sum(replicas for _, _, replicas in self.periods)

    @property
    def static_replica_periods(self) -> int:
        """Replica-periods under static peak provisioning."""
        return self.static_replicas * len(self.periods)

    @property
    def savings_fraction(self) -> float:
        """Fraction of replica-periods saved vs static provisioning."""
        static = self.static_replica_periods
        if static == 0:
            return 0.0
        return 1.0 - self.replica_periods / static

    def to_text(self) -> str:
        """Render the schedule."""
        lines = [f"provisioning schedule ({self.design}):"]
        for label, load, replicas in self.periods:
            bar = "#" * replicas
            lines.append(f"  {label:>8s} {load:8.1f} tps -> {replicas:2d} {bar}")
        lines.append(
            f"  dynamic {self.replica_periods} replica-periods vs static "
            f"{self.static_replica_periods} "
            f"({self.savings_fraction:.0%} saved)"
        )
        return "\n".join(lines)


def provisioning_schedule(
    design: str,
    profile: StandaloneProfile,
    config: ReplicationConfig,
    load_forecast: Sequence[Tuple[str, float]],
    headroom: float = 0.1,
    max_replicas: int = 64,
) -> ProvisioningSchedule:
    """Size the system per forecast period (the diurnal-cycle use case).

    *load_forecast* is a sequence of ``(period label, offered tps)`` pairs.
    Raises when any period's load is unreachable for this design — the
    signal to switch designs or shard.
    """
    if not load_forecast:
        raise ConfigurationError("load forecast must not be empty")
    if not 0.0 <= headroom < 1.0:
        raise ConfigurationError("headroom must be in [0, 1)")

    scan = ReplicaScan(design, profile, config)

    def size_for(load: float) -> int:
        found = scan.smallest(max_replicas, load / (1.0 - headroom))
        if found is None:
            raise ConfigurationError(
                f"{design} cannot serve {load:.1f} tps (+{headroom:.0%} "
                f"headroom) within {max_replicas} replicas"
            )
        return found.replicas

    periods = tuple(
        (label, load, size_for(load)) for label, load in load_forecast
    )
    peak = max(load for _, load in load_forecast)
    return ProvisioningSchedule(
        design=design,
        periods=periods,
        static_replicas=size_for(peak),
    )
