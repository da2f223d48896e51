"""Partitioned data placement: which replicas host which partitions.

Full replication — the paper's assumption — means every replica installs
every writeset, so the per-replica update-propagation load grows with the
whole system's update throughput and caps scale-out (§3.3.2: the
``(N-1) * Pw * ws`` demand term).  A :class:`PartitionMap` relaxes that:
the updatable data is split into ``P`` partitions and each partition is
placed on a *subset* of the replicas.  Writesets then propagate only to
the replicas hosting the partitions they touch, and transactions are
routed to a replica hosting every partition they access.

The map is a frozen, declarative description — it rides inside engine
sweep points and content-addressed cache keys exactly like traces,
controller policies, and operations plans do — and one map is threaded
through all three pillars: the analytical model scales the writeset
fan-in by :meth:`PartitionMap.expected_update_fanout`, the simulator and
the live cluster scope propagation and routing through
:meth:`PartitionMap.hosted_by` / :meth:`PartitionMap.common_hosts`.

Replica indices follow the capacity-vector convention: they name the
*initial* fleet in creation order, and for single-master deployments
index 0 is the master.  The master executes every update, so it hosts
every partition implicitly — a single-master map only constrains which
slaves replicate which partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.topology import MULTI_MASTER, SINGLE_MASTER


@dataclass(frozen=True)
class PartitionMap:
    """Placement of ``partitions`` data partitions onto ``replicas``.

    ``placement[p]`` is the sorted tuple of replica indices hosting
    partition ``p``.  Every partition must live somewhere; every replica
    must host at least one partition (single-master: the master hosts
    everything implicitly, so index 0 may be absent from the placement).
    """

    partitions: int
    replicas: int
    #: placement[p] = sorted tuple of replica indices hosting partition p.
    placement: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ConfigurationError("need at least one partition")
        if self.replicas < 1:
            raise ConfigurationError("need at least one replica")
        object.__setattr__(
            self,
            "placement",
            tuple(tuple(sorted(hosts)) for hosts in self.placement),
        )
        if len(self.placement) != self.partitions:
            raise ConfigurationError(
                f"placement names {len(self.placement)} partitions but the "
                f"map declares {self.partitions}"
            )
        for p, hosts in enumerate(self.placement):
            if not hosts:
                raise ConfigurationError(f"partition {p} is hosted nowhere")
            if len(set(hosts)) != len(hosts):
                raise ConfigurationError(
                    f"partition {p} lists a replica twice: {hosts}"
                )
            for index in hosts:
                if not 0 <= index < self.replicas:
                    raise ConfigurationError(
                        f"partition {p} names replica {index}, outside the "
                        f"{self.replicas}-replica fleet"
                    )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def full(cls, partitions: int, replicas: int) -> "PartitionMap":
        """Full replication: every replica hosts every partition."""
        everyone = tuple(range(replicas))
        return cls(partitions, replicas, tuple(everyone for _ in range(partitions)))

    @classmethod
    def ring(cls, partitions: int, replicas: int,
             replication_factor: int) -> "PartitionMap":
        """Chained placement: partition ``p`` lives on replicas
        ``p % N, (p+1) % N, ..., (p+rf-1) % N``.

        With ``replication_factor >= 2`` any two *adjacent* partitions
        share a host, so cross-partition transactions always have a
        co-located replica to execute on.
        """
        if not 1 <= replication_factor <= replicas:
            raise ConfigurationError(
                f"replication factor must be in [1, {replicas}], got "
                f"{replication_factor}"
            )
        placement = tuple(
            tuple(sorted({(p + i) % replicas
                          for i in range(replication_factor)}))
            for p in range(partitions)
        )
        return cls(partitions, replicas, placement)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def hosts(self, partition: int) -> Tuple[int, ...]:
        """Replica indices hosting *partition*."""
        if not 0 <= partition < self.partitions:
            raise ConfigurationError(
                f"partition {partition} outside [0, {self.partitions})"
            )
        return self.placement[partition]

    def hosted_by(self, replica_index: int) -> FrozenSet[int]:
        """Partitions hosted at replica *replica_index*."""
        if not 0 <= replica_index < self.replicas:
            raise ConfigurationError(
                f"replica {replica_index} outside [0, {self.replicas})"
            )
        return frozenset(
            p for p, hosts in enumerate(self.placement)
            if replica_index in hosts
        )

    def common_hosts(self, partitions: Sequence[int]) -> Tuple[int, ...]:
        """Replica indices hosting *every* partition in *partitions*."""
        parts = list(partitions)
        if not parts:
            return tuple(range(self.replicas))
        common = set(self.hosts(parts[0]))
        for p in parts[1:]:
            common &= set(self.hosts(p))
        return tuple(sorted(common))

    def colocated_partners(self, partition: int) -> Tuple[int, ...]:
        """Partitions sharing at least one host with *partition*.

        Cross-partition transactions sample their second partition from
        this set, so any map yields workloads that a single replica can
        execute (no distributed commit is modelled).
        """
        hosts = set(self.hosts(partition))
        return tuple(
            q for q in range(self.partitions)
            if q != partition and hosts & set(self.placement[q])
        )

    @property
    def is_full(self) -> bool:
        """True when every replica hosts every partition."""
        everyone = set(range(self.replicas))
        return all(set(hosts) == everyone for hosts in self.placement)

    @property
    def replication_factor(self) -> float:
        """Mean number of replicas hosting each partition."""
        return sum(len(hosts) for hosts in self.placement) / self.partitions

    # ------------------------------------------------------------------
    # Model inputs
    # ------------------------------------------------------------------

    def expected_update_fanout(
        self,
        cross_partition_fraction: float = 0.0,
        weights: Optional[Sequence[float]] = None,
    ) -> float:
        """Expected number of replicas hosting one update's writeset.

        Matches the workload sampler's generative model: the primary
        partition is drawn by *weights* (uniform when ``None``); with
        probability *cross_partition_fraction* a second, co-located
        partition joins the writeset and the hosting set is the union of
        both partitions' hosts.  This is the ``h`` the analytical model
        uses in place of ``N`` — each committed update charges writeset
        application at ``h - 1`` remote replicas instead of ``N - 1``.
        """
        if not 0.0 <= cross_partition_fraction <= 1.0:
            raise ConfigurationError(
                "cross-partition fraction must be in [0, 1]"
            )
        probabilities = _normalized_weights(weights, self.partitions)
        expected = 0.0
        for p, probability in enumerate(probabilities):
            hosts_p = set(self.hosts(p))
            partners = self.colocated_partners(p)
            single = float(len(hosts_p))
            if cross_partition_fraction > 0.0 and partners:
                union = sum(
                    len(hosts_p | set(self.placement[q])) for q in partners
                ) / len(partners)
                expected += probability * (
                    (1.0 - cross_partition_fraction) * single
                    + cross_partition_fraction * union
                )
            else:
                expected += probability * single
        return expected

    def to_text(self) -> str:
        """Render the placement, one partition per line."""
        lines = [
            f"partition map: {self.partitions} partitions over "
            f"{self.replicas} replicas "
            f"(mean replication factor {self.replication_factor:g})"
        ]
        for p, hosts in enumerate(self.placement):
            listed = ", ".join(f"r{i}" for i in hosts)
            lines.append(f"  partition {p}: [{listed}]")
        return "\n".join(lines)


def _normalized_weights(
    weights: Optional[Sequence[float]], partitions: int
) -> Tuple[float, ...]:
    """Normalise partition popularity weights (uniform when ``None``)."""
    if weights is None:
        return tuple(1.0 / partitions for _ in range(partitions))
    values = tuple(float(w) for w in weights)
    if len(values) != partitions:
        raise ConfigurationError(
            f"weights name {len(values)} partitions but the map has "
            f"{partitions}"
        )
    if any(w <= 0.0 for w in values):
        raise ConfigurationError("every partition weight must be positive")
    total = sum(values)
    return tuple(w / total for w in values)


def resolve_partition_map(
    spec,
    config,
    partition_map: Optional[PartitionMap],
    design: str = MULTI_MASTER,
) -> Optional[PartitionMap]:
    """Validate *partition_map* against a workload and deployment.

    The single resolution step shared by the simulator and the live
    cluster runtime:

    * an unpartitioned workload (``spec.partitions == 1``) takes no map
      and returns ``None`` — the classic full-replication paths run
      untouched;
    * a partitioned workload with no explicit map defaults to
      :meth:`PartitionMap.full` (full replication of partitioned data —
      the A/B baseline partial placement is compared against);
    * an explicit map must match the workload's partition count and the
      deployment's replica count, and every non-master replica must host
      at least one partition (an empty replica could serve nothing).
    """
    if spec.partitions == 1:
        if partition_map is not None:
            raise ConfigurationError(
                f"workload {spec.name} is unpartitioned but a partition "
                f"map was supplied"
            )
        return None
    if partition_map is None:
        return PartitionMap.full(spec.partitions, config.replicas)
    if partition_map.partitions != spec.partitions:
        raise ConfigurationError(
            f"map has {partition_map.partitions} partitions but workload "
            f"{spec.name} declares {spec.partitions}"
        )
    if partition_map.replicas != config.replicas:
        raise ConfigurationError(
            f"map places over {partition_map.replicas} replicas but the "
            f"deployment has {config.replicas}"
        )
    first_constrained = 1 if design == SINGLE_MASTER else 0
    for index in range(first_constrained, partition_map.replicas):
        if not partition_map.hosted_by(index):
            raise ConfigurationError(
                f"replica {index} hosts no partition; every "
                f"{'slave' if design == SINGLE_MASTER else 'replica'} "
                f"must host at least one"
            )
    return partition_map
