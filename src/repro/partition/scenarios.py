"""Registered partial-replication scenarios.

Three families, each a deterministic simulator cell set and a ``-live``
cluster twin registered from the same declaration:

* ``partial-replication-sweep`` — full vs partial replication across an
  update-fraction sweep on one fleet: the A/B that quantifies how much
  of the paper's update-propagation ceiling placement buys back.  Sim
  cells pair with partition-aware model predictions so the bench can
  hold the model-vs-simulator deviation inside the crossval envelope.
* ``placement-ablation`` — weight-balanced placement
  (:func:`~repro.models.planning.plan_placement`) vs a weight-oblivious
  ring on a skewed partition popularity: the planner's win condition.
* ``certifier-sharding`` — the global sequencer vs per-partition
  certifier shards when certification itself has a positive service
  time: the sharded write path's win condition (high update fraction,
  many partitions).  Model + simulator cells, plus a live validation
  pair on real threads.

All cells are ordinary engine sweep points: simulator cells are cached
and fan out over ``--jobs``; live cells re-execute.  The CLI front end
is ``repro partition``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.params import ConflictProfile, WorkloadMix
from ..core.topology import MULTI_MASTER
from ..engine import (
    CLUSTER,
    SIMULATOR,
    PillarDims,
    Scenario,
    live_twin,
    register_family,
    register_scenario,
)
from ..engine.scenario import model_point, profile_task
from ..models.planning import plan_placement
from ..sidb.certifier_api import CertifierSpec
from ..simulator.systems import PARTITION_AWARE
from ..workloads import get_workload
from ..workloads.spec import WorkloadSpec, demands_ms
from .placement import PartitionMap

#: Fleet and placement of the update-fraction sweep.
SWEEP_FLEET = 6
SWEEP_PARTITIONS = 6
SWEEP_FACTOR = 2
#: Update fractions swept (the claim lives at the update-heavy end).
WRITE_FRACTIONS = (0.1, 0.3, 0.5)
#: Cross-partition transaction fraction of every partitioned workload.
CROSS_FRACTION = 0.1

#: Skewed partition popularity of the placement ablation.
ABLATION_PARTITIONS = 8
ABLATION_FLEET = 4
ABLATION_WEIGHTS = (8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
ABLATION_WRITE_FRACTION = 0.5

#: Live-cell dimensions (millisecond-scale workload, real threads).
LIVE_FLEET = 3
LIVE_PARTITIONS = 3
LIVE_WRITE_FRACTION = 0.5
LIVE_TIME_SCALE = 0.25
LIVE_WARMUP = 2.0
LIVE_DURATION = 16.0
LIVE_ABLATION_PARTITIONS = 6
LIVE_ABLATION_WEIGHTS = (6.0, 3.0, 1.0, 1.0, 1.0, 1.0)

#: Certifier-sharding A/B: an update-heavy partitioned workload on a
#: fleet large enough that a contended global sequencer saturates.
CERT_PARTITIONS = 8
CERT_CROSS_FRACTION = 0.2
CERT_FLEET = 12
CERT_DELAY = 0.012
#: Per-certification service occupancy.  Each pillar gets the occupancy
#: that makes the sequencer the bottleneck *in that pillar's throughput
#: regime*: the live cluster's absolute rate is far below the
#: simulator's (real threads), so it needs a proportionally longer
#: service time for the same comparison.
CERT_SERVICE = {SIMULATOR: 0.008, CLUSTER: 0.04}
CERT_LIVE_TIME_SCALE = 0.04
CERT_LIVE_WARMUP = 4.0
CERT_LIVE_DURATION = 20.0


def sweep_spec(write_fraction: float) -> WorkloadSpec:
    """The sweep's workload at one update fraction.

    Short service demands keep simulated points cheap; the writeset
    demand is deliberately substantial relative to the update demand so
    the ``(N-1) * Pw * ws`` propagation term — the thing partial
    replication attacks — is a first-order cost at high Pw.
    """
    return WorkloadSpec(
        benchmark="micro",
        mix_name=f"partition-w{int(round(write_fraction * 100)):02d}",
        mix=WorkloadMix.from_write_fraction(write_fraction),
        demands=demands_ms(
            read_cpu=6.0, read_disk=3.0,
            write_cpu=8.0, write_disk=5.0,
            writeset_cpu=2.5, writeset_disk=1.5,
        ),
        clients_per_replica=32,
        think_time=0.25,
        conflict=ConflictProfile(db_update_size=4200,
                                 updates_per_transaction=2),
        description=(
            f"partition sweep mix at Pw={write_fraction:g} "
            f"({SWEEP_PARTITIONS} partitions)"
        ),
        partitions=SWEEP_PARTITIONS,
        cross_partition_fraction=CROSS_FRACTION,
    )


def ablation_spec() -> WorkloadSpec:
    """Skew-weighted workload of the placement ablation.

    Routing feedback (least-loaded among hosts) can re-balance *client*
    work across each partition's hosts, but writeset application is
    pinned: every update to a partition is applied at **all** of its
    hosts.  A heavy writeset demand makes that pinned, placement-
    determined load the bottleneck — exactly what weight-balanced
    placement optimises.
    """
    return WorkloadSpec(
        benchmark="micro",
        mix_name="partition-skew",
        mix=WorkloadMix.from_write_fraction(ABLATION_WRITE_FRACTION),
        demands=demands_ms(
            read_cpu=6.0, read_disk=3.0,
            write_cpu=8.0, write_disk=5.0,
            writeset_cpu=10.0, writeset_disk=4.0,
        ),
        clients_per_replica=28,
        think_time=0.25,
        conflict=ConflictProfile(db_update_size=4800,
                                 updates_per_transaction=2),
        description="skewed partition popularity for placement planning",
        partitions=ABLATION_PARTITIONS,
        cross_partition_fraction=CROSS_FRACTION,
        partition_weights=ABLATION_WEIGHTS,
    )


def live_sweep_spec() -> WorkloadSpec:
    """Millisecond-scale update-heavy mix for the live A/B cells.

    The writeset demand matches the update demand, so full replication's
    propagation load is a first-order cost on a 3-replica fleet and the
    partial-placement win clears live measurement noise.
    """
    return WorkloadSpec(
        benchmark="micro",
        mix_name="partition-live",
        mix=WorkloadMix.from_write_fraction(LIVE_WRITE_FRACTION),
        demands=demands_ms(
            read_cpu=30.0, read_disk=12.0,
            write_cpu=20.0, write_disk=8.0,
            writeset_cpu=20.0, writeset_disk=8.0,
        ),
        clients_per_replica=8,
        think_time=0.2,
        conflict=ConflictProfile(db_update_size=1200,
                                 updates_per_transaction=2),
        description="update-heavy mix for live partial-replication cells",
        partitions=LIVE_PARTITIONS,
        cross_partition_fraction=CROSS_FRACTION,
    )


def live_ablation_spec() -> WorkloadSpec:
    """Skew-weighted millisecond-scale mix for the live placement cells."""
    return WorkloadSpec(
        benchmark="micro",
        mix_name="partition-live-skew",
        mix=WorkloadMix.from_write_fraction(0.4),
        demands=demands_ms(
            read_cpu=30.0, read_disk=12.0,
            write_cpu=20.0, write_disk=8.0,
            writeset_cpu=20.0, writeset_disk=8.0,
        ),
        clients_per_replica=8,
        think_time=0.2,
        conflict=ConflictProfile(db_update_size=1200,
                                 updates_per_transaction=2),
        description="skewed live mix for placement planning validation",
        partitions=LIVE_ABLATION_PARTITIONS,
        cross_partition_fraction=CROSS_FRACTION,
        partition_weights=LIVE_ABLATION_WEIGHTS,
    )


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PartialReplicationRow:
    """Full vs partial replication at one update fraction."""

    write_fraction: float
    #: Simulator measurements (``SimulationResult``).
    sim_full: object
    sim_partial: object
    #: Model predictions (``Prediction``).
    model_full: object
    model_partial: object

    @property
    def speedup(self) -> float:
        """Partial over full simulated throughput."""
        if self.sim_full.throughput <= 0:
            return 0.0
        return self.sim_partial.throughput / self.sim_full.throughput

    @property
    def model_vs_sim_deviation(self) -> float:
        """Relative throughput deviation of the partial-replication
        model against the partial-replication simulation."""
        if self.sim_partial.throughput <= 0:
            return float("inf")
        return abs(
            self.model_partial.throughput - self.sim_partial.throughput
        ) / self.sim_partial.throughput


@dataclass(frozen=True)
class PartialReplicationReport:
    """The ``partial-replication-sweep`` artifact."""

    workload: str
    pillar: str
    partition_map: PartitionMap
    rows: Tuple[PartialReplicationRow, ...]

    def row_for(self, write_fraction: float) -> Optional[PartialReplicationRow]:
        """Look up one update fraction's row."""
        for row in self.rows:
            if abs(row.write_fraction - write_fraction) < 1e-9:
                return row
        return None

    def to_text(self) -> str:
        """Render the sweep table."""
        lines = [
            f"partial replication sweep — {self.workload}, {self.pillar} "
            f"pillar, {self.partition_map.partitions} partitions x "
            f"factor {self.partition_map.replication_factor:g} over "
            f"{self.partition_map.replicas} replicas",
            f"  {'Pw':>5s} {'full(sim)':>10s} {'partial(sim)':>13s} "
            f"{'speedup':>8s} {'partial(model)':>15s} {'model dev':>10s}",
        ]
        for row in self.rows:
            lines.append(
                f"  {row.write_fraction:>5.2f} "
                f"{row.sim_full.throughput:>6.1f} tps "
                f"{row.sim_partial.throughput:>9.1f} tps "
                f"{row.speedup:>7.2f}x "
                f"{row.model_partial.throughput:>11.1f} tps "
                f"{row.model_vs_sim_deviation:>9.1%}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class LiveCell:
    """One live cluster measurement (labelled)."""

    label: str
    result: object  # ClusterResult

    @property
    def converged(self) -> bool:
        """Replication correctness of the cell."""
        return self.result.state_converged


@dataclass(frozen=True)
class PartialReplicationLiveReport:
    """The ``partial-replication-sweep-live`` artifact."""

    workload: str
    partition_map: PartitionMap
    cells: Tuple[LiveCell, ...]

    @property
    def results(self) -> Tuple[object, ...]:
        """Raw per-cell results (CLI convergence screening)."""
        return tuple(cell.result for cell in self.cells)

    def cell(self, label: str) -> Optional[object]:
        """Result of one labelled cell."""
        for candidate in self.cells:
            if candidate.label == label:
                return candidate.result
        return None

    def to_text(self) -> str:
        """Render the live A/B."""
        lines = [
            f"partial replication (live cluster) — {self.workload}, "
            f"{self.partition_map.partitions} partitions x factor "
            f"{self.partition_map.replication_factor:g} over "
            f"{self.partition_map.replicas} replicas",
            f"  {'placement':<10s} {'throughput':>11s} {'response':>9s} "
            f"{'aborts':>7s} {'replication':>22s}",
        ]
        for cell in self.cells:
            result = cell.result
            state = (
                "converged, identical" if result.state_converged
                else "DIVERGED"
            )
            lines.append(
                f"  {cell.label:<10s} {result.throughput:>7.1f} tps "
                f"{result.response_time * 1000:>6.0f} ms "
                f"{result.abort_rate:>6.2%} {state:>22s}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PlacementAblationReport:
    """The ``placement-ablation`` artifact (sim or live pillar)."""

    workload: str
    pillar: str
    weights: Tuple[float, ...]
    #: (label, result) per placement cell.
    cells: Tuple[Tuple[str, object], ...]
    #: The planner's own rendering of the balanced placement.
    plan_text: str = ""

    @property
    def results(self) -> Tuple[object, ...]:
        """Raw per-cell results (CLI convergence screening)."""
        return tuple(result for _, result in self.cells)

    def cell(self, label: str) -> Optional[object]:
        """Result of one placement cell."""
        for name, result in self.cells:
            if name == label:
                return result
        return None

    def to_text(self) -> str:
        """Render the placement comparison."""
        skew = " ".join(f"{w:g}" for w in self.weights)
        lines = [
            f"placement ablation — {self.workload}, {self.pillar} pillar, "
            f"partition weights [{skew}]",
            f"  {'placement':<16s} {'throughput':>11s} {'response':>9s} "
            f"{'aborts':>7s}",
        ]
        for name, result in self.cells:
            lines.append(
                f"  {name:<16s} {result.throughput:>7.1f} tps "
                f"{result.response_time * 1000:>6.0f} ms "
                f"{result.abort_rate:>6.2%}"
            )
        if self.plan_text:
            lines.append("  balanced plan:")
            for line in self.plan_text.splitlines():
                lines.append("    " + line)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Pillar dimensions shared by the three families
# ----------------------------------------------------------------------

def _sim_dims(settings, spec: WorkloadSpec, fleet: int,
              certifier_delay: Optional[float] = None) -> PillarDims:
    return PillarDims(
        pillar=SIMULATOR,
        spec=spec,
        seed=settings.seed,
        config=spec.replication_config(
            1,
            load_balancer_delay=settings.load_balancer_delay,
            certifier_delay=(settings.certifier_delay
                             if certifier_delay is None else certifier_delay),
        ),
        warmup=settings.sim_warmup,
        duration=settings.sim_duration,
        fleet=fleet,
    )


def _live_dims(settings, spec: WorkloadSpec) -> PillarDims:
    return PillarDims(
        pillar=CLUSTER,
        spec=spec,
        seed=settings.seed,
        config=spec.replication_config(
            1, load_balancer_delay=0.0005, certifier_delay=0.002,
        ),
        warmup=LIVE_WARMUP,
        duration=LIVE_DURATION,
        time_scale=LIVE_TIME_SCALE,
        fleet=LIVE_FLEET,
    )


# ----------------------------------------------------------------------
# partial-replication-sweep (simulator + model) and its live A/B
# ----------------------------------------------------------------------

def sweep_map() -> PartitionMap:
    """The sweep's partial placement (ring, factor 2)."""
    return PartitionMap.ring(SWEEP_PARTITIONS, SWEEP_FLEET, SWEEP_FACTOR)


def live_sweep_map() -> PartitionMap:
    """The live A/B's partial placement (ring, factor 2)."""
    return PartitionMap.ring(LIVE_PARTITIONS, LIVE_FLEET, SWEEP_FACTOR)


def _full_and_partial(dims: PillarDims, partial: PartitionMap,
                      tag: str = "{}") -> List:
    # Full replication is the partitioned spec with no map (the resolver
    # defaults to PartitionMap.full): identical workload, identical
    # routing policy, only the placement differs.
    return [
        dims.measured_point(
            MULTI_MASTER, lb_policy=PARTITION_AWARE,
            partition_map=pmap, tag=tag.format(label),
        )
        for label, pmap in (("full", None), ("partial", partial))
    ]


def _sweep_points(settings) -> List:
    partial = sweep_map()
    points = []
    for write_fraction in WRITE_FRACTIONS:
        dims = _sim_dims(settings, sweep_spec(write_fraction), SWEEP_FLEET)
        prefix = f"{write_fraction:g}"
        points += _full_and_partial(dims, partial, prefix + ":sim-{}")
        for label, pmap in (("full", None), ("partial", partial)):
            points.append(model_point(
                dims.spec, dims.config.with_replicas(dims.fleet), MULTI_MASTER,
                profile=profile_task(dims.spec, settings),
                partition_map=pmap,
                tag=f"{prefix}:model-{label}",
            ))
    return points


def _assemble_sweep(settings, points, results) -> PartialReplicationReport:
    by_tag = dict(zip((p.tag for p in points), results))
    rows = tuple(
        PartialReplicationRow(
            write_fraction=wf,
            sim_full=by_tag[f"{wf:g}:sim-full"],
            sim_partial=by_tag[f"{wf:g}:sim-partial"],
            model_full=by_tag[f"{wf:g}:model-full"],
            model_partial=by_tag[f"{wf:g}:model-partial"],
        )
        for wf in WRITE_FRACTIONS
    )
    return PartialReplicationReport(
        workload="micro/partition-sweep",
        pillar="simulator",
        partition_map=sweep_map(),
        rows=rows,
    )


def _assemble_live_sweep(settings, points, results):
    cells = tuple(
        LiveCell(label=point.tag, result=result)
        for point, result in zip(points, results)
    )
    return PartialReplicationLiveReport(
        workload=live_sweep_spec().name,
        partition_map=live_sweep_map(),
        cells=cells,
    )


register_scenario(live_twin(
    register_scenario(Scenario(
        name="partial-replication-sweep",
        title="Partial vs full replication across update fractions "
        "(sim + model)",
        kind="partition",
        metrics=("throughput", "speedup", "model_vs_sim_deviation"),
        points=_sweep_points,
        assemble=_assemble_sweep,
        aliases=("partial-replication", "partition-sweep"),
    )),
    title="Live-cluster partial vs full replication (scoped propagation)",
    metrics=("throughput", "response_time", "converged"),
    points=lambda settings: _full_and_partial(
        _live_dims(settings, live_sweep_spec()), live_sweep_map()
    ),
    assemble=_assemble_live_sweep,
))


# ----------------------------------------------------------------------
# placement-ablation (simulator, live cluster)
# ----------------------------------------------------------------------

def balanced_map(partitions: int, replicas: int,
                 weights: Tuple[float, ...]) -> PartitionMap:
    """The planner's weight-balanced placement for one ablation cell."""
    return plan_placement(partitions, replicas, SWEEP_FACTOR,
                          weights=weights).partition_map


def _placement_points(settings, dims: PillarDims) -> List:
    spec = dims.spec
    placements = (
        ("ring-oblivious",
         PartitionMap.ring(spec.partitions, dims.fleet, SWEEP_FACTOR)),
        ("weight-balanced",
         balanced_map(spec.partitions, dims.fleet, spec.partition_weights)),
    )
    return [
        dims.measured_point(
            MULTI_MASTER, lb_policy=PARTITION_AWARE,
            partition_map=pmap, tag=tag,
        )
        for tag, pmap in placements
    ]


def _assemble_placement(settings, points, results) -> PlacementAblationReport:
    first = points[0]
    spec = first.spec
    plan = plan_placement(spec.partitions, first.replicas, SWEEP_FACTOR,
                          weights=spec.partition_weights)
    return PlacementAblationReport(
        workload=spec.name,
        pillar=first.backend,
        weights=spec.partition_weights,
        cells=tuple(
            (point.tag, result) for point, result in zip(points, results)
        ),
        plan_text=plan.to_text(),
    )


register_family(
    _placement_points,
    lambda settings: _sim_dims(settings, ablation_spec(), ABLATION_FLEET),
    lambda settings: _live_dims(settings, live_ablation_spec()),
    live=dict(
        title="Live-cluster placement planning: balanced vs oblivious ring",
        metrics=("throughput", "response_time", "converged"),
    ),
    name="placement-ablation",
    title="Placement planning: weight-balanced vs oblivious ring "
    "(skewed load)",
    kind="partition",
    metrics=("throughput", "response_time"),
    assemble=_assemble_placement,
    aliases=("placement",),
)


# ----------------------------------------------------------------------
# certifier-sharding (simulator + model, live cluster)
# ----------------------------------------------------------------------

def certifier_workload() -> WorkloadSpec:
    """Update-heavy partitioned workload of the certifier A/B.

    TPC-W ordering (Pw=0.5) partitioned eight ways: enough update
    traffic that a contended global sequencer saturates a 12-replica
    fleet, and enough partitions that sharding buys real parallelism.
    """
    return get_workload("tpcw/ordering").with_partitions(
        CERT_PARTITIONS, cross_partition_fraction=CERT_CROSS_FRACTION
    )


@dataclass(frozen=True)
class CertifierShardingReport:
    """The ``certifier-sharding`` artifact (sim or live pillar)."""

    workload: str
    pillar: str
    partitions: int
    service_time: float
    #: (label, result) per certifier cell.
    cells: Tuple[Tuple[str, object], ...]

    @property
    def results(self) -> Tuple[object, ...]:
        """Raw per-cell results (CLI convergence/audit screening)."""
        return tuple(result for _, result in self.cells)

    @property
    def converged(self) -> bool:
        """Replication correctness of every live cell (sim cells pass)."""
        return all(
            getattr(result, "state_converged", True) for result in self.results
        )

    def cell(self, label: str) -> Optional[object]:
        """Result of one certifier cell."""
        for name, result in self.cells:
            if name == label:
                return result
        return None

    def speedup(self, pillar_prefix: str) -> float:
        """Sharded over global throughput within one pillar's cells."""
        sharded = self.cell(f"{pillar_prefix}-sharded")
        global_ = self.cell(f"{pillar_prefix}-global")
        if sharded is None or global_ is None or global_.throughput <= 0:
            return 0.0
        return sharded.throughput / global_.throughput

    def to_text(self) -> str:
        """Render the certifier comparison."""
        lines = [
            f"certifier sharding — {self.workload}, {self.pillar} pillar, "
            f"{self.partitions} certifier shards, per-certification "
            f"service {self.service_time * 1000:g} ms",
            f"  {'certifier':<16s} {'throughput':>11s} {'response':>9s} "
            f"{'aborts':>7s}",
        ]
        for name, result in self.cells:
            lines.append(
                f"  {name:<16s} {result.throughput:>7.1f} tps "
                f"{result.response_time * 1000:>6.0f} ms "
                f"{result.abort_rate:>6.2%}"
            )
        for prefix in ("sim", "live", "model"):
            ratio = self.speedup(prefix)
            if ratio > 0.0:
                lines.append(f"  {prefix} speedup (sharded/global): "
                             f"{ratio:.2f}x")
        return "\n".join(lines)


def _certifier_points(settings, dims: PillarDims) -> List:
    # Both arms carry the SAME positive service time: the A/B isolates
    # the protocol (one sequencer vs per-partition shards), not the cost
    # of certification itself.
    arms = [(kind, CertifierSpec(kind, service_time=CERT_SERVICE[dims.pillar]))
            for kind in ("global", "sharded")]
    points = [
        dims.measured_point(
            MULTI_MASTER, lb_policy=PARTITION_AWARE,
            certifier=certifier, tag=f"{dims.label('sim')}-{kind}",
        )
        for kind, certifier in arms
    ]
    if dims.pillar == SIMULATOR:
        points += [
            model_point(
                dims.spec, dims.config.with_replicas(dims.fleet), MULTI_MASTER,
                profile=profile_task(dims.spec, settings),
                certifier=certifier, tag=f"model-{kind}",
            )
            for kind, certifier in arms
        ]
    return points


def _assemble_certifier(settings, points, results) -> CertifierShardingReport:
    first = points[0]
    return CertifierShardingReport(
        workload=first.spec.name,
        pillar="+".join(dict.fromkeys(point.backend for point in points)),
        partitions=first.spec.partitions,
        service_time=first.option("certifier").service_time,
        cells=tuple(
            (point.tag, result) for point, result in zip(points, results)
        ),
    )


def _certifier_sim_dims(settings) -> PillarDims:
    return _sim_dims(settings, certifier_workload(), CERT_FLEET, CERT_DELAY)


register_family(
    _certifier_points,
    _certifier_sim_dims,
    # Same workload, fleet and delays on real threads; only the clock
    # (and with it the service occupancy) is the live pillar's.
    lambda settings: dataclasses.replace(
        _certifier_sim_dims(settings), pillar=CLUSTER,
        warmup=CERT_LIVE_WARMUP, duration=CERT_LIVE_DURATION,
        time_scale=CERT_LIVE_TIME_SCALE,
    ),
    live=dict(
        title="Live-cluster certifier sharding: global vs per-partition "
        "shards",
        metrics=("throughput", "response_time", "converged"),
    ),
    name="certifier-sharding",
    title="Certifier sharding: global sequencer vs per-partition shards "
    "(sim + model)",
    kind="partition",
    metrics=("throughput", "speedup", "abort_rate"),
    assemble=_assemble_certifier,
    aliases=("sharded-certifier",),
    # Both arms of the certifier axis are the experiment.
    owns=("certifier",),
)
