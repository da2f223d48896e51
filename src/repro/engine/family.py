"""Scenario families: one declaration, a simulator cell set and a live twin.

A family's grid is written once over a :class:`PillarDims` record — the
things its deterministic simulator cells and its live-cluster validation
cells differ in — and :func:`register_family` registers it on both,
deriving the ``<name>-live`` twin from the simulator scenario
(:func:`live_twin`), so the pair cannot drift apart.  A family whose
cells are configurations compared on throughput, response time and
aborts returns a :class:`CellTable`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.params import ReplicationConfig
from ..workloads.spec import WorkloadSpec
from .registry import register_scenario
from .scenario import (
    CLUSTER,
    Scenario,
    SweepPoint,
    autoscale_point,
    cluster_point,
    sim_point,
)


@dataclass(frozen=True)
class PillarDims:
    """What one pillar's cells of a family are built from."""

    #: ``simulator`` or ``cluster``.
    pillar: str
    spec: WorkloadSpec
    seed: int
    #: The family's N=1 deployment: carries the pillar's delays.
    config: ReplicationConfig
    warmup: float
    duration: float
    #: Wall seconds per virtual second (live cells only).
    time_scale: float = 0.25
    #: Control period and join cost of elastic cells.
    control_interval: float = 0.0
    transfer_writesets: int = 16
    #: Deployment whose model-predicted capacity sizes the offered load.
    anchor: Optional[ReplicationConfig] = None
    #: Designs the pillar runs: the live twin validates multi-master.
    designs: Tuple[str, ...] = ("multi-master",)
    #: Replica count the family pins its fleet at.
    fleet: int = 1

    @property
    def horizon(self) -> float:
        """Virtual seconds from run start to the end of the window."""
        return self.warmup + self.duration

    def label(self, design: str) -> str:
        """Tag prefix of a cell: the design, or ``live`` on the twin."""
        return "live" if self.pillar == CLUSTER else design

    def measured_point(self, design: str, replicas: Optional[int] = None, *,
                       tag: str, **options) -> SweepPoint:
        """A steady-state cell at *replicas* (default: the fleet): a
        simulator or a live-cluster point."""
        config = self.config.with_replicas(replicas or self.fleet)
        shared = dict(options, seed=self.seed, warmup=self.warmup,
                      duration=self.duration, tag=tag)
        if self.pillar == CLUSTER:
            return cluster_point(self.spec, config, design,
                                 time_scale=self.time_scale, **shared)
        return sim_point(self.spec, config, design, **shared)

    def elastic_point(self, design: str, *, tag: str, **options) -> SweepPoint:
        """An autoscale cell on this pillar's elastic harness."""
        return autoscale_point(
            self.spec, self.config, design,
            seed=self.seed, warmup=self.warmup, duration=self.duration,
            control_interval=self.control_interval, pillar=self.pillar,
            time_scale=self.time_scale,
            transfer_writesets=self.transfer_writesets, tag=tag, **options,
        )


@dataclass(frozen=True)
class CellTable:
    """A comparison artifact: one row per labelled cell, with its
    throughput, response time and abort rate."""

    title: str
    #: Heading and width of the label column.
    heading: str
    width: int
    #: ``(label, result)`` per cell, in grid order; a result is any
    #: measured or predicted run (``SimulationResult``,
    #: ``ClusterResult``, ``Prediction``).
    cells: Tuple[Tuple[str, object], ...]
    #: Footer lines, rendered under the rows.
    notes: Tuple[str, ...] = ()

    @property
    def results(self) -> Tuple[object, ...]:
        """The cells' results, in grid order."""
        return tuple(result for _, result in self.cells)

    def cell(self, label: str) -> Optional[object]:
        """Result of one labelled cell."""
        for name, result in self.cells:
            if name == label:
                return result
        return None

    def to_text(self) -> str:
        """Render the title, the table and the notes."""
        width = self.width
        lines = [
            self.title,
            f"  {self.heading:<{width}s} {'throughput':>11s} "
            f"{'response':>9s} {'aborts':>7s}",
        ]
        for name, result in self.cells:
            lines.append(
                f"  {name:<{width}s} {result.throughput:>7.1f} tps "
                f"{result.response_time * 1000:>6.0f} ms "
                f"{result.abort_rate:>6.2%}"
            )
        lines.extend("  " + note for note in self.notes)
        return "\n".join(lines)


def live_twin(scenario: Scenario, **changes) -> Scenario:
    """The live validation twin of a simulator *scenario*: ``<name>-live``
    with the ``live`` tag; *changes* are the fields that differ (title,
    points, assemble)."""
    return dataclasses.replace(
        scenario,
        name=f"{scenario.name}-live",
        tags=scenario.tags + ("live",),
        **changes,
    )


def register_family(points, sim_dims, live_dims, live: dict, **fields) -> None:
    """Register one grid declaration on both pillars.

    ``points(settings, dims)`` builds the grid over a :class:`PillarDims`;
    *sim_dims* and *live_dims* map settings to each pillar's record.
    *fields* are the simulator scenario's :class:`Scenario` fields and
    *live* the ones its twin changes (see :func:`live_twin`).
    """
    def on(dims_for):
        return lambda settings: points(settings, dims_for(settings))

    sim = register_scenario(Scenario(points=on(sim_dims), **fields))
    register_scenario(live_twin(sim, points=on(live_dims), **live))
