"""The paper's designs, declared once for all three pillars.

A :class:`Topology` says who executes update transactions — the one
decision multi-master (Figure 4) and single-master (Figure 5) differ in —
and so whether the design has a certifier axis.  The model, the
simulator and the live cluster read the same table, and refuse what a
design cannot do with the one message each from the block below (the
README's restrictions table lists them all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..sidb.certifier_api import CertifierSpec, resolve_certifier_spec
from .errors import ConfigurationError

STANDALONE = "standalone"
MULTI_MASTER = "multi-master"
SINGLE_MASTER = "single-master"
#: Every design the simulator builds, the profiler's standalone database
#: included.
DESIGNS = (STANDALONE, MULTI_MASTER, SINGLE_MASTER)
#: The replicated designs: the model's and the live cluster's.
REPLICATED_DESIGNS = (MULTI_MASTER, SINGLE_MASTER)

#: Name (and sampler path) of the replica executing every update.
MASTER = "master"

# Refusal messages.  Re-placing partitions on join/leave — split, merge,
# migrate — vector-valued state transfer and master promotion are the
# natural follow-ons; until then the combinations fail loudly rather
# than silently miscounting.
ELASTIC_NEEDS_GLOBAL_CERTIFIER = (
    "elastic membership is not supported with the sharded certifier "
    "(joins need vector-valued state transfer)"
)
ELASTIC_NEEDS_FULL_REPLICATION = (
    "elastic membership requires full replication; the partition map "
    "places data on a fixed fleet"
)
STANDALONE_IS_NOT_ELASTIC = "a standalone system has no fleet to resize"
MASTER_IS_NOT_REMOVABLE = "the master cannot be removed"
LAST_HEALTHY_REPLICA = "cannot remove the last healthy replica"
CRASH_NEEDS_FULL_REPLICATION = (
    "crash faults are not supported under a partial partition map: a "
    "crashed host permanently loses its partitions and cannot be "
    "replaced (drain faults are fine — their backlog replays on recovery)"
)
MASTER_IS_NOT_FAULTABLE = (
    "cannot fault the master of a single-master system (no promotion "
    "protocol); fault a slave instead"
)
STANDALONE_HAS_NO_REDUNDANCY = "standalone systems have no redundancy to fault"
STANDALONE_IS_ONE_REPLICA = "standalone design requires replicas == 1"
STANDALONE_HAS_NO_CAPACITIES = (
    "capacities describe a replicated fleet; standalone systems have "
    "exactly one machine"
)
ARRIVAL_RATE_MUST_BE_POSITIVE = "the open-loop arrival rate must be positive"
CERTIFIER_AXIS_IS_MULTI_MASTER = (
    "the certifier axis is multi-master only: a single-master or "
    "standalone database certifies its own commits"
)
SHARDED_CERTIFIER_NEEDS_PARTITIONS = (
    "the sharded certifier needs a partitioned workload (partitions >= 2); "
    "use the global certifier for unpartitioned runs"
)
PARTITION_MODEL_IS_MULTI_MASTER = "the partition-aware model covers multi-master only"


@dataclass(frozen=True)
class Topology:
    """Who executes update transactions — the one decision the paper's
    two designs differ in — and what the fleet around it is called.
    Shared by the model, the simulator and the live cluster.
    """

    #: Design name (validates partition maps, names retry failures).
    design: str
    #: ``False`` (multi-master, Figure 4): the routed replica executes
    #: the update under GSI — its snapshot is the replica's own applied
    #: state, which can lag the certifier (so snapshot age is recorded
    #: and lagging replicas pin the prune floor), and certification is a
    #: round-trip to a remote service.  ``True`` (single-master,
    #: Figure 5): the master executes every update under plain SI — its
    #: snapshot is the latest commit and it is its own certifier, so
    #: there is no staleness to record and no round-trip to pay.  Such a
    #: fleet is built with a :data:`MASTER` in front of its members; the
    #: master takes capacity and placement index 0.
    master_updates: bool
    #: Name prefix of the members the fleet is built and grown from
    #: (``replica0``, ``replica1``, …).
    member: str = "replica"

    @property
    def certifier_axis(self) -> bool:
        """Whether a run may choose this design's certifier (a
        non-default :class:`~repro.sidb.certifier_api.CertifierSpec`, the
        sharded path): only a certifier apart from the executing
        database is a service to configure — a master certifies its own
        commits."""
        return not self.master_updates

    def resolve_certifier(self, certifier,
                          partitions: Optional[int]) -> Optional[CertifierSpec]:
        """A run's *certifier* choice (``None``, a kind name or a spec)
        on this design over *partitions* workload partitions: ``None``
        for the default global certifier, else the spec.  Refuses a
        non-default choice without a certifier axis and a sharded
        certifier without at least two partitions to shard over."""
        spec = resolve_certifier_spec(certifier)
        if spec is None or spec.is_default:
            return None
        if not self.certifier_axis:
            raise ConfigurationError(CERTIFIER_AXIS_IS_MULTI_MASTER)
        if spec.is_sharded and (partitions or 0) < 2:
            raise ConfigurationError(SHARDED_CERTIFIER_NEEDS_PARTITIONS)
        return spec


MULTI_MASTER_TOPOLOGY = Topology(MULTI_MASTER, master_updates=False)
SINGLE_MASTER_TOPOLOGY = Topology(SINGLE_MASTER, master_updates=True,
                                  member="slave")
STANDALONE_TOPOLOGY = Topology(STANDALONE, master_updates=True)
TOPOLOGIES = {topology.design: topology for topology in (
    STANDALONE_TOPOLOGY, MULTI_MASTER_TOPOLOGY, SINGLE_MASTER_TOPOLOGY)}


def topology_of(design: str, designs: Tuple[str, ...] = DESIGNS) -> Topology:
    """*design*'s topology, refusing a design outside *designs* (the
    designs the asking pillar builds)."""
    if design not in designs:
        raise ConfigurationError(f"unknown design {design!r}; one of {designs}")
    return TOPOLOGIES[design]
