"""Live replicated-cluster runtime: the third pillar of the reproduction.

The repo validates the paper's predictions three ways:

1. the **analytical model** (:mod:`repro.models`) predicts replicated
   performance from a standalone profile;
2. the **discrete-event simulator** (:mod:`repro.simulator`) measures a
   timed but virtual system;
3. this package *executes* the replicated designs for real — each replica
   wraps a real :class:`~repro.sidb.engine.SIDatabase`, client threads run
   genuine snapshot-isolated transactions against it, a replication channel
   propagates committed writesets in commit order, and a shared certifier
   enforces system-wide first-committer-wins.

Time is wall-clock, scaled: every duration the workload spec defines (think
time, CPU/disk service demands, load-balancer and certification delays) is
slept for ``duration * time_scale`` seconds, so a run that would take
minutes completes in seconds while queueing behaviour — and therefore
throughput and response time — stays comparable with the simulator.

Both paper topologies are assembled behind a common API:
:class:`MultiMasterCluster` (Tashkent-style, Figure 4) and
:class:`SingleMasterCluster` (Ganymed-style, Figure 5).  :func:`run_cluster`
drives either with closed-loop or open-loop traffic, collects the same
metrics schema as the simulator, supports replica crash/recovery faults,
and reports whether all replicas converged to the same version after
quiesce — the replication-correctness check.
"""

from .balancer import LoadBalancer
from .channel import ReplicationChannel
from .clock import VirtualClock
from .cluster import (
    Cluster,
    MultiMasterCluster,
    ShardedMultiMasterCluster,
    SingleMasterCluster,
)
from .replica import ClusterReplica
from .resources import LiveResource
from .runner import ClusterResult, run_cluster
from .sharded import ShardDelivery, ShardedClusterReplica

__all__ = [
    "Cluster",
    "ClusterReplica",
    "ClusterResult",
    "LiveResource",
    "LoadBalancer",
    "MultiMasterCluster",
    "ReplicationChannel",
    "ShardDelivery",
    "ShardedClusterReplica",
    "ShardedMultiMasterCluster",
    "SingleMasterCluster",
    "VirtualClock",
    "run_cluster",
]
