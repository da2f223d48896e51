"""Discrete-event simulator of the paper's prototype systems (§5)."""

from ..core.topology import DESIGNS, MULTI_MASTER, SINGLE_MASTER, STANDALONE
from .des import Acquire, Environment, Semaphore, Service, Timeout
from .faults import ReplicaFault
from .replica import SimReplica
from .resources import FIFOResource, ProcessorSharingResource
from .runner import SimulationResult, measure_curve, simulate
from .sampling import DISTRIBUTIONS, WorkloadSampler
from .stats import MetricsCollector, RunningStats
from .systems import (
    LB_POLICIES,
    LEAST_LOADED,
    PINNED,
    RANDOM,
    MultiMasterSystem,
    RunOptions,
    SingleMasterSystem,
    StandaloneSystem,
)

__all__ = [
    "DESIGNS",
    "LB_POLICIES",
    "LEAST_LOADED",
    "PINNED",
    "RANDOM",
    "DISTRIBUTIONS",
    "Acquire",
    "Environment",
    "ReplicaFault",
    "Semaphore",
    "FIFOResource",
    "MetricsCollector",
    "MULTI_MASTER",
    "MultiMasterSystem",
    "ProcessorSharingResource",
    "RunOptions",
    "RunningStats",
    "Service",
    "SimReplica",
    "SimulationResult",
    "SINGLE_MASTER",
    "SingleMasterSystem",
    "STANDALONE",
    "StandaloneSystem",
    "Timeout",
    "WorkloadSampler",
    "measure_curve",
    "simulate",
]
