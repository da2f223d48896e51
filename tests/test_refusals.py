"""Every refused membership, fault and certifier combination, on both
substrates.

Each row drives the DES and the live cluster through one combination the
fleet refuses and expects the same :class:`ConfigurationError` message
from each — the messages and the decisions live in one place, beside
``Topology`` in :mod:`repro.simulator.systems`.  Everything is refused
before a replica changes or a run starts, so no row runs traffic.
"""

from functools import partial

import pytest

from repro.cluster import SingleMasterCluster, VirtualClock
from repro.cluster.runner import run_cluster
from repro.control.autoscale import autoscale_cluster, autoscale_sim
from repro.control.controller import FixedPolicy
from repro.control.trace import DiurnalTrace
from repro.partition import PartitionMap
from repro.sidb.certifier_api import CertifierSpec
from repro.simulator import Environment, MetricsCollector
from repro.simulator.faults import ReplicaFault, crash_fault
from repro.simulator.runner import simulate
from repro.simulator.systems import (
    CERTIFIER_AXIS_IS_MULTI_MASTER,
    CRASH_NEEDS_FULL_REPLICATION,
    ELASTIC_NEEDS_FULL_REPLICATION,
    ELASTIC_NEEDS_GLOBAL_CERTIFIER,
    LAST_HEALTHY_REPLICA,
    MASTER_IS_NOT_FAULTABLE,
    MASTER_IS_NOT_REMOVABLE,
    STANDALONE_HAS_NO_REDUNDANCY,
    STANDALONE_IS_NOT_ELASTIC,
    GlobalCertification,
    SingleMasterSystem,
    StandaloneSystem,
)
from repro.workloads import tpcw

SPEC = tpcw.SHOPPING
PARTS = tpcw.SHOPPING.with_partitions(4, 0.1)
RING = PartitionMap.ring(4, 4, 2)


def _joins_and_leaves(fleets):
    return [change for fleet in fleets
            for change in (fleet.add_replica, fleet.remove_replica)]


def _harnesses(spec, replicas, design, **options):
    """One fault schedule through ``simulate`` and ``run_cluster``."""
    config = spec.replication_config(replicas)
    return [partial(harness, spec, config, design=design, **options)
            for harness in (simulate, run_cluster)]


def _standalone_membership(fleets):
    # The live pillar assembles no standalone fleet; its side of the row
    # is the elastic entry point.
    system = StandaloneSystem(Environment(), SPEC, SPEC.replication_config(1),
                              5, MetricsCollector())
    steady = DiurnalTrace(base_rate=5.0, peak_rate=5.0, period=10.0)
    return _joins_and_leaves([system]) + [
        partial(autoscale, SPEC, steady, FixedPolicy(replicas=1),
                "standalone")
        for autoscale in (autoscale_sim, autoscale_cluster)
    ]


def _last_healthy(fleets):
    pair = fleets("multi-master", SPEC, 2)
    for fleet in pair:
        fleet.replicas[0].crash()
    return [partial(fleet.remove_replica, replica=fleet.replicas[1],
                    force=True) for fleet in pair]


def _certifier_choice(fleets):
    # A master certifies its own commits: neither a non-default spec nor
    # a certification path may reach a single-master or standalone fleet.
    config = SPEC.replication_config(2)
    sharded = CertifierSpec(kind="sharded")
    env = Environment()
    return [
        partial(SingleMasterSystem, env, SPEC, config, 5, MetricsCollector(),
                certifier_spec=sharded),
        partial(SingleMasterCluster, SPEC, config, 5, VirtualClock(0.01),
                MetricsCollector(), certifier_spec=sharded),
        partial(StandaloneSystem, env, SPEC, SPEC.replication_config(1), 5,
                MetricsCollector(),
                certifier_spec=CertifierSpec(service_time=0.001)),
        partial(StandaloneSystem, env, SPEC, SPEC.replication_config(1), 5,
                MetricsCollector(), certification=GlobalCertification(env)),
    ]


#: refused combination -> (its one message, the attempts on both
#: substrates as ``attempts(fleets)``).
ROWS = {
    "elastic x sharded certifier": (
        ELASTIC_NEEDS_GLOBAL_CERTIFIER,
        lambda fleets: _joins_and_leaves(fleets("sharded", PARTS, 2)),
    ),
    "elastic x partial map": (
        ELASTIC_NEEDS_FULL_REPLICATION,
        lambda fleets: _joins_and_leaves(
            fleets("multi-master", PARTS, 4, partition_map=RING)
        ),
    ),
    "membership x standalone": (
        STANDALONE_IS_NOT_ELASTIC, _standalone_membership,
    ),
    "remove the master": (
        MASTER_IS_NOT_REMOVABLE,
        lambda fleets: [partial(fleet.remove_replica, replica=fleet.master)
                        for fleet in fleets("single-master", SPEC, 2)],
    ),
    "remove the last healthy replica": (LAST_HEALTHY_REPLICA, _last_healthy),
    "crash x partial map": (
        CRASH_NEEDS_FULL_REPLICATION,
        lambda fleets: _harnesses(PARTS, 4, "multi-master",
                                  partition_map=RING,
                                  faults=(crash_fault(1, 1.0),)),
    ),
    "fault the single-master master": (
        MASTER_IS_NOT_FAULTABLE,
        lambda fleets: _harnesses(SPEC, 2, "single-master",
                                  faults=(crash_fault(0, 1.0),)),
    ),
    "fault a standalone system": (
        STANDALONE_HAS_NO_REDUNDANCY,
        lambda fleets: _harnesses(
            SPEC, 1, "standalone",
            faults=(ReplicaFault(0, 1.0, downtime=1.0),),
        ),
    ),
    "certifier choice x single-master or standalone": (
        CERTIFIER_AXIS_IS_MULTI_MASTER, _certifier_choice,
    ),
}


@pytest.mark.parametrize("row", ROWS)
def test_both_substrates_refuse_with_the_one_message(row, fleets, refusals):
    message, attempts = ROWS[row]
    assert refusals(lambda attempt: attempt(), attempts(fleets)) == {message}
