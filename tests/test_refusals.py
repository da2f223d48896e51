"""Every refused run option, membership, fault and certifier
combination, on every pillar that can be asked for it.

Each row drives the DES, the live cluster and — where the combination
reaches it — the model through one combination and expects the same
:class:`ConfigurationError` message from each: the messages live in one
place, :mod:`repro.core.topology`, and the decisions in
``RunOptions.validate``, ``check_supported`` and ``Topology``.
Everything is refused before a replica changes or a run starts, so no
row runs traffic.
"""

from functools import partial
from pathlib import Path

import pytest

from repro.cluster.runner import run_cluster
from repro.control.autoscale import autoscale_cluster, autoscale_sim
from repro.control.controller import FixedPolicy
from repro.control.trace import DiurnalTrace
from repro.core import topology
from repro.core.topology import (
    ARRIVAL_RATE_MUST_BE_POSITIVE,
    CERTIFIER_AXIS_IS_MULTI_MASTER,
    CRASH_NEEDS_FULL_REPLICATION,
    ELASTIC_NEEDS_FULL_REPLICATION,
    ELASTIC_NEEDS_GLOBAL_CERTIFIER,
    LAST_HEALTHY_REPLICA,
    MASTER_IS_NOT_FAULTABLE,
    MASTER_IS_NOT_REMOVABLE,
    PARTITION_MODEL_IS_MULTI_MASTER,
    SHARDED_CERTIFIER_NEEDS_PARTITIONS,
    STANDALONE_HAS_NO_CAPACITIES,
    STANDALONE_HAS_NO_REDUNDANCY,
    STANDALONE_IS_NOT_ELASTIC,
    STANDALONE_IS_ONE_REPLICA,
)
from repro.models.api import predict
from repro.partition import PartitionMap
from repro.sidb.certifier_api import CertifierSpec
from repro.simulator import Environment, MetricsCollector
from repro.simulator.faults import ReplicaFault, crash_fault
from repro.simulator.runner import simulate
from repro.simulator.systems import StandaloneSystem
from repro.workloads import tpcw

SPEC = tpcw.SHOPPING
PARTS = tpcw.SHOPPING.with_partitions(4, 0.1)
RING = PartitionMap.ring(4, 4, 2)
PROFILE = SPEC.ground_truth_profile(abort_rate=0.0002,
                                    update_response_time=0.1)


def _joins_and_leaves(fleets):
    return [change for fleet in fleets
            for change in (fleet.add_replica, fleet.remove_replica)]


def _harnesses(spec, replicas, design, **options):
    """One set of run options through ``simulate`` and ``run_cluster``."""
    config = spec.replication_config(replicas)
    return [partial(harness, spec, config, design=design, **options)
            for harness in (simulate, run_cluster)]


def _model(design, replicas=4, **options):
    """The same options through the model's ``predict``."""
    return partial(predict, design, PROFILE,
                   SPEC.replication_config(replicas), **options)


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
    # A master certifies its own commits: no certifier choice may reach a
    # single-master or standalone design, on any pillar.
    return _harnesses(SPEC, 2, "single-master", certifier="sharded") + [
        partial(simulate, SPEC, SPEC.replication_config(1),
                design="standalone",
                certifier=CertifierSpec(service_time=0.001)),
        _model("single-master", certifier="sharded"),
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
    "sharded certifier x unpartitioned workload": (
        SHARDED_CERTIFIER_NEEDS_PARTITIONS,
        lambda fleets: _harnesses(SPEC, 2, "multi-master",
                                  certifier="sharded")
        + [_model("multi-master", certifier="sharded", partitions=1)],
    ),
    # The DES and the live cluster run single-master partition maps (the
    # master hosts everything); only the model keeps full replication.
    "partition map x single-master model": (
        PARTITION_MODEL_IS_MULTI_MASTER,
        lambda fleets: [_model("single-master", partition_map=RING)],
    ),
    "non-positive arrival rate": (
        ARRIVAL_RATE_MUST_BE_POSITIVE,
        lambda fleets: _harnesses(SPEC, 2, "multi-master", arrival_rate=0.0)
        + _harnesses(SPEC, 2, "single-master", arrival_rate=-1.0),
    ),
    # The live pillar builds no standalone database.
    "standalone x more than one replica": (
        STANDALONE_IS_ONE_REPLICA,
        lambda fleets: [partial(simulate, SPEC, SPEC.replication_config(2),
                                design="standalone")],
    ),
    "standalone x capacities": (
        STANDALONE_HAS_NO_CAPACITIES,
        lambda fleets: [partial(simulate, SPEC, SPEC.replication_config(1),
                                design="standalone", capacities=(2.0,))],
    ),
}


@pytest.mark.parametrize("row", ROWS)
def test_both_substrates_refuse_with_the_one_message(row, fleets, refusals):
    message, attempts = ROWS[row]
    assert refusals(lambda attempt: attempt(), attempts(fleets)) == {message}


def _message_constants():
    """Every refusal message constant: an upper-case string with a
    space in it (design names have none)."""
    return {name: value for name, value in vars(topology).items()
            if name.isupper() and isinstance(value, str) and " " in value}


def _restrictions_table():
    """``{constant: message}`` from the README's restrictions table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("**Restrictions.**"):]
    rows = {}
    for line in section.splitlines()[1:]:
        if line.startswith("| ") and not line.startswith("| Refused"):
            _, constant, message = (cell.strip() for cell in
                                    line.strip("|").split(" | "))
            rows[constant.strip("`")] = message
        elif rows and not line.startswith("|"):
            return rows
    return rows


def test_the_readme_restrictions_table_lists_every_refusal():
    constants, table = _message_constants(), _restrictions_table()
    assert set(table) == set(constants)
    for name, message in table.items():
        # "…" elides part of a long message; the rest is verbatim.
        parts = message.split("…")
        assert all(part.strip() in constants[name] for part in parts), name
        assert constants[name].startswith(parts[0].strip()), name
