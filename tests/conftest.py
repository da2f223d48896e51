"""Shared fixtures for the test suite.

Simulation-backed fixtures use short windows and are session-scoped so the
whole suite pays for each expensive measurement once.
"""

from __future__ import annotations

import pytest

from repro.core.params import (
    ConflictProfile,
    ReplicationConfig,
    ResourceDemand,
    ServiceDemands,
    StandaloneProfile,
    WorkloadMix,
)
from repro.experiments.settings import ExperimentSettings
from repro.workloads import rubis, tpcw


@pytest.fixture(scope="session")
def shopping_spec():
    """The TPC-W shopping workload (the paper's primary mix)."""
    return tpcw.SHOPPING


@pytest.fixture(scope="session")
def browsing_spec():
    """The TPC-W browsing workload."""
    return tpcw.BROWSING


@pytest.fixture(scope="session")
def ordering_spec():
    """The TPC-W ordering workload."""
    return tpcw.ORDERING


@pytest.fixture(scope="session")
def rubis_bidding_spec():
    """The RUBiS bidding workload."""
    return rubis.BIDDING


@pytest.fixture(scope="session")
def rubis_browsing_spec():
    """The RUBiS browsing workload (read-only)."""
    return rubis.BROWSING


@pytest.fixture(scope="session")
def shopping_profile(shopping_spec):
    """A ground-truth standalone profile for TPC-W shopping."""
    return shopping_spec.ground_truth_profile(
        abort_rate=0.0002, update_response_time=0.05
    )


@pytest.fixture(scope="session")
def tiny_settings():
    """Extremely cheap experiment settings for smoke tests."""
    return ExperimentSettings(
        replica_counts=(1, 4),
        sim_warmup=2.0,
        sim_duration=8.0,
        profile_duration=20.0,
        profile_mixed_duration=20.0,
    )


@pytest.fixture
def simple_mix():
    """An 80/20 read/update mix."""
    return WorkloadMix(read_fraction=0.8, write_fraction=0.2)


@pytest.fixture
def simple_demands():
    """Small, easily hand-checked service demands."""
    return ServiceDemands(
        read=ResourceDemand(cpu=0.040, disk=0.015),
        write=ResourceDemand(cpu=0.012, disk=0.006),
        writeset=ResourceDemand(cpu=0.003, disk=0.002),
    )


@pytest.fixture
def simple_profile(simple_mix, simple_demands):
    """A standalone profile built from the simple demands."""
    return StandaloneProfile(
        mix=simple_mix,
        demands=simple_demands,
        abort_rate=0.001,
        update_response_time=0.050,
    )


@pytest.fixture
def simple_config():
    """A 4-replica deployment with the paper's delays."""
    return ReplicationConfig(replicas=4, clients_per_replica=20, think_time=1.0)


@pytest.fixture
def simple_conflict():
    """A conflict profile with easy round numbers."""
    return ConflictProfile(db_update_size=10_000, updates_per_transaction=3)


def _build_fleets(design, spec, replicas, seed=5, **options):
    """The same fleet on both substrates: ``[DES system, live cluster]``.

    *design* is ``"multi-master"``, ``"single-master"`` or ``"sharded"``
    (multi-master with per-partition certifier shards).  The live
    cluster is never started, so nothing needs shutting down.
    """
    from repro.cluster import (
        MultiMasterCluster,
        ShardedMultiMasterCluster,
        SingleMasterCluster,
        VirtualClock,
    )
    from repro.sidb.certifier_api import CertifierSpec
    from repro.simulator import Environment, MetricsCollector
    from repro.simulator.sharded import ShardedMultiMasterSystem
    from repro.simulator.systems import MultiMasterSystem, SingleMasterSystem

    sim_class, live_class = {
        "multi-master": (MultiMasterSystem, MultiMasterCluster),
        "single-master": (SingleMasterSystem, SingleMasterCluster),
        "sharded": (ShardedMultiMasterSystem, ShardedMultiMasterCluster),
    }[design]
    if design == "sharded":
        options["certifier_spec"] = CertifierSpec(kind="sharded")
    config = spec.replication_config(replicas)
    return [
        sim_class(Environment(), spec, config, seed, MetricsCollector(),
                  **options),
        live_class(spec, config, seed, VirtualClock(0.01), MetricsCollector(),
                   **options),
    ]


@pytest.fixture(scope="session")
def refusals():
    """``refusals(change, fleets)``: apply ``change(fleet)`` to each fleet
    (see :func:`_build_fleets`), require a ``ConfigurationError`` from
    every one, and return the set of messages — a single element when
    the substrates refuse alike."""
    from repro.core.errors import ConfigurationError

    def collect(change, fleets):
        messages = set()
        for fleet in fleets:
            with pytest.raises(ConfigurationError) as refused:
                change(fleet)
            messages.add(str(refused.value))
        return messages

    return collect


@pytest.fixture(scope="session")
def fleets():
    """``fleets(design, spec, replicas, **options)``: see
    :func:`_build_fleets`."""
    return _build_fleets
