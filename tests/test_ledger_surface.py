"""Tier-1 guard for the surface the performance ledger runs against.

``benchmarks/ledger/`` is frozen between PRs and builds what it measures
from the checkout, so a renamed ``repro.*`` class or function is a failed
benchmark run, not a review comment.  ``benchmarks/ledger/test_ledger.py``
only reads ``ledger_probes.py`` as text; loading the two modules that
import the program resolves every name they use here, in tier-1, without
running a workload.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"


@pytest.mark.parametrize("name", ["ledger_probes", "ledger_workloads"])
def test_every_name_the_ledger_imports_resolves(name, monkeypatch):
    # The ledger's modules import each other by bare name.
    monkeypatch.syspath_prepend(str(LEDGER))
    spec = importlib.util.spec_from_file_location(
        f"ledger_surface_{name}", LEDGER / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve string annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)  # ImportError/AttributeError = broken
    assert module.__file__ == str(LEDGER / f"{name}.py")


def test_the_harness_probes_construct_every_cluster_class():
    """The calls ``ledger_probes._harness`` makes: positional
    ``(spec, config, seed, clock, metrics)`` plus ``certifier_spec`` for
    the sharded class, then ``partition_map`` / ``execute`` / ``start`` /
    ``quiesce(timeout=)`` / ``shutdown``."""
    from repro.cluster import (
        MultiMasterCluster,
        ShardedMultiMasterCluster,
        SingleMasterCluster,
        VirtualClock,
    )
    from repro.core.rng import make_rng
    from repro.sidb.certifier_api import CertifierSpec
    from repro.simulator import MetricsCollector, WorkloadSampler
    from repro.workloads import tpcw

    cases = [
        (MultiMasterCluster, tpcw.SHOPPING, {}),
        (SingleMasterCluster, tpcw.SHOPPING, {}),
        (ShardedMultiMasterCluster, tpcw.SHOPPING.with_partitions(8, 0.1),
         {"certifier_spec": CertifierSpec(kind="sharded")}),
    ]
    for cluster_class, spec, kwargs in cases:
        config = spec.replication_config(2, load_balancer_delay=0.0,
                                         certifier_delay=0.0)
        cluster = cluster_class(spec, config, 7, VirtualClock(0.001),
                                MetricsCollector(), **kwargs)
        sampler = WorkloadSampler(spec, make_rng(7),
                                  partition_map=cluster.partition_map)
        cluster.start()
        try:
            for is_update in (False, True):
                assert cluster.execute(sampler, is_update, 0) >= 0
            assert cluster.quiesce(timeout=10.0)
        finally:
            cluster.shutdown()
