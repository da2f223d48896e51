"""Layer probes: fixed micro-workloads against one layer's public API.

A probe times calls into a single ``src/repro`` module from here, with
nothing else running, so a change to that layer shows in a number of its
own before it shows end to end.  Probes are the same whatever workload
the traced run measures; sizes are fixed and small (the whole set takes
about ten seconds).  Each returns ``{metric: value}``; per-call timings
also land in ``samples`` so the run can print their tail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List

from ledger_trace import Stopwatch, percentile

from repro import engine
from repro.cluster import (
    LoadBalancer,
    MultiMasterCluster,
    ReplicationChannel,
    ShardedMultiMasterCluster,
    SingleMasterCluster,
    VirtualClock,
)
from repro.core.params import ServiceDemands
from repro.core.rng import make_rng
from repro.experiments.settings import ExperimentSettings
from repro.profiling.profiler import profile_standalone
from repro.queueing.mva import solve_mva, solve_mva_multiclass
from repro.queueing.network import (
    ClosedNetwork,
    MulticlassNetwork,
    delay_center,
    queueing_center,
)
from repro.sidb.certifier import GlobalCertifier
from repro.sidb.certifier_api import CertifierSpec
from repro.sidb.engine import SIDatabase
from repro.sidb.sharded import ShardedCertifier
from repro.sidb.writeset import Writeset
from repro.simulator import (
    Environment,
    FIFOResource,
    MetricsCollector,
    ProcessorSharingResource,
    Service,
    Timeout,
    WorkloadSampler,
    simulate,
)
from repro.workloads import tpcw


Samples = Dict[str, List[float]]


def _per_call(calls: Iterable[Callable[[], object]], scale: float
              ) -> List[float]:
    """Time each ready-made call on its own; arguments are built while
    the clock is stopped."""
    samples = []
    for call in calls:
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * scale)
    return samples


def _rate(fn: Callable[[], int]) -> float:
    """Units of work *fn* reports per wall second."""
    start = time.perf_counter()
    done = fn()
    return done / (time.perf_counter() - start)


# ---------------------------------------------------------------------------
# queueing, profiling
# ---------------------------------------------------------------------------


def probe_queueing() -> Dict[str, float]:
    single = ClosedNetwork(
        centers=(queueing_center("cpu", 0.035),
                 queueing_center("disk", 0.013),
                 delay_center("lb", 0.001)),
        think_time=1.0,
    )
    two_class = MulticlassNetwork(
        centers=(queueing_center("cpu", 0.0), queueing_center("disk", 0.0)),
        demands={"read": (0.025, 0.011), "write": (0.041, 0.049)},
        think_times={"read": 1.0, "write": 1.0},
    )

    def single_class() -> int:
        for _ in range(200):
            solve_mva(single, 100)
        return 200

    def multiclass() -> int:
        for _ in range(20):
            solve_mva_multiclass(two_class, {"read": 60, "write": 20})
        return 20

    return {
        "queueing.mva_solves_per_s": _rate(single_class),
        "queueing.multiclass_solves_per_s": _rate(multiclass),
    }


def probe_profiling(seed: int) -> Dict[str, float]:
    seconds = _per_call(
        (lambda: profile_standalone(tpcw.SHOPPING, seed=seed,
                                    replay_duration=40.0,
                                    mixed_duration=40.0)
         for _ in range(3)),
        1.0,
    )
    return {"profiling.profile_s": statistics.median(seconds)}


# ---------------------------------------------------------------------------
# sidb
# ---------------------------------------------------------------------------


def _row_writes(rng, count: int, space: int, value: int):
    return {("row", int(r)): value for r in rng.integers(0, space, count)}


def probe_sidb(seed: int, samples: Samples) -> Dict[str, float]:
    rng = make_rng(seed)
    rows = 1000
    initial = {("row", i): 0 for i in range(rows)}

    db = SIDatabase(dict(initial))

    def read_txn(i: int) -> None:
        txn = db.begin()
        txn.get(("row", i % rows))
        txn.get(("row", (i * 7) % rows))
        db.commit(txn)

    def update_txn(i: int) -> None:
        txn = db.begin()
        txn.write(("row", (2 * i) % rows), i)
        txn.write(("row", (2 * i + 1) % rows), i)
        db.commit(txn)

    samples["sidb.read_commit_us"] = _per_call(
        ((lambda i=i: read_txn(i)) for i in range(4000)), 1e6)
    samples["sidb.update_commit_us"] = _per_call(
        ((lambda i=i: update_txn(i)) for i in range(4000)), 1e6)

    # Certification against a 2 000-deep history, snapshots 50 back.
    certifier = GlobalCertifier()
    for i in range(1, 2001):
        certifier.certify(Writeset.from_dict(
            i, certifier.latest_version, _row_writes(rng, 3, 100_000, i)))

    def global_calls():
        for _ in range(2000):
            writeset = Writeset.from_dict(
                0, max(0, certifier.latest_version - 50),
                _row_writes(rng, 3, 100_000, 0))
            yield lambda: certifier.certify(writeset)

    samples["sidb.certify_us"] = _per_call(global_calls(), 1e6)

    # Eight shards, one write in ten crossing to a second partition.
    shards = 8
    sharded = ShardedCertifier(partitions=shards)

    def sharded_writeset(back: int) -> Writeset:
        home = int(rng.integers(0, shards))
        parts = [home]
        if rng.random() < 0.1:
            parts.append((home + 1) % shards)
        writes = {
            ("updatable", parts[k % len(parts)], int(r)): 0
            for k, r in enumerate(rng.integers(0, 100_000 // shards, 3))
        }
        floors = {p: max(0, sharded.shard_version(p) - back) for p in parts}
        return Writeset.from_dict(
            0, 0, writes, partitions=tuple(parts)
        ).with_snapshot_vector(floors)

    for _ in range(2000):
        sharded.certify(sharded_writeset(0))

    def sharded_calls():
        for _ in range(2000):
            writeset = sharded_writeset(6)
            yield lambda: sharded.certify(writeset)

    samples["sidb.sharded_certify_us"] = _per_call(sharded_calls(), 1e6)

    follower = SIDatabase(dict(initial))
    writesets = [
        Writeset.from_dict(i, i - 1, _row_writes(rng, 2, rows, i))
        .committed(i)
        for i in range(1, 4001)
    ]
    samples["sidb.apply_writeset_us"] = _per_call(
        ((lambda w=w: follower.apply_writeset(w)) for w in writesets), 1e6)

    # The live applier's cadence: 64 installs over 10 000 rows, then one
    # vacuum of the whole store.
    big = SIDatabase({("row", i): 0 for i in range(10_000)})
    version = [0]

    def vacuum_calls():
        for _ in range(20):
            for _ in range(64):
                version[0] += 1
                big.store.install(
                    version[0], _row_writes(rng, 2, 10_000, version[0]))
            yield big.vacuum

    samples["sidb.vacuum_ms"] = _per_call(vacuum_calls(), 1e3)
    return {name: statistics.median(samples[name]) for name in (
        "sidb.read_commit_us", "sidb.update_commit_us", "sidb.certify_us",
        "sidb.sharded_certify_us", "sidb.apply_writeset_us",
        "sidb.vacuum_ms",
    )}


# ---------------------------------------------------------------------------
# simulator primitives
# ---------------------------------------------------------------------------


def _resource_jobs(resource_class, work: List[float], resident: int,
                   horizon: float) -> int:
    """Completions of *resident* looping jobs on one resource."""
    env = Environment()
    resource = resource_class(env, "probe")
    cursor = [0]

    def job():
        while True:
            cursor[0] = (cursor[0] + 1) % len(work)
            yield Service(resource, work[cursor[0]])

    for _ in range(resident):
        env.start(job())
    env.run_until(horizon)
    return resource.stats.completions


def probe_simulator(seed: int) -> Dict[str, float]:
    def ticker_events() -> int:
        env = Environment()

        def ticker():
            for _ in range(50_000):
                yield Timeout(0.001)

        env.start(ticker())
        env.run_until(100.0)
        return 50_000

    work = make_rng(seed).exponential(0.01, 4096).tolist()
    sampler = WorkloadSampler(tpcw.ORDERING, make_rng(seed))

    def draws() -> int:
        for _ in range(10_000):
            sampler.next_is_update()
            sampler.think_time()
            sampler.read_cpu()
            sampler.read_disk()
        return 40_000

    return {
        "simulator.des_events_per_s": _rate(ticker_events),
        # 40 resident jobs: every arrival and departure re-shares the CPU
        # (the _sync/_reschedule/_complete hot spot).
        "simulator.ps_jobs_per_s": _rate(
            lambda: _resource_jobs(ProcessorSharingResource, work, 40, 100.0)
        ),
        "simulator.fifo_jobs_per_s": _rate(
            lambda: _resource_jobs(FIFOResource, work, 40, 300.0)
        ),
        "simulator.sampler_draws_per_s": _rate(draws),
    }


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


class _StubReplica:
    """What the balancer and the channel need of a replica."""

    available = True
    active = 0
    applied_version = 0

    def __init__(self, name: str) -> None:
        self.name = name
        self.received = 0

    def enqueue_writeset(self, writeset, charged=True) -> None:
        self.received += 1


def _harness(cluster_class, spec, seed: int, calls: int, **kwargs):
    """Per-``execute`` wall µs and mean CPU µs on a zero-demand N=4
    cluster: no service time, no LB or certifier delay, one driver."""
    spec = spec.with_demands(ServiceDemands())
    config = spec.replication_config(4, load_balancer_delay=0.0,
                                     certifier_delay=0.0)
    cluster = cluster_class(spec, config, seed, VirtualClock(1.0),
                            MetricsCollector(), **kwargs)
    sampler = WorkloadSampler(spec, make_rng(seed),
                              partition_map=cluster.partition_map)
    kinds = [sampler.next_is_update() for _ in range(calls)]
    cluster.start()
    try:
        with Stopwatch() as watch:
            wall = _per_call(
                ((lambda k=k: cluster.execute(sampler, k, 0))
                 for k in kinds),
                1e6,
            )
            cluster.quiesce(timeout=10.0)
    finally:
        cluster.shutdown()
    return wall, watch.cpu / calls * 1e6


def probe_cluster(seed: int, samples: Samples) -> Dict[str, float]:
    # A 1 ms wall sleep asked of the scaled clock; the overshoot is what
    # every emulated service time pays at this time_scale.
    clock = VirtualClock(0.03)
    asked = 0.001
    samples["cluster.sleep_overshoot_us"] = [
        s - asked * 1e6
        for s in _per_call(
            ((lambda: clock.sleep(asked / clock.time_scale))
             for _ in range(1000)),
            1e6,
        )
    ]
    overshoot = samples["cluster.sleep_overshoot_us"]

    calls = 2000
    mm_wall, mm_cpu = _harness(MultiMasterCluster, tpcw.SHOPPING, seed, calls)
    sm_wall, _ = _harness(SingleMasterCluster, tpcw.SHOPPING, seed, calls)
    sharded_wall, _ = _harness(
        ShardedMultiMasterCluster, tpcw.SHOPPING.with_partitions(8, 0.1),
        seed, calls, certifier_spec=CertifierSpec(kind="sharded"),
    )
    samples["cluster.mm_harness_us"] = mm_wall
    samples["cluster.sm_harness_us"] = sm_wall
    samples["cluster.sharded_harness_us"] = sharded_wall

    channel = ReplicationChannel()
    for index in range(4):
        channel.subscribe(_StubReplica(f"stub{index}"))
    rng = make_rng(seed)
    writesets = [
        Writeset.from_dict(i, i - 1, _row_writes(rng, 3, 10_000, i))
        .committed(i)
        for i in range(1, 3001)
    ]
    samples["cluster.channel_publish_us"] = _per_call(
        ((lambda w=w: channel.publish(w)) for w in writesets), 1e6)

    balancer = LoadBalancer("least-loaded", make_rng(seed))
    fleet = [_StubReplica(f"stub{index:02d}") for index in range(16)]
    samples["cluster.balancer_select_us"] = _per_call(
        ((lambda i=i: balancer.select(fleet, i)) for i in range(3000)), 1e6)

    return {
        "cluster.sleep_overshoot_p50_us": statistics.median(overshoot),
        "cluster.sleep_overshoot_p99_us": percentile(overshoot, 99.0),
        "cluster.mm_harness_p50_us": statistics.median(mm_wall),
        "cluster.sm_harness_p50_us": statistics.median(sm_wall),
        "cluster.sharded_harness_p50_us": statistics.median(sharded_wall),
        "cluster.mm_harness_cpu_us": mm_cpu,
        "cluster.channel_publish_us":
            statistics.median(samples["cluster.channel_publish_us"]),
        "cluster.balancer_select_us":
            statistics.median(samples["cluster.balancer_select_us"]),
    }


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def probe_engine(seed: int, samples: Samples, workdir: Path
                 ) -> Dict[str, float]:
    settings = dataclasses.replace(ExperimentSettings.fast(), seed=seed)
    grid = [
        point
        for point in engine.get_scenario("figure6").points(settings)
        if point.backend != engine.PROFILE
    ]
    samples["engine.point_key_us"] = _per_call(
        ((lambda p=p: engine.point_key(p)) for _ in range(20) for p in grid),
        1e6,
    )

    # A typical cached value: one short simulation's result.
    payload = simulate(tpcw.SHOPPING, tpcw.SHOPPING.replication_config(2),
                       seed=seed, warmup=1.0, duration=4.0)
    root = Path(tempfile.mkdtemp(dir=workdir))
    try:
        cache = engine.ResultCache(root)
        keys = [hashlib.sha256(f"{seed}:{i}".encode()).hexdigest()
                for i in range(50)]
        samples["engine.cache_put_ms"] = _per_call(
            ((lambda k=k: cache.put(k, payload)) for k in keys), 1e3)
        samples["engine.cache_get_ms"] = _per_call(
            ((lambda k=k: cache.get(k)) for k in keys), 1e3)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # Sixteen model points served from the in-process memo: what the
    # runner itself costs per point once nothing has to execute.
    profile = tpcw.SHOPPING.ground_truth_profile(
        abort_rate=0.0002, update_response_time=0.1)
    config = tpcw.SHOPPING.replication_config(1)
    points = [
        engine.model_point(tpcw.SHOPPING, config.with_replicas(n),
                           "multi-master", profile=profile)
        for n in range(1, 17)
    ]
    engine.clear_memo()
    engine.execute_points(points)
    sweeps = _per_call(
        ((lambda: engine.execute_points(points)) for _ in range(50)), 1e6)
    engine.clear_memo()
    samples["engine.warm_point_us"] = [s / len(points) for s in sweeps]
    return {name: statistics.median(samples[name]) for name in (
        "engine.point_key_us", "engine.cache_put_ms", "engine.cache_get_ms",
        "engine.warm_point_us",
    )}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def probe_cli(samples: Samples, src: Path) -> Dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    samples["cli.startup_ms"] = _per_call(
        ((lambda: subprocess.run(
            [sys.executable, "-m", "repro.cli", "workloads"], env=env,
            stdout=subprocess.DEVNULL, check=True))
         for _ in range(5)),
        1e3,
    )
    return {"cli.startup_ms": statistics.median(samples["cli.startup_ms"])}


def run_probes(seed: int, workdir: Path, src: Path, samples: Samples
               ) -> Dict[str, float]:
    """Every probe metric, in layer order."""
    values: Dict[str, float] = {}
    values.update(probe_queueing())
    values.update(probe_profiling(seed))
    values.update(probe_sidb(seed, samples))
    values.update(probe_simulator(seed))
    values.update(probe_cluster(seed, samples))
    values.update(probe_engine(seed, samples, workdir))
    values.update(probe_cli(samples, src))
    return values
