"""Standalone profiling: measure the model inputs on one database (§4).

The pipeline mirrors the paper exactly:

1. capture the workload log; count record kinds to estimate ``Pr``/``Pw``;
2. play the read-only transactions alone and derive ``rc`` from the
   Utilization Law (demand = busy time / completions);
3. play the update transactions alone to derive ``wc``;
4. play the extracted writesets alone to derive ``ws``;
5. replay the full mix to measure ``L(1)`` (mean update response time) and
   the standalone abort rate ``A1``.

The output :class:`~repro.core.params.StandaloneProfile` is everything the
analytical models need — no replicated measurement is ever taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core import rng as rng_util
from ..core.errors import ProfilingError
from ..core.params import (
    ResourceDemand,
    ServiceDemands,
    StandaloneProfile,
    WorkloadMix,
)
from ..core.topology import STANDALONE
from ..models.aborts import standalone_abort_rate
from ..queueing.operational import utilization_law_demand
from ..simulator.des import Environment, Timeout
from ..simulator.replica import SimReplica
from ..simulator.runner import simulate
from ..simulator.sampling import ServiceSampler
from ..simulator.stats import MetricsCollector
from ..workloads.spec import WorkloadSpec

#: Transaction classes the replay step can play in isolation.
_CLASS_SERVERS: Dict[str, Callable] = {
    "read": lambda replica: replica.serve_read(),
    "write": lambda replica: replica.serve_update_attempt(),
    "writeset": lambda replica: replica.serve_writeset_inline(),
}


#: Minimum observed aborts for the direct A1 estimate to be trusted.
#: Below this, the estimator falls back to the §3.3.1 conflict formula
#: evaluated at the measured operating point (simulated windows are far
#: shorter than the paper's 15-minute runs, so a <0.1% rate often yields
#: zero or one observed aborts — a direct ratio would be 0 or wildly high).
MIN_OBSERVED_ABORTS = 10


def _estimate_abort_rate(spec: WorkloadSpec, mixed) -> float:
    """Estimate A1 from a mixed standalone run (§4.1.1).

    Uses the whole-run certifier counters when they contain enough abort
    events; otherwise derives A1 analytically from the measured update
    response time and update rate using the workload's conflict footprint.
    """
    if mixed.total_certification_aborts >= MIN_OBSERVED_ABORTS:
        return mixed.total_certification_aborts / mixed.total_certifications
    if spec.conflict is None:
        return 0.0
    return standalone_abort_rate(
        spec.conflict,
        update_response_time=mixed.mean_update_response,
        update_rate=mixed.update_throughput,
    )


@dataclass(frozen=True)
class ProfilingReport:
    """The full §4 measurement record for one workload."""

    workload: str
    profile: StandaloneProfile
    #: Transactions observed per measurement stage.
    read_transactions: int
    update_transactions: int
    writeset_applications: int
    mixed_transactions: int
    #: The mix counted from the captured log.
    measured_mix: WorkloadMix
    #: Standalone throughput observed during the mixed run (diagnostics).
    standalone_throughput: float
    #: Standalone mean response time during the mixed run (diagnostics).
    standalone_response_time: float


def measure_class_demand(
    spec: WorkloadSpec,
    klass: str,
    seed: int = rng_util.DEFAULT_SEED,
    duration: float = 120.0,
    warmup: float = 5.0,
    clients: Optional[int] = None,
) -> ResourceDemand:
    """Measure the CPU/disk demand of one transaction class in isolation.

    Runs a replay population against a single simulated database and applies
    the Utilization Law per resource.  Classes: ``read``, ``write``,
    ``writeset``.
    """
    if klass not in _CLASS_SERVERS:
        raise ProfilingError(
            f"unknown class {klass!r}; expected one of {sorted(_CLASS_SERVERS)}"
        )
    clients = clients or spec.clients_per_replica
    env = Environment()
    metrics = MetricsCollector()
    sampler = ServiceSampler(spec, rng_util.spawn(seed, "profile", klass, "svc"))
    replica = SimReplica(env, "profiled", sampler)
    metrics.watch_resource("profiled.cpu", replica.cpu)
    metrics.watch_resource("profiled.disk", replica.disk)

    completions = [0]

    def replay_client(client_id: int):
        client_rng = rng_util.spawn(seed, "profile", klass, client_id)
        while True:
            yield Timeout(float(client_rng.exponential(spec.think_time)))
            yield from _CLASS_SERVERS[klass](replica)
            if metrics.measuring:
                completions[0] += 1

    for client_id in range(clients):
        env.start(replay_client(client_id))
    env.schedule(warmup, metrics.begin_window, warmup)
    env.run_until(warmup + duration)
    metrics.end_window(env.now)

    if completions[0] == 0:
        raise ProfilingError(
            f"replay of class {klass!r} completed no transactions; "
            "increase the duration"
        )
    busy = metrics.utilizations()
    window = metrics.window
    demand = ResourceDemand(
        cpu=utilization_law_demand(busy["profiled.cpu"] * window, completions[0]),
        disk=utilization_law_demand(busy["profiled.disk"] * window, completions[0]),
    )
    env.close()
    return demand


def measure_service_demands(
    spec: WorkloadSpec,
    seed: int = rng_util.DEFAULT_SEED,
    duration: float = 120.0,
    warmup: float = 5.0,
) -> ServiceDemands:
    """Measure rc, wc and ws for *spec* (§4.1.1, steps 2-4)."""
    read = measure_class_demand(spec, "read", seed=seed, duration=duration,
                                warmup=warmup)
    if not spec.has_updates:
        return ServiceDemands(read=read)
    write = measure_class_demand(spec, "write", seed=seed, duration=duration,
                                 warmup=warmup)
    writeset = measure_class_demand(spec, "writeset", seed=seed,
                                    duration=duration, warmup=warmup)
    return ServiceDemands(read=read, write=write, writeset=writeset)


def profile_standalone(
    spec: WorkloadSpec,
    seed: int = rng_util.DEFAULT_SEED,
    replay_duration: float = 120.0,
    mixed_duration: float = 120.0,
    warmup: float = 10.0,
    log_transactions: int = 2000,
) -> ProfilingReport:
    """Run the full §4 pipeline and return the measured profile."""
    from .log import capture_log  # deferred to keep import graph flat

    log = capture_log(spec, log_transactions, seed=seed)
    measured_mix = log.measured_mix()

    demands = measure_service_demands(
        spec, seed=seed, duration=replay_duration, warmup=5.0
    )

    mixed_seed = int(rng_util.spawn(seed, "profile", "mixed").integers(0, 2**31))
    mixed = simulate(
        spec,
        spec.replication_config(1, load_balancer_delay=0.0),
        design=STANDALONE,
        seed=mixed_seed,
        warmup=warmup,
        duration=mixed_duration,
    )
    if spec.has_updates:
        update_response = mixed.mean_update_response
        abort_rate = _estimate_abort_rate(spec, mixed)
        update_rate = mixed.update_throughput
    else:
        update_response = 0.0
        abort_rate = 0.0
        update_rate = 0.0
    throughput = mixed.throughput
    response = mixed.response_time
    mixed_count = mixed.committed_transactions

    profile = StandaloneProfile(
        mix=measured_mix,
        demands=demands,
        abort_rate=abort_rate,
        update_response_time=update_response,
        update_rate=update_rate,
    )
    return ProfilingReport(
        workload=spec.name,
        profile=profile,
        read_transactions=log.read_only_count,
        update_transactions=log.update_count,
        writeset_applications=log.update_count,
        mixed_transactions=mixed_count,
        measured_mix=measured_mix,
        standalone_throughput=throughput,
        standalone_response_time=response,
    )
