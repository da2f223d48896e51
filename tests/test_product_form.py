"""Product-form oracle: where BCMP holds, exact MVA is the true answer.

``rubis/browsing`` is 100% read-only, so the multi-master DES never
certifies, propagates or aborts.  With admission control off (the
semaphore is not a product-form centre) each replica is a
processor-sharing CPU and a FIFO disk with exponential service, and the
load balancer and the client think time are delay centres: a closed
product-form network whose mean throughput :func:`solve_mva` gives
exactly, not approximately.  Each run's throughput carries a 95%
batch-means interval, and the oracle must fall inside it:

* ``pinned`` routing (the paper's model's own view) splits the clients
  statically, so the fleet is ``n`` independent copies of one replica's
  network: per-replica MVA times ``n``.
* ``random`` routing sends each transaction to a uniformly drawn replica,
  so every replica's CPU and disk serve the whole population at a visit
  ratio of ``1/n``: the oracle is the whole fleet as one network, ``n``
  CPU and ``n`` disk centres at demand ``D/n`` each and ``n·C`` clients.
  Per-replica MVA times ``n`` overestimates it by 3–4% here (it assumes
  the load is always perfectly balanced) and falls outside the interval.
* The processor-sharing CPU is insensitive to its service distribution:
  on a CPU-only spec, exponential, deterministic and lognormal demands
  all keep the exact MVA inside the interval.  A FIFO CPU breaks that
  for deterministic demand only (lognormal with CV = 1 has the
  exponential's second moment, so FIFO and PS agree on its mean).

Response time follows from Little's law, ``R = N/X - Z``, so the oracle's
response time is checked against the interval mapped through it.  The
interval is a 95% one and the runs are seeded: the seed is fixed, so each
check is deterministic.
"""

from __future__ import annotations

import math
import statistics

import pytest

from repro.core.params import ReplicationConfig
from repro.queueing.mva import solve_mva
from repro.queueing.network import ClosedNetwork, delay_center, queueing_center
from repro.simulator.runner import simulate
from repro.simulator.sampling import DETERMINISTIC, EXPONENTIAL, LOGNORMAL
from repro.workloads import rubis
from repro.workloads.spec import demands_ms

SEED = 1
WARMUP = 10.0
DURATION = 200.0
#: Non-overlapping batches the measurement window is cut into.
BATCHES = 10
#: Student's t, 0.975 quantile, BATCHES - 1 = 9 degrees of freedom.
T_975_9 = 2.262

BROWSING = rubis.BROWSING
#: The insensitivity twin: browsing's 25.29 ms CPU demand alone, at 30
#: clients per replica (CPU utilisation about 0.72: busy, not saturated).
CPU_ONLY = BROWSING.with_demands(demands_ms(read_cpu=25.29, read_disk=0.0))
CPU_ONLY_CLIENTS = 30


def batch_means_interval(timeline, batches: int = BATCHES):
    """``(mean, 95% half-width)`` of a per-second series, from *batches*
    non-overlapping batch means (closed-loop seconds are correlated;
    batch means of long enough batches are close to independent)."""
    size = len(timeline) // batches
    means = [statistics.fmean(timeline[i * size:(i + 1) * size])
             for i in range(batches)]
    return (statistics.fmean(means),
            T_975_9 * statistics.stdev(means) / math.sqrt(batches))


def fleet_network(spec, config: ReplicationConfig, replicas: int):
    """*replicas* replicas of *spec* as one closed network: a CPU and a
    disk per replica at demand ``D/replicas`` each, plus the load
    balancer as a delay centre."""
    demand = spec.demands.read
    centers = [delay_center("load_balancer", config.load_balancer_delay)]
    for index in range(replicas):
        centers.append(queueing_center(f"cpu{index}", demand.cpu / replicas))
        centers.append(queueing_center(f"disk{index}", demand.disk / replicas))
    return ClosedNetwork(centers=tuple(centers), think_time=config.think_time)


def per_replica_oracle(spec, config: ReplicationConfig):
    """``(throughput, response time)``: one replica's exact MVA at its
    ``C`` clients, throughput scaled by ``n``."""
    solution = solve_mva(fleet_network(spec, config, 1),
                         config.clients_per_replica)
    return config.replicas * solution.throughput, solution.response_time


def whole_network_oracle(spec, config: ReplicationConfig):
    """``(throughput, response time)``: the exact MVA of the whole fleet
    at ``n·C`` clients."""
    solution = solve_mva(fleet_network(spec, config, config.replicas),
                         config.total_clients)
    return solution.throughput, solution.response_time


def measure(spec, replicas: int, clients: int, lb_policy: str,
            distribution: str = EXPONENTIAL, seed: int = SEED,
            duration: float = DURATION):
    """Simulate the multi-master fleet; return its config and the
    throughput interval ``(mean, half-width)``."""
    config = ReplicationConfig(
        replicas=replicas, clients_per_replica=clients,
        think_time=spec.think_time,
        # No admission control: a semaphore is not a product-form centre.
        max_concurrency=None,
    )
    result = simulate(spec, config, seed=seed, warmup=WARMUP,
                      duration=duration, lb_policy=lb_policy,
                      distribution=distribution)
    return config, batch_means_interval(result.throughput_timeline)


def inside(config: ReplicationConfig, interval, oracle) -> bool:
    """Whether the oracle's throughput lies in the interval, and its
    response time in the interval mapped through Little's law."""
    (mean, half), (throughput, response) = interval, oracle
    population, think = config.total_clients, config.think_time
    return (mean - half <= throughput <= mean + half
            and population / (mean + half) - think
            <= response <= population / (mean - half) - think)


def describe(interval, oracle) -> str:
    mean, half = interval
    return f"DES {mean:.2f} ± {half:.2f} tps, MVA {oracle[0]:.2f} tps"


@pytest.mark.parametrize("replicas", [1, 2, 4])
def test_pinned_fleet_matches_per_replica_mva(replicas):
    config, interval = measure(BROWSING, replicas,
                               BROWSING.clients_per_replica, "pinned")
    oracle = per_replica_oracle(BROWSING, config)
    assert inside(config, interval, oracle), describe(interval, oracle)


@pytest.mark.parametrize("replicas", [2, 4])
def test_random_fleet_matches_whole_network_mva(replicas):
    config, interval = measure(BROWSING, replicas,
                               BROWSING.clients_per_replica, "random")
    oracle = whole_network_oracle(BROWSING, config)
    assert inside(config, interval, oracle), describe(interval, oracle)
    # The per-replica model assumes perfect balance; random routing's
    # transient imbalance costs throughput it does not see.
    optimistic = per_replica_oracle(BROWSING, config)
    assert optimistic[0] > interval[0] + interval[1], (
        describe(interval, optimistic)
    )


@pytest.mark.parametrize("distribution",
                         [EXPONENTIAL, DETERMINISTIC, LOGNORMAL])
def test_ps_cpu_is_insensitive_to_the_demand_distribution(distribution):
    config, interval = measure(CPU_ONLY, 2, CPU_ONLY_CLIENTS, "pinned",
                               distribution)
    oracle = per_replica_oracle(CPU_ONLY, config)
    assert inside(config, interval, oracle), describe(interval, oracle)
