"""Analytical model of the single-master replicated database (§3.2.2, §3.3.3).

An N-replica single-master (SM) system has 1 master executing every update
transaction and N-1 slaves executing read-only transactions plus the
propagated writesets.  The model solves two coupled closed networks — one
for the master, one for a representative slave — and balances them with the
algorithm of Figure 3 of the paper:

* start from the proportional client split (``Pw*C*N`` clients at the
  master, ``Pr*C*N/(N-1)`` per slave);
* if the resulting read:write throughput ratio is below ``Pr:Pw`` the
  master has excess capacity, so read-only clients move to the master
  (the "extra reads" E of §3.3.3) until the ratio balances;
* if the ratio is above ``Pr:Pw`` the master is the bottleneck, so clients
  queue at the master (moving from slaves to the master's update queue)
  until the ratio balances.

The master is solved as a **two-class** MVA network (read class demand
``rc``, update class demand ``wc/(1-A'N)``); the slave is a single-class
network whose read demand is inflated by writeset application
(``rc + ws * writesets-per-read``).  The master abort rate ``A'N`` is
resolved by an outer fixed point on the master's update residence time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.errors import ConvergenceError
from ..core.params import (
    CPU,
    DISK,
    ReplicationConfig,
    ResourceDemand,
    StandaloneProfile,
)
from ..core.results import OperatingPoint, Prediction, ReplicaBreakdown
from ..queueing.mva import (
    MVASolution,
    MulticlassLattice,
    MulticlassSolution,
    solve_mva,
)
from ..queueing.network import (
    ClosedNetwork,
    MulticlassNetwork,
    delay_center,
    queueing_center,
)
from ..queueing.operational import interactive_response_time
from .aborts import master_abort_rate, retry_inflation, scale_abort_rate
from .demands import slave_demand, standalone_demand

LB = "load_balancer"
READ = "read"
WRITE = "write"


#: Relative tolerance for the "ratio approximately equals Pr:Pw" test.
RATIO_TOLERANCE = 0.02
#: Outer fixed-point iterations for the master abort rate A'N, and the
#: change in A'N below which the iteration has converged.
MAX_ABORT_ITERATIONS = 50
ABORT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class _BalanceResult:
    """Outcome of one balancing pass at a fixed abort rate."""

    read_throughput: float  # committed read-only tps, system-wide
    write_throughput: float  # committed update tps, system-wide
    extra_read_throughput: float  # E — reads served by the master
    master: MulticlassSolution
    slave: Optional[MVASolution]
    slave_clients: float  # remaining read clients per slave
    master_read_clients: float
    master_write_clients: float


def _replica_network(
    demand: ResourceDemand, config: ReplicationConfig
) -> ClosedNetwork:
    """One replica serving a single class: CPU and disk behind the balancer."""
    return ClosedNetwork(
        centers=(
            queueing_center(CPU, demand.cpu),
            queueing_center(DISK, demand.disk),
            delay_center(LB, config.load_balancer_delay),
        ),
        think_time=config.think_time,
    )


def predict_singlemaster(
    profile: StandaloneProfile,
    config: ReplicationConfig,
) -> Prediction:
    """Predict throughput/response time of an N-replica single-master system."""
    if profile.mix.read_only:
        return _predict_read_only(profile, config)
    if config.replicas == 1:
        return _predict_master_only(profile, config)
    return _predict_balanced(profile, config)


# ---------------------------------------------------------------------------
# Degenerate cases
# ---------------------------------------------------------------------------


def _predict_read_only(
    profile: StandaloneProfile, config: ReplicationConfig
) -> Prediction:
    """Pw = 0: the master is just another read replica behind the balancer."""
    network = _replica_network(profile.demands.read, config)
    solution = solve_mva(network, config.clients_per_replica)
    return _uniform_prediction(config, solution, "replica", abort_rate=0.0)


def _uniform_prediction(
    config: ReplicationConfig, solution: MVASolution, role: str, abort_rate: float
) -> Prediction:
    """Every replica is the one solved network (Pw = 0, or N = 1)."""
    point = OperatingPoint(
        throughput=config.replicas * solution.throughput,
        response_time=solution.response_time,
        abort_rate=abort_rate,
        utilization=dict(solution.utilization),
    )
    breakdown = ReplicaBreakdown(
        role=role,
        throughput=solution.throughput,
        clients=float(config.clients_per_replica),
        utilization=dict(solution.utilization),
        residence_times=dict(solution.residence_times),
    )
    return Prediction(replicas=config.replicas, point=point, breakdown=(breakdown,))


def _predict_master_only(
    profile: StandaloneProfile,
    config: ReplicationConfig,
) -> Prediction:
    """N = 1: the master serves the full mix, like a standalone database."""
    abort = profile.abort_rate
    solution = None
    for _ in range(MAX_ABORT_ITERATIONS):
        demand = standalone_demand(profile.demands, profile.mix, abort)
        solution = solve_mva(
            _replica_network(demand, config), config.clients_per_replica
        )
        update = profile.demands.write.scaled(retry_inflation(abort))
        queue_cap = (
            None if config.max_concurrency is None else config.max_concurrency - 1
        )
        latency = solution.residence_seen_by(
            {CPU: update.cpu, DISK: update.disk}, queue_cap=queue_cap
        )
        new_abort = master_abort_rate(
            profile.abort_rate, 1, latency, profile.update_response_time
        )
        if abs(new_abort - abort) < ABORT_TOLERANCE:
            abort = new_abort
            break
        abort = new_abort
    assert solution is not None
    return _uniform_prediction(config, solution, "master", abort_rate=abort)


# ---------------------------------------------------------------------------
# The balanced N >= 2 case (Figure 3)
# ---------------------------------------------------------------------------


def _predict_balanced(
    profile: StandaloneProfile,
    config: ReplicationConfig,
) -> Prediction:
    n = config.replicas
    abort = profile.abort_rate
    balance: Optional[_BalanceResult] = None
    for _ in range(MAX_ABORT_ITERATIONS):
        balance = _balance(profile, config, abort)
        latency = _master_update_latency(balance.master, profile, config, abort)
        new_abort = _master_abort_estimate(profile, n, latency, balance)
        if abs(new_abort - abort) < ABORT_TOLERANCE:
            abort = new_abort
            balance = _balance(profile, config, abort)
            break
        abort = new_abort
    else:
        raise ConvergenceError(
            "master abort-rate fixed point did not converge",
            iterations=MAX_ABORT_ITERATIONS,
        )

    assert balance is not None
    total_throughput = balance.read_throughput + balance.write_throughput
    response = interactive_response_time(
        population=config.total_clients,
        throughput=total_throughput,
        think_time=config.think_time,
    )
    # Response time includes the LB delay already (it is a center in both
    # sub-networks); subtract nothing further.
    master_util = dict(balance.master.utilization)
    slave_util = dict(balance.slave.utilization) if balance.slave else {}
    busiest = {
        resource: max(master_util.get(resource, 0.0), slave_util.get(resource, 0.0))
        for resource in (CPU, DISK)
    }
    point = OperatingPoint(
        throughput=total_throughput,
        response_time=response,
        abort_rate=abort,
        utilization=busiest,
    )
    breakdown = [
        ReplicaBreakdown(
            role="master",
            throughput=balance.master.total_throughput,
            clients=balance.master_read_clients + balance.master_write_clients,
            utilization=master_util,
            residence_times={
                name: balance.master.residence_times[WRITE][name]
                for name in balance.master.residence_times[WRITE]
            },
        )
    ]
    if balance.slave is not None:
        breakdown.append(
            ReplicaBreakdown(
                role="slave",
                throughput=balance.slave.throughput,
                clients=balance.slave_clients,
                utilization=slave_util,
                residence_times=dict(balance.slave.residence_times),
            )
        )
    return Prediction(
        replicas=n,
        point=point,
        breakdown=tuple(breakdown),
        master_extra_reads=balance.extra_read_throughput,
    )


def _master_network(
    profile: StandaloneProfile, config: ReplicationConfig, abort: float
) -> MulticlassNetwork:
    inflated = profile.demands.write.scaled(retry_inflation(abort))
    return MulticlassNetwork(
        centers=(
            queueing_center(CPU, 0.0),
            queueing_center(DISK, 0.0),
            delay_center(LB, config.load_balancer_delay),
        ),
        demands={
            READ: (
                profile.demands.read.cpu,
                profile.demands.read.disk,
                config.load_balancer_delay,
            ),
            WRITE: (inflated.cpu, inflated.disk, config.load_balancer_delay),
        },
        think_times={READ: config.think_time, WRITE: config.think_time},
    )


def _solve_master(
    lattice: MulticlassLattice, read_clients: float, write_clients: float
) -> Tuple[float, float, MulticlassSolution]:
    solution = lattice.solve({READ: read_clients, WRITE: write_clients})
    return solution.throughputs[READ], solution.throughputs[WRITE], solution


def _solve_slave(
    profile: StandaloneProfile,
    config: ReplicationConfig,
    clients: float,
    writesets_per_read: float,
) -> MVASolution:
    demand = slave_demand(
        profile.demands,
        profile.mix,
        config.replicas,
        writesets_per_read=writesets_per_read,
    )
    return solve_mva(_replica_network(demand, config), clients)


def _master_abort_estimate(
    profile: StandaloneProfile,
    replicas: int,
    latency: float,
    balance: _BalanceResult,
) -> float:
    """A'N from the current balancing iterate.

    The paper's formula ``(1-A'N) = (1-A1)^(N*L_master/L(1))`` assumes the
    master commits ``N*W`` update transactions — the load of an equivalent
    N-replica multi-master system (§3.3.3).  Once the master saturates it
    commits far fewer, so when the profile records the standalone update
    rate ``W`` we scale the exposure by the *predicted* committed update
    throughput instead:

        (1 - A'N) = (1 - A1) ^ (L_master * W_sys) / (L(1) * W)

    which reduces to the paper's expression when ``W_sys = N*W``.
    """
    if profile.abort_rate == 0.0:
        return 0.0
    if profile.update_rate:
        standalone_exposure = profile.update_response_time * profile.update_rate
        exposure = latency * balance.write_throughput / standalone_exposure
        return scale_abort_rate(profile.abort_rate, exposure)
    return master_abort_rate(
        profile.abort_rate, replicas, latency, profile.update_response_time
    )


def _master_update_latency(
    solution: MulticlassSolution,
    profile: StandaloneProfile,
    config: ReplicationConfig,
    abort: float,
) -> float:
    """Execution time of an update on the master (its conflict window).

    Bounded by the multiprogramming level: a transaction executes alongside
    at most ``max_concurrency - 1`` others, so its execution time cannot
    exceed ``demand * max_concurrency`` even when the closed-loop population
    queues at the master for admission.
    """
    residence = solution.residence_times[WRITE]
    latency = residence.get(CPU, 0.0) + residence.get(DISK, 0.0)
    if config.max_concurrency is not None:
        demand = profile.demands.write.total * retry_inflation(abort)
        latency = min(latency, demand * config.max_concurrency)
    return latency


def _ratio_state(
    read_throughput: float, write_throughput: float, mix_ratio: float, tol: float
) -> int:
    """-1: reads too low (master excess); 0: balanced; +1: master bottleneck."""
    if write_throughput <= 0.0:
        return 1
    ratio = read_throughput / write_throughput
    if abs(ratio - mix_ratio) <= tol * mix_ratio:
        return 0
    return -1 if ratio < mix_ratio else 1


def _balance(
    profile: StandaloneProfile,
    config: ReplicationConfig,
    abort: float,
) -> _BalanceResult:
    """One pass of the Figure 3 balancing algorithm at a fixed A'N."""
    n = config.replicas
    mix = profile.mix
    slaves = n - 1
    master_clients = mix.write_fraction * config.clients_per_replica * n
    slave_clients = mix.read_fraction * config.clients_per_replica * n / slaves
    mix_ratio = mix.read_fraction / mix.write_fraction

    # Every step re-solves the master's network one client per slave
    # further on; one lattice, kept for this pass, computes each
    # population once.
    lattice = MulticlassLattice(_master_network(profile, config, abort))

    _, write_thpt, master_sol = _solve_master(lattice, 0.0, master_clients)
    wspr = slaves * mix.write_fraction / mix.read_fraction
    slave_sol = _solve_slave(profile, config, slave_clients, wspr)
    proportional = _BalanceResult(
        read_throughput=slaves * slave_sol.throughput,
        write_throughput=write_thpt,
        extra_read_throughput=0.0,
        master=master_sol,
        slave=slave_sol,
        slave_clients=slave_clients,
        master_read_clients=0.0,
        master_write_clients=master_clients,
    )
    state = _ratio_state(
        proportional.read_throughput, write_thpt, mix_ratio, RATIO_TOLERANCE
    )
    if state == 0:
        return proportional
    rebalance = (
        _rebalance_excess_master if state < 0 else _rebalance_bottleneck_master
    )
    return rebalance(profile, config, lattice, mix_ratio, proportional)


def _rebalance_excess_master(
    profile: StandaloneProfile,
    config: ReplicationConfig,
    lattice: MulticlassLattice,
    mix_ratio: float,
    proportional: _BalanceResult,
) -> _BalanceResult:
    """Master has spare capacity: move read-only clients onto the master.

    Each step j moves one client from every slave ((N-1) clients total) into
    the master's read class, exactly as in Figure 3.
    """
    slaves = config.replicas - 1
    master_clients = proportional.master_write_clients
    read_thpt = proportional.read_throughput
    best = current = proportional
    for j in range(1, int(proportional.slave_clients) + 1):
        previous = current
        extra_read, write_thpt, master_sol = _solve_master(
            lattice, j * slaves, master_clients
        )
        remaining = proportional.slave_clients - j
        # Writesets applied per read at a slave, from the current iterate's
        # committed update rate and the previous slave read rate (§3.3.3).
        slave_read_rate = max(read_thpt, 1e-12)
        wspr = slaves * write_thpt / slave_read_rate
        slave_sol = _solve_slave(profile, config, remaining, wspr)
        read_thpt = slaves * slave_sol.throughput
        total_read = read_thpt + extra_read
        current = _BalanceResult(
            read_throughput=total_read,
            write_throughput=write_thpt,
            extra_read_throughput=extra_read,
            master=master_sol,
            slave=slave_sol,
            slave_clients=remaining,
            master_read_clients=float(j * slaves),
            master_write_clients=master_clients,
        )
        if _total(current) > _total(best):
            best = current
        if _ratio_state(
            total_read, write_thpt, mix_ratio, RATIO_TOLERANCE
        ) >= 0:
            return _blend_at_ratio(previous, current, mix_ratio)
        # Both tiers are saturated when moving more clients only lowers the
        # total; the ratio can then no longer balance by *raising* reads,
        # only by crushing write throughput — a degenerate equilibrium the
        # real least-loaded balancer never enters.  Once the total falls
        # well below the best placement seen, keep that placement.
        if _total(current) < 0.95 * _total(best):
            return best
    return best


def _total(balance: _BalanceResult) -> float:
    return balance.read_throughput + balance.write_throughput


def _blend_at_ratio(
    prev: _BalanceResult, cur: _BalanceResult, mix_ratio: float
) -> _BalanceResult:
    """Interpolate between two balancing iterates to hit Pr:Pw exactly.

    The Figure 3 loop moves whole clients per step, so the committed
    read:write ratio jumps across the target; blending the two straddling
    iterates removes the stair-step artifact from predictions.
    """

    def ratio(state: _BalanceResult) -> float:
        if state.write_throughput <= 0:
            return float("inf")
        return state.read_throughput / state.write_throughput

    r0, r1 = ratio(prev), ratio(cur)
    if r1 == r0 or r0 == float("inf") or r1 == float("inf"):
        return cur
    t = (mix_ratio - r0) / (r1 - r0)
    t = min(1.0, max(0.0, t))

    def mix(a: float, b: float) -> float:
        return a + t * (b - a)

    return _BalanceResult(
        read_throughput=mix(prev.read_throughput, cur.read_throughput),
        write_throughput=mix(prev.write_throughput, cur.write_throughput),
        extra_read_throughput=mix(
            prev.extra_read_throughput, cur.extra_read_throughput
        ),
        master=cur.master,
        slave=cur.slave,
        slave_clients=mix(prev.slave_clients, cur.slave_clients),
        master_read_clients=mix(
            prev.master_read_clients, cur.master_read_clients
        ),
        master_write_clients=mix(
            prev.master_write_clients, cur.master_write_clients
        ),
    )


def _rebalance_bottleneck_master(
    profile: StandaloneProfile,
    config: ReplicationConfig,
    lattice: MulticlassLattice,
    mix_ratio: float,
    proportional: _BalanceResult,
) -> _BalanceResult:
    """Master is the bottleneck: clients queue at the master.

    Each step j moves one client from every slave into the master's update
    queue, reducing the offered read load until the committed ratio matches
    the workload mix.
    """
    slaves = config.replicas - 1
    master_clients = proportional.master_write_clients
    read_thpt = proportional.read_throughput
    best = proportional
    for j in range(1, int(proportional.slave_clients) + 1):
        previous = best
        _, write_thpt, master_sol = _solve_master(
            lattice, 0.0, master_clients + j * slaves
        )
        remaining = proportional.slave_clients - j
        slave_read_rate = max(read_thpt, 1e-12)
        wspr = slaves * write_thpt / slave_read_rate
        slave_sol = _solve_slave(profile, config, remaining, wspr)
        read_thpt = slaves * slave_sol.throughput
        best = _BalanceResult(
            read_throughput=read_thpt,
            write_throughput=write_thpt,
            extra_read_throughput=0.0,
            master=master_sol,
            slave=slave_sol,
            slave_clients=remaining,
            master_read_clients=0.0,
            master_write_clients=master_clients + j * slaves,
        )
        if _ratio_state(
            read_thpt, write_thpt, mix_ratio, RATIO_TOLERANCE
        ) <= 0:
            return _blend_at_ratio(previous, best, mix_ratio)
    return best
