"""Analytical model of the multi-master replicated database (§3.2.1, §3.3.2).

One replica is modelled as a closed separable network (Figure 1 of the
paper): CPU and disk are queueing centers; the load balancer and the
certifier are delay centers; clients think for ``Z`` seconds between
transactions.  All ``N`` replicas are identical under perfect load
balancing, so the model solves one replica with ``C`` clients and scales
throughput by ``N``.

The subtlety is the **conflict-window fixed point**: the per-transaction
demand depends on the abort rate ``AN``, which depends on the conflict
window ``CW(N)``, which depends on residence times, which depend on the
demand.  Following §4.1.1 we drive the exact MVA recurrence one client at a
time and seed iteration ``i+1`` with the conflict window observed at
iteration ``i``.  An optional mode iterates each population step to a
converged fixed point instead (ablation; the paper notes the one-step lag
"slightly underestimates the abort probability").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.errors import ConfigurationError, ConvergenceError
from ..core.params import (
    CPU,
    DISK,
    ReplicationConfig,
    StandaloneProfile,
)
from ..core.results import OperatingPoint, Prediction, ReplicaBreakdown
from ..queueing.mva import MVAStepper
from ..queueing.network import ClosedNetwork, delay_center, queueing_center
from ..sidb.certifier_api import resolve_certifier_spec
from .aborts import multimaster_abort_rate, partition_abort_mixture
from .demands import multimaster_demand

#: Name of the load-balancer delay center.
LB = "load_balancer"
#: Name of the certifier delay center.
CERTIFIER = "certifier"
#: Name of the certification *queueing* center: present only when a
#: :class:`~repro.sidb.certifier_api.CertifierSpec` gives the service a
#: positive per-certification occupancy, turning it from a pure delay
#: into a contended resource (the sharding comparison's bottleneck).
CERTIFY_SERVICE = "certify_service"

#: How the conflict window is updated across MVA iterations.
CW_ONE_STEP_LAG = "one_step_lag"  # the paper's scheme (§4.1.1)
CW_FIXED_POINT = "fixed_point"  # converged fixed point per population step
_CW_MODES = (CW_ONE_STEP_LAG, CW_FIXED_POINT)
#: Fixed-point mode: convergence tolerance on AN, and the iteration cap.
FIXED_POINT_TOLERANCE = 1e-10
MAX_FIXED_POINT_ITERATIONS = 200


@dataclass(frozen=True)
class MultiMasterOptions:
    """The multi-master solver's one option with two real values."""

    #: Conflict-window update scheme; see module docstring.
    cw_mode: str = CW_ONE_STEP_LAG

    def __post_init__(self) -> None:
        if self.cw_mode not in _CW_MODES:
            raise ConfigurationError(
                f"cw_mode must be one of {_CW_MODES}, got {self.cw_mode!r}"
            )


def _build_network(
    config: ReplicationConfig,
    write_fraction: float,
    certify_rounds: float = 1.0,
    service_demand: float = 0.0,
) -> ClosedNetwork:
    centers = [
        queueing_center(CPU, 0.0),
        queueing_center(DISK, 0.0),
        delay_center(LB, config.load_balancer_delay),
        # Only update transactions visit the certifier, so its
        # per-transaction demand carries a visit ratio of Pw.
        # *certify_rounds* charges the sharded path's cross-partition
        # coordination round (1 + x on average); exactly 1.0 — an exact
        # multiplicative identity — on the global path.
        delay_center(
            CERTIFIER,
            write_fraction * config.certifier_delay * certify_rounds,
        ),
    ]
    if service_demand > 0.0:
        centers.append(queueing_center(CERTIFY_SERVICE, service_demand))
    return ClosedNetwork(centers=tuple(centers), think_time=config.think_time)


def _shard_weights(partition_weights, partitions):
    """Normalised per-shard load weights for the sharded model path."""
    if partition_weights is not None:
        weights = [float(w) for w in partition_weights]
        if not weights or any(w < 0.0 for w in weights):
            raise ConfigurationError(
                f"partition weights must be non-negative and non-empty, "
                f"got {partition_weights!r}"
            )
        total = sum(weights)
        if total <= 0.0:
            raise ConfigurationError("partition weights must sum to > 0")
        return tuple(w / total for w in weights)
    if partitions is None or partitions < 2:
        raise ConfigurationError(
            "the sharded certifier model needs partitions >= 2 (pass "
            "partitions= or partition_weights=); use the global "
            "certifier for unpartitioned predictions"
        )
    return tuple(1.0 / partitions for _ in range(partitions))


def predict_multimaster(
    profile: StandaloneProfile,
    config: ReplicationConfig,
    options: Optional[MultiMasterOptions] = None,
    partition_map=None,
    cross_partition_fraction: float = 0.0,
    partition_weights=None,
    certifier=None,
    partitions: Optional[int] = None,
) -> Prediction:
    """Predict throughput/response time of an N-replica multi-master system.

    Inputs are purely standalone measurements (*profile*) plus deployment
    parameters (*config*), per the paper's headline claim.

    *partition_map* extends the model to partial replication: the
    ``(N-1) * Pw * ws`` update-propagation term of §3.3.2 becomes
    ``(h-1) * Pw * ws``, where ``h`` is the expected number of replicas
    hosting one update's writeset under the map (each replica's update
    load is the sum over its hosted partitions; a balanced placement
    makes replicas symmetric, which is what the one-replica MVA network
    assumes).  The conflict-window/abort algebra is left untouched: the
    updatable set splits evenly across partitions, so under uniform
    weights the pairwise row-conflict probability is unchanged
    (``(1/P) * (P/DbUpdateSize) = 1/DbUpdateSize``); skewed weights
    concentrate conflicts and are probed by the placement-ablation
    scenario rather than modelled.

    *certifier* selects the certification protocol (a
    :class:`~repro.sidb.certifier_api.CertifierSpec`, spec name, or
    ``None`` for the default global certifier).  The global path is
    byte-identical to the historical model.  The sharded path charges a
    second certification round for the *cross_partition_fraction* of
    updates that must coordinate across shards, divides any positive
    per-certification ``service_time`` across shards (weighted by the
    inverse Simpson concentration of *partition_weights*, so skew erodes
    the parallelism), and replaces the abort algebra with the
    skew-aware :func:`~repro.models.aborts.partition_abort_mixture`.
    """
    options = options or MultiMasterOptions()
    mix = profile.mix
    demands = profile.demands
    n = config.replicas

    certifier_spec = resolve_certifier_spec(certifier)
    sharded = certifier_spec is not None and certifier_spec.is_sharded
    service_time = 0.0 if certifier_spec is None else certifier_spec.service_time
    certify_rounds = 1.0
    shard_weights = None
    if sharded:
        shard_weights = _shard_weights(partition_weights, partitions)
        # Cross-partition commits pay one extra coordination round
        # between the home shard and the other touched shards.
        certify_rounds = 1.0 + max(0.0, float(cross_partition_fraction))

    # A positive per-certification occupancy turns the certifier into a
    # queueing center shared by all N replicas' update streams; the
    # one-replica MVA network sees it scaled by N so the single modelled
    # replica saturates exactly when the system-wide service would.
    service_demand = 0.0
    if service_time > 0.0 and mix.write_fraction > 0.0:
        service_demand = n * mix.write_fraction * service_time
        if sharded:
            # Sharding splits the service across shards; the effective
            # parallelism is the inverse Simpson index of the load
            # weights (= P when uniform, -> 1 under extreme skew).
            s_eff = 1.0 / sum(w * w for w in shard_weights)
            service_demand *= certify_rounds / s_eff

    # Certification latency seen by one update transaction: propagation
    # delay per round plus its own service occupancy.  Exactly
    # ``config.certifier_delay`` on the default path.
    certify_latency = config.certifier_delay * certify_rounds + service_time

    if sharded:
        weights = shard_weights

        def abort_fn(conflict_window: float) -> float:
            if profile.update_response_time <= 0.0:
                if profile.abort_rate == 0.0:
                    return 0.0
                raise ConfigurationError("L(1) must be positive when A1 > 0")
            exposure = n * conflict_window / profile.update_response_time
            return partition_abort_mixture(profile.abort_rate, exposure, weights)

    else:

        def abort_fn(conflict_window: float) -> float:
            return multimaster_abort_rate(
                profile.abort_rate, n, conflict_window,
                profile.update_response_time,
            )

    writeset_fanin = None
    if partition_map is not None:
        if partition_map.replicas != n:
            raise ConfigurationError(
                f"partition map places over {partition_map.replicas} "
                f"replicas but the deployment has {n}"
            )
        fanout = partition_map.expected_update_fanout(
            cross_partition_fraction, partition_weights
        )
        writeset_fanin = max(0.0, fanout - 1.0)

    network = _build_network(
        config,
        mix.write_fraction,
        certify_rounds=certify_rounds,
        service_demand=service_demand,
    )
    stepper = MVAStepper(network)

    # Initial conflict window: the standalone window plus certification,
    # evaluated before any queueing builds up.
    abort_rate = 0.0
    conflict_window = profile.update_response_time + certify_latency
    if mix.write_fraction > 0.0:
        abort_rate = abort_fn(conflict_window)

    solution = None
    for _ in range(config.clients_per_replica):
        demand = multimaster_demand(demands, mix, n, abort_rate,
                                    writeset_fanin=writeset_fanin)
        stepper.set_demands({CPU: demand.cpu, DISK: demand.disk})
        solution = stepper.step()
        if mix.write_fraction > 0.0:
            conflict_window, abort_rate = _update_conflict_state(
                profile, config, solution, options, abort_rate,
                abort_fn, certify_latency,
            )

    assert solution is not None
    system_throughput = n * solution.throughput
    point = OperatingPoint(
        throughput=system_throughput,
        response_time=solution.response_time,
        abort_rate=abort_rate,
        utilization=dict(solution.utilization),
    )
    breakdown = ReplicaBreakdown(
        role="replica",
        throughput=solution.throughput,
        clients=float(config.clients_per_replica),
        utilization=dict(solution.utilization),
        residence_times=dict(solution.residence_times),
    )
    return Prediction(
        replicas=n,
        point=point,
        conflict_window=conflict_window if mix.write_fraction > 0.0 else 0.0,
        breakdown=(breakdown,),
    )


def _update_conflict_state(
    profile, config, solution, options, abort_rate, abort_fn, certify_latency
):
    """Recompute (CW, AN) from the latest MVA solution."""
    if options.cw_mode == CW_ONE_STEP_LAG:
        cw = _conflict_window(profile, config, solution, abort_rate,
                              certify_latency)
        an = abort_fn(cw)
        return cw, an

    # Fixed-point mode: iterate CW -> AN -> update-demand residence until
    # the abort rate stabilises for this population.
    an = abort_rate
    cw = _conflict_window(profile, config, solution, an, certify_latency)
    for iteration in range(MAX_FIXED_POINT_ITERATIONS):
        new_an = abort_fn(cw)
        new_cw = _conflict_window(profile, config, solution, new_an,
                                  certify_latency)
        if abs(new_an - an) < FIXED_POINT_TOLERANCE:
            return new_cw, new_an
        an, cw = new_an, new_cw
    raise ConvergenceError(
        "conflict-window fixed point did not converge",
        iterations=MAX_FIXED_POINT_ITERATIONS,
    )


def _conflict_window(profile, config, solution, abort_rate,
                     certify_latency=None) -> float:
    """CW = update-transaction CPU + disk residence + certification (§4.1.1).

    Residence times are evaluated for the *update class* via the arrival
    theorem: an arriving update waits behind the mix-average queue but
    receives its own (retry-inflated) service demand.  The queue an
    executing transaction shares the server with is capped at the
    multiprogramming level: clients beyond it wait for admission *before*
    taking their snapshot, so they do not extend the conflict window.
    """
    from .demands import master_update_demand  # local import to avoid cycle noise

    update_demand = master_update_demand(profile.demands, abort_rate)
    queue_cap = (
        None if config.max_concurrency is None else config.max_concurrency - 1
    )
    residence = solution.residence_seen_by(
        {CPU: update_demand.cpu, DISK: update_demand.disk},
        queue_cap=queue_cap,
    )
    if certify_latency is None:
        certify_latency = config.certifier_delay
    return residence + certify_latency
