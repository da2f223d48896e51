"""High-level prediction API.

This is the public entry point a capacity planner uses: feed it a
:class:`~repro.core.params.StandaloneProfile` (measured with
:mod:`repro.profiling`) and a deployment plan, get back throughput and
response-time predictions for any replica count — without deploying the
replicated system, which is the paper's headline capability.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.params import ReplicationConfig, StandaloneProfile
from ..core.results import Prediction, ScalabilityCurve
from .multimaster import MultiMasterOptions, predict_multimaster
from .singlemaster import predict_singlemaster

#: Replicated system designs supported by the models.
MULTI_MASTER = "multi-master"
SINGLE_MASTER = "single-master"
DESIGNS = (MULTI_MASTER, SINGLE_MASTER)


def predict(
    design: str,
    profile: StandaloneProfile,
    config: ReplicationConfig,
    *,
    mm_options: Optional[MultiMasterOptions] = None,
    partition_map=None,
    cross_partition_fraction: float = 0.0,
    partition_weights=None,
    certifier=None,
    partitions: Optional[int] = None,
) -> Prediction:
    """Predict performance of *design* ("multi-master" or "single-master").

    *partition_map* (with the workload's cross-partition fraction and
    partition weights) extends the multi-master model to partial
    replication — see :func:`~repro.models.multimaster.predict_multimaster`.
    The single-master model keeps the full-replication assumption (its
    master must host everything); passing a map there is an error.

    *certifier* (a :class:`~repro.sidb.certifier_api.CertifierSpec` or
    spec name) selects the certification protocol on the multi-master
    model; the single-master design has no shared certifier, so a
    non-default spec there is an error.
    """
    if design == MULTI_MASTER:
        return predict_multimaster(
            profile, config, options=mm_options,
            partition_map=partition_map,
            cross_partition_fraction=cross_partition_fraction,
            partition_weights=partition_weights,
            certifier=certifier,
            partitions=partitions,
        )
    if design == SINGLE_MASTER:
        if partition_map is not None:
            raise ConfigurationError(
                "the partition-aware model covers multi-master only"
            )
        from ..sidb.certifier_api import resolve_certifier_spec

        certifier_spec = resolve_certifier_spec(certifier)
        if certifier_spec is not None and not certifier_spec.is_default:
            raise ConfigurationError(
                "the certifier axis is multi-master only (the certifier "
                f"spec {certifier_spec.kind!r} cannot apply to {design!r})"
            )
        return predict_singlemaster(profile, config)
    raise ConfigurationError(f"unknown design {design!r}; expected one of {DESIGNS}")


def predict_curve(
    design: str,
    profile: StandaloneProfile,
    config: ReplicationConfig,
    replica_counts: Sequence[int],
    *,
    mm_options: Optional[MultiMasterOptions] = None,
) -> ScalabilityCurve:
    """Predict a whole scalability curve across *replica_counts*."""
    counts = list(replica_counts)
    if not counts:
        raise ConfigurationError("replica_counts must not be empty")
    points = []
    for n in counts:
        prediction = predict(
            design,
            profile,
            config.with_replicas(n),
            mm_options=mm_options,
        )
        points.append(prediction.point)
    return ScalabilityCurve(
        label=f"{design} (predicted)", replica_counts=counts, points=points
    )


def compare_designs(
    profile: StandaloneProfile,
    config: ReplicationConfig,
    replica_counts: Iterable[int],
) -> dict:
    """Predict both designs side by side (capacity-planning helper).

    Returns ``{design: ScalabilityCurve}`` so a planner can see, e.g., where
    the single-master design saturates while multi-master keeps scaling.
    """
    counts = list(replica_counts)
    return {
        design: predict_curve(design, profile, config, counts)
        for design in DESIGNS
    }


def replicas_for_throughput(
    design: str,
    profile: StandaloneProfile,
    config: ReplicationConfig,
    target_throughput: float,
    max_replicas: int = 64,
) -> Optional[int]:
    """Smallest replica count whose predicted throughput meets the target.

    Returns ``None`` when the design cannot reach the target within
    *max_replicas* (e.g. a saturated single-master system) — the dynamic
    provisioning use case from the paper's introduction.
    """
    if target_throughput <= 0:
        raise ConfigurationError("target throughput must be positive")
    from .planning import ReplicaScan  # planning imports this module

    found = ReplicaScan(design, profile, config).smallest(
        max_replicas, target_throughput
    )
    return None if found is None else found.replicas
