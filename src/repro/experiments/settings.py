"""Experiment configuration shared by all figure/table runners.

The paper measures 15-minute steady-state windows on real hardware; the
simulated equivalents below are shorter but still collect thousands of
transactions per point.  ``ExperimentSettings.fast()`` is used by the test
suite; benchmarks default to ``ExperimentSettings()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from ..core.rng import DEFAULT_SEED

#: Replica counts the paper sweeps (x-axis of Figures 6-13).
PAPER_REPLICA_COUNTS: Tuple[int, ...] = (1, 2, 4, 6, 8, 12, 16)


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs controlling experiment fidelity vs runtime."""

    replica_counts: Tuple[int, ...] = PAPER_REPLICA_COUNTS
    seed: int = DEFAULT_SEED
    #: Simulated warm-up discarded before measurement (paper: 600 s).
    sim_warmup: float = 10.0
    #: Simulated measurement window (paper: 900 s).
    sim_duration: float = 60.0
    #: Replay duration for each profiling stage (§4).
    profile_duration: float = 120.0
    #: Mixed-run duration for L(1)/A1 measurement.
    profile_mixed_duration: float = 120.0
    #: Load-balancer + network delay (§6.3.1).
    load_balancer_delay: float = 0.001
    #: Certification delay (§6.3.2).
    certifier_delay: float = 0.012
    #: Autoscale scenarios: warm-up, trace length, and control period
    #: (virtual seconds), plus the replica count whose capacity anchors
    #: the trace's peak rate.
    autoscale_warmup: float = 20.0
    autoscale_duration: float = 480.0
    autoscale_control_interval: float = 10.0
    autoscale_peak_replicas: int = 6
    # Run-wide options (``repro ... --audit``, ``--certifier``,
    # ``--capacity-source``).  No scenario reads them: the engine overlays
    # each onto every point that can take it
    # (:func:`repro.engine.runner.apply_run_wide`), and ``None`` — the
    # default — leaves every grid and cache key untouched.
    #: A frozen :class:`repro.telemetry.TelemetryConfig` for every
    #: simulator, cluster and autoscale point.
    telemetry: object = None
    #: A frozen :class:`repro.sidb.certifier_api.CertifierSpec` for every
    #: multi-master model, simulator and cluster point.
    certifier: object = None
    #: ``"estimated"``: autoscale points route and scale on the online
    #: estimator's live per-replica capacities instead of the declared
    #: ones.
    capacity_source: object = None

    @classmethod
    def fast(cls) -> "ExperimentSettings":
        """Cheap settings for CI: fewer points, shorter windows."""
        return cls(
            replica_counts=(1, 4, 8),
            sim_warmup=4.0,
            sim_duration=16.0,
            profile_duration=40.0,
            profile_mixed_duration=40.0,
            autoscale_warmup=8.0,
            autoscale_duration=160.0,
            autoscale_control_interval=5.0,
            autoscale_peak_replicas=4,
        )

    def with_replica_counts(self, counts: Tuple[int, ...]) -> "ExperimentSettings":
        """Return a copy sweeping different replica counts."""
        return replace(self, replica_counts=tuple(counts))

    def audited(self) -> "ExperimentSettings":
        """Return a copy that runs every executable point under the
        online invariant auditor (``repro ... --audit``)."""
        from ..telemetry import TelemetryConfig

        return replace(self, telemetry=TelemetryConfig(audit=True))

    def with_certifier(self, certifier: object) -> "ExperimentSettings":
        """Return a copy running multi-master points under *certifier*
        (``repro ... --certifier sharded``); the default global spec
        normalises to ``None``, i.e. to omitting the flag."""
        from ..sidb.certifier_api import resolve_certifier_spec

        spec = resolve_certifier_spec(certifier)
        if spec is not None and spec.is_default:
            spec = None
        return replace(self, certifier=spec)

    def with_capacity_source(self, source: object) -> "ExperimentSettings":
        """Return a copy running autoscale points under *source*
        (``repro ... --capacity-source estimated``); ``declared`` — the
        default — normalises to ``None``, i.e. to omitting the flag."""
        from ..control.estimator import resolve_capacity_source

        return replace(self, capacity_source=resolve_capacity_source(source))
