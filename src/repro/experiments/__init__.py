"""Experiment harness: regenerate every table and figure of §6."""

from .ablations import (
    conflict_window_ablation,
    distribution_ablation,
    lb_policy_ablation,
    mva_ablation,
)
from .context import clear_cache, get_profile, get_profiling_report
from .crossval import (
    CrossValidationResult,
    PillarPoint,
    cross_validate,
    resolve_workload,
)
from .failover import FailoverResult, failover_experiment
from .figures import (
    AbortCurve,
    Figure14Result,
    FigureResult,
    clear_sweep_cache,
)
from .openloop import OpenClosedResult, open_vs_closed
from .report import full_report
from .sensitivity import (
    CertifierCapacityResult,
    DelaySensitivityResult,
    ErrorMarginResult,
    certifier_capacity,
)
from .settings import PAPER_REPLICA_COUNTS, ExperimentSettings
from .tables import DemandTable, ParameterTable, table2, table4

# isort: split
# Imported last (they read .context and the engine): register the
# autoscale, operations, and partition scenario families alongside the
# figure/table/ablation ones.
from ..control import scenarios as autoscale_scenarios  # noqa: E402,F401
from ..ops import scenarios as ops_scenarios  # noqa: E402,F401
from ..partition import scenarios as partition_scenarios  # noqa: E402,F401

__all__ = [
    "AbortCurve",
    "CertifierCapacityResult",
    "DelaySensitivityResult",
    "DemandTable",
    "ErrorMarginResult",
    "ExperimentSettings",
    "FailoverResult",
    "failover_experiment",
    "Figure14Result",
    "FigureResult",
    "PAPER_REPLICA_COUNTS",
    "ParameterTable",
    "CrossValidationResult",
    "PillarPoint",
    "certifier_capacity",
    "clear_cache",
    "clear_sweep_cache",
    "conflict_window_ablation",
    "cross_validate",
    "resolve_workload",
    "distribution_ablation",
    "full_report",
    "get_profile",
    "get_profiling_report",
    "lb_policy_ablation",
    "mva_ablation",
    "open_vs_closed",
    "OpenClosedResult",
    "table2",
    "table4",
]
