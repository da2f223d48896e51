"""Experiment harness: regenerate every table and figure of §6."""

from .ablations import mva_ablation
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
from .sensitivity import (
    CertifierCapacityResult,
    DelaySensitivityResult,
    ErrorMarginResult,
    certifier_capacity,
)
from .settings import PAPER_REPLICA_COUNTS, ExperimentSettings
from .tables import DemandTable, ParameterTable, table2, table4

#: The paper's reproduction, in report order: Tables 2-5, Figures 6-14,
#: the §6.3 sensitivities, the §6.2 error margin, the design ablations and
#: the two extensions.  ``repro reproduce`` runs them through the same
#: path as ``repro run``: each artifact prints its own text, then one
#: table judges every claim they declare.
REPORT_SCENARIOS = (
    "table2", "table4", "table3", "table5",
    *(f"figure{i}" for i in range(6, 15)),
    "sens-lb-delay", "sens-certifier-delay", "sens-certifier-capacity",
    "error-margin",
    "ablation-mva", "ablation-conflict-window", "ablation-distributions",
    "ablation-lb-policy",
    "ext-failover", "ext-openloop",
)

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
    "REPORT_SCENARIOS",
    "ParameterTable",
    "CrossValidationResult",
    "PillarPoint",
    "certifier_capacity",
    "clear_cache",
    "clear_sweep_cache",
    "cross_validate",
    "resolve_workload",
    "get_profile",
    "get_profiling_report",
    "mva_ablation",
    "open_vs_closed",
    "OpenClosedResult",
    "table2",
    "table4",
]
