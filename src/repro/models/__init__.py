"""Analytical models predicting replicated-database performance (§3 of the paper)."""

from .aborts import (
    db_update_size_for_abort_rate,
    master_abort_rate,
    multimaster_abort_rate,
    retry_inflation,
    scale_abort_rate,
    standalone_abort_rate,
    success_probability,
)
from .api import (
    DESIGNS,
    MULTI_MASTER,
    SINGLE_MASTER,
    compare_designs,
    predict,
    predict_curve,
    replicas_for_throughput,
)
from .demands import (
    master_mixed_demand,
    master_update_demand,
    multimaster_demand,
    slave_demand,
    standalone_demand,
)
from .multimaster import (
    CW_FIXED_POINT,
    CW_ONE_STEP_LAG,
    MultiMasterOptions,
    predict_multimaster,
)
from .network import GIGABIT, NetworkBudget, budget_for_prediction
from .planning import (
    DeploymentPlan,
    PlacementPlan,
    ProvisioningSchedule,
    plan_deployment,
    plan_placement,
    provisioning_schedule,
    replicas_for_response_time,
)
from .singlemaster import predict_singlemaster
from .standalone import predict_standalone, predict_standalone_from_config

__all__ = [
    "CW_FIXED_POINT",
    "CW_ONE_STEP_LAG",
    "DESIGNS",
    "DeploymentPlan",
    "GIGABIT",
    "NetworkBudget",
    "budget_for_prediction",
    "ProvisioningSchedule",
    "MULTI_MASTER",
    "SINGLE_MASTER",
    "MultiMasterOptions",
    "compare_designs",
    "db_update_size_for_abort_rate",
    "master_abort_rate",
    "master_mixed_demand",
    "master_update_demand",
    "multimaster_abort_rate",
    "multimaster_demand",
    "predict",
    "predict_curve",
    "predict_multimaster",
    "predict_singlemaster",
    "predict_standalone",
    "PlacementPlan",
    "plan_deployment",
    "plan_placement",
    "predict_standalone_from_config",
    "provisioning_schedule",
    "replicas_for_response_time",
    "replicas_for_throughput",
    "retry_inflation",
    "scale_abort_rate",
    "slave_demand",
    "standalone_abort_rate",
    "standalone_demand",
    "success_probability",
]
