"""Unified scenario engine: one declarative sweep runner over all pillars.

Every experiment in this repo — paper figures and tables, sensitivity
analyses, ablations, the open-loop and failover extensions, and the
three-pillar cross-validation — is a :class:`~repro.engine.scenario.Scenario`:
a declarative grid of sweep points, each naming the execution pillar
(analytical model, discrete-event simulator, or live cluster) that
produces it.  :func:`~repro.engine.runner.run_scenario` executes any
scenario on any pillar through one API, fanning points out over a process
pool and caching completed points on disk, with results identical to
serial execution.
"""

from .backends import BACKENDS, accepted_options, execute_point
from .cache import (
    CACHE_VERSION,
    ResultCache,
    default_cache_dir,
    point_key,
    profile_key,
    resolve_cache,
)
from .family import CellTable, PillarDims, live_twin, register_family
from .registry import (
    UnknownScenarioError,
    UnknownTagError,
    all_scenarios,
    get_scenario,
    known_tags,
    register_scenario,
    scenario_names,
    scenario_names_with_tag,
)
from .runner import (
    RUN_WIDE,
    PointTiming,
    apply_run_wide,
    clear_memo,
    clear_point_timings,
    default_jobs,
    execute_points,
    memo_size,
    point_timings,
    run_scenario,
    scenario_points,
)
from .scenario import (
    AUTOSCALE,
    BROKEN,
    CLUSTER,
    HOLDS,
    MODEL,
    PROFILE,
    SIMULATOR,
    Claim,
    ClaimRow,
    ProfileTask,
    Scenario,
    SweepPoint,
    autoscale_point,
    cluster_point,
    model_point,
    profile_point,
    profile_task,
    sim_point,
)

__all__ = [
    "AUTOSCALE",
    "BACKENDS",
    "BROKEN",
    "CACHE_VERSION",
    "CLUSTER",
    "CellTable",
    "Claim",
    "ClaimRow",
    "HOLDS",
    "MODEL",
    "PROFILE",
    "PillarDims",
    "PointTiming",
    "ProfileTask",
    "RUN_WIDE",
    "ResultCache",
    "SIMULATOR",
    "Scenario",
    "SweepPoint",
    "UnknownScenarioError",
    "UnknownTagError",
    "accepted_options",
    "all_scenarios",
    "apply_run_wide",
    "autoscale_point",
    "clear_memo",
    "clear_point_timings",
    "cluster_point",
    "default_cache_dir",
    "default_jobs",
    "execute_point",
    "execute_points",
    "get_scenario",
    "known_tags",
    "live_twin",
    "memo_size",
    "model_point",
    "point_key",
    "point_timings",
    "profile_key",
    "profile_point",
    "profile_task",
    "register_family",
    "register_scenario",
    "resolve_cache",
    "run_scenario",
    "scenario_names",
    "scenario_names_with_tag",
    "scenario_points",
    "sim_point",
]
