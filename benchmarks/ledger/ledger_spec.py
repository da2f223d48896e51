"""The ledger's contract: workload, metric and bound tables.

Pure data, importable without ``repro`` on the path.  ``BENCHMARK.json``
at the repository root is :func:`benchmark_json` written out; the
self-tests require the two to be equal, so a name, unit, direction or
bound is changed here and nowhere else.

Two families of per-layer metric exist (``source``):

* ``probe`` — a fixed micro-workload run against one layer's public
  functions, the same in every traced run whatever the workload;
* ``pass`` — read off the traced pass of the workload that reaches the
  layer, and reported as ``0`` by workloads that never call it.

``moves`` records, before anything is measured, which end-to-end metric on
which workload each layer metric is expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: How long one run measures (``--seconds`` default; the driver passes it).
RUN_SECONDS = 8

COMMAND = ("python3", "benchmarks/ledger/run.py")
PATHS = ("benchmarks/ledger",)


@dataclass(frozen=True)
class Workload:
    name: str
    #: What one unit of ``work_per_s`` is on this workload.
    work_unit: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "reproduce-cold", "sweep points",
        "Regenerating paper artifacts on an empty cache: profiling, model, "
        "autoscale and DES all do real work and DES dominates.",
    ),
    Workload(
        "reproduce-warm", "sweep points",
        "Every point a cache hit: only engine keys, pickles and assembly "
        "run, DES and model none, so a DES speed-up must not move it and a "
        "cache-key change must.",
    ),
    Workload(
        "des-read-heavy", "simulated txns",
        "Pw=0 at N=16: route and execute only (PS CPU, FIFO disk, sampler, "
        "stats); certify, propagate and apply never run.",
    ),
    Workload(
        "des-write-heavy", "simulated txns",
        "Pw=0.5 on multi-master, single-master and sharded points: certify, "
        "N-way propagation and apply are the bulk of DES events.",
    ),
    Workload(
        "model-plan", "grid predictions",
        "The analytic pillar alone: MVA predictions for both designs plus a "
        "reachable and an unreachable plan_deployment scan.",
    ),
    Workload(
        "sidb-commit", "origin txns",
        "The real SI engine single-threaded: begin, commit/certify, install, "
        "apply to 3 followers and vacuum, with no clock, threads or DES.",
    ),
    Workload(
        "live-paced", "live txns",
        "The threaded cluster at time_scale 0.03, where harness CPU and sleep "
        "overshoot pull live results under the DES reference.",
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may get worse.
    bound: float


#: Reported by every workload with tracing off.  The timing bounds are
#: as wide as the contract allows because the 2-core box is shared: a
#: neighbour slows whole runs by a third for ten seconds at a time, and
#: the bound must hold the run-to-run spread that leaves (see README).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("work_per_s", "1/s", "higher", 0.25),
)


@dataclass(frozen=True)
class Extra:
    """A named end-to-end number only some workloads have.

    The driver's contract wants every end-to-end metric from every
    workload, so these are printed and gated by ``--compare`` but are not
    ``end_to_end`` entries of ``BENCHMARK.json``.  ``absolute`` bounds are
    in the metric's own unit, relative ones a share of the baseline.
    """

    name: str
    unit: str
    better: str
    bound: float
    absolute: bool
    workloads: Tuple[str, ...]
    #: The universal metric this one renames on its workloads, if any.
    alias_of: Optional[str] = None


EXTRAS: Tuple[Extra, ...] = (
    Extra("failed_share", "ratio", "lower", 0.0, True, WORKLOAD_NAMES),
    Extra("points_per_s", "1/s", "higher", 0.25, False,
          ("reproduce-cold", "reproduce-warm"), "work_per_s"),
    Extra("model_err_max_pct", "%", "lower", 1.0, True, ("reproduce-cold",)),
    Extra("sim_txn_per_s", "1/s", "higher", 0.25, False,
          ("des-read-heavy", "des-write-heavy"), "work_per_s"),
    Extra("predictions_per_s", "1/s", "higher", 0.25, False,
          ("model-plan",), "work_per_s"),
    Extra("commits_per_s", "1/s", "higher", 0.25, False,
          ("sidb-commit",), "work_per_s"),
    Extra("live_tput_ratio", "ratio", "higher", 0.03, True, ("live-paced",)),
    Extra("live_resp_ratio", "ratio", "lower", 0.08, False, ("live-paced",)),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    source: str  # "probe" | "pass"
    moves: str


_MODEL = "predictions_per_s, wall_s on model-plan"
_SIDB = "commits_per_s on sidb-commit"
_SIDB_LIVE = _SIDB + "; cpu_s, live_tput_ratio on live-paced"
_DES = ("sim_txn_per_s on des-read-heavy and des-write-heavy; wall_s, "
        "points_per_s on reproduce-cold; no change on reproduce-warm, "
        "model-plan, sidb-commit")
_LIVE = "live_tput_ratio, live_resp_ratio, cpu_s on live-paced"
_WARM = "points_per_s on reproduce-warm"
_COLD = "wall_s, points_per_s on reproduce-cold"

PER_LAYER: Tuple[LayerMetric, ...] = (
    # queueing
    LayerMetric("queueing.mva_solves_per_s", "1/s", "higher", "probe", _MODEL),
    LayerMetric("queueing.multiclass_solves_per_s", "1/s", "higher", "probe",
                _MODEL + "; wall_s on reproduce-cold (figure8 model time)"),
    # models
    LayerMetric("models.mm_predict_ms", "ms", "lower", "pass", _MODEL),
    LayerMetric("models.sm_predict_ms", "ms", "lower", "pass", _MODEL),
    LayerMetric("models.plan_reachable_s", "s", "lower", "pass", _MODEL),
    LayerMetric("models.plan_unreachable_s", "s", "lower", "pass", _MODEL),
    # profiling
    LayerMetric("profiling.profile_s", "s", "lower", "probe",
                "wall_s on reproduce-cold; setup_s on model-plan"),
    # sidb
    LayerMetric("sidb.read_commit_us", "us", "lower", "probe", _SIDB),
    LayerMetric("sidb.update_commit_us", "us", "lower", "probe", _SIDB),
    LayerMetric("sidb.certify_us", "us", "lower", "probe", _SIDB_LIVE),
    LayerMetric("sidb.sharded_certify_us", "us", "lower", "probe",
                "cpu_s on live-paced sharded runs; none of the seven "
                "workloads certifies sharded outside the DES"),
    LayerMetric("sidb.apply_writeset_us", "us", "lower", "probe", _SIDB_LIVE),
    LayerMetric("sidb.vacuum_ms", "ms", "lower", "probe", _SIDB_LIVE),
    LayerMetric("sidb.vacuum_share", "ratio", "lower", "pass", _SIDB),
    LayerMetric("sidb.abort_share", "ratio", "lower", "pass", _SIDB),
    # simulator
    LayerMetric("simulator.des_events_per_s", "1/s", "higher", "probe", _DES),
    LayerMetric("simulator.ps_jobs_per_s", "1/s", "higher", "probe", _DES),
    LayerMetric("simulator.fifo_jobs_per_s", "1/s", "higher", "probe", _DES),
    LayerMetric("simulator.sampler_draws_per_s", "1/s", "higher", "probe",
                _DES),
    LayerMetric("simulator.read_mm_txn_per_s", "1/s", "higher", "pass",
                "sim_txn_per_s on des-read-heavy"),
    LayerMetric("simulator.write_mm_txn_per_s", "1/s", "higher", "pass",
                "sim_txn_per_s on des-write-heavy"),
    LayerMetric("simulator.write_sm_txn_per_s", "1/s", "higher", "pass",
                "sim_txn_per_s on des-write-heavy"),
    LayerMetric("simulator.write_sharded_txn_per_s", "1/s", "higher", "pass",
                "sim_txn_per_s on des-write-heavy"),
    # cluster
    LayerMetric("cluster.sleep_overshoot_p50_us", "us", "lower", "probe",
                _LIVE),
    LayerMetric("cluster.sleep_overshoot_p99_us", "us", "lower", "probe",
                _LIVE),
    LayerMetric("cluster.mm_harness_p50_us", "us", "lower", "probe", _LIVE),
    LayerMetric("cluster.sm_harness_p50_us", "us", "lower", "probe", _LIVE),
    LayerMetric("cluster.sharded_harness_p50_us", "us", "lower", "probe",
                _LIVE),
    LayerMetric("cluster.mm_harness_cpu_us", "us", "lower", "probe", _LIVE),
    LayerMetric("cluster.channel_publish_us", "us", "lower", "probe", _LIVE),
    LayerMetric("cluster.balancer_select_us", "us", "lower", "probe", _LIVE),
    LayerMetric("cluster.drain_s", "s", "lower", "pass",
                "wall_s on live-paced"),
    LayerMetric("cluster.threads_peak", "count", "lower", "pass",
                "cpu_s, peak_rss_mb on live-paced"),
    LayerMetric("cluster.live_tput_ratio", "ratio", "higher", "pass",
                "work_per_s on live-paced (the same number against the DES "
                "reference)"),
    LayerMetric("cluster.live_resp_ratio", "ratio", "lower", "pass",
                "live_tput_ratio on live-paced (closed loop: slower "
                "responses, fewer commits)"),
    # engine
    LayerMetric("engine.backend_s.profile", "s", "lower", "pass", _COLD),
    LayerMetric("engine.backend_s.model", "s", "lower", "pass", _COLD),
    LayerMetric("engine.backend_s.simulator", "s", "lower", "pass",
                _COLD + "; ~0 on reproduce-warm"),
    LayerMetric("engine.backend_s.autoscale", "s", "lower", "pass", _COLD),
    LayerMetric("engine.overhead_s", "s", "lower", "pass",
                _WARM + " and on reproduce-cold"),
    LayerMetric("engine.point_key_us", "us", "lower", "probe", _WARM),
    LayerMetric("engine.cache_get_ms", "ms", "lower", "probe", _WARM),
    LayerMetric("engine.cache_put_ms", "ms", "lower", "probe",
                "points_per_s on reproduce-cold; setup_s on reproduce-warm"),
    LayerMetric("engine.warm_point_us", "us", "lower", "probe", _WARM),
    LayerMetric("engine.jobs2_speedup", "ratio", "higher", "pass",
                "nothing end to end (every workload runs jobs=1); prices "
                "the process pool"),
    # control
    LayerMetric("control.autoscale_point_s", "s", "lower", "pass",
                "wall_s on reproduce-cold"),
    # experiments
    LayerMetric("experiments.model_err_max_pct", "%", "lower", "pass",
                "model_err_max_pct on reproduce-cold (deterministic per "
                "seed)"),
    # observability prices
    LayerMetric("telemetry.des_overhead_pct", "%", "lower", "pass",
                "nothing with telemetry off; sim_txn_per_s of telemetry-on "
                "runs"),
    LayerMetric("audit.des_overhead_pct", "%", "lower", "pass",
                "nothing with auditing off; sim_txn_per_s of audited runs"),
    LayerMetric("telemetry.live_cpu_overhead_pct", "%", "lower", "pass",
                "nothing with telemetry off; cpu_s of telemetry-on live "
                "runs"),
    # cli
    LayerMetric("cli.startup_ms", "ms", "lower", "probe",
                "what every CLI verb adds on top of the cold/warm numbers"),
    # the benchmark itself
    LayerMetric("bench.trace_overhead_pct", "%", "lower", "pass",
                "nothing: end-to-end metrics are measured untraced"),
    LayerMetric("host.calib_ms", "ms", "lower", "probe",
                "every timing: a drift over 10% marks the run unresolved"),
    LayerMetric("host.calib_drift_pct", "%", "lower", "probe",
                "every timing: a drift over 10% marks the run unresolved"),
)

LAYER_NAMES: Tuple[str, ...] = tuple(m.name for m in PER_LAYER)

#: ``host.calib_ms`` drift beyond this share marks a run unresolved.
CALIB_DRIFT_LIMIT = 0.10


def benchmark_json() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
