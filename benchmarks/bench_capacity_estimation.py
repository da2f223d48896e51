"""Capacity-estimation guards: brownout recovery, purity, and overhead.

Three contracts from the performance-observability layer's design
budget:

* **Recovery** — under a 0.5x brownout on one replica, routing and
  scaling on the online estimator's live capacities recovers at least
  15% committed throughput over the declared-capacity control, on both
  executable pillars, and the estimator reports a bounded detection
  latency.
* **Estimator off is invisible** — a DES run with the estimator engaged
  (observe-only, via telemetry) is bit-identical to one without it, and
  spelling ``capacity_source="declared"`` is byte-identical to omitting
  the switch (same results, same cache keys).
* **Estimator on is nearly free** — observing a live fleet every control
  tick (counter deltas and a few EWMAs) must cost under 5% wall-clock on
  the live cluster, where real time is the measurement.
"""

from __future__ import annotations

import dataclasses
import time

from conftest import run_once

from repro.control.autoscale import autoscale_cluster, autoscale_sim
from repro.control.controller import FixedPolicy
from repro.control.trace import DiurnalTrace
from repro.engine import run_scenario
from repro.ops.plan import OpsPlan
from repro.simulator.faults import brownout_fault
from repro.telemetry import TelemetryConfig
from repro.workloads import get_workload


def _check_recovery(comparison, detection_bound):
    assert comparison.declared.converged and comparison.estimated.converged
    # The headline claim: estimated capacities buy back >= 15% of the
    # throughput the declared-capacity arm loses to the brownout.
    assert comparison.recovery >= 0.15, comparison.to_text()
    latency = comparison.detection_latency
    assert latency is not None, "brownout was never gray-detected"
    assert latency <= detection_bound, comparison.to_text()


def test_capacity_recovery_simulator(benchmark, settings, fast_mode):
    """Estimated vs declared capacities under a brownout (simulator)."""
    comparison = run_once(
        benchmark,
        lambda: run_scenario("capacity-estimation", settings, jobs=1,
                             cache=None),
    )
    print("\n" + comparison.to_text())
    benchmark.extra_info["recovery"] = comparison.recovery
    benchmark.extra_info["detection_latency"] = comparison.detection_latency
    _check_recovery(comparison,
                    detection_bound=4.0 * settings.autoscale_control_interval)


def test_capacity_recovery_live_cluster(benchmark, settings, fast_mode):
    """The same claim live: a real thread pool browns out and recovers."""
    comparison = run_once(
        benchmark,
        lambda: run_scenario("capacity-estimation-live", settings, jobs=1,
                             cache=None),
    )
    print("\n" + comparison.to_text())
    benchmark.extra_info["recovery"] = comparison.recovery
    benchmark.extra_info["detection_latency"] = comparison.detection_latency
    # Live control ticks every second; detection within a handful.
    _check_recovery(comparison, detection_bound=6.0)


def test_estimator_off_results_bit_identical(benchmark):
    """Observe-only estimation never perturbs the deterministic run."""
    spec = get_workload("tpcw/shopping")
    config = spec.replication_config(1)
    trace = DiurnalTrace(base_rate=40.0, peak_rate=40.0, period=24.0)
    plan = OpsPlan(faults=(brownout_fault(1, 10.0, 10.0, severity=0.5),))
    kwargs = dict(
        design="multi-master", seed=7, warmup=4.0, duration=24.0,
        control_interval=2.0, slo_response=3.0, max_replicas=4,
        config=config, ops=plan,
    )

    def all_three():
        off = autoscale_sim(spec, trace, FixedPolicy(replicas=2), **kwargs)
        declared = autoscale_sim(spec, trace, FixedPolicy(replicas=2),
                                 capacity_source="declared", **kwargs)
        observed = autoscale_sim(spec, trace, FixedPolicy(replicas=2),
                                 telemetry=TelemetryConfig(), **kwargs)
        return off, declared, observed

    off, declared, observed = run_once(benchmark, all_three)
    # "declared" is the default spelled out: byte-identical result.
    assert declared == off
    # Telemetry engages the estimator observe-only: identical modulo
    # the recording attachments themselves.
    assert off.perf is None and observed.perf is not None
    assert observed.perf.snapshots
    assert dataclasses.replace(observed, telemetry=None, perf=None) == off


def test_estimator_live_overhead_under_five_percent(benchmark, fast_mode):
    """Per-tick counter deltas must vanish into the live pacing budget."""
    spec = get_workload("tpcw/shopping")
    config = spec.replication_config(1)
    rate = 30.0
    trace = DiurnalTrace(base_rate=rate, peak_rate=rate, period=24.0)
    kwargs = dict(
        design="multi-master", seed=7,
        warmup=2.0, duration=8.0 if fast_mode else 16.0,
        control_interval=1.0, slo_response=3.0,
        time_scale=0.1, max_replicas=3, config=config,
    )

    def timed(telemetry):
        started = time.perf_counter()
        result = autoscale_cluster(spec, trace, FixedPolicy(replicas=2),
                                   telemetry=telemetry, **kwargs)
        return time.perf_counter() - started, result

    def compare():
        # Off first: both runs then share warm code paths.
        off_seconds, off = timed(None)
        on_seconds, on = timed(TelemetryConfig())
        return off_seconds, off, on_seconds, on

    off_seconds, off, on_seconds, on = run_once(benchmark, compare)
    assert off.converged and on.converged
    assert off.perf is None
    assert on.perf is not None and on.perf.snapshots

    ratio = on_seconds / off_seconds
    benchmark.extra_info["off_seconds"] = off_seconds
    benchmark.extra_info["on_seconds"] = on_seconds
    benchmark.extra_info["overhead_ratio"] = ratio
    print(f"\nestimator overhead: off {off_seconds:.2f}s, "
          f"on {on_seconds:.2f}s, ratio {ratio:.3f}")
    assert ratio < 1.05
