"""Benchmark: self-healing operations on both execution pillars.

Regenerates the operations scenarios through the engine and asserts the
headline operability claims:

* after an injected crash, automatic replacement recovers at least 90% of
  the pre-fault throughput, with zero lost or duplicated committed
  writesets (convergence + identical final versions) and a bounded MTTR —
  on both the deterministic simulator and the live cluster runtime;
* a rolling upgrade cycles the whole fleet with no SLO-violation spike
  beyond the single-replica-out envelope (measured by actually running
  the same trace on an N-1 fleet);
* on a heterogeneous fleet, capacity-aware routing at least matches
  least-loaded and beats capacity-oblivious routing by a wide margin.
"""

from __future__ import annotations

from conftest import run_once

from repro.control.autoscale import autoscale_sim
from repro.control.controller import FixedPolicy
from repro.control.scenarios import SLO_RESPONSE, _design_capacity, sim_dims
from repro.engine import run_scenario
from repro.ops.events import summarize
from repro.ops.scenarios import FLEET, ROLLING_LOAD, _steady_trace
from repro.simulator.runner import MULTI_MASTER, SINGLE_MASTER
from repro.workloads import tpcw


def _by_design(comparison):
    """An ops comparison's runs, keyed by design."""
    return {result.design: result for result in comparison.results}


def _check_selfheal(result, expected_crashes, mttr_bound):
    summary = summarize(result)
    assert summary.crashes == expected_crashes, summary
    assert summary.replacements == expected_crashes, summary
    assert summary.mttr is not None and summary.mttr <= mttr_bound, summary
    # >= 90% of pre-fault throughput after the last repair.
    assert summary.recovery_ratio >= 0.90, summary
    # Zero lost or duplicated committed writesets: every surviving
    # replica converged to the identical final version.
    assert result.converged, result
    assert len(set(result.final_versions)) <= 1, result.final_versions
    assert result.final_members == FLEET


def test_selfheal_simulator(benchmark, settings, fast_mode):
    """Crash storm + automatic replacement on both designs (simulator)."""
    comparison = run_once(
        benchmark,
        lambda: run_scenario("selfheal-crashstorm", settings, jobs=1,
                             cache=None),
    )
    print("\n" + comparison.to_text())
    mttr_bound = 3.0 * settings.autoscale_control_interval
    results = _by_design(comparison)
    for design in (MULTI_MASTER, SINGLE_MASTER):
        _check_selfheal(results[design], expected_crashes=2,
                        mttr_bound=mttr_bound)


def test_selfheal_live_cluster(benchmark, settings, fast_mode):
    """The same claim live: crash, detect, replace on real threads."""
    comparison = run_once(
        benchmark,
        lambda: run_scenario("selfheal-crashstorm-live", settings, jobs=1,
                             cache=None),
    )
    print("\n" + comparison.to_text())
    result = _by_design(comparison)[MULTI_MASTER]
    summary = summarize(result)
    assert summary.crashes == 1 and summary.replacements == 1, summary
    assert summary.mttr is not None and summary.mttr <= 6.0, summary
    assert summary.recovery_ratio >= 0.90, summary
    assert result.converged
    assert len(set(result.final_versions)) <= 1, result.final_versions


def _single_replica_out_envelope(settings, design):
    """SLO-violation fraction of an N-1 fleet on the rolling trace."""
    spec = tpcw.SHOPPING
    capacity = _design_capacity(design, sim_dims(settings, spec), settings)
    trace = _steady_trace(ROLLING_LOAD * capacity,
                          settings.autoscale_duration)
    result = autoscale_sim(
        spec, trace, FixedPolicy(replicas=FLEET - 1),
        design=design,
        seed=settings.seed,
        warmup=settings.autoscale_warmup,
        duration=settings.autoscale_duration,
        control_interval=settings.autoscale_control_interval,
        slo_response=SLO_RESPONSE,
        max_replicas=2 * FLEET,
        config=spec.replication_config(
            1,
            load_balancer_delay=settings.load_balancer_delay,
            certifier_delay=settings.certifier_delay,
        ),
    )
    return result.slo_violation_fraction


def test_rolling_upgrade_simulator(benchmark, settings, fast_mode):
    """Rolling restart completes within the single-replica-out envelope."""
    comparison = run_once(
        benchmark,
        lambda: run_scenario("rolling-upgrade", settings, jobs=1,
                             cache=None),
    )
    print("\n" + comparison.to_text())
    results = _by_design(comparison)
    for design in (MULTI_MASTER, SINGLE_MASTER):
        result = results[design]
        summary = summarize(result)
        cycled = FLEET if design == MULTI_MASTER else FLEET - 1
        assert summary.upgrades == cycled, summary
        assert any(e.kind == "rolling-complete" for e in result.ops_events)
        # Never more than one replica out, and back to full strength.
        assert min(p.members for p in result.timeline) >= FLEET - 1
        assert result.final_members == FLEET
        # No SLO spike beyond what permanently running one replica short
        # would produce on the same trace.
        envelope = _single_replica_out_envelope(settings, design)
        assert result.slo_violation_fraction <= envelope + 0.01, (
            f"{design}: rolling violations "
            f"{result.slo_violation_fraction:.2%} exceed the "
            f"single-replica-out envelope {envelope:.2%}"
        )
        assert result.converged


def test_rolling_upgrade_live_cluster(benchmark, settings, fast_mode):
    """Rolling restart on the live cluster: whole fleet, no divergence."""
    comparison = run_once(
        benchmark,
        lambda: run_scenario("rolling-upgrade-live", settings, jobs=1,
                             cache=None),
    )
    print("\n" + comparison.to_text())
    result = _by_design(comparison)[MULTI_MASTER]
    summary = summarize(result)
    assert summary.upgrades == 3, summary
    assert any(e.kind == "rolling-complete" for e in result.ops_events)
    assert min(p.members for p in result.timeline) >= 2
    assert result.slo_violation_fraction <= 0.05
    assert result.converged
    assert len(set(result.final_versions)) <= 1


def test_hetero_fleet_simulator(benchmark, settings, fast_mode):
    """Capacity-aware routing on a mixed fleet (open-loop load)."""
    comparison = run_once(
        benchmark,
        lambda: run_scenario("hetero-fleet", settings, jobs=1, cache=None),
    )
    print("\n" + comparison.to_text())
    weighted = comparison.cell("capacity-weighted")
    least = comparison.cell("least-loaded")
    oblivious = comparison.cell("random")
    assert weighted is not None and least is not None
    assert oblivious is not None
    # Capacity weighting at least matches the feedback policy...
    assert weighted.response_time <= 1.05 * least.response_time
    # ... and beats capacity-oblivious routing by a wide margin: the
    # random control saturates the half-speed box.
    assert weighted.response_time < 0.25 * oblivious.response_time
    assert weighted.throughput >= oblivious.throughput
    # The model sized the same inventory (mixed-fleet planning works).
    assert comparison.notes[0].startswith("model sizing: ")
