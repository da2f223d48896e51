"""Causal tracing, invariant auditing, and SLO burn-rate monitoring.

The PR-8 observability contracts:

* the causal trace graph is deterministic and carries the same edge
  schema on both executable pillars;
* the critical-path breakdown attributes >= 95% of measured replication
  lag to the certifier-queue / channel / apply hops;
* the online auditor is pure bookkeeping — a DES run is bit-identical
  with it on or off — and flags lost, duplicated, and mis-scoped
  writesets when fed corrupted event streams;
* the SLO monitor computes multi-window error-budget burns that surface
  on autoscale timelines and in the telemetry gauge set;
* the ring-buffer span store keeps the latest window and counts drops
  loudly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.audit import AuditReport, Auditor
from repro.audit import auditor as audit_mod
from repro.control.slo import (
    ABORT,
    LATENCY,
    BurnRate,
    SLOMonitor,
    max_burn,
)
from repro.core.errors import ConfigurationError
from repro.core.params import ConflictProfile, ReplicationConfig, WorkloadMix
from repro.telemetry import (
    TelemetryConfig,
    causal_traces,
    critical_path,
    edge_schema,
    render_critical_path,
    render_dashboard,
    staleness_summary,
)
from repro.telemetry import schema as tel_schema
from repro.telemetry.causal import causal_chrome_trace
from repro.workloads.spec import WorkloadSpec, demands_ms


@pytest.fixture(scope="module")
def tiny_spec():
    """A millisecond-scale mix so instrumented runs finish quickly."""
    return WorkloadSpec(
        benchmark="micro",
        mix_name="causal-tiny",
        mix=WorkloadMix(read_fraction=0.6, write_fraction=0.4),
        demands=demands_ms(
            read_cpu=3.0, read_disk=1.0,
            write_cpu=2.0, write_disk=1.0,
            writeset_cpu=0.5, writeset_disk=0.3,
        ),
        clients_per_replica=4,
        think_time=0.05,
        conflict=ConflictProfile(db_update_size=500,
                                 updates_per_transaction=2),
        description="tiny mix for causal/audit tests",
    )


def _config(spec, replicas):
    return ReplicationConfig(
        replicas=replicas,
        clients_per_replica=spec.clients_per_replica,
        think_time=spec.think_time,
        load_balancer_delay=0.0005,
        certifier_delay=0.002,
    )


_TELEMETRY = TelemetryConfig(span_sample_rate=1.0, audit=True)


@pytest.fixture(scope="module")
def audited_pair(tiny_spec):
    """One fully-traced, audited point on both executable pillars."""
    from repro.cluster import run_cluster
    from repro.simulator.runner import simulate

    config = _config(tiny_spec, 2)
    sim = simulate(tiny_spec, config, design="multi-master", seed=13,
                   warmup=2.0, duration=10.0, telemetry=_TELEMETRY)
    live = run_cluster(tiny_spec, config, design="multi-master", seed=13,
                       warmup=1.0, duration=6.0, time_scale=0.05,
                       telemetry=_TELEMETRY)
    return sim, live


# ----------------------------------------------------------------------
# Causal graph
# ----------------------------------------------------------------------


def test_causal_graph_is_deterministic(tiny_spec):
    from repro.simulator.runner import simulate

    config = _config(tiny_spec, 2)
    kwargs = dict(design="multi-master", seed=13, warmup=2.0, duration=8.0,
                  telemetry=TelemetryConfig(span_sample_rate=1.0))
    first = causal_traces(simulate(tiny_spec, config, **kwargs).telemetry)
    second = causal_traces(simulate(tiny_spec, config, **kwargs).telemetry)
    assert first == second
    assert any(trace.committed for trace in first)


def test_edge_schema_parity_between_pillars(audited_pair):
    sim, live = audited_pair
    expected = {
        (tel_schema.SPAN_ROUTE, tel_schema.SPAN_EXECUTE),
        (tel_schema.SPAN_EXECUTE, tel_schema.SPAN_CERTIFY),
        (tel_schema.SPAN_CERTIFY, tel_schema.SPAN_PROPAGATE),
        (tel_schema.SPAN_PROPAGATE, tel_schema.SPAN_APPLY),
    }
    assert edge_schema(sim.telemetry) == expected
    assert edge_schema(live.telemetry) == expected


def test_committed_traces_link_certify_to_every_remote_apply(audited_pair):
    sim, _ = audited_pair
    committed = [t for t in causal_traces(sim.telemetry) if t.committed]
    assert committed
    replicas = {"replica0", "replica1"}
    full = 0
    for trace in committed:
        origins = {
            span.subject for span in trace.spans
            if span.name == tel_schema.SPAN_EXECUTE
        }
        appliers = {
            edge.subject for edge in trace.edges
            if edge.child == tel_schema.SPAN_APPLY
        }
        # The origin applies at commit; apply spans trace the remote
        # propagation hops, so a committed writeset reaches every
        # non-origin replica (tail traces may end mid-propagation).
        full += appliers == replicas - origins
        assert trace.version is not None
    assert full >= 0.9 * len(committed)


def test_critical_path_attributes_the_replication_lag(audited_pair):
    for run in audited_pair:
        report = critical_path(run.telemetry)
        assert report.traces_committed > 0
        assert report.hops
        # The acceptance bar: the three hops account for >= 95% of the
        # measured end-to-end lag (clamping is the only loss).
        assert report.attributed_fraction >= 0.95
        text = render_critical_path(report)
        assert "certifier queue" in text
        assert "attributed" in text


def test_causal_chrome_trace_has_one_track_per_replica(audited_pair):
    sim, _ = audited_pair
    trace = causal_chrome_trace(sim.telemetry)
    names = [
        event["args"]["name"] for event in trace["traceEvents"]
        if event["ph"] == "M"
    ]
    assert "certifier [simulator]" in names
    assert sum("replica" in name for name in names) == 2
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    kinds = {slice_["name"].split(" ")[0] for slice_ in slices}
    assert kinds == {"certify", "channel", "apply"}


def test_staleness_distributions_recorded_on_both(audited_pair):
    for run in audited_pair:
        telemetry = run.telemetry
        for name in (tel_schema.SNAPSHOT_STALENESS_VERSIONS,
                     tel_schema.SNAPSHOT_STALENESS_SECONDS):
            replicas = telemetry.label_values(name, "replica")
            assert len(replicas) == 2, f"{name} missing replicas"
        lines = staleness_summary(
            telemetry, hosted={"replica0": (0,), "replica1": (1,)}
        )
        assert any("snapshot staleness" in line for line in lines)
        assert any("per-partition" in line for line in lines)


# ----------------------------------------------------------------------
# Auditor: bit-identity and run-level verdicts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("design,certifier,replicas", [
    pytest.param("multi-master", None, 2, id="mm"),
    pytest.param("single-master", None, 2, id="sm"),
    pytest.param("multi-master", "sharded", 2, id="mm-sharded"),
    pytest.param("standalone", None, 1, id="standalone"),
])
def test_sim_results_identical_with_auditor_on_and_off(
        tiny_spec, design, certifier, replicas):
    from repro.simulator.runner import simulate

    if certifier == "sharded":
        tiny_spec = tiny_spec.with_partitions(4, 0.2)
    config = _config(tiny_spec, replicas)
    kwargs = dict(design=design, certifier=certifier, seed=13,
                  warmup=2.0, duration=10.0)
    off = simulate(tiny_spec, config, **kwargs)
    audited = simulate(tiny_spec, config, telemetry=_TELEMETRY, **kwargs)
    audit = audited.telemetry.audit
    # Every design runs the one protocol body, so every one is audited.
    assert audit.ok, [v.to_text() for v in audit.violations]
    assert audit.commits_seen > 0
    # The auditor is pure bookkeeping: stripping the telemetry
    # attachment leaves a bit-identical simulation result.
    assert dataclasses.replace(audited, telemetry=None) == off


def test_clean_runs_audit_green_on_both_pillars(audited_pair):
    for run in audited_pair:
        audit = run.telemetry.audit
        assert isinstance(audit, AuditReport)
        assert audit.ok, [v.to_text() for v in audit.violations]
        assert audit.commits_seen > 0
        assert audit.deliveries_seen > 0
        assert audit.applies_seen > 0
        # Every invariant was actually exercised.
        exercised = {name for name, count in audit.checks if count > 0}
        assert audit_mod.COMMIT_ORDER in exercised
        assert audit_mod.DELIVERY_ORDER in exercised
        assert audit_mod.APPLY_ONCE in exercised


def test_dashboard_shows_the_audit_verdict(audited_pair):
    sim, _ = audited_pair
    text = render_dashboard(sim.telemetry)
    assert "audit: PASS" in text


# ----------------------------------------------------------------------
# Auditor: violation detection (corrupted event streams)
# ----------------------------------------------------------------------


def _clean_auditor():
    auditor = Auditor()
    auditor.on_attach("replica0", 0)
    auditor.on_attach("replica1", 0)
    return auditor


def test_auditor_passes_a_clean_stream():
    auditor = _clean_auditor()
    for version in (1, 2, 3):
        auditor.on_commit(version, (0,), "replica0")
        for replica in ("replica0", "replica1"):
            auditor.on_deliver(replica, version)
            auditor.on_apply(replica, version,
                             charged=replica != "replica0",
                             hosted_partitions=None)
    report = auditor.report()
    assert report.ok
    assert report.commits_seen == 3


def test_auditor_flags_a_commit_gap():
    auditor = _clean_auditor()
    auditor.on_commit(1, (), "replica0")
    auditor.on_commit(3, (), "replica0")  # v2 vanished
    report = auditor.report()
    violations = {v.invariant for v in report.violations}
    assert audit_mod.COMMIT_ORDER in violations


def test_auditor_flags_lost_and_duplicated_deliveries():
    auditor = _clean_auditor()
    for version in (1, 2, 3):
        auditor.on_commit(version, (), "replica0")
    auditor.on_deliver("replica1", 1)
    auditor.on_deliver("replica1", 3)  # v2 lost
    auditor.on_deliver("replica1", 3)  # duplicated
    report = auditor.report()
    invariants = [v.invariant for v in report.violations]
    assert audit_mod.DELIVERY_GAP in invariants
    assert audit_mod.DELIVERY_ORDER in invariants


def test_auditor_flags_double_apply():
    auditor = _clean_auditor()
    auditor.on_commit(1, (), "replica0")
    auditor.on_deliver("replica1", 1)
    auditor.on_apply("replica1", 1, charged=True)
    auditor.on_apply("replica1", 1, charged=True)
    report = auditor.report()
    assert any(v.invariant == audit_mod.APPLY_ONCE
               for v in report.violations)


def test_auditor_flags_partition_scope_breaches():
    auditor = _clean_auditor()
    auditor.on_commit(1, (0,), "replica0")
    # replica1 hosts only partition 1 yet was charged for partition 0.
    auditor.on_apply("replica1", 1, charged=True,
                     hosted_partitions=frozenset((1,)))
    auditor.on_commit(2, (0,), "replica0")
    # The origin must never pay for its own writeset.
    auditor.on_apply("replica0", 2, charged=True,
                     hosted_partitions=frozenset((0,)))
    report = auditor.report()
    scope = [v for v in report.violations
             if v.invariant == audit_mod.PARTITION_SCOPE]
    assert len(scope) == 2


def test_auditor_tolerates_crash_and_rejoin():
    auditor = _clean_auditor()
    for version in (1, 2):
        auditor.on_commit(version, (), "replica0")
        auditor.on_deliver("replica1", version)
        auditor.on_apply("replica1", version, charged=True)
    auditor.on_crash("replica1")
    # Deliveries to a dead replica are dropped by design, not flagged.
    auditor.on_commit(3, (), "replica0")
    auditor.on_deliver("replica1", 3)
    # Rejoin via state transfer at v3: delivery resumes above it.
    auditor.on_attach("replica1", 3)
    auditor.on_commit(4, (), "replica0")
    auditor.on_deliver("replica1", 4)
    auditor.on_apply("replica1", 4, charged=True)
    assert auditor.report().ok


# ----------------------------------------------------------------------
# SLO monitor
# ----------------------------------------------------------------------


def test_burn_is_bad_fraction_over_budget():
    monitor = SLOMonitor(latency_budget=0.05, abort_budget=0.10,
                         windows=(("5m", 300.0),))
    burns = monitor.observe(10.0, commits=100, violations=5, aborts=0)
    assert max_burn(burns, LATENCY) == pytest.approx(1.0)
    assert max_burn(burns, ABORT) == 0.0
    burns = monitor.observe(20.0, commits=100, violations=25, aborts=100)
    # 30/200 bad over the window against a 5% budget = 3.0x burn.
    assert max_burn(burns, LATENCY) == pytest.approx(3.0)
    # 100 aborts over 300 attempts against a 10% budget.
    assert max_burn(burns, ABORT) == pytest.approx((100 / 300) / 0.10)


def test_short_window_reacts_long_window_smooths():
    monitor = SLOMonitor(latency_budget=0.05,
                         windows=(("10s", 10.0), ("100s", 100.0)))
    for tick in range(9):
        monitor.observe(float(tick * 10), commits=100, violations=0)
    burns = monitor.observe(90.0, commits=100, violations=50)
    by_window = {b.window: b.burn for b in burns if b.signal == LATENCY}
    # The 10s window sees the bad interval plus one clean one (50/200
    # bad = 5x budget); the 100s window dilutes it to exactly budget —
    # the multi-window alerting shape.
    assert by_window["10s"] == pytest.approx(5.0)
    assert by_window["100s"] == pytest.approx(1.0)
    assert monitor.latest() == burns


def test_old_intervals_age_out_of_every_window():
    monitor = SLOMonitor(windows=(("10s", 10.0),))
    monitor.observe(0.0, commits=10, violations=10)
    burns = monitor.observe(1000.0, commits=10, violations=0)
    assert max_burn(burns) == 0.0


def test_monitor_rejects_bad_configuration():
    with pytest.raises(ConfigurationError):
        SLOMonitor(latency_budget=0.0)
    with pytest.raises(ConfigurationError):
        SLOMonitor(windows=())
    with pytest.raises(ConfigurationError):
        SLOMonitor(windows=(("bad", -1.0),))


def test_burn_rate_text_and_empty_max():
    assert BurnRate("5m", LATENCY, 2.5).to_text() == "latency[5m]=2.50"
    assert max_burn(()) == 0.0


def test_autoscale_timeline_carries_slo_burn(tiny_spec):
    from repro.control import DiurnalTrace, ReactivePolicy, autoscale_sim

    result = autoscale_sim(
        tiny_spec,
        DiurnalTrace(base_rate=20.0, peak_rate=60.0, period=60.0),
        ReactivePolicy(initial_replicas=2),
        "multi-master",
        seed=7, warmup=5.0, duration=60.0, control_interval=5.0,
        slo_response=0.8, max_replicas=4, transfer_writesets=8,
        telemetry=TelemetryConfig(audit=True),
    )
    assert result.timeline
    assert all(point.slo_burn for point in result.timeline)
    windows = {b.window for p in result.timeline for b in p.slo_burn}
    signals = {b.signal for p in result.timeline for b in p.slo_burn}
    assert windows == {"5m", "1h"}
    assert signals == {LATENCY, ABORT}
    # The burn also lands in the telemetry gauge set, labelled.
    sample = result.telemetry.find(tel_schema.SLO_BURN_RATE,
                                   window="5m", signal=LATENCY)
    assert sample is not None
    # And the rendered timeline exposes the burn column.
    from repro.control import render_timeline

    assert "burn" in render_timeline(result)
    assert result.telemetry.audit.ok


def test_controller_observation_exposes_max_slo_burn():
    from repro.control.controller import ControlObservation

    observation = ControlObservation(
        now=0.0, members=2, attached=2, offered_rate=10.0, commits=50,
        throughput=10.0, mean_response=0.1, p95_response=0.2,
        max_utilization=0.5,
        slo_burn=(BurnRate("5m", LATENCY, 2.0), BurnRate("1h", ABORT, 0.5)),
    )
    assert observation.max_slo_burn == pytest.approx(2.0)
    bare = dataclasses.replace(observation, slo_burn=())
    assert bare.max_slo_burn == 0.0


# ----------------------------------------------------------------------
# Ring-buffer span store
# ----------------------------------------------------------------------


def test_ring_buffer_keeps_the_latest_spans_and_counts_drops(tiny_spec):
    from repro.simulator.runner import simulate

    config = _config(tiny_spec, 2)
    kwargs = dict(design="multi-master", seed=13, warmup=2.0, duration=10.0)
    ring = simulate(tiny_spec, config, telemetry=TelemetryConfig(
        span_sample_rate=1.0, max_spans=64, span_ring=True), **kwargs)
    head = simulate(tiny_spec, config, telemetry=TelemetryConfig(
        span_sample_rate=1.0, max_spans=64, span_ring=False), **kwargs)
    for run in (ring, head):
        assert len(run.telemetry.spans) <= 64
        assert run.telemetry.spans_dropped > 0
    # Ring mode retains the recent window, head mode the oldest.
    assert (min(s.start for s in ring.telemetry.spans)
            > min(s.start for s in head.telemetry.spans))
    text = render_dashboard(ring.telemetry)
    assert "SPANS DROPPED" in text
    assert "oldest evicted" in text
    assert "newest discarded" in render_dashboard(head.telemetry)


# ----------------------------------------------------------------------
# CLI: trace verb, metrics notice, audited scenario failures
# ----------------------------------------------------------------------


def test_cli_trace_smoke(tmp_path, capsys):
    from repro.cli import main

    chrome_out = str(tmp_path / "causal.json")
    code = main([
        "trace", "--workload", "tpcw/shopping", "--replicas", "2",
        "--warmup", "2", "--duration", "8", "--audit",
        "--chrome-out", chrome_out,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "replication critical path" in out
    assert "audit: PASS" in out
    import json

    with open(chrome_out) as handle:
        assert json.load(handle)["metadata"]["kind"] == "causal"


def test_cli_metrics_reports_missing_telemetry(capsys, monkeypatch):
    import repro.cli as cli

    class _Empty:
        telemetry = None

    monkeypatch.setattr(cli, "simulate",
                        lambda *args, **kwargs: _Empty())
    code = cli.main(["metrics", "--pillar", "simulator",
                     "--warmup", "1", "--duration", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no telemetry recorded (telemetry disabled?)" in out


def test_artifact_failures_surface_audit_violations():
    from types import SimpleNamespace

    from repro.cli import _run_failures
    from repro.engine import scenario_points
    from repro.experiments.settings import ExperimentSettings

    violation = audit_mod.AuditViolation(
        invariant=audit_mod.APPLY_ONCE, subject="replica1", version=7,
        detail="applied more than once",
    )
    bad = AuditReport(checks=((audit_mod.APPLY_ONCE, 1),),
                      violations=(violation,))
    good = AuditReport(checks=((audit_mod.APPLY_ONCE, 1),))
    points = scenario_points("selfheal-crashstorm", ExperimentSettings.fast())
    results = [
        SimpleNamespace(converged=True, telemetry=SimpleNamespace(audit=bad)),
        SimpleNamespace(converged=True, telemetry=SimpleNamespace(audit=good)),
    ]
    failures = _run_failures(points, results)
    assert len(failures) == 1
    assert "audit violation" in failures[0]
    assert "multi-master" in failures[0]


def test_settings_audited_threads_telemetry_into_points():
    from repro.engine.scenario import autoscale_point, sim_point
    from repro.experiments.settings import ExperimentSettings

    settings = ExperimentSettings.fast().audited()
    assert settings.telemetry == TelemetryConfig(audit=True)
    spec = WorkloadSpec(
        benchmark="micro", mix_name="opt",
        mix=WorkloadMix(read_fraction=0.5, write_fraction=0.5),
        demands=demands_ms(read_cpu=1.0, read_disk=1.0, write_cpu=1.0,
                           write_disk=1.0, writeset_cpu=0.5,
                           writeset_disk=0.5),
        clients_per_replica=2, think_time=0.1,
        conflict=ConflictProfile(db_update_size=100,
                                 updates_per_transaction=1),
        description="options test",
    )
    config = _config(spec, 2)
    point = sim_point(spec, config, "multi-master", seed=1, warmup=1.0,
                      duration=1.0, telemetry=settings.telemetry)
    assert point.option("telemetry") == settings.telemetry
    # telemetry=None must stay out of the options (cache-key contract).
    bare = sim_point(spec, config, "multi-master", seed=1, warmup=1.0,
                     duration=1.0)
    assert bare.option("telemetry") is None
    assert all(key != "telemetry" for key, _ in bare.options)
    from repro.control import DiurnalTrace
    from repro.control.controller import FixedPolicy

    auto = autoscale_point(
        spec, config, "multi-master", seed=1,
        trace=DiurnalTrace(base_rate=1.0, peak_rate=2.0, period=10.0),
        policy=FixedPolicy(replicas=2), slo_response=1.0, warmup=1.0,
        duration=2.0, control_interval=1.0,
        telemetry=settings.telemetry,
    )
    assert auto.option("telemetry") == settings.telemetry
