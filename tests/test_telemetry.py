"""Tests for the unified telemetry layer (repro.telemetry).

Three contracts matter most and each gets direct coverage here:

* **Disabled is free and invisible** — a run without telemetry returns
  results identical to one with it (same seeds, same virtual clock),
  and the result object carries ``telemetry=None``.
* **Both pillars speak one schema** — the simulator and the live
  cluster emit the same shared metric names, with certifier queue
  depth and replication lag populated on both.
* **Exports round-trip** — span JSONL validates against its schema,
  converts to Chrome trace format, and metrics render as Prometheus
  text.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.core.errors import ConfigurationError
from repro.core.params import ConflictProfile, ReplicationConfig, WorkloadMix
from repro.telemetry import (
    Span,
    Telemetry,
    TelemetryConfig,
    TelemetryEvent,
    Tracer,
    active_config,
    render_dashboard,
    render_events,
)
from repro.telemetry import export as tel_export
from repro.telemetry import schema as tel_schema
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.spec import WorkloadSpec, demands_ms

# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_counter_accumulates_per_label_set():
    registry = MetricsRegistry()
    registry.counter("hits", kind="read").inc()
    registry.counter("hits", kind="read").inc(2.0)
    registry.counter("hits", kind="update").inc()
    samples = {s.labels: s.value for s in registry.snapshot()}
    assert samples[(("kind", "read"),)] == 3.0
    assert samples[(("kind", "update"),)] == 1.0


def test_gauge_tracks_high_water_mark():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    gauge.add(1.0)
    gauge.add(2.0)
    gauge.add(-3.0)
    (sample,) = registry.snapshot()
    assert sample.value == 0.0
    assert sample.max_value == 3.0


def test_histogram_bucket_edges_are_upper_bound_inclusive():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", bounds=(0.1, 0.5, 1.0))
    # Exactly on a bound lands in that bound's bucket (Prometheus
    # convention: bucket counts v <= bound).
    for value in (0.1, 0.5, 1.0):
        hist.observe(value)
    hist.observe(0.05)   # below the first bound
    hist.observe(2.0)    # overflow (+Inf bucket)
    (sample,) = registry.snapshot()
    assert sample.buckets == (2, 1, 1, 1)
    assert sample.count == 5
    assert sample.sum == pytest.approx(3.65)
    # Quantiles report the bucket upper bound, saturating at the
    # largest finite bound for overflow observations.
    assert sample.quantile(0.5) == 0.5
    assert sample.quantile(1.0) == 1.0


def test_histogram_rejects_unsorted_bounds():
    registry = MetricsRegistry()
    with pytest.raises(ConfigurationError):
        registry.histogram("bad", bounds=(1.0, 0.5))


def test_metric_kind_collision_is_an_error():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ConfigurationError):
        registry.gauge("x")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def test_tracer_sampling_is_deterministic_and_proportional():
    tracer = Tracer(sample_rate=0.25)
    sampled = [tracer.start_trace() is not None for _ in range(100)]
    assert sum(sampled) == 25
    # Error-diffusion sampling: same rate, same pattern, every run.
    again = Tracer(sample_rate=0.25)
    assert sampled == [again.start_trace() is not None for _ in range(100)]


def test_tracer_zero_rate_records_nothing():
    tracer = Tracer(sample_rate=0.0)
    assert all(tracer.start_trace() is None for _ in range(10))
    assert tracer.spans == []


def test_tracer_caps_spans_and_counts_drops():
    tracer = Tracer(sample_rate=1.0, max_spans=2)
    trace = tracer.start_trace()
    for i in range(4):
        tracer.add_span(trace, "route", float(i), float(i) + 0.5)
    assert len(tracer.spans) == 2
    assert tracer.dropped == 2


def test_tracer_version_map_links_appliers_to_traces():
    tracer = Tracer(sample_rate=1.0)
    trace = tracer.start_trace()
    tracer.note_version(7, trace)
    assert tracer.trace_for(7) == trace
    assert tracer.trace_for(8) is None


# ----------------------------------------------------------------------
# Events (the ops timeline rides the telemetry schema)
# ----------------------------------------------------------------------


def test_ops_event_is_a_telemetry_event_with_replica_alias():
    from repro.ops.events import OpsEvent

    event = OpsEvent(12.0, "detect", "replica1", "crashed")
    assert isinstance(event, TelemetryEvent)
    assert event.replica == "replica1"
    assert event.subject == "replica1"
    assert OpsEvent(3.0, "join", subject="replica9").replica == "replica9"


def test_ops_event_renders_like_any_timeline_event():
    from repro.ops.events import OpsEvent

    event = OpsEvent(12.0, "detect", "replica1")
    assert event.to_text() == TelemetryEvent(12.0, "detect", "replica1").to_text()
    lines = render_events([TelemetryEvent(5.0, "crash", "r0"), event])
    assert len(lines) == 2 and "crash" in lines[0] and "detect" in lines[1]


def test_ops_event_unpickles_legacy_replica_field():
    from repro.ops.events import OpsEvent

    event = pickle.loads(pickle.dumps(OpsEvent(1.0, "detect", "replica2")))
    assert event.replica == "replica2"
    # Pickles written before the telemetry layer stored the subject
    # under the old field name.
    legacy = OpsEvent.__new__(OpsEvent)
    legacy.__setstate__({"time": 2.0, "kind": "detach", "replica": "old",
                         "detail": ""})
    assert legacy.subject == "old" and legacy.replica == "old"


# ----------------------------------------------------------------------
# Disabled fast path + DES-vs-live schema parity
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_spec():
    """A millisecond-scale mix so instrumented runs finish quickly."""
    return WorkloadSpec(
        benchmark="micro",
        mix_name="telemetry-tiny",
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
        description="tiny mix for telemetry tests",
    )


def _config(spec, replicas):
    return ReplicationConfig(
        replicas=replicas,
        clients_per_replica=spec.clients_per_replica,
        think_time=spec.think_time,
        load_balancer_delay=0.0005,
        certifier_delay=0.002,
    )


@pytest.fixture(scope="module")
def pillar_pair(tiny_spec):
    """One small point run on both executable pillars with telemetry."""
    from repro.cluster import run_cluster
    from repro.simulator.runner import simulate

    config = _config(tiny_spec, 2)
    telemetry = TelemetryConfig(span_sample_rate=0.2,
                                snapshot_interval=1.0)
    sim = simulate(tiny_spec, config, design="multi-master", seed=13,
                   warmup=2.0, duration=10.0, telemetry=telemetry)
    live = run_cluster(tiny_spec, config, design="multi-master", seed=13,
                       warmup=1.0, duration=6.0, time_scale=0.05,
                       telemetry=telemetry)
    return sim, live


#: One DES point per (design x certification path): every assembly of
#: the one protocol body, the one-member standalone database included.
#: The sharded path needs a partitioned spec.
PROTOCOL_CASES = [
    pytest.param("multi-master", None, 2, id="mm"),
    pytest.param("single-master", None, 2, id="sm"),
    pytest.param("multi-master", "sharded", 2, id="mm-sharded"),
    pytest.param("standalone", None, 1, id="standalone"),
]


@pytest.mark.parametrize("design,certifier,replicas", PROTOCOL_CASES)
def test_simulator_results_identical_with_telemetry_off_and_on(
        tiny_spec, design, certifier, replicas):
    from repro.simulator.runner import simulate

    if certifier == "sharded":
        tiny_spec = tiny_spec.with_partitions(4, 0.2)
    config = _config(tiny_spec, replicas)
    kwargs = dict(design=design, certifier=certifier, seed=13,
                  warmup=2.0, duration=10.0)
    off = simulate(tiny_spec, config, **kwargs)
    on = simulate(tiny_spec, config,
                  telemetry=TelemetryConfig(span_sample_rate=0.5), **kwargs)
    assert off.telemetry is None
    assert on.telemetry is not None
    # Recording must not perturb the simulation: strip the attachment
    # and every other field — seeds, clocks, counters — is identical.
    assert dataclasses.replace(on, telemetry=None) == off


def test_null_and_real_recorder_expose_the_same_hooks():
    """A hook cannot be added to one sink only: protocol code calls the
    recorder unguarded, so the null and the real one must agree on every
    public method name and signature."""
    import inspect

    from repro.telemetry import recorder

    def hooks(cls):
        return {
            # Parameters only: begin() returns each sink's own kind.
            name: inspect.signature(member).replace(
                return_annotation=inspect.Signature.empty
            )
            for name, member in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")
        }

    for null, real in [
        (recorder.NullRecorder, recorder.ProtocolRecorder),
        (recorder.NullTransaction, recorder.TransactionRecorder),
    ]:
        assert hooks(null) == hooks(real)
        assert hooks(null)  # the comparison is not vacuous
    fleet = recorder.ProtocolRecorder(
        Telemetry(TelemetryConfig(), pillar="simulator"), lambda: 0.0
    )
    assert isinstance(fleet.begin(), recorder.TransactionRecorder)
    assert isinstance(recorder.NULL_RECORDER.begin(),
                      recorder.NullTransaction)


def test_active_config_normalises_flags():
    assert active_config(None) is None
    assert active_config(False) is None
    assert active_config(True) == TelemetryConfig()
    disabled = TelemetryConfig(enabled=False)
    assert active_config(disabled) is None


def test_both_pillars_emit_the_shared_metric_schema(pillar_pair):
    sim, live = pillar_pair
    sim_names = sim.telemetry.metric_names()
    live_names = live.telemetry.metric_names()
    assert tel_schema.SHARED_SCHEMA <= sim_names
    assert tel_schema.SHARED_SCHEMA <= live_names
    # The live pillar's extras are exactly the documented live-only set.
    assert live_names - sim_names <= tel_schema.LIVE_ONLY


def test_queue_depth_and_replication_lag_populated_on_both(pillar_pair):
    for result in pillar_pair:
        telemetry = result.telemetry
        depth = telemetry.find(tel_schema.CERTIFIER_QUEUE_DEPTH)
        assert depth is not None and depth.max_value > 0
        replicas = telemetry.label_values(
            tel_schema.REPLICATION_LAG_VERSIONS, "replica"
        )
        assert len(replicas) == 2
        assert telemetry.timeline, "no fleet snapshots recorded"


def test_both_pillars_record_the_same_span_names(pillar_pair):
    sim, live = pillar_pair
    expected = {tel_schema.SPAN_ROUTE, tel_schema.SPAN_EXECUTE,
                tel_schema.SPAN_CERTIFY, tel_schema.SPAN_PROPAGATE,
                tel_schema.SPAN_APPLY}
    for result in (sim, live):
        assert {s.name for s in result.telemetry.spans} == expected


def test_dashboard_renders_for_both_pillars(pillar_pair):
    for result in pillar_pair:
        text = render_dashboard(result.telemetry)
        assert "telemetry dashboard" in text
        assert tel_schema.TXN_COMMITS in text


# ----------------------------------------------------------------------
# Export: JSONL, Chrome trace, Prometheus text
# ----------------------------------------------------------------------


def _example_spans():
    return [
        Span(trace_id=1, span_id=1, name="route", start=0.0, end=0.1,
             subject="replica0", tags=(("policy", "least-loaded"),)),
        Span(trace_id=1, span_id=2, name="certify", start=0.1, end=0.2,
             subject="certifier", parent_id=1,
             tags=(("committed", "True"),)),
    ]


def test_span_jsonl_roundtrip_validates(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    written = tel_export.write_spans_jsonl(path, _example_spans(),
                                           pillar="simulator")
    assert written == 2
    loaded = tel_export.load_spans_jsonl(path)
    assert [d["name"] for d in loaded] == ["route", "certify"]
    assert all(d["pillar"] == "simulator" for d in loaded)
    assert all(not tel_export.validate_span_dict(d) for d in loaded)


def test_span_validation_rejects_malformed_records(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"name": "route"}) + "\n")
    with pytest.raises(ValueError):
        tel_export.load_spans_jsonl(path)


def test_chrome_trace_conversion(tmp_path):
    dicts = [tel_export.span_to_dict(s, "simulator")
             for s in _example_spans()]
    trace = tel_export.chrome_trace(dicts)
    # "X" duration events per span, plus "M" process/thread metadata.
    durations = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(durations) == 2
    assert durations[0]["dur"] == pytest.approx(1e5)
    out = str(tmp_path / "trace.json")
    tel_export.write_chrome_trace(out, dicts)
    with open(out) as handle:
        assert json.load(handle) == trace


def test_export_cli_validate_and_chrome(tmp_path, capsys):
    path = str(tmp_path / "spans.jsonl")
    tel_export.write_spans_jsonl(path, _example_spans(), pillar="cluster")
    assert tel_export.main(["validate", path]) == 0
    out = str(tmp_path / "trace.json")
    assert tel_export.main(["chrome", path, out]) == 0
    with open(out) as handle:
        assert json.load(handle)["traceEvents"]


def test_prometheus_text_renders_cumulative_buckets():
    registry = MetricsRegistry()
    registry.counter("txn_commits_total").inc(5)
    hist = registry.histogram("lat_seconds", bounds=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    text = tel_export.prometheus_text(registry.snapshot())
    assert "# TYPE txn_commits_total counter" in text
    assert "txn_commits_total 5" in text
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert "lat_seconds_count 3" in text


def test_prometheus_export_surfaces_drops_and_audit_gauges(tiny_spec):
    """Span-ring data loss and the auditor's verdict are first-class
    metrics: they must show up in the Prometheus export, not just the
    dashboard footer."""
    from repro.simulator.runner import simulate

    config = _config(tiny_spec, 2)
    run = simulate(
        tiny_spec, config, design="multi-master", seed=13,
        warmup=2.0, duration=8.0,
        telemetry=TelemetryConfig(span_sample_rate=1.0, max_spans=4,
                                  span_ring=True, audit=True),
    )
    assert run.telemetry.spans_dropped > 0
    text = tel_export.prometheus_text(run.telemetry.samples)
    assert tel_schema.SPANS_DROPPED in text
    assert (f"{tel_schema.SPANS_DROPPED} "
            f"{float(run.telemetry.spans_dropped):g}") in text
    assert tel_schema.AUDIT_CHECKS in text
    assert tel_schema.AUDIT_VIOLATIONS in text
    assert run.telemetry.audit is not None
    assert run.telemetry.audit.total_violations == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_metrics_smoke(tmp_path, capsys):
    from repro.cli import main

    trace_out = str(tmp_path / "spans.jsonl")
    code = main([
        "metrics", "--workload", "tpcw/shopping", "--pillar", "simulator",
        "--replicas", "2", "--warmup", "2", "--duration", "8",
        "--span-rate", "0.2", "--trace-out", trace_out,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "telemetry dashboard — simulator pillar" in out
    assert tel_schema.CERTIFIER_QUEUE_DEPTH in out
    assert tel_export.load_spans_jsonl(trace_out)
