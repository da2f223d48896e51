"""Command-line interface: profile, predict, simulate, and reproduce.

Examples::

    repro workloads
    repro scenarios
    repro profile tpcw/shopping
    repro predict tpcw/shopping --design multi-master --replicas 1 2 4 8 16
    repro simulate tpcw/shopping --design single-master --replicas 8
    repro crossval --workload tpcw --replicas 4
    repro run figure6 --fast --jobs 4
    repro run table3 error-margin --fast
    repro run autoscale-diurnal autoscale-diurnal-live --timeline --fast
    repro scenarios --profile figure6 --fast
    repro reproduce --fast --jobs 8

Every figure, table, ablation and operations experiment is a registered
scenario, run by its canonical name (``repro scenarios`` lists them)
through the sweep engine: ``--jobs N`` fans sweep points out over a
process pool (identical results to serial execution) and completed points
are cached on disk (``--no-cache`` disables; ``$REPRO_CACHE_DIR`` moves
the cache), so interrupted or repeated runs are incremental.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
import time
from typing import List, Optional, Tuple

from . import experiments
from .core.errors import ConfigurationError, EngineError, ReproError
from .core.rng import DEFAULT_SEED
from .core.topology import DESIGNS, REPLICATED_DESIGNS
from .core.units import to_ms
from .engine import (
    BROKEN,
    HOLDS,
    RUN_WIDE,
    ClaimRow,
    UnknownScenarioError,
    UnknownTagError,
    execute_points,
    get_scenario,
    point_timings,
    resolve_cache,
    run_scenario,
    scenario_names,
    scenario_names_with_tag,
    scenario_points,
)
from .models.api import predict
from .simulator.runner import simulate
from .simulator.systems import LB_POLICIES
from .workloads import get_workload, workload_names

def _settings(args) -> experiments.ExperimentSettings:
    settings = (
        experiments.ExperimentSettings.fast()
        if getattr(args, "fast", False)
        else experiments.ExperimentSettings()
    )
    if getattr(args, "audit", False):
        settings = settings.audited()
    if getattr(args, "certifier", None) is not None:
        settings = settings.with_certifier(args.certifier)
    if getattr(args, "capacity_source", None) is not None:
        settings = settings.with_capacity_source(args.capacity_source)
    return settings


def _certifier_arg(value: str) -> str:
    """Validate ``--certifier`` eagerly so typos exit 2 with a hint."""
    from .sidb.certifier_api import UnknownCertifierError, resolve_certifier_spec

    try:
        resolve_certifier_spec(value)
    except UnknownCertifierError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _capacity_source_arg(value: str) -> str:
    """Validate ``--capacity-source`` eagerly so typos exit 2 with a hint."""
    from .control.estimator import resolve_capacity_source
    from .core.errors import ConfigurationError

    try:
        resolve_capacity_source(value)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _cache(args) -> object:
    """Disk cache argument for the engine (``--no-cache`` disables)."""
    if getattr(args, "no_cache", False):
        return None
    return "default"


def _jobs(args) -> Optional[int]:
    """--jobs value; ``None`` means one worker per CPU."""
    return getattr(args, "jobs", 1)


def _cmd_workloads(args) -> int:
    for name in workload_names():
        spec = get_workload(name)
        print(f"{name:<18s} Pr={spec.mix.read_fraction:.0%} "
              f"C={spec.clients_per_replica} — {spec.description}")
    return 0


def _cmd_scenarios(args) -> int:
    tag = getattr(args, "tag", None)
    tagged = None
    if tag is not None:
        try:
            tagged = scenario_names_with_tag(tag)
        except UnknownTagError as exc:
            print(f"repro scenarios: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "profile", False):
        try:
            return _profile_scenarios(args, tagged)
        except UnknownScenarioError as exc:
            print(f"repro scenarios: {exc}", file=sys.stderr)
            return 2
    names = getattr(args, "names", None) or tagged or scenario_names()
    for name in names:
        try:
            scenario = get_scenario(name)
        except UnknownScenarioError as exc:
            print(f"repro scenarios: {exc}", file=sys.stderr)
            return 2
        if tagged is not None and scenario.name not in tagged:
            continue  # explicit names restricted by --tag
        print(f"{scenario.name:<26s} [{scenario.kind}] {scenario.title}")
    if not getattr(args, "names", None) and tagged is None:
        print(f"{len(names)} scenarios; run any with: repro run <name> "
              f"[<name> ...] (the paper's artifacts via repro reproduce)")
    return 0


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def _profile_scenarios(args, tagged=None) -> int:
    """Run the named scenarios and break down per-point wall-clock.

    The sweep runner times every point it executes (and notes cache
    serves); this view aggregates those timings per scenario — the
    p50/p95/max of executed-point seconds — and reports scenarios
    sorted by total wall-clock, slowest first, so contributors see
    exactly where a reproduction's time goes.  *tagged* is the --tag
    selection: it stands in for explicit names, and restricts them
    when both are given.
    """
    if not args.names and tagged is None:
        # Running the whole registry (live-cluster scenarios included, at
        # full settings) from what reads as a listing command would be a
        # multi-hour surprise; make the workload explicit.
        print("repro scenarios --profile: name the scenarios to profile, "
              "e.g.: repro scenarios --profile figure6 table3 --fast",
              file=sys.stderr)
        return 2
    names = args.names or tagged
    if tagged is not None and args.names:
        names = [
            name for name in args.names
            if get_scenario(name).name in tagged
        ]
    settings = _settings(args)
    profiles = []
    for name in names:
        scenario = get_scenario(name)
        started = time.time()
        # run_scenario scopes the timing log to this run.
        run_scenario(scenario, settings, jobs=_jobs(args), cache=_cache(args))
        profiles.append((scenario, time.time() - started, point_timings()))
    # Slowest scenario first: the profile exists to answer "where does
    # the wall-clock go", so lead with the biggest consumer.
    for scenario, elapsed, timings in sorted(profiles, key=lambda p: -p[1]):
        executed = [t for t in timings if not t.cached]
        cached = len(timings) - len(executed)
        busy = sum(t.seconds for t in executed)
        seconds = sorted(t.seconds for t in executed)
        print(f"{scenario.name}: {elapsed:.2f}s wall "
              f"({len(timings)} points: {cached} cached, "
              f"{len(executed)} executed, {busy:.2f}s point work; "
              f"p50 {_quantile(seconds, 0.5):.2f}s "
              f"p95 {_quantile(seconds, 0.95):.2f}s "
              f"max {_quantile(seconds, 1.0):.2f}s per point)")
        for timing in sorted(executed, key=lambda t: -t.seconds)[:8]:
            share = timing.seconds / busy if busy > 0 else 0.0
            print(f"    {timing.seconds:>8.2f}s {share:>5.0%}  "
                  f"{timing.description}")
    grand_total = sum(elapsed for _, elapsed, _ in profiles)
    print(f"total: {grand_total:.2f}s wall across {len(profiles)} "
          f"scenario(s)")
    return 0


def _cmd_profile(args) -> int:
    from .profiling import profile_standalone

    spec = get_workload(args.workload)
    report = profile_standalone(spec, seed=args.seed)
    profile = report.profile
    print(f"workload: {report.workload}")
    print(f"  Pr/Pw measured: {profile.mix.read_fraction:.3f} / "
          f"{profile.mix.write_fraction:.3f}")
    for klass in ("read", "write", "writeset"):
        demand = profile.demands.get(klass)
        print(f"  {klass:<9s} cpu {to_ms(demand.cpu):7.2f} ms   "
              f"disk {to_ms(demand.disk):7.2f} ms")
    print(f"  L(1) = {to_ms(profile.update_response_time):.1f} ms, "
          f"A1 = {profile.abort_rate:.4%}")
    print(f"  standalone: {report.standalone_throughput:.1f} tps @ "
          f"{to_ms(report.standalone_response_time):.0f} ms")
    return 0


def _cmd_predict(args) -> int:
    spec = get_workload(args.workload)
    settings = _settings(args)
    profile = experiments.get_profile(spec, settings)
    print(f"{args.workload} on {args.design} (predicted from standalone profile)")
    print(f"  {'N':>3s} {'throughput':>12s} {'response':>10s} {'aborts':>8s}")
    for n in args.replicas:
        prediction = predict(args.design, profile, spec.replication_config(n))
        print(f"  {n:>3d} {prediction.throughput:>8.1f} tps "
              f"{to_ms(prediction.response_time):>7.1f} ms "
              f"{prediction.abort_rate:>7.3%}")
    return 0


def _cmd_simulate(args) -> int:
    spec = get_workload(args.workload)
    print(f"{args.workload} on {args.design} (discrete-event simulation)")
    print(f"  {'N':>3s} {'throughput':>12s} {'response':>10s} {'aborts':>8s}")
    for n in args.replicas:
        result = simulate(
            spec,
            spec.replication_config(n),
            design=args.design,
            seed=args.seed,
            warmup=args.warmup,
            duration=args.duration,
        )
        print(f"  {n:>3d} {result.throughput:>8.1f} tps "
              f"{to_ms(result.response_time):>7.1f} ms "
              f"{result.abort_rate:>7.3%}")
    return 0


def _telemetry_empty(result) -> bool:
    """True when a run recorded no telemetry at all (or none attached)."""
    if result is None:
        return True
    return not (result.spans or result.events or result.samples)


def _instrumented_run(args, pillar: str, verb: str = "running"):
    """Run one point of ``args.workload`` on *pillar* under the
    :class:`TelemetryConfig` the telemetry flags describe; returns the
    run's :class:`TelemetryResult` (``None`` when nothing attached)."""
    from .cluster import run_cluster
    from .telemetry import TelemetryConfig

    spec = get_workload(args.workload)
    options = dict(
        design=args.design, seed=args.seed, warmup=args.warmup,
        duration=args.duration,
        telemetry=TelemetryConfig(
            span_sample_rate=args.span_rate,
            snapshot_interval=args.interval,
            max_spans=args.max_spans,
            span_ring=args.span_ring,
            audit=args.audit,
        ),
    )
    print(f"{verb} {args.workload} on {args.design} "
          f"(N={args.replicas}, {pillar} pillar)...", file=sys.stderr)
    config = spec.replication_config(args.replicas)
    if pillar == "simulator":
        return simulate(spec, config, **options).telemetry
    return run_cluster(spec, config, time_scale=args.time_scale,
                       **options).telemetry


def _cmd_metrics(args) -> int:
    """One instrumented run (or pillar pair) with exports.

    ``--pillar both`` is the schema-parity check in command form: the
    simulator and the live cluster must emit the same shared metric
    names from the same workload, or the command fails.
    """
    from .telemetry import export as tel_export
    from .telemetry import render_dashboard
    from .telemetry.schema import SHARED_SCHEMA

    pillars = (
        ("simulator", "cluster") if args.pillar == "both"
        else (args.pillar,)
    )
    results = {pillar: _instrumented_run(args, pillar) for pillar in pillars}

    if all(_telemetry_empty(result) for result in results.values()):
        print("no telemetry recorded (telemetry disabled?)")
        return 0
    for result in results.values():
        print(render_dashboard(result))
        print()

    code = 0
    for pillar, result in results.items():
        audit = getattr(result, "audit", None)
        if audit is not None and not audit.ok:
            print(f"FAIL: {pillar} pillar audit found "
                  f"{audit.total_violations} invariant violation(s)")
            code = 1
        missing = SHARED_SCHEMA - result.metric_names()
        if missing:
            print(f"FAIL: {pillar} pillar did not emit "
                  f"{', '.join(sorted(missing))}")
            code = 1
    if len(results) == 2 and code == 0:
        live_only = (results["cluster"].metric_names()
                     - results["simulator"].metric_names())
        print(f"schema parity: both pillars emitted all "
              f"{len(SHARED_SCHEMA)} shared metric names"
              + (f" (live adds {', '.join(sorted(live_only))})"
                 if live_only else ""))

    if args.trace_out:
        spans = [(pillar, span)
                 for pillar, result in results.items()
                 for span in result.spans]
        written = tel_export.write_spans_jsonl(args.trace_out, spans)
        print(f"wrote {written} spans to {args.trace_out}")
    if args.chrome_out:
        span_dicts = [tel_export.span_to_dict(span, pillar)
                      for pillar, result in results.items()
                      for span in result.spans]
        tel_export.write_chrome_trace(args.chrome_out, span_dicts)
        print(f"wrote Chrome trace to {args.chrome_out} "
              f"(load via chrome://tracing or ui.perfetto.dev)")
    if args.prom_out:
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            for pillar, result in results.items():
                handle.write(f"# pillar: {pillar}\n")
                handle.write(tel_export.prometheus_text(result.samples))
        print(f"wrote Prometheus text exposition to {args.prom_out}")
    if args.json_out:
        import json

        payload = {
            pillar: {
                "metrics": [
                    {"name": s.name, "kind": s.kind,
                     "labels": dict(s.labels), "value": s.value,
                     "max_value": s.max_value, "sum": s.sum,
                     "count": s.count}
                    for s in result.samples
                ],
                "spans": len(result.spans),
                "spans_dropped": result.spans_dropped,
                "snapshots": len(result.timeline),
                "events": [
                    {"time": e.time, "kind": e.kind,
                     "subject": e.subject, "detail": e.detail}
                    for e in result.events
                ],
            }
            for pillar, result in results.items()
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote metrics JSON to {args.json_out}")
    return code


def _cmd_trace(args) -> int:
    """Causal replication tracing: one instrumented run, analysed.

    Traces every transaction (``--span-rate 1`` by default), links each
    committed writeset's certify span to its per-replica apply spans,
    and prints the critical-path breakdown (certifier queue / channel /
    apply) plus the snapshot-staleness distributions.  ``--audit`` runs
    the online invariant auditor alongside and fails on any violation;
    ``--chrome-out`` exports the multi-track Chrome trace (one track
    per replica plus the shared certifier track).
    """
    from .telemetry import (
        causal_traces,
        critical_path,
        render_critical_path,
        staleness_summary,
        write_causal_chrome_trace,
    )

    result = _instrumented_run(args, args.pillar, verb="tracing")
    if _telemetry_empty(result):
        print("no telemetry recorded (telemetry disabled?)")
        return 0

    traces = causal_traces(result)
    committed = sum(1 for trace in traces if trace.committed)
    print(f"causal graph: {len(traces)} traces ({committed} committed), "
          f"{len(result.spans)} spans")
    print(render_critical_path(critical_path(result)))
    staleness = staleness_summary(result)
    if staleness:
        print()
        for line in staleness:
            print(line)
    if result.spans_dropped:
        mode = "oldest evicted" if args.span_ring else "newest discarded"
        print(f"!! SPANS DROPPED: {result.spans_dropped} ({mode}; "
              f"max_spans={args.max_spans})")

    if args.chrome_out:
        write_causal_chrome_trace(args.chrome_out, result)
        print(f"wrote multi-track Chrome trace to {args.chrome_out} "
              f"(load via chrome://tracing or ui.perfetto.dev)")

    audit = getattr(result, "audit", None)
    if audit is not None:
        if audit.ok:
            print(f"audit: PASS — {audit.total_checks} checks, "
                  f"zero invariant violations")
        else:
            print(f"FAIL: audit found {audit.total_violations} "
                  f"invariant violation(s)")
            for violation in audit.violations[:20]:
                print("  " + violation.to_text())
            return 1
    return 0


def _cmd_crossval(args) -> int:
    spec = experiments.resolve_workload(args.workload)
    print(
        f"cross-validating {spec.name} on {args.design} at N={args.replicas} "
        f"(model + simulator + live cluster)...", file=sys.stderr,
    )
    result = experiments.cross_validate(
        spec,
        spec.replication_config(args.replicas),
        design=args.design,
        seed=args.seed,
        sim_warmup=args.sim_warmup,
        sim_duration=args.sim_duration,
        cluster_warmup=args.warmup,
        cluster_duration=args.duration,
        time_scale=args.time_scale,
        lb_policy=args.lb_policy,
        jobs=_jobs(args),
    )
    print(result.to_text())
    if not result.state_converged:
        print("FAIL: live replicas did not converge to identical state")
        return 1
    return 0


#: CLI spelling of each run-wide option.
_RUN_WIDE_FLAGS = {"telemetry": "--audit", "certifier": "--certifier",
                   "capacity_source": "--capacity-source"}


def _unreached_flags(scenario, settings, points) -> List[str]:
    """Run-wide flags *settings* carry that no point of *scenario* runs
    under: the scenario sweeps the axis itself, or none of its points
    can take the option."""
    return [
        _RUN_WIDE_FLAGS[name] for name in RUN_WIDE
        if getattr(settings, name) is not None and (
            name in scenario.owns
            or all(point.option(name) != getattr(settings, name)
                   for point in points)
        )
    ]


def _audit_report(result):
    """The :class:`repro.audit.AuditReport` an audited point result
    carries on its telemetry, else ``None``."""
    return getattr(getattr(result, "telemetry", None), "audit", None)


def _run_failures(points, results, artifact=None, claims=()) -> List[str]:
    """Correctness failures of one scenario run: its broken claims, then
    what the raw point results the engine holds say.

    Live results record whether the replicas converged to identical
    state, and audited runs (``--audit``) attach an
    :class:`repro.audit.AuditReport` to each result's telemetry; a
    non-converged point or an invariant violation must fail the command,
    not exit 0 behind a pretty table.  The artifact adds its own
    ``converged`` verdict when it has one.
    """
    failures = [f"{row.scenario}: {row.statement} = {row.value:.4g}, "
                f"claimed {row.bound} ({row.source})"
                for row in claims if row.verdict == BROKEN]
    if getattr(artifact, "converged", True) is False:
        failures.append("artifact did not converge")
    for point, result in zip(points, results):
        label = (f"{point.tag or point.backend} "
                 f"[{point.backend} {point.design} N={point.replicas}]")
        converged = getattr(result, "state_converged",
                            getattr(result, "converged", True))
        if converged is False:
            failures.append(f"{label} did not converge")
        audit = _audit_report(result)
        if audit is not None and not audit.ok:
            worst = "; ".join(v.to_text() for v in audit.violations[:3])
            failures.append(f"{label}: {audit.total_violations} audit "
                            f"violation(s) [{worst}]")
    return failures


def _print_timelines(results) -> None:
    """``--timeline``: the perf report (when the run estimated capacity)
    and the per-interval timeline of every elastic run among *results*."""
    from .control.autoscale import AutoscaleResult, render_timeline

    for result in results:
        if not isinstance(result, AutoscaleResult):
            continue
        if result.perf is not None:
            print()
            print(result.perf.to_text())
        print()
        print(render_timeline(result))


def _claims_table(rows) -> str:
    """One line per judged claim, under a count of the verdicts."""
    verdicts = [row.verdict for row in rows]
    holds, broken = verdicts.count(HOLDS), verdicts.count(BROKEN)
    width = max(len(row.statement) for row in rows)
    lines = [f"claims: {holds} hold, {broken} broken, "
             f"{len(rows) - holds - broken} not checked",
             f"  {'scenario':<23s} {'source':<10s} {'claim':<{width}s} "
             f"{'value':>9s} {'bound':<16s} verdict"]
    for row in rows:
        value = "-" if row.value is None else f"{row.value:.4g}"
        lines.append(f"  {row.scenario:<23s} {row.source:<10s} "
                     f"{row.statement:<{width}s} {value:>9s} "
                     f"{row.bound:<16s} {row.verdict}")
    return "\n".join(lines)


def _run_registered(args, scenario) -> Tuple[int, List[ClaimRow]]:
    """Run one scenario, print its artifact and failures; returns the
    exit status and the scenario's judged claims."""
    settings = _settings(args)
    disk = resolve_cache(_cache(args))
    started = time.time()
    try:
        points = scenario_points(scenario, settings, cache=disk)
        unreached = _unreached_flags(scenario, settings, points)
        if unreached:
            raise ConfigurationError(
                f"{', '.join(unreached)} reaches no point of "
                f"{scenario.name!r}"
            )
    except ConfigurationError as exc:
        # An option combination the grid cannot run is a usage error:
        # one line, before any point runs.
        print(f"repro: [{scenario.name}] {exc}", file=sys.stderr)
        return 2, []
    try:
        results = execute_points(
            points,
            jobs=_jobs(args),
            cache=disk,
            progress=lambda line: print(f"[{scenario.name}] {line}",
                                        file=sys.stderr),
        )
        artifact = scenario.assemble(settings, points, results)
    except (EngineError, ReproError) as exc:
        # A backend that cannot produce the point — most commonly a
        # live-cluster cell that failed to converge or drain — must fail
        # the command with one readable line, not a traceback (CI smoke
        # jobs grep stderr, not stack frames).
        lines = str(exc).strip().splitlines()
        message = lines[-1] if lines else repr(exc)
        print(f"repro: [{scenario.name}] error: {message}", file=sys.stderr)
        return 1, []
    print(artifact.to_text())
    if getattr(args, "timeline", False):
        _print_timelines(results)
    print(f"[{scenario.name}] {time.time() - started:.1f}s wall-clock",
          file=sys.stderr)
    claims = scenario.judge(settings, artifact)
    failures = _run_failures(points, results, artifact, claims)
    for failure in failures:
        print(f"FAIL: {failure}")
    audits = [audit for audit in map(_audit_report, results)
              if audit is not None]
    if audits and not failures:
        print(f"audit: PASS — {len(audits)} point(s) audited, "
              f"{sum(a.total_checks for a in audits)} checks, "
              f"zero invariant violations")
    return (1 if failures else 0), claims


def _cmd_run(args) -> int:
    """``run``: the named scenarios in order, then one table of every
    claim they declare; the worst exit status wins.  An unknown name
    exits 2 before anything runs."""
    try:
        scenarios = [get_scenario(name) for name in args.names]
    except UnknownScenarioError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    code, claims = 0, []
    for scenario in scenarios:
        status, rows = _run_registered(args, scenario)
        code, claims = max(code, status), claims + rows
    if claims:
        print()
        print(_claims_table(claims))
    return code


def _cmd_reproduce(args) -> int:
    """``reproduce``: ``run`` over every scenario of the paper's report;
    ``--out`` also writes the printed text to a file."""
    args.names = experiments.REPORT_SCENARIOS
    if not args.out:
        return _cmd_run(args)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = _cmd_run(args)
    sys.stdout.write(buffer.getvalue())
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(buffer.getvalue())
    print(f"wrote {args.out}", file=sys.stderr)
    return code


def _cmd_plan(args) -> int:
    from .models.planning import plan_deployment, plan_mixed_fleet

    spec = get_workload(args.workload)
    settings = _settings(args)
    profile = experiments.get_profile(spec, settings)
    if args.capacities:
        # Mixed-fleet sizing: pick machines from a heterogeneous
        # inventory instead of counting identical replicas.
        plan = plan_mixed_fleet(
            profile,
            spec.replication_config(1),
            target_throughput=args.target,
            capacities=args.capacities,
            max_response_time=args.max_response,
            headroom=args.headroom,
        )
        if plan is None:
            print(f"the inventory cannot serve {args.target:.0f} tps"
                  + (f" at <= {args.max_response*1000:.0f} ms"
                     if args.max_response else ""))
            return 1
        print(f"{args.workload}: {plan.to_text()}")
        return 0
    plan = plan_deployment(
        profile,
        spec.replication_config(1),
        target_throughput=args.target,
        max_response_time=args.max_response,
        headroom=args.headroom,
    )
    if plan is None:
        print(f"no deployment meets {args.target:.0f} tps"
              + (f" at <= {args.max_response*1000:.0f} ms"
                 if args.max_response else ""))
        return 1
    print(f"{args.workload}: {plan.design} with {plan.replicas} replicas")
    print(f"  predicted {plan.predicted_throughput:.1f} tps at "
          f"{to_ms(plan.predicted_response_time):.0f} ms "
          f"(load factor {plan.load_factor:.0%})")
    return 0


def _add_engine_options(parser: argparse.ArgumentParser,
                        default_jobs: Optional[int] = 1) -> None:
    """--jobs / --no-cache, shared by every engine-driven command."""
    parser.add_argument(
        "--jobs", type=int, default=default_jobs,
        help="worker processes for the sweep (default: "
        + ("one per CPU" if default_jobs is None else str(default_jobs))
        + "); results are identical to serial runs",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="run every executable point with telemetry and the online "
        "invariant auditor attached; any violation fails the command",
    )
    parser.add_argument(
        "--certifier", type=_certifier_arg, default=None,
        metavar="{global,sharded}",
        help="certification protocol for multi-master points: 'global' "
        "(the default single sequencer; byte-identical results and "
        "cache keys to omitting the flag) or 'sharded' (per-partition "
        "certifier shards with distributed cross-partition commit)",
    )
    parser.add_argument(
        "--capacity-source", type=_capacity_source_arg, default=None,
        metavar="{declared,estimated}",
        help="where autoscale points take per-replica capacities from: "
        "'declared' (the configured multipliers; byte-identical results "
        "and cache keys to omitting the flag) or 'estimated' (the online "
        "capacity estimator's live values drive the LB weights and the "
        "controller's target)",
    )


def _add_instrumented_options(parser: argparse.ArgumentParser, pillars,
                              span_rate: float, pillar_help: str,
                              span_rate_help: str) -> None:
    """The one-instrumented-point flags ``metrics`` and ``trace`` share
    (read by :func:`_instrumented_run`)."""
    parser.add_argument("--workload", default="tpcw/shopping")
    parser.add_argument("--design", choices=REPLICATED_DESIGNS,
                        default="multi-master")
    parser.add_argument("--pillar", choices=pillars, default="simulator",
                        help=pillar_help)
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--warmup", type=float, default=5.0)
    parser.add_argument("--duration", type=float, default=20.0)
    parser.add_argument("--time-scale", type=float, default=0.1,
                        help="wall seconds per virtual second (cluster "
                        "pillar)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="timeline snapshot interval (virtual seconds)")
    parser.add_argument("--span-rate", type=float, default=span_rate,
                        help=span_rate_help)
    parser.add_argument("--max-spans", type=int, default=50_000,
                        help="retained-span cap (drops are counted loudly)")
    parser.add_argument("--span-ring", action="store_true",
                        help="ring-buffer span retention: keep the latest "
                        "max-spans spans instead of the first")
    parser.add_argument("--audit", action="store_true",
                        help="run the online invariant auditor alongside; "
                        "any violation fails the command")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Predict replicated-database scalability from standalone "
        "profiling (EuroSys 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list built-in workloads").set_defaults(
        func=_cmd_workloads
    )

    p = sub.add_parser(
        "scenarios",
        help="list every registered scenario (--profile: run and show "
        "per-point wall-clock)",
    )
    p.add_argument("names", nargs="*",
                   help="restrict to these scenarios")
    p.add_argument("--tag", default=None,
                   help="list only scenarios carrying this tag (a kind "
                   "like figure|ablation|autoscale|ops|partition, or an "
                   "extra tag like live)")
    p.add_argument("--profile", action="store_true",
                   help="EXECUTE the selected scenarios (explicit names, "
                   "or a whole --tag family — live cells included, so "
                   "consider --fast) and report where the wall-clock "
                   "goes, point by point")
    p.add_argument("--fast", action="store_true",
                   help="with --profile: use fast experiment settings")
    _add_engine_options(p)
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("profile", help="profile a workload on the standalone sim")
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("predict", help="predict replicated performance")
    p.add_argument("workload")
    p.add_argument("--design", choices=REPLICATED_DESIGNS,
                   default="multi-master")
    p.add_argument("--replicas", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    p.add_argument("--fast", action="store_true",
                   help="use fast profiling settings")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate", help="measure replicated performance")
    p.add_argument("workload")
    p.add_argument("--design",
                   choices=DESIGNS,
                   default="multi-master")
    p.add_argument("--replicas", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--warmup", type=float, default=10.0)
    p.add_argument("--duration", type=float, default=60.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "metrics",
        help="run one instrumented point and show the telemetry "
        "dashboard (spans, metrics, timeline; exportable)",
    )
    _add_instrumented_options(
        p, pillars=("simulator", "cluster", "both"), span_rate=0.1,
        pillar_help="execution pillar; 'both' also checks that the "
        "two pillars emit the same shared metric schema",
        span_rate_help="fraction of transactions traced as spans (0-1)",
    )
    p.add_argument("--trace-out", default=None,
                   help="write sampled spans to this JSONL file")
    p.add_argument("--chrome-out", default=None,
                   help="write a Chrome-trace JSON conversion of the spans")
    p.add_argument("--prom-out", default=None,
                   help="write metrics in Prometheus text format")
    p.add_argument("--json-out", default=None,
                   help="write the full metric/event payload as JSON")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "trace",
        help="causal replication tracing: critical-path breakdown of "
        "one instrumented run (optionally audited)",
    )
    _add_instrumented_options(
        p, pillars=("simulator", "cluster"), span_rate=1.0,
        pillar_help="execution pillar",
        span_rate_help="fraction of transactions traced (default: all, "
        "so the causal graph is complete)",
    )
    p.add_argument("--chrome-out", default=None,
                   help="write the multi-track causal Chrome trace "
                   "(one track per replica) to this JSON file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "crossval",
        help="cross-validate model, simulator, and live cluster on one point",
    )
    p.add_argument("--workload", default="tpcw",
                   help="workload name; bare benchmark names pick the "
                   "primary mix (tpcw -> tpcw/shopping)")
    p.add_argument("--design", choices=REPLICATED_DESIGNS,
                   default="multi-master")
    p.add_argument("--replicas", type=int, default=4)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--warmup", type=float, default=5.0,
                   help="live-cluster warm-up (virtual seconds)")
    p.add_argument("--duration", type=float, default=20.0,
                   help="live-cluster measurement window (virtual seconds)")
    p.add_argument("--sim-warmup", type=float, default=10.0)
    p.add_argument("--sim-duration", type=float, default=40.0)
    p.add_argument("--time-scale", type=float, default=0.1,
                   help="wall seconds per virtual second in the live cluster")
    p.add_argument("--lb-policy", choices=LB_POLICIES, default="least-loaded")
    p.add_argument("--jobs", type=int, default=1,
                   help="run the three pillars concurrently with --jobs 3")
    p.set_defaults(func=_cmd_crossval)

    p = sub.add_parser(
        "run", help="run registered scenarios by name (see: repro scenarios)"
    )
    p.add_argument("names", nargs="+", metavar="name",
                   help="canonical scenario names, run in order")
    p.add_argument("--timeline", action="store_true",
                   help="also print each elastic run's perf report and "
                   "per-interval timeline")
    p.add_argument("--fast", action="store_true")
    _add_engine_options(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "reproduce", help="regenerate every table and figure and judge "
        "every claim of the paper (exit 1 on a broken one)"
    )
    p.add_argument("--fast", action="store_true")
    p.add_argument("--out", default=None,
                   help="also write the printed report to this file")
    _add_engine_options(p, default_jobs=None)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("plan", help="size a deployment for a target load")
    p.add_argument("workload")
    p.add_argument("--target", type=float, required=True,
                   help="target throughput (tps)")
    p.add_argument("--max-response", type=float, default=None,
                   help="latency SLA in seconds")
    p.add_argument("--headroom", type=float, default=0.1)
    p.add_argument("--capacities", type=float, nargs="+", default=None,
                   help="size a heterogeneous fleet from this machine "
                   "inventory (speed multipliers, e.g. 2 1 1 0.5)")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.  A refused option combination is a usage error on
    every verb: one line, ``repro <verb>: <message>``, and exit 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
