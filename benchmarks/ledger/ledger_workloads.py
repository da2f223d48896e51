"""The seven ledger workloads.

Every workload takes the seed, builds its inputs from it in ``setup`` and
hands the program only those inputs.  ``run_pass`` does one fixed amount
of work, times it, checks the outputs and — when the recorder is enabled
— reads the pass-derived layer metrics off its own spans.  Sizes are set
so a pass is a few seconds on a 2-core box; the README says why each
workload exists and how its size differs from the issue's sketch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import statistics
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ledger_trace import Recorder, Stopwatch, digest

from repro import engine
from repro.cluster import run_cluster
from repro.core.errors import TransactionAborted
from repro.core.rng import make_rng
from repro.experiments import context, figures
from repro.experiments.settings import ExperimentSettings
from repro.models.api import DESIGNS, predict
from repro.models.planning import plan_deployment
from repro.profiling.profiler import profile_standalone
from repro.sidb.certifier import GlobalCertifier
from repro.sidb.engine import SIDatabase
from repro.sidb.transaction import Transaction
from repro.simulator.runner import MULTI_MASTER, SINGLE_MASTER, simulate
from repro.telemetry import TelemetryConfig
from repro.workloads import rubis, tpcw


class Checks:
    """In-run correctness checks: each counts as one attempted operation
    and, failed, makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return bool(ok)


@dataclass
class PassResult:
    wall: float
    cpu: float
    #: Units of the workload's own work done (``work_per_s`` numerator).
    work: int
    #: Operations attempted (checks are counted separately; an operation
    #: that fails raises, and the run ends without a result).
    attempted: int
    #: Identity of the deterministic outputs ("" when there is none).
    digest: str = ""
    #: Named end-to-end numbers only this workload has (medians over
    #: passes are reported).
    extras: Dict[str, float] = field(default_factory=dict)
    #: Pass-derived layer metrics (traced passes only).
    layer: Dict[str, float] = field(default_factory=dict)
    #: What :meth:`Workload.traced_extras` needs of a traced pass.
    kept: object = None


class Workload:
    """One named workload; see the module docstring for the protocol."""

    name = ""
    #: Set-ups per run (``setup_s`` is their median); fixed per workload
    #: so the median never flips between two rep counts.
    setup_reps = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self, checks: Checks) -> None:
        """Build the inputs and let lazy set-up finish (repeatable)."""
        raise NotImplementedError

    def run_pass(self, rec: Recorder, checks: Checks) -> PassResult:
        raise NotImplementedError

    def traced_extras(self, rec: Recorder, checks: Checks,
                      traced: PassResult,
                      untraced: List[PassResult]) -> Dict[str, float]:
        """Extra measurements a traced run makes beyond its traced pass."""
        return {}


# ---------------------------------------------------------------------------
# reproduce-cold / reproduce-warm
# ---------------------------------------------------------------------------

SWEEP = ("figure6", "figure8", "selfheal-crashstorm", "placement-ablation")
#: The warm sweep leaves selfheal-crashstorm out: building its grid sizes
#: the load trace with ~0.4 s of uncached, seed-sensitive model
#: predictions, a hundred times the cache traffic of every other point
#: together — with it in, the workload would measure the model.
WARM_SWEEP = tuple(n for n in SWEEP if n != "selfheal-crashstorm")
#: Figures whose model-vs-DES error the paper bounds at 15%.
_VALIDATED = ("figure6", "figure8")


def _clear_memos() -> None:
    engine.clear_memo()
    context.clear_cache()
    figures.clear_sweep_cache()


@dataclass
class _Sweep:
    """What one run of a sweep produced, keyed by scenario."""

    texts: Dict[str, str] = field(default_factory=dict)
    artifacts: Dict[str, object] = field(default_factory=dict)
    timings: List[engine.PointTiming] = field(default_factory=list)
    scenario_s: Dict[str, float] = field(default_factory=dict)


def _run_sweep(names, settings, cache, rec: Recorder) -> _Sweep:
    sweep = _Sweep()
    for name in names:
        started = time.perf_counter()
        with rec.span(f"engine.run_scenario:{name}"):
            artifact = engine.run_scenario(name, settings, jobs=1,
                                           cache=cache)
        sweep.scenario_s[name] = time.perf_counter() - started
        sweep.artifacts[name] = artifact
        sweep.texts[name] = artifact.to_text()
        sweep.timings.extend(engine.point_timings())
    rec.count("engine.points", len(sweep.timings))
    rec.count("engine.cache_hits", sum(t.cached for t in sweep.timings))
    return sweep


def _model_errors(sweep: _Sweep) -> List[float]:
    return [
        row.throughput_error
        for name in _VALIDATED
        for series in sweep.artifacts[name].series.values()
        for row in series.rows
    ]


def _engine_layer(sweep: _Sweep) -> Dict[str, float]:
    by_backend: Dict[str, List[float]] = {}
    for timing in sweep.timings:
        by_backend.setdefault(timing.backend, []).append(timing.seconds)
    autoscale = by_backend.get("autoscale", ())
    return {
        "engine.backend_s.profile": sum(by_backend.get("profile", ())),
        "engine.backend_s.model": sum(by_backend.get("model", ())),
        "engine.backend_s.simulator": sum(by_backend.get("simulator", ())),
        "engine.backend_s.autoscale": sum(autoscale),
        # Scenario spans minus point seconds: grid building, keys,
        # cache traffic and assembly.
        "engine.overhead_s": (
            sum(sweep.scenario_s.values())
            - sum(t.seconds for t in sweep.timings)
        ),
        "control.autoscale_point_s":
            statistics.fmean(autoscale) if autoscale else 0.0,
    }


class Reproduce(Workload):
    """``engine.run_scenario`` over a sweep at ``fast()`` settings,
    ``jobs=1``: on a fresh empty cache (cold) or one filled in set-up
    (warm).  In-process memos are cleared before every pass."""

    warm = False
    sweep = SWEEP

    def setup(self, checks: Checks) -> None:
        self.settings = dataclasses.replace(
            ExperimentSettings.fast(), seed=self.seed
        )
        self.cache_dir: Optional[Path] = None
        _clear_memos()
        if self.warm:
            # Fill the cache the passes will replay: one cold sweep.
            self.cache_dir = Path(tempfile.mkdtemp(dir=self.workdir))
            self.cold = _run_sweep(
                self.sweep, self.settings,
                engine.ResultCache(self.cache_dir),
                Recorder(self.name, False),
            )
        else:
            # Resolve the scenarios and build their grids once, so the
            # registry's lazy imports and the source fingerprint are
            # paid before the first timed pass.
            for name in self.sweep:
                list(engine.get_scenario(name).points(self.settings))
            engine.cache.source_fingerprint()
        _clear_memos()

    def run_pass(self, rec: Recorder, checks: Checks) -> PassResult:
        cache_dir = self.cache_dir
        if not self.warm:
            cache_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        _clear_memos()
        with rec.span(f"pass:{self.name}"), Stopwatch() as watch:
            sweep = _run_sweep(self.sweep, self.settings,
                               engine.ResultCache(cache_dir), rec)
        if not self.warm:
            shutil.rmtree(cache_dir, ignore_errors=True)
        points = len(sweep.timings)
        hits = sum(t.cached for t in sweep.timings)
        extras = {}
        if self.warm:
            checks.expect(hits == points,
                          f"warm sweep ran {points - hits} uncached points")
            checks.expect(sweep.texts == self.cold.texts,
                          "warm artifacts differ from the cold ones")
        else:
            checks.expect(hits == 0, f"cold sweep had {hits} cache hits")
            errors = _model_errors(sweep)
            mean_error = statistics.fmean(errors)
            checks.expect(mean_error <= 0.15,
                          f"mean model-vs-DES error {mean_error:.1%} > 15%")
            extras["model_err_max_pct"] = max(errors) * 100.0
        result = PassResult(
            wall=watch.wall, cpu=watch.cpu, work=points, attempted=points,
            digest=digest(sorted(sweep.texts.items())), extras=extras,
        )
        if rec.enabled:
            result.layer = _engine_layer(sweep)
            if not self.warm:
                result.layer["experiments.model_err_max_pct"] = (
                    extras["model_err_max_pct"]
                )
            result.kept = sweep
        return result

    def traced_extras(self, rec, checks, traced, untraced):
        if self.warm:
            return {}
        # figure6 again on an empty cache, fanned over two workers.
        serial = traced.kept
        cache_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        _clear_memos()
        try:
            with rec.span("engine.run_scenario:figure6:jobs2"), \
                    Stopwatch() as watch:
                artifact = engine.run_scenario(
                    "figure6", self.settings, jobs=2,
                    cache=engine.ResultCache(cache_dir),
                )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            _clear_memos()
        checks.expect(artifact.to_text() == serial.texts["figure6"],
                      "figure6 with jobs=2 differs from the serial artifact")
        return {
            "engine.jobs2_speedup": serial.scenario_s["figure6"] / watch.wall
        }


class ReproduceCold(Reproduce):
    name = "reproduce-cold"


class ReproduceWarm(Reproduce):
    name = "reproduce-warm"
    warm = True
    sweep = WARM_SWEEP
    #: Set-up is a whole cold sweep; one is as steady as a pass of
    #: reproduce-cold and all the run's time budget allows.
    setup_reps = 1


# ---------------------------------------------------------------------------
# des-read-heavy / des-write-heavy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesPoint:
    """One ``simulate`` call of a DES workload."""

    label: str
    spec: object
    replicas: int
    design: str
    warmup: float
    duration: float
    certifier: Optional[str] = None
    #: Layer metric the point's simulated txns per wall second land in.
    metric: str = ""

    def run(self, seed: int, telemetry=None):
        return simulate(
            self.spec, self.spec.replication_config(self.replicas),
            design=self.design, seed=seed, warmup=self.warmup,
            duration=self.duration, certifier=self.certifier,
            telemetry=telemetry,
        )

    def shortened(self) -> "DesPoint":
        """The same point over a 1 s warm-up and a 2 s window."""
        return dataclasses.replace(self, warmup=1.0, duration=2.0)


def _sim_identity(result) -> str:
    """A simulation's statistics with the telemetry field left out."""
    return digest(dataclasses.replace(result, telemetry=None))


class DesWorkload(Workload):
    """A fixed list of simulator points, one ``simulate`` each."""

    points: tuple = ()
    #: True when every point certifies (Pw > 0), false when none does.
    certifies = True

    def setup(self, checks: Checks) -> None:
        # Short runs of every point: imports, numpy and the sampler's
        # lazy state are warm before the first timed pass.
        for point in self.points:
            point.shortened().run(self.seed)

    def run_pass(self, rec: Recorder, checks: Checks) -> PassResult:
        results, seconds = [], []
        with rec.span(f"pass:{self.name}"), Stopwatch() as watch:
            for point in self.points:
                started = time.perf_counter()
                with rec.span(f"simulator.simulate:{point.label}"):
                    results.append(point.run(self.seed))
                seconds.append(time.perf_counter() - started)
        committed = sum(r.committed_transactions for r in results)
        for point, result in zip(self.points, results):
            checks.expect(result.committed_transactions > 0,
                          f"{point.label}: no committed transactions")
            checks.expect(
                (result.total_certifications > 0) == self.certifies,
                f"{point.label}: {result.total_certifications} "
                "certifications",
            )
        rec.count("simulator.txns", committed)
        rec.count("simulator.certifications",
                  sum(r.total_certifications for r in results))
        rec.count("simulator.aborts",
                  sum(r.total_certification_aborts for r in results))
        result = PassResult(
            wall=watch.wall, cpu=watch.cpu, work=committed,
            attempted=committed,
            digest=digest([_sim_identity(r) for r in results]),
        )
        if rec.enabled:
            result.layer = {
                point.metric: r.committed_transactions / s
                for point, r, s in zip(self.points, results, seconds)
            }
            result.kept = {
                point.label: (r, s)
                for point, r, s in zip(self.points, results, seconds)
            }
        return result


class DesReadHeavy(DesWorkload):
    name = "des-read-heavy"
    certifies = False
    points = (
        DesPoint("read_mm", rubis.BROWSING, 16, MULTI_MASTER, 5.0, 60.0,
                 metric="simulator.read_mm_txn_per_s"),
    )


#: Observers a DES run must be bit-identical under, and is priced with.
_OBSERVERS = (
    ("telemetry", "telemetry.des_overhead_pct", TelemetryConfig()),
    ("audit", "audit.des_overhead_pct", TelemetryConfig(audit=True)),
)

#: A small multi-master run for the set-up's identity check.
_WRITE_SMALL = DesPoint("write_small", tpcw.ORDERING, 4, MULTI_MASTER,
                        1.0, 3.0)

#: The multi-master point observability overheads are priced on.
_WRITE_MM = DesPoint("write_mm", tpcw.ORDERING, 16, MULTI_MASTER, 3.0, 5.0,
                     metric="simulator.write_mm_txn_per_s")


class DesWriteHeavy(DesWorkload):
    name = "des-write-heavy"
    points = (
        _WRITE_MM,
        DesPoint("write_sm", tpcw.ORDERING, 8, SINGLE_MASTER, 5.0, 25.0,
                 metric="simulator.write_sm_txn_per_s"),
        DesPoint("write_sharded", tpcw.ORDERING.with_partitions(8, 0.1), 8,
                 MULTI_MASTER, 5.0, 10.0, certifier="sharded",
                 metric="simulator.write_sharded_txn_per_s"),
    )

    def setup(self, checks: Checks) -> None:
        super().setup(checks)
        # Observation never changes the answer: a short multi-master run
        # with telemetry, then auditing, on must equal the one with both
        # off.  (The traced run repeats this on the full-size point.)
        plain = _sim_identity(_WRITE_SMALL.run(self.seed))
        for label, _, config in _OBSERVERS:
            observed = _WRITE_SMALL.run(self.seed, config)
            checks.expect(_sim_identity(observed) == plain,
                          f"short DES result differs with {label} on")

    def traced_extras(self, rec, checks, traced, untraced):
        plain, plain_s = traced.kept[_WRITE_MM.label]
        extras = {}
        for label, metric, config in _OBSERVERS:
            with rec.span(f"simulator.simulate:write_mm:{label}"), \
                    Stopwatch() as watch:
                observed = _WRITE_MM.run(self.seed, config)
            checks.expect(_sim_identity(observed) == _sim_identity(plain),
                          f"DES result differs with {label} on")
            extras[metric] = (watch.wall / plain_s - 1.0) * 100.0
        return extras


# ---------------------------------------------------------------------------
# model-plan
# ---------------------------------------------------------------------------


class ModelPlan(Workload):
    """``models.api.predict`` for both designs over a replica grid, then a
    reachable and an unreachable ``plan_deployment``, on the measured
    tpcw/shopping profile."""

    name = "model-plan"
    #: Replica counts whose single-master solve time barely depends on
    #: the seed's profile (N=5..8 and 16 swing 3x from seed to seed).
    grid = (1, 2, 3, 4, 12)
    reachable_tps = 50.0
    reachable_max = 4
    unreachable_tps = 100_000.0
    unreachable_max = 3

    def setup(self, checks: Checks) -> None:
        spec = tpcw.SHOPPING
        report = profile_standalone(
            spec, seed=self.seed, replay_duration=40.0, mixed_duration=40.0
        )
        self.profile = report.profile
        self.config = spec.replication_config(1)
        for design in DESIGNS:
            predict(design, self.profile, self.config.with_replicas(2))

    def run_pass(self, rec: Recorder, checks: Checks) -> PassResult:
        predict_s: Dict[str, List[float]] = {d: [] for d in DESIGNS}
        predictions = []
        with rec.span(f"pass:{self.name}"), Stopwatch() as watch:
            for design in DESIGNS:
                for replicas in self.grid:
                    started = time.perf_counter()
                    with rec.span(f"models.predict:{design}:{replicas}"):
                        predictions.append(predict(
                            design, self.profile,
                            self.config.with_replicas(replicas),
                        ))
                    predict_s[design].append(time.perf_counter() - started)
            started = time.perf_counter()
            with rec.span("models.plan_deployment:reachable"):
                reachable = plan_deployment(
                    self.profile, self.config, self.reachable_tps,
                    max_replicas=self.reachable_max,
                )
            reachable_s = time.perf_counter() - started
            started = time.perf_counter()
            with rec.span("models.plan_deployment:unreachable"):
                unreachable = plan_deployment(
                    self.profile, self.config, self.unreachable_tps,
                    max_replicas=self.unreachable_max,
                )
            unreachable_s = time.perf_counter() - started
        checks.expect(
            reachable is not None
            and reachable.predicted_throughput >= self.reachable_tps,
            f"plan for {self.reachable_tps:g} tps misses its target: "
            f"{reachable}",
        )
        checks.expect(unreachable is None,
                      f"unreachable target got a plan: {unreachable}")
        rec.count("models.predictions", len(predictions))
        result = PassResult(
            wall=watch.wall, cpu=watch.cpu, work=len(predictions),
            attempted=len(predictions) + 2,
            digest=digest(predictions, reachable, unreachable),
        )
        if rec.enabled:
            result.layer = {
                "models.mm_predict_ms":
                    statistics.median(predict_s[MULTI_MASTER]) * 1e3,
                "models.sm_predict_ms":
                    statistics.median(predict_s[SINGLE_MASTER]) * 1e3,
                "models.plan_reachable_s": reachable_s,
                "models.plan_unreachable_s": unreachable_s,
            }
        return result


# ---------------------------------------------------------------------------
# sidb-commit
# ---------------------------------------------------------------------------


class SidbCommit(Workload):
    """A single thread drives an origin ``SIDatabase`` (global certifier):
    half the transactions read two rows, half write two, eight are open
    at a time so first-committer-wins aborts occur.  Each committed
    writeset is applied in order to three followers, and every engine is
    vacuumed each 64 applied writesets (the live applier's cadence)."""

    name = "sidb-commit"
    setup_reps = 5
    rows = 10_000
    transactions = 40_000
    followers = 3
    window = 8
    vacuum_every = 64
    #: Transactions whose calls keep full spans in a traced pass.
    span_every = 64

    def setup(self, checks: Checks) -> None:
        rng = make_rng(self.seed)
        self.is_update = (rng.random(self.transactions) < 0.5).tolist()
        self.keys = [
            (("row", int(a)), ("row", int(b)))
            for a, b in rng.integers(0, self.rows, (self.transactions, 2))
        ]
        self.initial = {("row", i): 0 for i in range(self.rows)}
        self._drive(Recorder(self.name, False), self.transactions // 10)

    def _drive(self, rec: Recorder, transactions: int):
        origin = SIDatabase(dict(self.initial), certifier=GlobalCertifier())
        followers = [SIDatabase(dict(self.initial))
                     for _ in range(self.followers)]
        engines = [origin] + followers
        begin, commit = origin.begin, origin.commit
        get, write = Transaction.get, Transaction.write
        applies = [f.apply_writeset for f in followers]
        vacuums = [e.vacuum for e in engines]
        if rec.enabled:
            begin = rec.timed("sidb.begin", begin)
            commit = rec.timed("sidb.commit", commit)
            get = rec.timed("sidb.get", get)
            write = rec.timed("sidb.write", write)
            applies = [rec.timed("sidb.apply_writeset", a) for a in applies]
            vacuums = [rec.timed("sidb.vacuum", v) for v in vacuums]
        is_update, keys, traced = self.is_update, self.keys, rec.enabled
        open_txns: deque = deque()
        committed = aborted = applied = 0
        last_write: Dict[object, int] = {}
        with rec.span(f"pass:{self.name}"), Stopwatch() as watch:
            for i in range(transactions + self.window - 1):
                if i < transactions:
                    rec.sample_spans = traced and i % self.span_every == 0
                    txn = begin()
                    first, second = keys[i]
                    if is_update[i]:
                        write(txn, first, i)
                        write(txn, second, i)
                    else:
                        get(txn, first)
                        get(txn, second)
                    open_txns.append((txn, i))
                    if len(open_txns) < self.window:
                        continue
                txn, index = open_txns.popleft()
                rec.sample_spans = traced and index % self.span_every == 0
                try:
                    writeset = commit(txn)
                except TransactionAborted:
                    aborted += 1
                    continue
                committed += 1
                if writeset is None:
                    continue
                for key in keys[index]:
                    last_write[key] = index
                for apply in applies:
                    apply(writeset)
                applied += 1
                if applied % self.vacuum_every == 0:
                    for vacuum in vacuums:
                        vacuum()
        rec.sample_spans = False
        return watch, engines, committed, aborted, applied, last_write

    def run_pass(self, rec: Recorder, checks: Checks) -> PassResult:
        watch, engines, committed, aborted, applied, last_write = (
            self._drive(rec, self.transactions)
        )
        origin = engines[0]
        versions = [e.latest_version for e in engines]
        checks.expect(
            versions == [applied] * len(engines)
            and origin.update_commits == applied,
            f"versions {versions} != {applied} update commits",
        )
        checks.expect(committed + aborted == self.transactions,
                      f"{committed} commits + {aborted} aborts != "
                      f"{self.transactions} transactions")
        sample = sorted(last_write, key=repr)[:: max(1, len(last_write) // 16)]
        reads = [[e.begin().get(key) for key in sample] for e in engines]
        checks.expect(
            all(r == [last_write[k] for k in sample] for r in reads),
            "a snapshot read misses the last committed value",
        )
        certifier = origin.certifier
        rec.count("sidb.commits", committed)
        rec.count("sidb.aborts", aborted)
        rec.count("sidb.certifications", certifier.certifications)
        result = PassResult(
            wall=watch.wall, cpu=watch.cpu, work=committed,
            attempted=self.transactions,
            digest=digest(versions, committed, aborted, reads),
        )
        if rec.enabled:
            result.layer = {
                "sidb.vacuum_share": rec.busy["sidb.vacuum"] / watch.wall,
                "sidb.abort_share":
                    certifier.aborts / max(1, certifier.certifications),
            }
        return result


# ---------------------------------------------------------------------------
# live-paced
# ---------------------------------------------------------------------------


class _ThreadPeak:
    """Samples ``threading.active_count()`` from a side thread."""

    def __init__(self, interval: float = 0.02) -> None:
        self.peak = threading.active_count()
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while not self._stop.wait(self._interval):
            self.peak = max(self.peak, threading.active_count())

    def __enter__(self) -> "_ThreadPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class LivePaced(Workload):
    """``run_cluster`` of tpcw/shopping, N=2 multi-master, below the
    comfortable ``time_scale``, against a DES reference computed in
    set-up.  The 80 client threads are ``run_cluster``'s own design; the
    benchmark drives it from one."""

    name = "live-paced"
    spec = tpcw.SHOPPING
    replicas = 2
    warmup = 5.0
    duration = 80.0
    time_scale = 0.03

    def setup(self, checks: Checks) -> None:
        self.config = self.spec.replication_config(self.replicas)
        self.reference = simulate(
            self.spec, self.config, design=MULTI_MASTER, seed=self.seed,
            warmup=10.0, duration=200.0,
        )

    def _run(self, telemetry=None):
        return run_cluster(
            self.spec, self.config, design=MULTI_MASTER, seed=self.seed,
            warmup=self.warmup, duration=self.duration,
            time_scale=self.time_scale, telemetry=telemetry,
        )

    def run_pass(self, rec: Recorder, checks: Checks) -> PassResult:
        peak = _ThreadPeak() if rec.enabled else contextlib.nullcontext()
        with rec.span(f"pass:{self.name}"), Stopwatch() as watch:
            with rec.span("cluster.run_cluster"), peak:
                live = self._run()
        tput_ratio = live.throughput / self.reference.throughput
        resp_ratio = live.response_time / self.reference.response_time
        checks.expect(live.state_converged, "replicas did not converge")
        installed = (live.total_certifications
                     - live.total_certification_aborts)
        checks.expect(
            bool(live.final_versions)
            and live.final_versions[0] == installed,
            f"final version {live.final_versions[:1]} != {installed} "
            "certified commits",
        )
        checks.expect(tput_ratio <= 1.15,
                      f"live throughput {tput_ratio:.2f}x the DES's")
        rec.count("cluster.txns", live.committed_transactions)
        rec.count("cluster.certifications", live.total_certifications)
        rec.count("cluster.aborts", live.total_certification_aborts)
        result = PassResult(
            wall=watch.wall, cpu=watch.cpu,
            work=live.committed_transactions,
            attempted=live.committed_transactions,
            extras={"live_tput_ratio": tput_ratio,
                    "live_resp_ratio": resp_ratio},
        )
        if rec.enabled:
            paced = (self.warmup + self.duration) * self.time_scale
            result.layer = {
                "cluster.drain_s": watch.wall - paced,
                "cluster.threads_peak": float(peak.peak),
            }
        return result

    def traced_extras(self, rec, checks, traced, untraced):
        with rec.span("cluster.run_cluster:telemetry"), \
                Stopwatch() as watch:
            live = self._run(TelemetryConfig())
        checks.expect(live.state_converged,
                      "replicas did not converge with telemetry on")
        plain_cpu = statistics.median(p.cpu for p in untraced)
        return {
            "cluster.live_tput_ratio": statistics.median(
                p.extras["live_tput_ratio"] for p in untraced),
            "cluster.live_resp_ratio": statistics.median(
                p.extras["live_resp_ratio"] for p in untraced),
            "telemetry.live_cpu_overhead_pct":
                (watch.cpu / plain_cpu - 1.0) * 100.0,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ReproduceCold, ReproduceWarm, DesReadHeavy, DesWriteHeavy,
                ModelPlan, SidbCommit, LivePaced)
}
