"""Benchmark: certifier sharding across both executable pillars.

Regenerates the ``certifier-sharding`` scenarios through the engine and
asserts the PR's headline write-path claims:

* at a high update fraction (TPC-W ordering, Pw=0.5) on many partitions
  (8 certifier shards), the sharded certifier's throughput strictly
  dominates the global sequencer's — on the deterministic simulator AND
  the live cluster runtime — because per-partition shards serialize only
  same-partition commits while the global certifier serializes all of
  them;
* the sharded model cell tracks the sharded simulator cell inside the
  cross-validation envelope (the analytic ``s_eff`` shard-parallelism
  term is calibrated, not decorative);
* distributed cross-partition commit loses and duplicates nothing:
  every live replica converges to the identical final version, equal to
  the certifier's commit count, under both protocols.
"""

from __future__ import annotations

from conftest import run_once

from repro.engine import run_scenario
from repro.partition.scenarios import sharded_speedup


def test_sharded_beats_global_simulator(benchmark, settings, fast_mode):
    """Sharded > global throughput on the DES, model in the envelope."""
    report = run_once(
        benchmark,
        lambda: run_scenario("certifier-sharding", settings, jobs=1,
                             cache=None),
    )
    print("\n" + report.to_text())
    # The tentpole claim on the deterministic pillar: strict dominance,
    # with real head-room at full fidelity.
    assert sharded_speedup(report, "sim") > 1.0
    if not fast_mode:
        assert sharded_speedup(report, "sim") >= 1.05
    # The analytic model agrees on the direction and tracks both arms.
    assert sharded_speedup(report, "model") > 1.0
    for arm in ("global", "sharded"):
        sim = report.cell(f"sim-{arm}").throughput
        model = report.cell(f"model-{arm}").throughput
        assert abs(model - sim) / sim < 0.25, (
            f"{arm}: model {model:.1f} tps vs sim {sim:.1f} tps"
        )


def test_sharded_beats_global_live_cluster(benchmark, settings, fast_mode):
    """The same claim on real threads, plus zero lost/duplicated commits."""
    report = run_once(
        benchmark,
        lambda: run_scenario("certifier-sharding-live", settings, jobs=1,
                             cache=None),
    )
    print("\n" + report.to_text())
    assert sharded_speedup(report, "live") > 1.0
    if not fast_mode:
        assert sharded_speedup(report, "live") >= 1.2
    # Zero lost or duplicated committed writesets under either protocol.
    # ``state_converged`` is the strong check: quiesce compares every
    # replica's applied vector against the certifier's version vector
    # lane by lane, so a shard channel dropping one writeset stalls
    # convergence and a replayed one overruns its lane's clock.
    for label in ("live-global", "live-sharded"):
        result = report.cell(label)
        assert result is not None
        assert result.state_converged, label
    # On the global path the scalar invariant is exact: one installed
    # version per commit, identical on every replica.
    global_ = report.cell("live-global")
    commits = (global_.total_certifications
               - global_.total_certification_aborts)
    assert set(global_.final_versions) == {commits}
    # On the sharded path each commit appends one version per *touched
    # shard*, so the summed watermark exceeds the commit count by
    # exactly the cross-partition commits: strictly more than the
    # commits (the workload has cross-partition traffic), never more
    # than twice (coordinated writesets touch two shards).
    sharded = report.cell("live-sharded")
    commits = (sharded.total_certifications
               - sharded.total_certification_aborts)
    assert len(set(sharded.final_versions)) == 1
    applied = sharded.final_versions[0]
    assert commits < applied <= 2 * commits
