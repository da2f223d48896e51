"""The sharded certifier: equivalence, atomicity, spec, and plumbing.

Covers the PR-9 certifier redesign end to end below the scenario layer:

* hypothesis equivalence — :class:`ShardedCertifier` decides exactly
  like the global :class:`GlobalCertifier` on single-partition and
  disjoint-partition workloads (the safety claim in
  ``repro/sidb/sharded.py``'s docstring);
* hypothesis atomicity — an injected coordinator fault between the
  conflict checks and the appends leaves every shard untouched;
* :class:`CertifierSpec` resolution, did-you-mean errors, and the
  None-drop-out cache-key guarantee on every scenario point kind;
* the live cluster's prune-floor pinning (regression: in-flight
  certification floors must hold back history pruning).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.sidb.certifier import GlobalCertifier
from repro.sidb.certifier_api import (
    CERTIFIER_KINDS,
    CertificationOutcome,
    CertifierProtocol,
    CertifierSpec,
    UnknownCertifierError,
    resolve_certifier_spec,
    shard_version_key,
)
from repro.sidb.sharded import ShardedCertifier
from repro.sidb.writeset import Writeset


def _partitioned(txn_id, floor_vector, partition_rows):
    """A writeset over ``{partition: rows}`` with per-shard floors."""
    writes = {
        ("updatable", partition, row): txn_id
        for partition, rows in partition_rows.items()
        for row in rows
    }
    ws = Writeset.from_dict(
        txn_id, sum(floor_vector.values()), writes,
        partitions=tuple(partition_rows),
    )
    return ws.with_snapshot_vector(floor_vector)


class TestProtocolSurface:
    def test_both_implementations_satisfy_the_protocol(self):
        assert isinstance(GlobalCertifier(), CertifierProtocol)
        assert isinstance(ShardedCertifier(), CertifierProtocol)

    def test_certifier_is_the_global_certifier(self):
        # The pre-seam ``Certifier`` alias is retired: the engine's
        # default certifier goes by its own name only.
        import repro.sidb
        import repro.sidb.certifier
        from repro.sidb.engine import SIDatabase

        assert not hasattr(repro.sidb.certifier, "Certifier")
        assert "Certifier" not in repro.sidb.__all__
        assert isinstance(SIDatabase().certifier, GlobalCertifier)

    def test_home_shard_is_lowest_touched_partition(self):
        certifier = ShardedCertifier(partitions=4)
        outcome = certifier.certify(_partitioned(1, {}, {3: {0}, 1: {0}}))
        assert outcome.committed
        assert outcome.home_shard == 1
        assert outcome.shard_versions == ((1, 1), (3, 1))

    def test_global_outcomes_have_no_shard_versions(self):
        outcome = GlobalCertifier().certify(
            Writeset.from_dict(1, 0, {"k": 1})
        )
        assert outcome.committed
        assert outcome.shard_versions == ()
        assert outcome.home_shard is None

    def test_unpartitioned_writeset_is_rejected(self):
        certifier = ShardedCertifier(partitions=2)
        with pytest.raises(ConfigurationError, match="--certifier global"):
            certifier.certify(Writeset.from_dict(1, 0, {"k": 1}))

    def test_shard_version_key_disambiguates_across_shards(self):
        assert shard_version_key(0, 7) != shard_version_key(1, 7)


class TestShardedEquivalence:
    """Sharded and global certifiers decide identically where they
    overlap — the property the ISSUE pins the API redesign on."""

    @given(
        entries=st.lists(
            st.tuples(
                st.frozensets(st.integers(0, 7), min_size=1, max_size=3),
                st.integers(0, 4),  # snapshot lag behind latest
            ),
            min_size=1, max_size=14,
        ),
        partition=st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_partition_decisions_match_global(
        self, entries, partition
    ):
        """On one partition, one shard IS the global certifier: same
        decisions and the same (scalar) version sequence."""
        global_cert = GlobalCertifier()
        sharded = ShardedCertifier(partitions=4)
        for txn_id, (rows, lag) in enumerate(entries, start=1):
            floor = max(0, global_cert.latest_version - lag)
            writes = {("updatable", partition, r): txn_id for r in rows}
            g = global_cert.certify(Writeset.from_dict(
                txn_id, floor, writes, partitions=(partition,)
            ))
            s = sharded.certify(_partitioned(
                txn_id, {partition: floor}, {partition: rows}
            ))
            assert g.committed == s.committed
            if g.committed:
                assert s.shard_versions == ((partition, g.commit_version),)
        assert global_cert.aborts == sharded.aborts
        assert global_cert.commits == sharded.commits
        assert sharded.shard_version(partition) == global_cert.latest_version

    @given(
        entries=st.lists(
            st.tuples(
                st.integers(0, 3),  # partition
                st.frozensets(st.integers(0, 5), min_size=1, max_size=3),
            ),
            min_size=2, max_size=14,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_concurrent_single_partition_mix_matches_global(self, entries):
        """Concurrent writesets spread over partitions: the partition-
        aware global certifier and the sharded one agree exactly
        (disjoint partitions never conflict in either)."""
        global_cert = GlobalCertifier()
        sharded = ShardedCertifier(partitions=4)
        for txn_id, (partition, rows) in enumerate(entries, start=1):
            writes = {("updatable", partition, r): txn_id for r in rows}
            g = global_cert.certify(Writeset.from_dict(
                txn_id, 0, writes, partitions=(partition,)
            ))
            s = sharded.certify(_partitioned(txn_id, {}, {partition: rows}))
            assert g.committed == s.committed, (
                f"txn {txn_id} on partition {partition}: "
                f"global={g.committed} sharded={s.committed}"
            )
            if not g.committed:
                assert s.conflicting_keys == g.conflicting_keys
        assert sharded.abort_fraction == global_cert.abort_fraction

    @given(
        entries=st.lists(
            st.dictionaries(
                st.integers(0, 3),
                st.frozensets(st.integers(0, 5), min_size=1, max_size=2),
                min_size=1, max_size=3,
            ),
            min_size=1, max_size=10,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_serial_cross_partition_writesets_always_commit(self, entries):
        """A writeset reading the latest version vector never aborts,
        and every touched shard's clock advances by exactly one."""
        certifier = ShardedCertifier(partitions=4)
        for txn_id, partition_rows in enumerate(entries, start=1):
            before = dict(certifier.version_vector())
            outcome = certifier.certify(
                _partitioned(txn_id, before, partition_rows)
            )
            assert outcome.committed
            after = dict(certifier.version_vector())
            for partition in range(4):
                delta = after[partition] - before[partition]
                assert delta == (1 if partition in partition_rows else 0)

    def test_cross_partition_overlap_aborts_exactly_once(self):
        """First-committer-wins across a cross-partition pair."""
        certifier = ShardedCertifier(partitions=3)
        a = certifier.certify(_partitioned(1, {}, {0: {1}, 2: {5}}))
        b = certifier.certify(_partitioned(2, {}, {2: {5}, 1: {0}}))
        assert a.committed and not b.committed
        assert b.conflicting_keys == frozenset({("updatable", 2, 5)})


class TestCrossPartitionAtomicity:
    """A coordinator fault between checks and appends must be invisible."""

    @given(
        partition_rows=st.dictionaries(
            st.integers(0, 3),
            st.frozensets(st.integers(0, 5), min_size=1, max_size=3),
            min_size=2, max_size=4,
        ),
        prefix=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.frozensets(st.integers(0, 5), min_size=1, max_size=2),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_injected_fault_leaves_every_shard_untouched(
        self, partition_rows, prefix
    ):
        certifier = ShardedCertifier(partitions=4)
        for txn_id, (partition, rows) in enumerate(prefix, start=1):
            certifier.certify(_partitioned(txn_id, {}, {partition: rows}))
        vector = dict(certifier.version_vector())
        history = certifier.history_size
        commits = certifier.commits

        class CoordinatorDown(RuntimeError):
            pass

        def fail(writeset):
            raise CoordinatorDown(f"txn {writeset.txn_id}")

        certifier.fault_injector = fail
        doomed = _partitioned(99, vector, partition_rows)
        with pytest.raises(CoordinatorDown):
            certifier.certify(doomed)
        # All-or-nothing: no shard clock moved, no history grew, no
        # commit was counted.
        assert dict(certifier.version_vector()) == vector
        assert certifier.history_size == history
        assert certifier.commits == commits
        # The retry (coordinator back up) commits on every touched shard.
        certifier.fault_injector = None
        outcome = certifier.certify(doomed)
        assert outcome.committed
        assert {p for p, _ in outcome.shard_versions} == set(partition_rows)
        for partition, version in outcome.shard_versions:
            assert version == vector[partition] + 1

    def test_fault_after_partial_append_rolls_back(self, monkeypatch):
        """Even a failure raised mid-append (not just at the injection
        seam) must unappend everything already appended."""
        from repro.sidb import sharded as sharded_module

        certifier = ShardedCertifier(partitions=3)
        shard = certifier._shard(2)
        original_append = sharded_module._Shard.append
        calls = []

        def exploding_append(self_shard, keys):
            if self_shard is shard:
                calls.append(keys)
                raise RuntimeError("append lost")
            return original_append(self_shard, keys)

        monkeypatch.setattr(sharded_module._Shard, "append",
                            exploding_append)
        with pytest.raises(RuntimeError, match="append lost"):
            certifier.certify(_partitioned(1, {}, {0: {1}, 2: {2}}))
        monkeypatch.undo()
        assert calls, "the faulty shard append was never reached"
        # Shard 0 appended first (canonical order) and must be rolled back.
        assert certifier.version_vector() == ((0, 0), (1, 0), (2, 0))
        assert certifier.history_size == 0
        retry = certifier.certify(_partitioned(1, {}, {0: {1}, 2: {2}}))
        assert retry.committed


class TestCertifierSpec:
    def test_default_spec_is_global_pure_delay(self):
        spec = CertifierSpec()
        assert spec.kind == "global"
        assert spec.service_time == 0.0
        assert spec.is_default and not spec.is_sharded

    def test_resolution_accepts_none_names_and_specs(self):
        assert resolve_certifier_spec(None) is None
        assert resolve_certifier_spec("global") == CertifierSpec("global")
        assert resolve_certifier_spec(" Sharded ") == CertifierSpec("sharded")
        spec = CertifierSpec("sharded", service_time=0.01)
        assert resolve_certifier_spec(spec) is spec

    def test_unknown_kind_gets_did_you_mean(self):
        with pytest.raises(UnknownCertifierError) as exc:
            resolve_certifier_spec("shraded")
        assert "did you mean sharded" in str(exc.value)
        assert "known certifiers: " + ", ".join(CERTIFIER_KINDS) in str(
            exc.value
        )

    def test_non_string_non_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="CertifierSpec"):
            resolve_certifier_spec(42)

    def test_negative_service_time_rejected(self):
        with pytest.raises(ConfigurationError, match="service_time"):
            CertifierSpec("global", service_time=-0.001)

    def test_nondefault_global_spec_is_not_default(self):
        assert not CertifierSpec("global", service_time=0.004).is_default
        assert not CertifierSpec("sharded").is_default


class TestCacheKeyDropOut:
    """``--certifier global`` must be byte-identical to omitting it."""

    def test_settings_normalise_the_default_spec_to_none(self):
        from repro.experiments.settings import ExperimentSettings

        settings_ = ExperimentSettings()
        assert settings_.certifier is None
        assert settings_.with_certifier("global").certifier is None
        sharded = settings_.with_certifier("sharded").certifier
        assert sharded == CertifierSpec("sharded")

    def test_point_options_identical_with_and_without_the_default(
        self, shopping_spec
    ):
        from repro.engine.cache import point_key
        from repro.engine.scenario import (
            cluster_point, model_point, sim_point,
        )

        spec = shopping_spec.with_partitions(4)
        config = spec.replication_config(4)
        for maker, kwargs in (
            (sim_point, dict(seed=7, warmup=1.0, duration=4.0)),
            (cluster_point,
             dict(seed=7, warmup=1.0, duration=4.0, time_scale=0.1)),
            (model_point, dict(profile=None)),
        ):
            omitted = maker(spec, config, "multi-master", **kwargs)
            defaulted = maker(spec, config, "multi-master",
                              certifier=None, **kwargs)
            sharded = maker(spec, config, "multi-master",
                            certifier=CertifierSpec("sharded"), **kwargs)
            assert omitted.options == defaulted.options, maker.__name__
            assert point_key(omitted) == point_key(defaulted), maker.__name__
            assert point_key(sharded) != point_key(omitted), maker.__name__


class TestCliSurface:
    def test_certifier_flag_parses_on_run(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "certifier-sharding", "--certifier", "sharded"]
        )
        assert args.certifier == "sharded"

    def test_unknown_certifier_exits_2_with_suggestion(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "certifier-sharding", "--certifier", "shraded"])
        assert exc.value.code == 2
        assert "did you mean sharded" in capsys.readouterr().err

    def test_partition_verb_knows_the_certifier_family(self):
        from repro.cli import build_parser
        from repro.engine import get_scenario

        names = ["certifier-sharding", "certifier-sharding-live"]
        args = build_parser().parse_args(["run", *names, "--fast"])
        assert args.names == names
        assert {get_scenario(name).kind for name in names} == {"partition"}


class TestLivePruneFloorPinning:
    """Regression: pruning must never pass an in-flight attempt's floors.

    Without the registry, the live cluster pruned to the fleet's applied
    watermarks while attempts held floors captured seconds earlier; the
    certifier's conservative pruned-history fallback then aborted ~30%
    of update transactions spuriously.
    """

    class _StubReplica:
        failed = False

        def __init__(self, floors):
            self._floors = dict(floors)

        def shard_floors(self):
            return dict(self._floors)

    def _path(self, commits=6):
        """The live sharded certification path, built directly, with
        *commits* two-partition commits already certified."""
        from repro.cluster.clock import VirtualClock
        from repro.cluster.sharded import ShardedCertification
        from repro.workloads import tpcw

        path = ShardedCertification(
            VirtualClock(1.0), tpcw.SHOPPING.with_partitions(2, 0.1),
            CertifierSpec(kind="sharded"),
        )
        certifier = path.certifier
        for txn_id in range(1, commits + 1):
            vector = dict(certifier.version_vector())
            outcome = certifier.certify(_partitioned(
                txn_id, vector, {p: {txn_id} for p in range(2)},
            ))
            assert outcome.committed
        return path

    def test_registered_floors_hold_back_the_prune(self):
        path = self._path()
        certifier = path.certifier
        fleet = [self._StubReplica({0: 6, 1: 6})]
        pin = path.pin(self._StubReplica({0: 2, 1: 3}))
        path.prune(fleet)
        # The in-flight attempt certifying against floor 2 still gets an
        # exact answer: versions 3.. are retained on shard 0.
        stale = _partitioned(99, {0: 2, 1: 3}, {0: {100}, 1: {100}})
        assert certifier.certify(stale).committed
        path.unpin(pin)
        path.prune(fleet)
        # With the pin gone the watermark floor applies: a floor-2 read
        # now predates retained history and hits the conservative path.
        pruned = _partitioned(100, {0: 2, 1: 3}, {0: {200}, 1: {200}})
        outcome = certifier.certify(pruned)
        assert not outcome.committed
        assert outcome.conflicting_keys  # forced retry, never unsafe

    def test_prune_takes_the_minimum_across_replicas_and_attempts(self):
        path = self._path()
        shard0 = path.certifier._shard(0)
        path.pin(self._StubReplica({0: 3, 1: 6}))
        path.prune([
            self._StubReplica({0: 6, 1: 6}),
            self._StubReplica({0: 4, 1: 5}),
        ])
        # Shard 0's floor is min(6, 4, 3) = 3: versions 4.. retained.
        assert shard0.oldest_retained <= 4

    def test_failed_replicas_do_not_hold_back_the_prune(self):
        path = self._path()
        dead = self._StubReplica({0: 0, 1: 0})
        dead.failed = True
        path.prune([self._StubReplica({0: 6, 1: 6}), dead])
        assert path.certifier._shard(0).oldest_retained == 7

    def test_release_is_idempotent(self):
        path = self._path(commits=0)
        pin = path.pin(self._StubReplica({0: 1, 1: 1}))
        path.unpin(pin)
        path.unpin(pin)
        assert path._active_floors == {}


class TestElasticRefusal:
    """Elastic x sharded is refused with one type and one message on both
    substrates (and elastic x partial map with another), before anything
    changes."""

    def test_sim_and_live_refuse_sharded_joins_with_one_message(
        self, fleets, refusals
    ):
        from repro.simulator.systems import ELASTIC_NEEDS_GLOBAL_CERTIFIER
        from repro.workloads import tpcw

        pair = fleets("sharded", tpcw.SHOPPING.with_partitions(4, 0.1), 2,
                      seed=7)
        for change in (lambda fleet: fleet.add_replica(),
                       lambda fleet: fleet.remove_replica()):
            assert refusals(change, pair) == {ELASTIC_NEEDS_GLOBAL_CERTIFIER}
        assert [len(fleet.replicas) for fleet in pair] == [2, 2]


class TestObserveSnapshot:
    def test_scalar_floor_is_ambiguous_with_multiple_shards(self):
        certifier = ShardedCertifier(partitions=2)
        with pytest.raises(ConfigurationError, match="per-partition"):
            certifier.observe_snapshot(3)

    def test_vector_floor_prunes_each_shard_independently(self):
        certifier = ShardedCertifier(partitions=2)
        for txn_id in range(1, 5):
            certifier.certify(_partitioned(
                txn_id, dict(certifier.version_vector()),
                {0: {txn_id}, 1: {txn_id}},
            ))
        certifier.observe_snapshot({0: 4, 1: 1})
        assert certifier._shard(0).oldest_retained == 5
        assert certifier._shard(1).oldest_retained == 2

    def test_outcome_is_the_frozen_api_type(self):
        certifier = ShardedCertifier(partitions=2)
        outcome = certifier.certify(_partitioned(1, {}, {0: {1}}))
        assert isinstance(outcome, CertificationOutcome)
