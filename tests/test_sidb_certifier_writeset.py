"""Unit tests for writesets and the certification service."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sidb.certifier import GlobalCertifier
from repro.sidb.sharded import ShardedCertifier
from repro.sidb.writeset import Writeset


def ws(txn_id, snapshot, keys):
    return Writeset.from_dict(txn_id, snapshot, {k: txn_id for k in keys})


class TestWriteset:
    def test_keys_extracted(self):
        writeset = ws(1, 0, ["a", "b"])
        assert writeset.keys == frozenset({"a", "b"})

    def test_empty_writeset_rejected(self):
        with pytest.raises(ConfigurationError):
            Writeset.from_dict(1, 0, {})

    def test_negative_snapshot_rejected(self):
        with pytest.raises(ConfigurationError):
            ws(1, -1, ["a"])

    def test_conflicts_with_detects_overlap(self):
        assert ws(1, 0, ["a", "b"]).conflicts_with(ws(2, 0, ["b", "c"]))
        assert not ws(1, 0, ["a"]).conflicts_with(ws(2, 0, ["c"]))

    def test_committed_stamps_version(self):
        committed = ws(1, 0, ["a"]).committed(5)
        assert committed.commit_version == 5
        assert committed.keys == frozenset({"a"})

    def test_committed_rejects_nonpositive_version(self):
        with pytest.raises(ConfigurationError):
            ws(1, 0, ["a"]).committed(0)

    def test_encoded_size_grows_with_rows(self):
        small = ws(1, 0, ["a"]).encoded_size()
        large = ws(2, 0, ["a", "b", "c"]).encoded_size()
        assert large > small

    def test_as_dict(self):
        writeset = Writeset.from_dict(9, 0, {"a": 1, "b": 2})
        assert writeset.as_dict == {"a": 1, "b": 2}


class TestCertifierBasics:
    def test_first_commit_gets_version_one(self):
        certifier = GlobalCertifier()
        outcome = certifier.certify(ws(1, 0, ["a"]))
        assert outcome.committed
        assert outcome.commit_version == 1
        assert certifier.latest_version == 1

    def test_versions_are_dense(self):
        certifier = GlobalCertifier()
        versions = [
            certifier.certify(ws(i, certifier.latest_version, [f"k{i}"]))
            .commit_version
            for i in range(1, 6)
        ]
        assert versions == [1, 2, 3, 4, 5]

    def test_conflict_aborts(self):
        certifier = GlobalCertifier()
        certifier.certify(ws(1, 0, ["a"]))
        outcome = certifier.certify(ws(2, 0, ["a"]))  # concurrent with txn 1
        assert not outcome.committed
        assert outcome.conflicting_keys == frozenset({"a"})

    def test_non_overlapping_concurrent_commits(self):
        certifier = GlobalCertifier()
        certifier.certify(ws(1, 0, ["a"]))
        outcome = certifier.certify(ws(2, 0, ["b"]))
        assert outcome.committed

    def test_serial_rewrites_commit(self):
        certifier = GlobalCertifier()
        certifier.certify(ws(1, 0, ["a"]))
        # Transaction 2 saw version 1, so txn 1 is not concurrent with it.
        outcome = certifier.certify(ws(2, 1, ["a"]))
        assert outcome.committed

    def test_conflict_only_against_later_commits(self):
        certifier = GlobalCertifier()
        certifier.certify(ws(1, 0, ["a"]))  # v1
        certifier.certify(ws(2, 1, ["b"]))  # v2
        # Snapshot 1: conflicts checked against v2 only.
        assert certifier.certify(ws(3, 1, ["a"])).committed
        assert not certifier.certify(ws(4, 1, ["b"])).committed

    def test_future_snapshot_rejected(self):
        certifier = GlobalCertifier()
        with pytest.raises(ConfigurationError):
            certifier.certify(ws(1, 5, ["a"]))

    def test_statistics_counted(self):
        certifier = GlobalCertifier()
        certifier.certify(ws(1, 0, ["a"]))
        certifier.certify(ws(2, 0, ["a"]))
        assert certifier.certifications == 2
        assert certifier.commits == 1
        assert certifier.aborts == 1
        assert certifier.abort_fraction == pytest.approx(0.5)

    @pytest.mark.parametrize("make", [GlobalCertifier, ShardedCertifier],
                             ids=["global", "sharded"])
    def test_reset_statistics(self, make):
        certifier = make()
        certifier.certify(Writeset.from_dict(1, 0, {"a": 1}, partitions=(0,)))
        certifier.certify(Writeset.from_dict(2, 0, {"a": 2}, partitions=(0,)))
        assert certifier.aborts == 1
        certifier.reset_statistics()
        assert certifier.certifications == 0
        assert certifier.commits == 0
        assert certifier.aborts == 0
        assert certifier.abort_fraction == 0.0
        # Version counter is NOT reset.
        assert certifier.latest_version == 1


class TestCertifierPruning:
    def test_observe_snapshot_prunes_history(self):
        certifier = GlobalCertifier()
        for i in range(1, 11):
            certifier.certify(ws(i, certifier.latest_version, [f"k{i}"]))
        certifier.observe_snapshot(5)
        # Snapshots >= 5 still certify exactly.
        assert certifier.certify(ws(99, 5, ["fresh"])).committed

    def test_stale_snapshot_conservatively_aborts_after_pruning(self):
        certifier = GlobalCertifier()
        for i in range(1, 11):
            certifier.certify(ws(i, certifier.latest_version, [f"k{i}"]))
        certifier.observe_snapshot(8)
        outcome = certifier.certify(ws(99, 2, ["zzz"]))
        assert not outcome.committed  # history to answer exactly is gone

    def test_max_history_bounds_memory(self):
        certifier = GlobalCertifier(max_history=5)
        for i in range(1, 21):
            certifier.certify(ws(i, certifier.latest_version, [f"k{i}"]))
        assert len(certifier._history) <= 5

    def test_max_history_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            GlobalCertifier(max_history=0)

    def test_first_committer_wins_invariant(self):
        """Of two concurrent overlapping writesets, exactly one commits."""
        certifier = GlobalCertifier()
        snapshot = certifier.latest_version
        first = certifier.certify(ws(1, snapshot, ["x", "y"]))
        second = certifier.certify(ws(2, snapshot, ["y", "z"]))
        assert first.committed
        assert not second.committed


def pws(txn_id, snapshot, partition, rows):
    """A partitioned writeset with partition-qualified keys."""
    return Writeset.from_dict(
        txn_id, snapshot,
        {("updatable", partition, row): txn_id for row in rows},
        partitions=(partition,),
    )


class TestPartitionedWriteset:
    def test_partitions_sorted_and_deduplicated(self):
        writeset = Writeset.from_dict(
            1, 0, {"a": 1}, partitions=(2, 0, 2)
        )
        assert writeset.partitions == (0, 2)
        assert writeset.partition_set == frozenset({0, 2})

    def test_committed_preserves_partitions(self):
        committed = pws(1, 0, 3, ["r"]).committed(7)
        assert committed.partitions == (3,)

    def test_writes_for_scopes_cross_partition_payload(self):
        writeset = Writeset.from_dict(
            1, 0,
            {("updatable", 0, 5): 1, ("updatable", 1, 9): 1},
            partitions=(0, 1),
        )
        assert writeset.writes_for(frozenset({0})) == {("updatable", 0, 5): 1}
        assert writeset.writes_for(None) == writeset.as_dict

    def test_writes_for_unpartitioned_returns_everything(self):
        writeset = ws(1, 0, ["a"])
        assert writeset.writes_for(frozenset({0})) == {"a": 1}


class TestPartitionedCertification:
    def test_disjoint_partitions_never_conflict(self):
        certifier = GlobalCertifier()
        first = certifier.certify(pws(1, 0, 0, [1, 2]))
        second = certifier.certify(pws(2, 0, 1, [1, 2]))
        assert first.committed and second.committed

    def test_same_partition_overlap_still_conflicts(self):
        certifier = GlobalCertifier()
        assert certifier.certify(pws(1, 0, 0, [1, 2])).committed
        outcome = certifier.certify(pws(2, 0, 0, [2, 3]))
        assert not outcome.committed
        assert ("updatable", 0, 2) in outcome.conflicting_keys

    def test_partition_sets_share_one_global_version_sequence(self):
        certifier = GlobalCertifier()
        a = certifier.certify(pws(1, 0, 0, [1]))
        b = certifier.certify(pws(2, 1, 1, [1]))
        assert (a.commit_version, b.commit_version) == (1, 2)

    def test_unpartitioned_wildcard_conflicts_with_partitioned(self):
        certifier = GlobalCertifier()
        assert certifier.certify(pws(1, 0, 0, [4])).committed
        wildcard = Writeset.from_dict(2, 0, {("updatable", 0, 4): 2})
        assert not certifier.certify(wildcard).committed

    def test_cross_partition_writesets_conflict_on_shared_partition(self):
        certifier = GlobalCertifier()
        first = Writeset.from_dict(
            1, 0, {("updatable", 0, 1): 1, ("updatable", 1, 1): 1},
            partitions=(0, 1),
        )
        second = Writeset.from_dict(
            2, 0, {("updatable", 1, 1): 2, ("updatable", 2, 1): 2},
            partitions=(1, 2),
        )
        assert certifier.certify(first).committed
        assert not certifier.certify(second).committed
