"""Property-based tests (hypothesis) on core invariants.

These cover the algebraic heart of the reproduction: the MVA solver, the
abort-rate algebra, the multi-version store, and the certifier's
first-committer-wins guarantee.
"""

from bisect import bisect_right

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.params import ResourceDemand, ServiceDemands, WorkloadMix
from repro.models.aborts import retry_inflation, scale_abort_rate
from repro.models.demands import multimaster_demand, standalone_demand
from repro.queueing.bounds import asymptotic_bounds
from repro.queueing.mva import solve_mva
from repro.queueing.network import ClosedNetwork, delay_center, queueing_center
from repro.sidb.certifier import GlobalCertifier
from repro.sidb.versionstore import VersionedStore
from repro.sidb.writeset import Writeset
from repro.simulator.stats import RunningStats

demands_st = st.floats(min_value=1e-4, max_value=0.5,
                       allow_nan=False, allow_infinity=False)
think_st = st.floats(min_value=0.0, max_value=5.0,
                     allow_nan=False, allow_infinity=False)


@st.composite
def networks(draw):
    n_queueing = draw(st.integers(min_value=1, max_value=4))
    n_delay = draw(st.integers(min_value=0, max_value=2))
    centers = [
        queueing_center(f"q{i}", draw(demands_st)) for i in range(n_queueing)
    ] + [
        delay_center(f"d{i}", draw(demands_st)) for i in range(n_delay)
    ]
    return ClosedNetwork(centers=tuple(centers), think_time=draw(think_st))


class TestMVAProperties:
    @given(network=networks(), population=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_solution_within_asymptotic_bounds(self, network, population):
        solution = solve_mva(network, population)
        bounds = asymptotic_bounds(network, population)
        assert solution.throughput <= bounds.throughput_upper * (1 + 1e-9)
        assert solution.response_time >= bounds.response_time_lower * (1 - 1e-9)

    @given(network=networks(), population=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_population_conservation(self, network, population):
        solution = solve_mva(network, population)
        total = sum(solution.queue_lengths.values()) + (
            solution.throughput * network.think_time
        )
        assert total == pytest.approx(population, rel=1e-9)

    @given(network=networks(), population=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_throughput_monotone_in_population(self, network, population):
        a = solve_mva(network, population).throughput
        b = solve_mva(network, population + 1).throughput
        # Relative tolerance: at saturation X approaches 1/demand, and
        # a few ulps of rounding can nudge X(n+1) below X(n).
        assert b >= a - 1e-9 * max(1.0, a)

    @given(network=networks(), population=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_utilization_at_most_one(self, network, population):
        solution = solve_mva(network, population)
        for value in solution.utilization.values():
            assert value <= 1.0 + 1e-12


class TestAbortAlgebraProperties:
    @given(
        a1=st.floats(min_value=0.0, max_value=0.5),
        ratio=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_stays_in_unit_interval(self, a1, ratio):
        value = scale_abort_rate(a1, ratio)
        assert 0.0 <= value < 1.0

    @given(
        a1=st.floats(min_value=1e-6, max_value=0.3),
        r1=st.floats(min_value=0.1, max_value=50.0),
        r2=st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_scaling_composes(self, a1, r1, r2):
        # scale(scale(a, r1), r2) == scale(a, r1*r2)
        left = scale_abort_rate(scale_abort_rate(a1, r1), r2)
        right = scale_abort_rate(a1, r1 * r2)
        assert left == pytest.approx(right, rel=1e-6, abs=1e-12)

    @given(
        a1=st.floats(min_value=1e-6, max_value=0.3),
        lo=st.floats(min_value=0.1, max_value=20.0),
        hi=st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_monotone_in_ratio(self, a1, lo, hi):
        assume(lo <= hi)
        assert scale_abort_rate(a1, lo) <= scale_abort_rate(a1, hi) + 1e-15

    @given(a=st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_retry_inflation_at_least_one(self, a):
        assert retry_inflation(a) >= 1.0


class TestDemandProperties:
    mix_st = st.floats(min_value=0.0, max_value=1.0)

    @given(
        pw=mix_st,
        rc=demands_st, wc=demands_st, ws=demands_st,
        n=st.integers(1, 32),
        an=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_multimaster_demand_at_least_standalone(self, pw, rc, wc, ws, n, an):
        mix = WorkloadMix.from_write_fraction(pw)
        demands = ServiceDemands(
            read=ResourceDemand(cpu=rc, disk=rc),
            write=ResourceDemand(cpu=wc, disk=wc),
            writeset=ResourceDemand(cpu=ws, disk=ws),
        )
        mm = multimaster_demand(demands, mix, n, an)
        sa = standalone_demand(demands, mix, an)
        assert mm.cpu >= sa.cpu - 1e-15
        assert mm.disk >= sa.disk - 1e-15

    @given(
        pw=mix_st, rc=demands_st, wc=demands_st, ws=demands_st,
        an=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_multimaster_demand_linear_in_replicas(self, pw, rc, wc, ws, an):
        mix = WorkloadMix.from_write_fraction(pw)
        demands = ServiceDemands(
            read=ResourceDemand(cpu=rc), write=ResourceDemand(cpu=wc),
            writeset=ResourceDemand(cpu=ws),
        )
        d2 = multimaster_demand(demands, mix, 2, an).cpu
        d3 = multimaster_demand(demands, mix, 3, an).cpu
        d4 = multimaster_demand(demands, mix, 4, an).cpu
        assert (d3 - d2) == pytest.approx(d4 - d3, rel=1e-9, abs=1e-15)


class TestVersionStoreModel:
    """Model-based test: VersionedStore vs a naive dict-of-snapshots."""

    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 100)),  # (key, value)
            min_size=1,
            max_size=30,
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_reads_match_reference_model(self, writes, data):
        store = VersionedStore()
        reference = {0: {}}  # version -> full state
        state = {}
        for version, (key, value) in enumerate(writes, start=1):
            store.install(version, {key: value})
            state = dict(state)
            state[key] = value
            reference[version] = state
        # Probe random (key, snapshot) pairs against the reference.
        for _ in range(10):
            key = data.draw(st.integers(0, 5))
            snapshot = data.draw(st.integers(0, len(writes)))
            expected = reference[snapshot].get(key, "MISSING")
            actual = store.get(key, snapshot, "MISSING")
            assert actual == expected

    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 100)),
            min_size=2, max_size=20,
        ),
        cut=st.integers(0, 19),
    )
    @settings(max_examples=60, deadline=None)
    def test_vacuum_preserves_visible_reads(self, writes, cut):
        assume(cut <= len(writes))
        store = VersionedStore()
        for version, (key, value) in enumerate(writes, start=1):
            store.install(version, {key: value})
        before = {
            (k, v): store.get(k, v, "MISSING")
            for k in range(6)
            for v in range(cut, len(writes) + 1)
        }
        store.vacuum(oldest_active_snapshot=cut)
        for (k, v), expected in before.items():
            assert store.get(k, v, "MISSING") == expected

    # One step: install a batch ({} is a version marker), or raise the
    # vacuum cut by some amount (0 re-vacuums at the same cut).
    steps = st.lists(
        st.one_of(
            st.dictionaries(st.integers(0, 5), st.integers(0, 100),
                            max_size=3).map(lambda w: ("install", w)),
            st.integers(0, 3).map(lambda up: ("vacuum", up)),
        ),
        min_size=1, max_size=40,
    )

    @given(steps=steps)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_incremental_vacuum_matches_full_walk(self, steps):
        """The incremental vacuum frees, keeps and counts exactly what a
        full walk over every key's chain does."""
        store = VersionedStore({0: "initial"})
        reference = _FullWalkStore({0: "initial"})
        version = cut = 0
        for kind, arg in steps:
            if kind == "install":
                version += 1
                store.install(version, arg)
                reference.install(version, arg)
            else:
                # Cuts below the latest version pin the newer chain tails.
                cut = min(cut + arg, version)
                assert store.vacuum(cut) == reference.vacuum(cut)
            for key in range(6):
                for snapshot in range(cut, version + 1):
                    assert (store.get(key, snapshot, "MISSING")
                            == reference.get(key, snapshot, "MISSING"))
            assert store.retained_versions() == sum(
                store.version_count(key) for key in store.keys()
            ) == reference.retained_versions()


class _FullWalkStore(VersionedStore):
    """The reference for incremental GC: ``vacuum`` walks every key's
    chain and ``retained_versions`` sums the chain lengths."""

    def vacuum(self, oldest_active_snapshot):
        freed = 0
        for key, versions in self._versions.items():
            keep_from = bisect_right(versions, oldest_active_snapshot) - 1
            if keep_from > 0:
                freed += keep_from
                self._versions[key] = versions[keep_from:]
                self._values[key] = self._values[key][keep_from:]
        return freed

    def retained_versions(self):
        return sum(len(versions) for versions in self._versions.values())


class TestCertifierProperties:
    @given(
        keysets=st.lists(
            st.frozensets(st.integers(0, 8), min_size=1, max_size=3),
            min_size=2, max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_concurrent_overlapping_writesets_never_both_commit(self, keysets):
        """All writesets share snapshot 0: any overlapping pair has at most
        one committer (first-committer-wins)."""
        certifier = GlobalCertifier()
        outcomes = []
        for txn_id, keys in enumerate(keysets, start=1):
            writeset = Writeset.from_dict(txn_id, 0, {k: txn_id for k in keys})
            outcomes.append((keys, certifier.certify(writeset).committed))
        committed = [keys for keys, ok in outcomes if ok]
        for i in range(len(committed)):
            for j in range(i + 1, len(committed)):
                assert committed[i].isdisjoint(committed[j])

    @given(
        keysets=st.lists(
            st.frozensets(st.integers(0, 8), min_size=1, max_size=3),
            min_size=1, max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_serial_writesets_always_commit(self, keysets):
        """A writeset whose snapshot is the latest version never conflicts."""
        certifier = GlobalCertifier()
        for txn_id, keys in enumerate(keysets, start=1):
            writeset = Writeset.from_dict(
                txn_id, certifier.latest_version, {k: txn_id for k in keys}
            )
            assert certifier.certify(writeset).committed


class TestPartitionedCertifierProperties:
    """Per-partition certification (partial replication)."""

    # (partition, keys) pairs: keys are partition-qualified the way the
    # workload sampler builds them, so key overlap implies partition
    # overlap — the certifier must additionally *skip* the key check for
    # disjoint partition sets.
    partitioned_writesets = st.lists(
        st.tuples(
            st.integers(0, 3),  # partition
            st.frozensets(st.integers(0, 5), min_size=1, max_size=3),
        ),
        min_size=2,
        max_size=12,
    )

    @given(entries=partitioned_writesets)
    @settings(max_examples=100, deadline=None)
    def test_disjoint_partition_sets_never_conflict(self, entries):
        """Writesets touching disjoint partition sets never abort each
        other, even when all are concurrent (shared snapshot 0)."""
        certifier = GlobalCertifier()
        outcomes = []
        for txn_id, (partition, rows) in enumerate(entries, start=1):
            writeset = Writeset.from_dict(
                txn_id, 0,
                {("updatable", partition, row): txn_id for row in rows},
                partitions=(partition,),
            )
            outcome = certifier.certify(writeset)
            outcomes.append((partition, rows, outcome))
        for index, (partition, rows, outcome) in enumerate(outcomes):
            if outcome.committed:
                continue
            # Every abort must be justified by a *same-partition*
            # committed overlap that preceded it in certification order.
            culprit = [
                (p, r) for p, r, o in outcomes[:index]
                if o.committed and p == partition and r & rows
            ]
            assert culprit, (
                f"partition {partition} aborted without a same-partition "
                f"conflict"
            )

    @given(
        keysets=st.lists(
            st.frozensets(st.integers(0, 8), min_size=1, max_size=3),
            min_size=2, max_size=12,
        ),
        partition=st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_partition_agrees_with_global_certifier(
        self, keysets, partition
    ):
        """When every writeset shares one partition, the partition-aware
        certifier and a plain keys-only certifier decide identically."""
        scoped = GlobalCertifier()
        unscoped = GlobalCertifier()
        for txn_id, keys in enumerate(keysets, start=1):
            writes = {("updatable", partition, k): txn_id for k in keys}
            a = scoped.certify(Writeset.from_dict(
                txn_id, 0, writes, partitions=(partition,)
            ))
            b = unscoped.certify(Writeset.from_dict(txn_id, 0, writes))
            assert a.committed == b.committed
            assert a.commit_version == b.commit_version
        assert scoped.aborts == unscoped.aborts

    @given(entries=partitioned_writesets)
    @settings(max_examples=60, deadline=None)
    def test_unpartitioned_writeset_is_a_wildcard(self, entries):
        """An unpartitioned writeset conflicts across every partition."""
        certifier = GlobalCertifier()
        keys = set()
        for txn_id, (partition, rows) in enumerate(entries, start=1):
            writes = {("updatable", partition, row): txn_id for row in rows}
            if certifier.certify(Writeset.from_dict(
                txn_id, 0, writes, partitions=(partition,)
            )).committed:
                keys.update(writes)
        if not keys:
            return
        wildcard = Writeset.from_dict(
            9999, 0, {key: 9999 for key in keys}
        )
        assert not certifier.certify(wildcard).committed


class _ScanCertifier(GlobalCertifier):
    """The reference for the last-writer index: every check scans the
    retained history newest-first back to the snapshot."""

    def _find_conflicts(self, snapshot, keys, partitions):
        if snapshot + 1 < self._oldest_retained:
            return set(keys)
        conflicts = set()
        for version, committed_keys, committed_partitions in reversed(
            self._history
        ):
            if version <= snapshot:
                break
            if (partitions and committed_partitions
                    and partitions.isdisjoint(committed_partitions)):
                continue
            conflicts.update(keys & committed_keys)
        return conflicts


class TestCertifierIndexProperties:
    """The last-writer index answers exactly what the history scan does."""

    # ("certify", keys, partitions, how far behind the latest version the
    # snapshot is) or ("observe", how far behind the latest version the
    # reported oldest snapshot is).  Keys overlap across partitions on
    # purpose, so the partition filter decides some conflicts.
    operations = st.lists(
        st.one_of(
            st.tuples(
                st.just("certify"),
                st.frozensets(st.integers(0, 4), min_size=1, max_size=3),
                st.lists(st.integers(0, 2), max_size=2),  # [] = wildcard
                st.integers(0, 4),
            ),
            st.tuples(st.just("observe"), st.integers(0, 4)),
        ),
        min_size=1, max_size=40,
    )

    @given(ops=operations, max_history=st.integers(1, 4))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_index_matches_history_scan(self, ops, max_history):
        indexed = GlobalCertifier(max_history=max_history)
        scanned = _ScanCertifier(max_history=max_history)
        for txn_id, op in enumerate(ops, start=1):
            latest = indexed.latest_version
            if op[0] == "observe":
                for certifier in (indexed, scanned):
                    certifier.observe_snapshot(max(0, latest - op[1]))
                continue
            _, keys, partitions, back = op
            writeset = Writeset.from_dict(
                txn_id, max(0, latest - back), {k: txn_id for k in keys},
                partitions=tuple(partitions),
            )
            a = indexed.certify(writeset)
            b = scanned.certify(writeset)
            assert (a.committed, a.commit_version, a.conflicting_keys) == (
                b.committed, b.commit_version, b.conflicting_keys)
            # The index maps each key to its newest retained writer.
            newest = {}
            for version, committed_keys, _ in indexed._history:
                newest.update(dict.fromkeys(committed_keys, version))
            assert indexed._last_writer == newest
        assert indexed.history_size == scanned.history_size


class TestRunningStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                    max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_welford_matches_two_pass(self, values):
        stats = RunningStats()
        for v in values:
            stats.add(v)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
        assert stats.variance == pytest.approx(var, rel=1e-6, abs=1e-6)
