"""Oracles for the DES write path: writeset application and shard floors.

Writeset application at a simulated replica is a callback object
(:class:`repro.simulator.replica._Apply`), not a generator process, and
the sharded certification path keeps its pinned prune floors in lazy
per-shard heaps instead of re-sweeping every pinned vector.  Both were
written to fire exactly like the code they replaced, which is kept here
as the reference:

* ``ReferenceSimReplica`` / ``ReferenceShardedSimReplica`` apply each
  writeset in a generator process of its own (``_apply_one`` /
  ``_apply_one_sharded``), behind the regression-only delivery check;
* :func:`reference_floors` is the full ``_shard_minima`` sweep over the
  replicas' applied vectors and every pinned vector.

Random fan-out schedules — down/up with deferred catch-up, crashes,
partial hosting (free markers), shard lanes and competing CPU work —
must give identical ``(time, label)`` traces, watermarks and
``writesets_applied``; random pin/apply/release interleavings must hand
``observe_snapshot`` identical floors.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rng as rng_util
from repro.core.errors import SimulationError
from repro.sidb.certifier_api import CertifierSpec
from repro.simulator.des import Environment, Service
from repro.simulator.replica import SimReplica
from repro.simulator.sampling import ServiceSampler
from repro.simulator.sharded import ShardedCertification, ShardedSimReplica
from repro.simulator.systems import GlobalCertification, hosts_any
from repro.workloads import tpcw

SHARDS = 4


class ReferenceSimReplica(SimReplica):
    """The generator-process applier, as it was."""

    def enqueue_writeset(self, commit_version, charged=True):
        if commit_version <= self._enqueued_version:
            raise SimulationError(f"{self.name}: out of order")
        self.recorder.delivered(self.name, commit_version)
        self._enqueued_version = commit_version
        if self.failed:
            return
        if not self._available:
            self._deferred.append((commit_version, charged))
            return
        self._start_apply(commit_version, charged)

    def _start_apply(self, commit_version, charged):
        if charged:
            self._env.start(
                self._apply_one(commit_version, self.recorder.mark())
            )
        else:
            self._mark_applied(commit_version)
            self.recorder.applied(
                self.name, commit_version, False, self.hosted_partitions
            )

    def _apply_one(self, commit_version, started):
        yield Service(self.cpu, self.sampler.writeset_cpu())
        yield Service(self.disk, self.sampler.writeset_disk())
        self.writesets_applied += 1
        self._mark_applied(commit_version)
        self.recorder.applied(
            self.name, commit_version, True, self.hosted_partitions,
            started=started,
        )

    def _mark_applied(self, commit_version):
        heapq.heappush(self._completed_out_of_order, commit_version)
        while (
            self._completed_out_of_order
            and self._completed_out_of_order[0] == self.applied_version + 1
        ):
            heapq.heappop(self._completed_out_of_order)
            self.applied_version += 1

    def _flush_deferred(self):
        deferred, self._deferred = self._deferred, []
        for commit_version, charged in deferred:
            self._start_apply(commit_version, charged)


class ReferenceShardedSimReplica(ShardedSimReplica):
    """The generator-process shard applier, as it was."""

    def enqueue_shard_writeset(self, shard_versions, charged=True):
        for partition, version in shard_versions:
            if version <= self._enqueued_vector[partition]:
                raise SimulationError(f"{self.name}: out of order")
        for partition, version in shard_versions:
            self.recorder.delivered(self.name, version, shard=partition)
            self._enqueued_vector[partition] = version
        self._enqueued_version = sum(self._enqueued_vector.values())
        if self.failed:
            return
        if not self._available:
            self._deferred.append((shard_versions, charged))
            return
        self._start_apply_sharded(shard_versions, charged)

    def _start_apply_sharded(self, shard_versions, charged):
        if charged:
            self._env.start(
                self._apply_one_sharded(shard_versions, self.recorder.mark())
            )
            return
        for partition, version in shard_versions:
            self._mark_shard_applied(partition, version)
            self.recorder.applied(
                self.name, version, False, self.hosted_partitions,
                shard=partition,
            )

    def _apply_one_sharded(self, shard_versions, started):
        yield Service(self.cpu, self.sampler.writeset_cpu())
        yield Service(self.disk, self.sampler.writeset_disk())
        self.writesets_applied += 1
        home = shard_versions[0][0]
        for partition, version in shard_versions:
            self._mark_shard_applied(partition, version)
            self.recorder.applied(
                self.name, version, partition == home,
                self.hosted_partitions, shard=partition,
                started=started if partition == home else None,
            )

    def _mark_shard_applied(self, partition, version):
        heap = self._shard_ahead[partition]
        heapq.heappush(heap, version)
        while heap and heap[0] == self.applied_vector[partition] + 1:
            heapq.heappop(heap)
            self.applied_vector[partition] += 1
            self.applied_version += 1

    def _flush_deferred(self):
        deferred, self._deferred = self._deferred, []
        for shard_versions, charged in deferred:
            self._start_apply_sharded(shard_versions, charged)


class TraceRecorder:
    """The replica-side recorder hooks, logged as ``(time, label)``."""

    def __init__(self, env, trace):
        self._env = env
        self._trace = trace

    def _log(self, label):
        self._trace.append((self._env.now, label))

    def mark(self):
        return self._env.now

    def delivered(self, replica, version, shard=None):
        self._log(f"{replica} delivered {shard}:{version}")

    def applied(self, replica, version, charged, hosted, shard=None,
                started=None):
        self._log(f"{replica} applied {shard}:{version} {charged} {started}")

    def crashed(self, replica):
        self._log(f"{replica} crashed")


def _reference_fan_out(members, outcome, origin, partitions, sharded):
    """The per-member ``path.deliver`` loop the fan-out replaced."""
    for member in members:
        charged = member is not origin and hosts_any(member, partitions)
        if sharded:
            member.enqueue_shard_writeset(outcome.shard_versions,
                                          charged=charged)
        else:
            member.enqueue_writeset(outcome.commit_version, charged=charged)


_hosting = st.one_of(st.none(), st.frozensets(st.integers(0, SHARDS - 1),
                                              min_size=1))
#: One schedule step: a gap, then a commit at a member touching some
#: partitions, competing CPU work, a member going down or up, or a crash.
_step = st.tuples(
    st.floats(0.0, 0.03),
    st.one_of(
        st.tuples(st.just("commit"), st.integers(0, 3),
                  st.frozensets(st.integers(0, SHARDS - 1), max_size=3)),
        st.tuples(st.just("work"), st.integers(0, 3), st.floats(0.0, 0.05)),
        st.tuples(st.sampled_from(["down", "up", "crash"]),
                  st.integers(0, 3), st.just(None)),
    ),
)


def _sharded_path(env):
    return ShardedCertification(
        env, SimpleNamespace(partitions=SHARDS),
        SimpleNamespace(certifier_delay=0.0), CertifierSpec("sharded"),
    )


def _fan_out_run(kind, sharded, hosting, steps):
    """Drive *steps* against a fleet of *kind* replicas; return the
    trace and each member's final replication state."""
    env = Environment()
    trace = []
    recorder = TraceRecorder(env, trace)
    if kind == "reference":
        cls = ReferenceShardedSimReplica if sharded else ReferenceSimReplica
    else:
        cls = ShardedSimReplica if sharded else SimReplica
    extra = {"partitions": SHARDS} if sharded else {}
    members = []
    for index, hosted in enumerate(hosting):
        sampler = ServiceSampler(tpcw.ORDERING, rng_util.make_rng(index))
        member = cls(env, f"r{index}", sampler, **extra)
        member.hosted_partitions = hosted
        member.recorder = recorder
        members.append(member)
    path = (_sharded_path(env) if sharded else GlobalCertification(env))
    lanes = [0] * SHARDS
    version = 0

    def commit(origin, partitions):
        nonlocal version
        if sharded:
            touched = sorted(partitions) or [origin % SHARDS]
            partitions = frozenset(touched)
            for p in touched:
                lanes[p] += 1
            outcome = SimpleNamespace(
                shard_versions=tuple((p, lanes[p]) for p in touched))
        else:
            version += 1
            outcome = SimpleNamespace(commit_version=version)
        origin = members[origin % len(members)]
        if kind == "reference":
            _reference_fan_out(members, outcome, origin, partitions, sharded)
        else:
            path.propagate(members, outcome, origin, partitions)

    def act(step, index, value):
        member = members[index % len(members)]
        if step == "commit":
            commit(index, value)
        elif step == "work":
            member.cpu.submit(value, lambda: recorder._log(f"{member.name} work"))
        elif step == "down":
            member.available = False
        elif step == "up":
            member.available = True
        else:
            member.crash()

    at = 0.0
    for gap, (step, index, value) in steps:
        at += gap
        env.schedule(at, act, step, index, value)
    env.run_until(at + 60.0)
    state = [(m.applied_version, m._enqueued_version, m.writesets_applied,
              dict(getattr(m, "applied_vector", {})))
             for m in members]
    return trace, state


@pytest.mark.parametrize("sharded", [False, True],
                         ids=["global", "shard-lanes"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(_hosting, min_size=1, max_size=4),
       st.lists(_step, max_size=40))
def test_apply_chain_fires_exactly_like_the_reference(sharded, hosting,
                                                      steps):
    want = _fan_out_run("reference", sharded, hosting, steps)
    assert _fan_out_run("current", sharded, hosting, steps) == want


def test_a_skipped_shard_version_is_refused():
    env = Environment()
    replica = ShardedSimReplica(
        env, "r0", ServiceSampler(tpcw.ORDERING, rng_util.make_rng(0)),
        partitions=2,
    )
    replica.enqueue_shard_writeset(((0, 1), (1, 1)), charged=False)
    with pytest.raises(SimulationError, match="shard 1 .* out of order"):
        replica.enqueue_shard_writeset(((1, 3),), charged=False)
    replica.enqueue_shard_writeset(((1, 2),), charged=False)
    assert replica.applied_vector == {0: 1, 1: 2}
    assert replica.applied_version == 3


def test_a_scalar_writeset_is_refused_by_a_sharded_replica():
    env = Environment()
    replica = ShardedSimReplica(
        env, "r0", ServiceSampler(tpcw.ORDERING, rng_util.make_rng(0)),
        partitions=2,
    )
    with pytest.raises(SimulationError, match="enqueue_shard_writeset"):
        replica.enqueue_writeset(1, charged=False)
    assert replica.applied_vector == {0: 0, 1: 0}


# ---------------------------------------------------------------------------
# Shard prune floors
# ---------------------------------------------------------------------------


def _shard_minima(vectors, shards):
    """Each shard's minimum over *vectors* (an absent shard counts as 0)."""
    zeros = (0,) * len(shards)
    return map(min, zip(*[map(vector.get, shards, zeros)
                          for vector in vectors]))


def reference_floors(replicas, pinned, shards):
    """The floors as the full sweep computed them on every release."""
    floors = _shard_minima((r.applied_vector for r in replicas), shards)
    if pinned:
        floors = map(min, floors, _shard_minima(pinned.values(), shards))
    return {p: max(0, floor) for p, floor in zip(shards, floors)}


#: One interleaving step: pin a replica's vector, apply one version on a
#: replica's lane, or release the n-th oldest live pin.
_floor_step = st.one_of(
    st.tuples(st.just("pin"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("apply"), st.integers(0, 3),
              st.integers(0, SHARDS - 1)),
    st.tuples(st.just("release"), st.integers(0, 40), st.just(0)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.lists(_floor_step, max_size=80))
def test_incremental_floors_equal_the_sweep(replica_count, steps):
    path = _sharded_path(Environment())
    handed = []
    path.certifier.observe_snapshot = handed.append
    replicas = [SimpleNamespace(applied_vector=dict.fromkeys(range(SHARDS), 0),
                                applied_version=0)
                for _ in range(replica_count)]
    shards = range(SHARDS)
    pinned = {}
    for step, index, shard in steps:
        replica = replicas[index % replica_count]
        if step == "pin":
            _, token = path.pin(replica)
            pinned[token] = dict(replica.applied_vector)
        elif step == "apply":
            replica.applied_vector[shard] += 1
            replica.applied_version += 1
        elif pinned:
            token = sorted(pinned)[index % len(pinned)]
            del pinned[token]
            path.release(token, replicas)
            assert handed.pop() == reference_floors(replicas, pinned, shards)
    assert handed == []
