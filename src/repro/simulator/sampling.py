"""Stochastic transaction generation for the simulator.

Transactions are drawn from a :class:`~repro.workloads.spec.WorkloadSpec`:
the class (read-only vs update) is Bernoulli(Pw); per-attempt service times
at the CPU and disk are exponentially distributed around the ground-truth
mean demands (MVA's service-distribution assumption, probed by ablations);
update transactions touch ``U`` uniformly chosen rows of the updatable set.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

import numpy as np

from ..core import rng as rng_util
from ..core.errors import ConfigurationError
from ..sidb.writeset import Writeset
from ..workloads.spec import WorkloadSpec

#: Global transaction-id source for the whole process; ids only need to be
#: unique within a run, monotonicity is convenient for traces.
_txn_ids = itertools.count(1)

#: Service-time distributions supported by the sampler (ablation §3.4/6).
EXPONENTIAL = "exponential"
DETERMINISTIC = "deterministic"
LOGNORMAL = "lognormal"
DISTRIBUTIONS = (EXPONENTIAL, DETERMINISTIC, LOGNORMAL)

#: Coefficient of variation used for the lognormal ablation.
_LOGNORMAL_CV = 1.0

#: Exponential draws a :class:`ServiceSampler` takes per numpy call.
_BLOCK = 256


def next_txn_id() -> int:
    """Allocate a fresh transaction id."""
    return next(_txn_ids)


class _ServiceTimes:
    """The six per-attempt service-time draws, around the workload's
    ground-truth mean demands; ``_draw(mean)`` is the one primitive."""

    def __init__(self, spec: WorkloadSpec, rng: np.random.Generator,
                 distribution: str) -> None:
        if distribution not in DISTRIBUTIONS:
            raise ConfigurationError(
                f"distribution must be one of {DISTRIBUTIONS}, got {distribution!r}"
            )
        self._spec = spec
        self._rng = rng
        self._distribution = distribution
        self._demands = spec.demands

    def _draw(self, mean: float) -> float:
        if mean <= 0.0:
            return 0.0
        if self._distribution == EXPONENTIAL:
            return float(self._rng.exponential(mean))
        if self._distribution == DETERMINISTIC:
            return mean
        # Lognormal with the configured coefficient of variation.
        sigma2 = np.log(1.0 + _LOGNORMAL_CV**2)
        mu = np.log(mean) - sigma2 / 2.0
        return float(self._rng.lognormal(mean=mu, sigma=np.sqrt(sigma2)))

    def read_cpu(self) -> float:
        """CPU time of one read-only transaction."""
        return self._draw(self._demands.read.cpu)

    def read_disk(self) -> float:
        """Disk time of one read-only transaction."""
        return self._draw(self._demands.read.disk)

    def update_cpu(self) -> float:
        """CPU time of one update-transaction attempt."""
        return self._draw(self._demands.write.cpu)

    def update_disk(self) -> float:
        """Disk time of one update-transaction attempt."""
        return self._draw(self._demands.write.disk)

    def writeset_cpu(self) -> float:
        """CPU time to apply one propagated writeset."""
        return self._draw(self._demands.writeset.cpu)

    def writeset_disk(self) -> float:
        """Disk time to apply one propagated writeset."""
        return self._draw(self._demands.writeset.disk)


class ServiceSampler(_ServiceTimes):
    """Service-time draws on a stream that draws nothing else (a fleet
    replica's, or the profiler's replayed database's).

    Exponential draws are taken :data:`_BLOCK` at a time.  numpy's
    ``exponential(scale)`` is ``scale * standard_exponential()`` on the
    same bit stream, so ``mean * block[i]`` reproduces the scalar draws
    bit for bit — but only while every draw of the stream goes through
    the block, which is why this type has no client draws (class,
    think time, partitions, rows).  Deterministic and lognormal draws
    stay scalar.
    """

    def __init__(self, spec: WorkloadSpec, rng: np.random.Generator,
                 distribution: str = EXPONENTIAL) -> None:
        super().__init__(spec, rng, distribution)
        self._exponential = distribution == EXPONENTIAL
        self._block: List[float] = []
        self._next = _BLOCK

    def _draw(self, mean: float) -> float:
        if mean <= 0.0 or not self._exponential:
            return super()._draw(mean)
        index = self._next
        if index == _BLOCK:
            self._block = self._rng.standard_exponential(_BLOCK).tolist()
            index = 0
        self._next = index + 1
        return mean * self._block[index]


class WorkloadSampler(_ServiceTimes):
    """Draws transaction classes, service times, and conflict footprints.

    A client's stream interleaves every kind of draw, so its service
    times are scalar draws (:class:`ServiceSampler` is the block-drawing
    form for streams that only draw service times).

    For partitioned workloads (``spec.partitions > 1``) the sampler also
    draws each transaction's partition set: a weighted primary partition,
    plus — for updates, with probability
    ``spec.cross_partition_fraction`` — a second partition *co-located*
    with the primary under *partition_map* (so some replica can execute
    the whole transaction; no distributed commit is modelled).  All
    partition draws are guarded behind ``spec.partitions > 1``:
    unpartitioned workloads consume exactly the RNG stream they always
    did, keeping every existing run byte-identical.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        rng: np.random.Generator,
        distribution: str = EXPONENTIAL,
        partition_map=None,
    ) -> None:
        super().__init__(spec, rng, distribution)
        self._partition_weights = None
        self._partners = None
        if spec.partitions > 1:
            if spec.partition_weights is not None:
                total = float(sum(spec.partition_weights))
                self._partition_weights = tuple(
                    w / total for w in spec.partition_weights
                )
            # Precompute each partition's co-located partners once: the
            # map is frozen and this runs on every cross-partition draw.
            if partition_map is not None:
                self._partners = tuple(
                    partition_map.colocated_partners(p)
                    for p in range(spec.partitions)
                )
            else:
                self._partners = tuple(
                    tuple(q for q in range(spec.partitions) if q != p)
                    for p in range(spec.partitions)
                )

    def next_is_update(self) -> bool:
        """Decide the class of the next transaction (Bernoulli(Pw))."""
        pw = self._spec.mix.write_fraction
        if pw <= 0.0:
            return False
        return bool(self._rng.random() < pw)

    def think_time(self) -> float:
        """One exponential think-time draw (closed-loop model, §3.1)."""
        return rng_util.exponential(self._rng, self._spec.think_time)

    # Partition footprint ------------------------------------------------

    def _sample_primary_partition(self) -> int:
        """Weighted draw of one partition (uniform without weights)."""
        if self._partition_weights is None:
            return int(self._rng.integers(0, self._spec.partitions))
        return rng_util.choice_index(self._rng, self._partition_weights)

    def sample_partition_set(self, is_update: bool) -> Tuple[int, ...]:
        """Draw the partitions one transaction touches.

        Unpartitioned workloads return ``()`` without consuming the RNG.
        Reads touch their primary partition only; updates additionally
        touch one *co-located* partition with probability
        ``cross_partition_fraction`` (co-location taken from the
        partition map; without a map any partner qualifies, matching the
        full-replication default).
        """
        if self._spec.partitions <= 1:
            return ()
        primary = self._sample_primary_partition()
        if (
            not is_update
            or self._spec.cross_partition_fraction <= 0.0
            or self._rng.random() >= self._spec.cross_partition_fraction
        ):
            return (primary,)
        partners = self._partners[primary]
        if not partners:
            return (primary,)
        partner = partners[int(self._rng.integers(0, len(partners)))]
        return tuple(sorted((primary, partner)))

    # Conflict footprint -------------------------------------------------

    def sample_writeset(
        self, snapshot_version: int, partitions: Tuple[int, ...] = ()
    ) -> Writeset:
        """Build the writeset of one update attempt.

        Each attempt (including retries) re-samples its rows, modelling the
        re-execution of the transaction logic against fresh data.  With a
        non-empty *partitions* tuple the ``U`` rows are drawn from the
        touched partitions' own row ranges (the updatable set splits
        evenly: ``DbUpdateSize // partitions`` rows each) and keys are
        partition-qualified, so disjoint partitions never share a key.
        """
        conflict = self._spec.conflict
        if conflict is None:
            raise ConfigurationError(
                f"workload {self._spec.name} has no conflict profile"
            )
        txn_id = next_txn_id()
        if not partitions:
            rows = rng_util.sample_rows(
                self._rng, conflict.db_update_size,
                conflict.updates_per_transaction,
            )
            writes = {("updatable", row): txn_id for row in rows}
            return Writeset.from_dict(txn_id, snapshot_version, writes)

        per_partition = conflict.db_update_size // self._spec.partitions
        count = conflict.updates_per_transaction
        writes = {}
        touched = []
        # Spread U rows over the touched partitions, first partitions
        # taking the remainder (a 2-partition U=3 update writes 2 + 1).
        base, extra = divmod(count, len(partitions))
        for index, partition in enumerate(partitions):
            share = base + (1 if index < extra else 0)
            if share == 0:
                continue
            touched.append(partition)
            for row in rng_util.sample_rows(self._rng, per_partition, share):
                writes[("updatable", partition, row)] = txn_id
        return Writeset.from_dict(
            txn_id, snapshot_version, writes, partitions=tuple(touched)
        )
