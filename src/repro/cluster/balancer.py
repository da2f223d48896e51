"""Front-end load balancing for the live cluster runtime.

The routing policies — least-loaded, pinned, random, conflict-aware — are
shared verbatim with the simulator: one implementation,
:func:`repro.simulator.systems.select_replica`, so the two execution
engines can never drift apart on routing behaviour.  This class adds only
what a *threaded* front end needs: a lock around the RNG, since ``select``
is called concurrently from every client thread.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from ..simulator.systems import (
    CAPACITY_WEIGHTED,
    CONFLICT_AWARE,
    LB_POLICIES,
    LEAST_LOADED,
    PARTITION_AWARE,
    PINNED,
    RANDOM,
    select_replica,
)

#: Policy names re-exported for callers that think in terms of the live
#: balancer (tests and the cluster runtime import them from here).
__all__ = [
    "CAPACITY_WEIGHTED",
    "CONFLICT_AWARE",
    "LB_POLICIES",
    "LEAST_LOADED",
    "LoadBalancer",
    "PARTITION_AWARE",
    "PINNED",
    "RANDOM",
    "select_replica",
]


class LoadBalancer:
    """Routes transactions to replicas according to a named policy (one
    of :data:`LB_POLICIES`, checked with the run's other options by
    :meth:`~repro.simulator.systems.RunOptions.validate`)."""

    def __init__(self, policy: str, rng: np.random.Generator) -> None:
        self.policy = policy
        self._rng = rng
        self._rng_lock = threading.Lock()

    def select(
        self, candidates: Sequence, client_id: int, is_update: bool = False,
        partitions: Sequence = (),
    ):
        """Pick an *available* replica for one transaction.

        *partitions* restricts routing to replicas hosting the
        transaction's data (partial replication) — the shared filter in
        :func:`~repro.simulator.systems.select_replica` applies to every
        policy.
        """
        if self.policy == RANDOM:
            # Only the random policy touches the shared RNG; the others
            # route lock-free so the balancer never serializes clients.
            with self._rng_lock:
                return select_replica(
                    self.policy, candidates, client_id, is_update, self._rng,
                    partitions=partitions,
                )
        return select_replica(
            self.policy, candidates, client_id, is_update, self._rng,
            partitions=partitions,
        )
