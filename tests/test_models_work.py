"""Tier-1 guard: how much exact MVA a single-master prediction solves.

Seconds are noisy; the work behind them is not.  For the measured
``tpcw/shopping`` profile this module counts, per single-master
prediction, the population-lattice states the master's balancing passes
compute (``len(lattice._queue)`` summed over the passes) and the
customers the single-class steppers add (slave, read-only and
master-only networks).  A cheaper kernel leaves both counts where they
are.  A change that solves more states — or fewer — moves one and fails
here; re-pin :data:`PINNED` in the same change and say why.
"""

from __future__ import annotations

import pytest

from repro.models import singlemaster
from repro.models.api import SINGLE_MASTER, predict
from repro.profiling import profile_standalone
from repro.queueing import mva
from repro.workloads import tpcw

#: ``replicas -> (lattice states, stepper customers)`` for one prediction.
PINNED = {2: (2624, 7380), 12: (5460, 355)}


@pytest.fixture(scope="module")
def measured():
    return profile_standalone(
        tpcw.SHOPPING, seed=20090401, replay_duration=40.0, mixed_duration=40.0
    ).profile


def solved(monkeypatch, profile, replicas):
    """``(lattice states, stepper customers)`` behind one prediction."""
    lattices, steppers = [], []

    class Lattice(mva.MulticlassLattice):
        def __init__(self, network):
            super().__init__(network)
            lattices.append(self)

    class Stepper(mva.MVAStepper):
        def __init__(self, network):
            super().__init__(network)
            steppers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(singlemaster, "MulticlassLattice", Lattice)
        patch.setattr(mva, "MVAStepper", Stepper)
        predict(SINGLE_MASTER, profile, tpcw.SHOPPING.replication_config(replicas))
    return (
        sum(len(lattice._queue) for lattice in lattices),
        sum(stepper.population for stepper in steppers),
    )


@pytest.mark.parametrize("replicas", sorted(PINNED))
def test_single_master_solves_the_pinned_work(monkeypatch, measured, replicas):
    assert solved(monkeypatch, measured, replicas) == PINNED[replicas]
