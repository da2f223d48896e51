"""TPC-W workload mixes (Tables 2 and 3 of the paper).

TPC-W models an online bookstore.  The three mixes differ in their update
fraction: browsing 5%, shopping 20% (the primary mix), ordering 50%.
Service demands below are the paper's measured values on PostgreSQL 8.0.3
(single Xeon 2.4 GHz, §6.1); they are the ground truth our simulator
reproduces and our profiler re-measures.

The standard scale is 100 EBs and 10,000 items (700 MB database).  Update
transactions touch a handful of rows in the item/order tables; we model the
conflict footprint as ``U = 3`` uniform updates over ``DbUpdateSize =
10,000`` updatable rows, which yields standalone abort rates of the order
the paper reports (A1 < 0.023%).
"""

from __future__ import annotations

from typing import Dict

from ..core.params import ConflictProfile, WorkloadMix
from .spec import WorkloadSpec, demands_ms

#: Conflict footprint shared by the three mixes.  TPC-W update
#: transactions mostly insert into growing order tables (inserts never
#: conflict); the conflicting row updates (item stock, customer balances)
#: spread over roughly 40k rows with ~2 updated rows per transaction, which
#: reproduces the paper's standalone abort rates (A1 < 0.023% for all
#: mixes, §6.2.1).
_CONFLICT = ConflictProfile(db_update_size=40_000, updates_per_transaction=2)

#: Average propagated writeset size (§6.1).
WRITESET_BYTES = 275

#: Database size (§6.1).
DATABASE_SIZE_MB = 700.0

BROWSING = WorkloadSpec(
    benchmark="tpcw",
    mix_name="browsing",
    mix=WorkloadMix(read_fraction=0.95, write_fraction=0.05),
    demands=demands_ms(
        read_cpu=41.62, read_disk=14.56,
        write_cpu=17.47, write_disk=8.74,
        writeset_cpu=3.48, writeset_disk=2.62,
    ),
    clients_per_replica=30,
    think_time=1.0,
    conflict=_CONFLICT,
    writeset_bytes=WRITESET_BYTES,
    database_size_mb=DATABASE_SIZE_MB,
    description="TPC-W browsing mix: 95% read-only, near-linear scalability",
)

SHOPPING = WorkloadSpec(
    benchmark="tpcw",
    mix_name="shopping",
    mix=WorkloadMix(read_fraction=0.80, write_fraction=0.20),
    demands=demands_ms(
        read_cpu=41.43, read_disk=15.11,
        write_cpu=12.51, write_disk=6.05,
        writeset_cpu=3.18, writeset_disk=1.81,
    ),
    clients_per_replica=40,
    think_time=1.0,
    conflict=_CONFLICT,
    writeset_bytes=WRITESET_BYTES,
    database_size_mb=DATABASE_SIZE_MB,
    description="TPC-W shopping mix: 80% read-only, the primary TPC-W workload",
)

ORDERING = WorkloadSpec(
    benchmark="tpcw",
    mix_name="ordering",
    mix=WorkloadMix(read_fraction=0.50, write_fraction=0.50),
    demands=demands_ms(
        read_cpu=22.46, read_disk=12.62,
        write_cpu=13.48, write_disk=8.34,
        writeset_cpu=4.04, writeset_disk=1.67,
    ),
    clients_per_replica=50,
    think_time=1.0,
    conflict=_CONFLICT,
    writeset_bytes=WRITESET_BYTES,
    database_size_mb=DATABASE_SIZE_MB,
    description="TPC-W ordering mix: 50% updates, writeset-propagation bound",
)

#: All TPC-W mixes keyed by name, in paper order.
MIXES: Dict[str, WorkloadSpec] = {
    "browsing": BROWSING,
    "shopping": SHOPPING,
    "ordering": ORDERING,
}


def get_mix(name: str) -> WorkloadSpec:
    """Look up a TPC-W mix by name (raises KeyError with choices listed)."""
    try:
        return MIXES[name]
    except KeyError:
        raise KeyError(
            f"unknown TPC-W mix {name!r}; choose from {sorted(MIXES)}"
        ) from None
