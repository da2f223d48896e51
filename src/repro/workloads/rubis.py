"""RUBiS workload mixes (Tables 4 and 5 of the paper).

RUBiS [Amza 2002] models an auction site like eBay.  The browsing mix is
entirely read-only; the bidding mix has 20% update transactions.  RUBiS
updates are disk-heavy: they enforce integrity constraints and maintain
indexes, so the cost of applying a propagated writeset (35.28 ms of disk)
is only slightly below the full update cost — which is exactly why the
bidding mix peaks at ~6 replicas on the multi-master system (Figure 10).

Scale: 1M users, 10,000 active items, 500,000 old items (2.2 GB database).
Bids target active items, so the conflict footprint is ``U = 2`` uniform
updates over ``DbUpdateSize = 10,000`` active-item rows.
"""

from __future__ import annotations

from typing import Dict

from ..core.params import ConflictProfile, WorkloadMix
from .spec import WorkloadSpec, demands_ms

# Bids update an item row and insert bid/comment rows (inserts never
# conflict); the conflicting updates spread over the active items and the
# user tables, keeping the standalone abort rate well below 0.1%.
_CONFLICT = ConflictProfile(db_update_size=40_000, updates_per_transaction=2)

#: Average propagated writeset size (§6.1).
WRITESET_BYTES = 272

#: Database size (§6.1).
DATABASE_SIZE_MB = 2200.0

BROWSING = WorkloadSpec(
    benchmark="rubis",
    mix_name="browsing",
    mix=WorkloadMix(read_fraction=1.0, write_fraction=0.0),
    demands=demands_ms(read_cpu=25.29, read_disk=11.36),
    clients_per_replica=50,
    think_time=1.0,
    conflict=None,
    writeset_bytes=0,
    database_size_mb=DATABASE_SIZE_MB,
    description="RUBiS browsing mix: 100% read-only, linear scalability",
)

BIDDING = WorkloadSpec(
    benchmark="rubis",
    mix_name="bidding",
    mix=WorkloadMix(read_fraction=0.80, write_fraction=0.20),
    demands=demands_ms(
        read_cpu=25.29, read_disk=11.36,
        write_cpu=41.51, write_disk=48.61,
        writeset_cpu=9.83, writeset_disk=35.28,
    ),
    clients_per_replica=50,
    think_time=1.0,
    conflict=_CONFLICT,
    writeset_bytes=WRITESET_BYTES,
    database_size_mb=DATABASE_SIZE_MB,
    description=(
        "RUBiS bidding mix: 20% updates with expensive writeset application "
        "(index maintenance), peaks near 6 replicas on multi-master"
    ),
)

#: All RUBiS mixes keyed by name, in paper order.
MIXES: Dict[str, WorkloadSpec] = {
    "browsing": BROWSING,
    "bidding": BIDDING,
}


def get_mix(name: str) -> WorkloadSpec:
    """Look up a RUBiS mix by name (raises KeyError with choices listed)."""
    try:
        return MIXES[name]
    except KeyError:
        raise KeyError(
            f"unknown RUBiS mix {name!r}; choose from {sorted(MIXES)}"
        ) from None
