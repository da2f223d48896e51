"""The product-form MVA oracle on a wider grid than tier-1 runs.

``tests/test_product_form.py`` checks a few seeded cells in seconds; this
runs every cell of N ∈ {1, 2, 4, 8} × {pinned, random} routing, for the
read-only ``rubis/browsing`` mix (exponential demand: its FIFO disk is
product-form only then) and for the CPU-only twin under exponential,
deterministic and lognormal demand, over 1000 s windows.  Each cell's
oracle is exact MVA — per replica for pinned routing, the whole fleet as
one network for random routing — and each measured throughput carries a
95% batch-means interval.

A correct simulator misses a 95% interval in about one cell in twenty,
so the grid does not require every cell to hold: it fails when more
cells miss than a correct simulator would with 1% probability
(a binomial tail).  A mis-sharing CPU misses every cell; a FIFO CPU
misses six of the seven deterministic cells, enough to fail the grid.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

from repro.simulator.sampling import DETERMINISTIC, EXPONENTIAL, LOGNORMAL

_ORACLE = Path(__file__).resolve().parents[1] / "tests" / "test_product_form.py"
_loader = importlib.util.spec_from_file_location("product_form_oracle", _ORACLE)
oracle = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(oracle)

REPLICAS = (1, 2, 4, 8)
ROUTINGS = ("pinned", "random")
SEED = 20090401


def allowed_misses(cells: int, coverage: float = 0.95,
                   alpha: float = 0.01) -> int:
    """The fewest misses a correct simulator exceeds with probability
    below *alpha*, when each of *cells* intervals covers the truth with
    probability *coverage*."""
    miss = 1.0 - coverage
    below = 0.0
    for allowed in range(cells + 1):
        below += (math.comb(cells, allowed) * miss ** allowed
                  * (1.0 - miss) ** (cells - allowed))
        if 1.0 - below < alpha:
            return allowed
    return cells


def _cells():
    """``(label, spec, clients per replica, replicas, routing,
    distribution)`` for every cell of the grid (one replica routes the
    same way under either policy, so N = 1 runs pinned only)."""
    for replicas in REPLICAS:
        for routing in ROUTINGS[:1] if replicas == 1 else ROUTINGS:
            yield ("browsing", oracle.BROWSING,
                   oracle.BROWSING.clients_per_replica, replicas, routing,
                   EXPONENTIAL)
            for distribution in (EXPONENTIAL, DETERMINISTIC, LOGNORMAL):
                yield ("cpu-only", oracle.CPU_ONLY, oracle.CPU_ONLY_CLIENTS,
                       replicas, routing, distribution)


def test_product_form_grid(fast_mode):
    duration = 200.0 if fast_mode else 1000.0
    rows, misses = [], 0
    for index, cell in enumerate(_cells()):
        label, spec, clients, replicas, routing, distribution = cell
        # A seed per cell: cells sharing client streams would miss
        # together, and the binomial bound assumes independent misses.
        config, interval = oracle.measure(
            spec, replicas, clients, routing, distribution,
            seed=SEED + index, duration=duration,
        )
        model = (oracle.per_replica_oracle if routing == "pinned"
                 else oracle.whole_network_oracle)(spec, config)
        held = oracle.inside(config, interval, model)
        misses += not held
        rows.append(f"  {label:<8s} N={replicas} {routing:<6s} "
                    f"{distribution:<13s} {oracle.describe(interval, model)}"
                    f"{'' if held else '  MISS'}")
    allowed = allowed_misses(len(rows))
    print("\n" + "\n".join(rows))
    print(f"  {misses} of {len(rows)} cells missed (at most {allowed} allowed)")
    assert misses <= allowed
