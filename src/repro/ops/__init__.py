"""Self-healing operations over both execution pillars.

The paper motivates replication with fault tolerance but evaluates only
performance; PR 1 added fault injection and PR 3 added elastic membership.
This package closes the loop between them, turning the reproduction into
an *operable* system:

* **failure detection + replacement** — a :class:`~repro.ops.health.
  HealthMonitor` rides the autoscale control loop, spots crashed replicas
  (crash = stopped consuming writesets, not just load-balancer drain),
  force-detaches them (no drain: there is nothing left to drain) and
  rejoins a fresh member via PR 3's snapshot + writeset-replay state
  transfer — recording MTTR, the unavailability window, and the lost
  throughput in the run timeline;
* **rolling upgrades** — :mod:`repro.ops.rolling` cycles replicas one at
  a time (drain → detach → rejoin via state transfer) while SLOs are
  tracked, in both the DES systems and the live clusters;
* **heterogeneous-capacity pools** — replicas carry a ``capacity``
  multiplier threaded through the simulator's service-time scaling, the
  clusters' scaled clocks, the capacity-weighted load-balancer policy,
  and :func:`repro.models.planning.plan_mixed_fleet`.

Everything an operation *does* to a run is declared up front in a frozen
:class:`~repro.ops.plan.OpsPlan`, so operations scenarios are cache-key
citizens of the sweep engine like any other point.  The registered
scenarios (``selfheal-crashstorm``, ``rolling-upgrade``, ``hetero-fleet``
and their ``-live`` variants) live in :mod:`repro.ops.scenarios`; run one
by name with ``repro run selfheal-crashstorm``.
"""

from .events import OpsEvent, OpsSummary, summarize
from .health import HealthMonitor
from .plan import OpsPlan
from .rolling import rolling_restart

__all__ = [
    "HealthMonitor",
    "OpsEvent",
    "OpsPlan",
    "OpsSummary",
    "rolling_restart",
    "summarize",
]
