"""Scaled wall-clock time for the live cluster runtime.

The cluster executes real transactions but charges *scaled* durations: a
virtual duration ``d`` (seconds, as the workload specs define them) is
slept for ``d * time_scale`` wall seconds.  All measurements are reported
in virtual seconds, so throughput and response times are directly
comparable with the discrete-event simulator and the analytical model,
while a 25-virtual-second run finishes in 2.5 wall seconds at the default
scale of 0.1.

Every sleep wakes late by the scheduler's overshoot (tens of
microseconds).  Each emulated CPU and disk and each open-loop arrival
stream sleeps to an absolute virtual deadline on its own timeline
(:meth:`VirtualClock.sleep_until`), so a late wake-up is absorbed by the
next sleep on the same timeline instead of compounding.  A closed-loop
client thinks from its previous measured completion: the harness time
between that completion and the think is absorbed, but the think's own
wake-up overshoot still delays the next transaction.  Delays that start
at a measured instant (the load-balancer hop, the certifier response),
the certifier service tokens and the first service of a busy period pay
overshoot on top.

Choosing ``time_scale``: smaller is faster but squeezes the emulated
service times toward the scheduler's sleep resolution.  Measured on
tpcw/shopping, N=2 multi-master, an 80 s window against a 200 s DES
reference, on a 2-core Linux VM (live ÷ DES, seeds 20090401 / 7):

==========  =========  =========  =========  =========  =========  =========
time_scale  0.1        0.05       0.03       0.02       0.01       0.005
throughput  1.03/1.02  1.03/1.01  1.03/1.01  1.01/1.01  0.99/1.00  0.90/0.92
response    0.94/0.91  0.94/0.94  0.95/0.95  0.97/0.93  1.04/0.98  1.33/1.23
==========  =========  =========  =========  =========  =========  =========

Both ratios are flat down to 0.02, the fidelity floor; at 0.01
throughput holds but response starts to climb, and at 0.005 both drift.
The flat response ratio under 1 is not overshoot: at a saturated CPU it
mirrors the 1-3% throughput excess (R = N/X - Z).  The FIFO live CPU
against the simulator's processor-sharing one shows in the per-class
split instead (see :mod:`repro.cluster.resources`).
"""

from __future__ import annotations

import time

from ..core.errors import ConfigurationError


class VirtualClock:
    """Maps between wall-clock and virtual (spec) seconds."""

    def __init__(self, time_scale: float = 0.1) -> None:
        if time_scale <= 0.0:
            raise ConfigurationError(
                f"time_scale must be positive, got {time_scale}"
            )
        self.time_scale = time_scale
        self._t0 = time.monotonic()

    def now(self) -> float:
        """Current virtual time in seconds since the clock was created."""
        return (time.monotonic() - self._t0) / self.time_scale

    def sleep(self, virtual_duration: float) -> None:
        """Sleep *virtual_duration* virtual seconds (scaled wall sleep).

        The wake-up overshoot is added on top: use it for delays that
        start at a measured instant, and :meth:`sleep_until` for work
        paced on a timeline.
        """
        if virtual_duration > 0.0:
            time.sleep(virtual_duration * self.time_scale)

    def sleep_until(self, virtual_time: float) -> None:
        """Sleep until virtual time *virtual_time*; return at once if it
        has already passed."""
        remaining = (self._t0 + virtual_time * self.time_scale
                     - time.monotonic())
        if remaining > 0.0:
            time.sleep(remaining)

    def to_wall(self, virtual_duration: float) -> float:
        """Convert a virtual duration to wall seconds."""
        return virtual_duration * self.time_scale
