"""Autoscaling controllers: decide how many replicas the system needs.

Three policies, all sharing one tiny protocol (:class:`Controller`):

* **model-feedforward** — the paper's dynamic-provisioning use case: size
  each forecast window with :class:`repro.models.planning.ReplicaScan`,
  consuming only the *standalone* profile.  The trace is the forecast (a
  data-center operator provisioning for a diurnal cycle knows tomorrow
  looks like today); the controller reads the worst case of the upcoming
  window and asks the model for the smallest deployment that serves it
  within the latency SLA, with head-room.
* **reactive threshold** — the model-free baseline every cloud offers:
  scale up when utilization or p95 latency crosses a high-water mark,
  scale down after sustained low utilization (hysteresis via patience
  counters, so one quiet interval does not flap the fleet).
* **static peak** — the control: one model call at build time sizes the
  system for the trace's peak, and it never moves.  Replica-hours saved
  by the other policies are measured against this.

Policies are *declarative* frozen dataclasses (stable ``repr``/pickle, so
they ride inside engine sweep points and cache keys);
:func:`make_controller` binds one to a concrete design, profile, and trace,
returning the stateful controller the harness ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.params import ReplicationConfig, StandaloneProfile
from ..models.planning import ReplicaScan
from .trace import LoadTrace

#: Policy kinds, in the order comparisons report them.
POLICY_KINDS = ("feedforward", "reactive", "static-peak", "fixed")


@dataclass(frozen=True)
class ControlObservation:
    """What a controller sees at one control tick."""

    #: Current time (virtual seconds).
    now: float
    #: Replicas provisioned and serving (not draining away).
    members: int
    #: Replicas attached in any state — joining and draining included
    #: (what the deployment is paying for right now).
    attached: int
    #: Offered load of the trace at ``now`` (tps).
    offered_rate: float
    #: Transactions committed in the last control interval.
    commits: int
    #: Committed throughput over the last interval (tps).
    throughput: float
    #: Mean / p95 response time over the last interval (seconds).
    mean_response: float
    p95_response: float
    #: Busiest resource's utilization over the last interval, in [0, 1+).
    max_utilization: float
    #: Multi-window error-budget burn rates
    #: (:class:`repro.control.slo.BurnRate` tuples) from the harness's
    #: SLO monitor — an input signal any policy may consume; empty when
    #: no monitor is attached, and ignored by the built-in policies so
    #: existing decisions are unchanged.
    slo_burn: Tuple = ()

    @property
    def max_slo_burn(self) -> float:
        """The worst burn across all windows and signals (0 if none)."""
        return max((b.burn for b in self.slo_burn), default=0.0)


class Controller:
    """Protocol: map observations to a target replica count."""

    #: Report label (``feedforward`` | ``reactive`` | ``static-peak``).
    name: str = "abstract"

    def initial_target(self) -> int:
        """Replica count to provision before traffic starts."""
        raise NotImplementedError

    def target(self, observation: ControlObservation) -> int:
        """Desired replica count for the next interval."""
        raise NotImplementedError


@dataclass(frozen=True)
class FeedforwardPolicy:
    """Model-feedforward provisioning (the paper's use case)."""

    kind: ClassVar[str] = "feedforward"
    #: Forecast window the controller sizes for, in seconds ahead of now.
    #: Covers at least the join latency, so capacity lands before load.
    horizon: float = 30.0
    #: Capacity head-room the sizing scan keeps spare.
    headroom: float = 0.2

    def __post_init__(self) -> None:
        if self.horizon <= 0.0:
            raise ConfigurationError("horizon must be positive")
        if not 0.0 <= self.headroom < 1.0:
            raise ConfigurationError("headroom must be in [0, 1)")


@dataclass(frozen=True)
class ReactivePolicy:
    """Threshold scaling with hysteresis (model-free baseline)."""

    kind: ClassVar[str] = "reactive"
    #: Scale up when the busiest resource exceeds this utilization, or
    #: when p95 latency exceeds the SLO.
    high_utilization: float = 0.75
    #: Scale down only below this utilization ...
    low_utilization: float = 0.35
    #: ... sustained for this many consecutive intervals (hysteresis).
    down_patience: int = 3
    #: Intervals the high condition must hold before scaling up.
    up_patience: int = 1
    #: Replicas added / removed per decision.
    step: int = 1
    #: Replicas provisioned at start (no model to size with).
    initial_replicas: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.low_utilization < self.high_utilization <= 1.5:
            raise ConfigurationError(
                "need 0 < low_utilization < high_utilization"
            )
        if self.up_patience < 1 or self.down_patience < 1:
            raise ConfigurationError("patience counts must be >= 1")
        if self.step < 1:
            raise ConfigurationError("step must be >= 1")
        if self.initial_replicas < 1:
            raise ConfigurationError("initial_replicas must be >= 1")


@dataclass(frozen=True)
class FixedPolicy:
    """Pin the fleet at an explicit replica count (no model, no profile).

    The membership policy of the operations scenarios: self-healing and
    rolling-upgrade runs want the *operations layer*, not the autoscaler,
    to be the only thing changing membership, and they should not pay for
    a profiling run just to size a constant fleet.
    """

    kind: ClassVar[str] = "fixed"
    replicas: int = 2

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError("replicas must be >= 1")


@dataclass(frozen=True)
class StaticPeakPolicy:
    """Fixed provisioning sized for the trace peak (the control)."""

    kind: ClassVar[str] = "static-peak"
    #: Capacity head-room used when sizing for the peak.
    headroom: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.headroom < 1.0:
            raise ConfigurationError("headroom must be in [0, 1)")


class _ModelSizer:
    """Smallest deployment serving a load within the SLA."""

    def __init__(
        self,
        design: str,
        profile: StandaloneProfile,
        config: ReplicationConfig,
        slo_response: float,
        headroom: float,
        min_replicas: int,
        max_replicas: int,
    ) -> None:
        self.slo_response = slo_response
        self.headroom = headroom
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        # Every tick sizes against the same curve: the scan predicts each
        # replica count once for the life of the controller.
        self._scan = ReplicaScan(design, profile, config)

    def size_for(self, load: float) -> int:
        if load <= 0.0:
            return self.min_replicas
        # Quantize the load upward to three significant figures, so a
        # continuously varying forecast (the diurnal ramp) sizes in steps
        # — and rounding *up* (at most +0.5%, far inside the head-room)
        # can never under-provision the SLA.
        exponent = math.floor(math.log10(load))
        quantum = 10.0 ** (exponent - 2)
        load = math.ceil(load / quantum) * quantum
        # A deployment whose abort fixed point diverges is a saturated one
        # that cannot serve the window — skip it and keep growing instead
        # of failing the control loop.
        found = self._scan.smallest(
            self.max_replicas,
            load / (1.0 - self.headroom),
            self.slo_response,
            skip_diverged=True,
        )
        # An unreachable window saturates provisioning rather than failing
        # the run: the timeline shows the SLO violations honestly.
        replicas = self.max_replicas if found is None else found.replicas
        return max(self.min_replicas, replicas)


class FeedforwardController(Controller):
    """Sizes every upcoming window with the analytical model."""

    name = FeedforwardPolicy.kind

    def __init__(self, policy: FeedforwardPolicy, sizer: _ModelSizer,
                 trace: LoadTrace) -> None:
        self.policy = policy
        self._sizer = sizer
        self._trace = trace

    def initial_target(self) -> int:
        return self._sizer.size_for(self._trace.peak_between(
            0.0, self.policy.horizon))

    def target(self, observation: ControlObservation) -> int:
        forecast = self._trace.peak_between(
            observation.now, observation.now + self.policy.horizon
        )
        return self._sizer.size_for(forecast)


class ReactiveController(Controller):
    """Utilization/latency thresholds with hysteresis."""

    name = ReactivePolicy.kind

    def __init__(self, policy: ReactivePolicy, slo_response: float,
                 min_replicas: int, max_replicas: int) -> None:
        self.policy = policy
        self.slo_response = slo_response
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self._hot_streak = 0
        self._cold_streak = 0

    def initial_target(self) -> int:
        return max(self.min_replicas,
                   min(self.max_replicas, self.policy.initial_replicas))

    def target(self, observation: ControlObservation) -> int:
        policy = self.policy
        hot = observation.max_utilization >= policy.high_utilization or (
            observation.commits > 0
            and observation.p95_response > self.slo_response
        )
        cold = (
            not hot
            and observation.max_utilization <= policy.low_utilization
            and observation.p95_response <= 0.5 * self.slo_response
        )
        self._hot_streak = self._hot_streak + 1 if hot else 0
        self._cold_streak = self._cold_streak + 1 if cold else 0
        members = observation.members
        if self._hot_streak >= policy.up_patience:
            self._hot_streak = 0
            return min(self.max_replicas, members + policy.step)
        if self._cold_streak >= policy.down_patience:
            self._cold_streak = 0
            return max(self.min_replicas, members - policy.step)
        return members


class StaticPeakController(Controller):
    """The control: sized once for the peak, never resized."""

    name = StaticPeakPolicy.kind

    def __init__(self, replicas: int, name: Optional[str] = None) -> None:
        if name is not None:
            self.name = name
        self.replicas = replicas

    def initial_target(self) -> int:
        return self.replicas

    def target(self, observation: ControlObservation) -> int:
        return self.replicas


def make_controller(
    policy,
    *,
    design: str,
    trace: LoadTrace,
    slo_response: float,
    config: ReplicationConfig,
    profile: Optional[StandaloneProfile] = None,
    min_replicas: int = 1,
    max_replicas: int = 16,
) -> Controller:
    """Bind a declarative policy to a concrete run, returning a controller.

    *profile* (the standalone measurement) is required by the model-driven
    policies — feedforward and static-peak — mirroring the paper's claim
    that standalone profiling suffices for provisioning decisions.
    """
    if slo_response <= 0.0:
        raise ConfigurationError("slo_response must be positive")
    if not 1 <= min_replicas <= max_replicas:
        raise ConfigurationError(
            f"need 1 <= min_replicas <= max_replicas, got "
            f"[{min_replicas}, {max_replicas}]"
        )
    if isinstance(policy, ReactivePolicy):
        return ReactiveController(policy, slo_response,
                                  min_replicas, max_replicas)
    if isinstance(policy, FixedPolicy):
        return StaticPeakController(
            max(min_replicas, min(max_replicas, policy.replicas)),
            name=FixedPolicy.kind,
        )
    if profile is None:
        raise ConfigurationError(
            f"the {policy.kind} policy needs a standalone profile"
        )
    sizer = _ModelSizer(design, profile, config, slo_response,
                        policy.headroom, min_replicas, max_replicas)
    if isinstance(policy, FeedforwardPolicy):
        return FeedforwardController(policy, sizer, trace)
    if isinstance(policy, StaticPeakPolicy):
        return StaticPeakController(sizer.size_for(trace.max_rate))
    raise ConfigurationError(f"unknown controller policy {policy!r}")
