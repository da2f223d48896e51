"""Open-loop load traces: offered arrival rate as a function of time.

A :class:`LoadTrace` describes the *offered* transaction rate (tps, in
virtual seconds) of an open-loop client population over time — the traffic
model of the dynamic-provisioning use case the paper motivates: data-center
load follows diurnal cycles, with occasional flash crowds on top.

Traces are consumed two ways:

* the **drivers** (simulator :meth:`~repro.simulator.systems._BaseSystem.
  start_trace_arrivals` and the live-cluster trace source) sample a
  non-homogeneous Poisson process from them by *thinning* [Lewis &
  Shedler 1979]: candidate arrivals at :attr:`max_rate`, each kept with
  probability ``rate(t) / max_rate``;
* the **feedforward controller** reads them as its load forecast:
  :meth:`peak_between` is the worst case of the upcoming window, handed to
  :func:`repro.models.planning.plan_deployment`.

Every trace is a frozen dataclass whose ``repr`` is a stable function of
its fields, so traces participate in the engine's content-addressed cache
keys; :class:`ModulatedTrace`'s randomness is derived from an explicit
seed, never from global state, keeping sweep points reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from ..core import rng as rng_util
from ..core.errors import ConfigurationError


@dataclass(frozen=True)
class LoadTrace:
    """Base class: a deterministic offered-rate curve ``rate(t)``."""

    def rate(self, t: float) -> float:
        """Offered arrival rate (tps) at time *t* seconds."""
        raise NotImplementedError

    @property
    def max_rate(self) -> float:
        """Supremum of :meth:`rate` — the thinning bound of the drivers."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Short name used in reports (``diurnal``, ``flash-crowd``, ...)."""
        raise NotImplementedError

    def peak_between(self, t0: float, t1: float) -> float:
        """Maximum rate over ``[t0, t1]`` (the forecast-window worst case).

        Every trace computes it exactly from its structure (crest,
        spike, dwell epochs, breakpoints), never by sampling, so a
        narrow burst cannot slip between samples.
        """
        raise NotImplementedError

    def accept_arrival(self, rng, now: float) -> bool:
        """Thinning accept step [Lewis & Shedler 1979].

        Candidate arrivals are drawn at :attr:`max_rate`; each is kept
        with probability ``rate(now) / max_rate``.  The one accept/reject
        decision both pillars' open-loop drivers share, so the
        simulator's and the live cluster's arrival processes can never
        drift apart.  Consumes exactly one ``rng.random()`` draw.
        """
        return float(rng.random()) * self.max_rate <= self.rate(now)


def _require_rate(value: float, name: str) -> None:
    if value < 0.0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class DiurnalTrace(LoadTrace):
    """A day/night sinusoid between ``base_rate`` and ``peak_rate``.

    ``rate(t) = base + (peak - base) * (1 - cos(2π (t + phase)/period)) / 2``
    — starts at the trough for ``phase=0`` and reaches the peak half a
    period in, the shape of the diurnal cycles §1 of the paper names as
    the dynamic-provisioning driver.
    """

    base_rate: float
    peak_rate: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        _require_rate(self.base_rate, "base_rate")
        if self.peak_rate < self.base_rate:
            raise ConfigurationError("peak_rate must be >= base_rate")
        if self.peak_rate <= 0.0:
            raise ConfigurationError("peak_rate must be positive")
        if self.period <= 0.0:
            raise ConfigurationError("period must be positive")

    def rate(self, t: float) -> float:
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * (t + self.phase) / self.period))
        return self.base_rate + (self.peak_rate - self.base_rate) * swing

    @property
    def max_rate(self) -> float:
        return self.peak_rate

    @property
    def label(self) -> str:
        return "diurnal"

    def peak_between(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ConfigurationError(f"empty forecast window [{t0}, {t1}]")
        # The maxima sit at (t + phase) = period * (k + 1/2); if the window
        # contains one, the answer is exactly the peak.
        k = math.ceil((t0 + self.phase) / self.period - 0.5)
        crest = self.period * (k + 0.5) - self.phase
        if t0 <= crest <= t1:
            return self.peak_rate
        return max(self.rate(t0), self.rate(t1))


@dataclass(frozen=True)
class FlashCrowdTrace(LoadTrace):
    """A flash crowd: baseline load with one trapezoidal spike on top.

    The rate ramps linearly from ``base_rate`` to ``spike_rate`` over
    ``ramp`` seconds starting at ``spike_start``, holds for
    ``spike_duration``, then ramps back down — the news-event burst that
    static provisioning must carry permanently but an autoscaler only
    pays for while it lasts.
    """

    base_rate: float
    spike_rate: float
    spike_start: float
    spike_duration: float
    ramp: float = 10.0

    def __post_init__(self) -> None:
        _require_rate(self.base_rate, "base_rate")
        if self.base_rate <= 0.0:
            raise ConfigurationError("base_rate must be positive")
        if self.spike_rate < self.base_rate:
            raise ConfigurationError("spike_rate must be >= base_rate")
        if self.spike_start < 0.0:
            raise ConfigurationError("spike_start must be >= 0")
        if self.spike_duration <= 0.0:
            raise ConfigurationError("spike_duration must be positive")
        if self.ramp < 0.0:
            raise ConfigurationError("ramp must be >= 0")

    def rate(self, t: float) -> float:
        up0 = self.spike_start
        up1 = up0 + self.ramp
        down0 = up1 + self.spike_duration
        down1 = down0 + self.ramp
        if t <= up0 or t >= down1:
            return self.base_rate
        if t < up1:
            frac = (t - up0) / self.ramp if self.ramp > 0 else 1.0
        elif t <= down0:
            frac = 1.0
        else:
            frac = (down1 - t) / self.ramp if self.ramp > 0 else 1.0
        return self.base_rate + (self.spike_rate - self.base_rate) * frac

    @property
    def max_rate(self) -> float:
        return self.spike_rate

    @property
    def label(self) -> str:
        return "flash-crowd"

    def peak_between(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ConfigurationError(f"empty forecast window [{t0}, {t1}]")
        # Piecewise linear: the max is at a breakpoint or an endpoint.
        breaks = (
            self.spike_start,
            self.spike_start + self.ramp,
            self.spike_start + self.ramp + self.spike_duration,
            self.spike_start + 2 * self.ramp + self.spike_duration,
        )
        candidates = [t0, t1] + [b for b in breaks if t0 <= b <= t1]
        return max(self.rate(t) for t in candidates)


@lru_cache(maxsize=4096)
def _modulated_level(rates: Tuple[float, ...], seed: int, epoch: int) -> float:
    """The (deterministic) rate level of one dwell epoch."""
    rng = rng_util.spawn(seed, "modulated-trace", epoch)
    return rates[int(rng.integers(0, len(rates)))]


@dataclass(frozen=True)
class ModulatedTrace(LoadTrace):
    """Markov-modulated Poisson bursts: the rate jumps between levels.

    Every ``dwell`` seconds the offered rate switches to one of ``rates``,
    chosen uniformly by a stream derived from ``seed`` — a doubly
    stochastic (MMPP-style) arrival process whose burstiness stresses
    reactive controllers, yet is a pure function of ``(seed, t)`` so runs
    stay reproducible and cacheable.
    """

    rates: Tuple[float, ...]
    dwell: float
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.rates) < 2:
            raise ConfigurationError("need at least two rate levels")
        for r in self.rates:
            _require_rate(r, "rate level")
        if max(self.rates) <= 0.0:
            raise ConfigurationError("at least one rate level must be positive")
        if self.dwell <= 0.0:
            raise ConfigurationError("dwell must be positive")

    def rate(self, t: float) -> float:
        epoch = int(t // self.dwell) if t >= 0 else 0
        return _modulated_level(self.rates, self.seed, epoch)

    @property
    def max_rate(self) -> float:
        return max(self.rates)

    @property
    def label(self) -> str:
        return "modulated"

    def peak_between(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ConfigurationError(f"empty forecast window [{t0}, {t1}]")
        first = int(max(0.0, t0) // self.dwell)
        last = int(max(0.0, t1) // self.dwell)
        return max(
            _modulated_level(self.rates, self.seed, epoch)
            for epoch in range(first, last + 1)
        )


@dataclass(frozen=True)
class PiecewiseTrace(LoadTrace):
    """A trace interpolated linearly through ``(time, rate)`` points.

    The workhorse for replaying *measured* data-center traces: build one
    with :meth:`from_file` from a two-column text file.  Before the first
    point the first rate holds; after the last point the last rate holds,
    unless ``period`` wraps time around for a cyclic replay.
    """

    points: Tuple[Tuple[float, float], ...]
    period: float = 0.0  # 0 disables cyclic replay

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError("need at least one (time, rate) point")
        times = [t for t, _ in self.points]
        if times != sorted(times) or len(set(times)) != len(times):
            raise ConfigurationError("trace times must be strictly increasing")
        for _, r in self.points:
            _require_rate(r, "rate")
        if max(r for _, r in self.points) <= 0.0:
            raise ConfigurationError("at least one rate must be positive")
        if self.period < 0.0:
            raise ConfigurationError("period must be >= 0")
        if self.period and self.points[-1][0] > self.period:
            raise ConfigurationError("trace points extend past the period")
        # Derived lookup index, not a field: repr/equality/cache keys see
        # only the points.  rate() sits in the arrival hot path, and a
        # replayed production trace can hold thousands of points.
        object.__setattr__(self, "_times", tuple(times))

    @classmethod
    def from_file(cls, path: str, period: float = 0.0) -> "PiecewiseTrace":
        """Parse ``time rate`` (or ``time,rate``) lines; ``#`` comments ok."""
        points = []
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                parts = text.replace(",", " ").split()
                if len(parts) != 2:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected 'time rate', got {line!r}"
                    )
                points.append((float(parts[0]), float(parts[1])))
        return cls(points=tuple(points), period=period)

    def rate(self, t: float) -> float:
        if self.period:
            t = t % self.period
        points = self.points
        if t <= points[0][0]:
            return points[0][1]
        if t >= points[-1][0]:
            if not self.period:
                return points[-1][1]
            # Cyclic: interpolate across the wrap back to the first point.
            t0, r0 = points[-1]
            t1, r1 = points[0][0] + self.period, points[0][1]
            if t1 == t0:
                return r0
            return r0 + (r1 - r0) * (t - t0) / (t1 - t0)
        # Strictly inside the point range: binary-search the segment
        # (times are validated strictly increasing).
        index = bisect_right(self._times, t)
        t0, r0 = points[index - 1]
        t1, r1 = points[index]
        return r0 + (r1 - r0) * (t - t0) / (t1 - t0)

    @property
    def max_rate(self) -> float:
        return max(r for _, r in self.points)

    @property
    def label(self) -> str:
        return "piecewise"

    def peak_between(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ConfigurationError(f"empty forecast window [{t0}, {t1}]")
        if self.period and t1 - t0 >= self.period:
            return self.max_rate
        candidates = [self.rate(t0), self.rate(t1)]
        for bt, br in self.points:
            if self.period:
                # The breakpoint recurs every period; check the occurrences
                # that can fall inside the window.
                k = math.floor((t0 - bt) / self.period)
                for occurrence in (bt + k * self.period,
                                   bt + (k + 1) * self.period,
                                   bt + (k + 2) * self.period):
                    if t0 <= occurrence <= t1:
                        candidates.append(br)
                        break
            elif t0 <= bt <= t1:
                candidates.append(br)
        return max(candidates)
