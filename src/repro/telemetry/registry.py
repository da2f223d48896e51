"""A small labelled-metrics registry: counters, gauges, histograms.

Design constraints (ISSUE 6):

* **Nothing recorded when disabled.**  Components report through a
  protocol recorder whose default is a null sink
  (:mod:`repro.telemetry.recorder`), so a disabled run allocates
  nothing here — the registry only exists when a run asked for it.
* **Safe under DES virtual time and live threads.**  One shared lock
  guards instrument creation and every mutation.  The DES is
  single-threaded so the lock is uncontended there; the live cluster's
  instrument updates are tiny compared to its scaled sleeps, keeping
  the measured overhead well under the <5% budget
  (``benchmarks/bench_telemetry_overhead.py`` guards this).
* **Fixed buckets.**  Histograms use fixed upper bounds chosen at
  creation, so exporting is allocation-free and the Prometheus text
  rendering (cumulative buckets + ``+Inf``) is exact.

Instruments are identified by ``(name, sorted label items)``; asking for
the same identity twice returns the same instrument, so call sites can
simply re-resolve instead of caching handles.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.errors import ConfigurationError

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = COUNTER

    def __init__(self, name: str, labels, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (default 1) to the counter."""
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value with a high-water mark.

    Sampled series (replication lag, queue depth) keep both the last
    observed value and the maximum ever observed, so a dashboard can
    show transient peaks that interval sampling would otherwise miss.
    """

    kind = GAUGE

    def __init__(self, name: str, labels, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        """Record the gauge's current value."""
        with self._lock:
            self.value = value
            if value > self.max_value:
                self.max_value = value

    def add(self, delta: float) -> None:
        """Adjust the gauge by *delta* (queue-depth style usage)."""
        with self._lock:
            self.value += delta
            if self.value > self.max_value:
                self.max_value = self.value


class Histogram:
    """Fixed-bucket histogram (upper-bound inclusive, like Prometheus).

    ``bucket_counts[i]`` counts observations ``v <= bounds[i]`` that did
    not fit an earlier bucket; the final slot counts the overflow
    (``v > bounds[-1]``, the ``+Inf`` bucket).
    """

    kind = HISTOGRAM

    def __init__(
        self,
        name: str,
        labels,
        lock: threading.Lock,
        bounds: Sequence[float],
    ) -> None:
        cleaned = tuple(float(b) for b in bounds)
        if not cleaned or list(cleaned) != sorted(set(cleaned)):
            raise ConfigurationError(
                f"histogram {name!r} bounds must be non-empty and "
                f"strictly increasing"
            )
        self.name = name
        self.labels = labels
        self._lock = lock
        self.bounds = cleaned
        self.bucket_counts = [0] * (len(cleaned) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1


@dataclass(frozen=True)
class MetricSample:
    """One instrument's state, frozen for result attachment/export."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    kind: str
    value: float = 0.0
    max_value: float = 0.0
    sum: float = 0.0
    count: int = 0
    bounds: Tuple[float, ...] = ()
    buckets: Tuple[int, ...] = ()

    @property
    def mean(self) -> float:
        """Histogram mean (0 for an empty histogram)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate a histogram quantile from the bucket counts.

        Returns the upper bound of the bucket holding the q-th
        observation (the overflow bucket reports the largest finite
        bound — the estimate is saturated, not extrapolated).
        """
        if self.kind != HISTOGRAM or not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for index, bucket in enumerate(self.buckets):
            seen += bucket
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1]
        return self.bounds[-1]

    def label_text(self) -> str:
        """Render labels as ``{k="v",...}`` (empty string if none)."""
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"


class MetricsRegistry:
    """Creates and owns instruments; thread-safe, label-aware."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, Tuple], object] = {}

    def _resolve(self, factory, kind: str, name: str, labels):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory(key[1])
                self._instruments[key] = instrument
            elif instrument.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {kind}"
                )
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter for (*name*, *labels*)."""
        return self._resolve(
            lambda lk: Counter(name, lk, self._lock), COUNTER, name, labels
        )

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge for (*name*, *labels*)."""
        return self._resolve(
            lambda lk: Gauge(name, lk, self._lock), GAUGE, name, labels
        )

    def histogram(
        self, name: str, bounds: Sequence[float], **labels
    ) -> Histogram:
        """Get or create the histogram for (*name*, *labels*)."""
        return self._resolve(
            lambda lk: Histogram(name, lk, self._lock, bounds),
            HISTOGRAM, name, labels,
        )

    def snapshot(self) -> Tuple[MetricSample, ...]:
        """Freeze every instrument into picklable samples."""
        with self._lock:
            samples: List[MetricSample] = []
            for (name, labels), inst in sorted(
                self._instruments.items(), key=lambda item: item[0]
            ):
                if inst.kind == COUNTER:
                    samples.append(MetricSample(
                        name=name, labels=labels, kind=COUNTER,
                        value=inst.value,
                    ))
                elif inst.kind == GAUGE:
                    samples.append(MetricSample(
                        name=name, labels=labels, kind=GAUGE,
                        value=inst.value, max_value=inst.max_value,
                    ))
                else:
                    samples.append(MetricSample(
                        name=name, labels=labels, kind=HISTOGRAM,
                        sum=inst.sum, count=inst.count,
                        bounds=inst.bounds,
                        buckets=tuple(inst.bucket_counts),
                    ))
            return tuple(samples)
