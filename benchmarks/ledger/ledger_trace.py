"""The benchmark's own recorder and its statistics.

Spans are taken from the benchmark's files, around the calls into each
layer's public functions; nothing under ``src/`` is instrumented.  They
are kept in memory and written out (Chrome trace JSON) when the run ends.
End-to-end metrics are measured with the recorder disabled.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    #: Index of the span that caused this one (``None`` for a pass root).
    parent: Optional[int]
    workload: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory ``(name, start, end, parent, workload)`` spans and counts.

    Single-threaded by design: every workload drives the program from one
    thread, so the open-span stack needs no lock.  A disabled recorder
    hands out a shared no-op context and records nothing.
    """

    _NULL = contextlib.nullcontext()

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        #: Busy seconds and calls per call class (see :meth:`timed`).
        self.busy: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: When true, :meth:`timed` wrappers also keep a full span.
        self.sample_spans = False
        self._stack: List[int] = []

    def span(self, name: str):
        """Context manager recording one span under the open one."""
        if not self.enabled:
            return self._NULL
        return self._open(name)

    @contextlib.contextmanager
    def _open(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.workload))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.workload)

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter, at the boundary where the work happened."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name: str, fn: Callable) -> Callable:
        """Wrap *fn* so each call adds to the busy total of class *name*.

        Hot call classes (the SI engine's begin/get/write/commit) are
        called tens of thousands of times a pass; a span each would cost
        more than the call.  The wrapper keeps busy seconds and a call
        count, and a full span only while :attr:`sample_spans` is set.
        """
        busy, calls, spans = self.busy, self.calls, self.spans
        busy.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                end = time.perf_counter()
                busy[name] += end - start
                calls[name] += 1
                if self.sample_spans:
                    parent = self._stack[-1] if self._stack else None
                    spans.append(Span(name, start, end, parent,
                                      self.workload))

        return wrapper

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome ``traceEvents`` (load in chrome://tracing
        or Perfetto), plus the counters and busy totals."""
        if self.spans:
            origin = min(s.start for s in self.spans)
        else:
            origin = 0.0
        events = [
            {
                "name": span.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"workload": span.workload, "parent": span.parent,
                         "index": index},
            }
            for index, span in enumerate(self.spans)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "ledger": {
                "workload": self.workload,
                "counts": self.counts,
                "busy_s": self.busy,
                "calls": self.calls,
                "self_s": self.self_seconds(),
            },
        }

    def self_seconds(self) -> Dict[str, float]:
        """Self seconds per name, timed call classes included.

        A timed class keeps a span for one call in many, so its whole
        busy total is charged to the class and the unsampled remainder
        taken off the pass span that contains the calls.
        """
        totals = self_times(self.spans)
        if self.spans:
            root = self.spans[0].name
            for name, busy in self.busy.items():
                totals[root] -= busy - totals.get(name, 0.0)
                totals[name] = busy
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per span name: each span's duration minus the part
    of its interval that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        cover = covered(children.get(index, ()), span.start, span.end)
        totals[span.name] = totals.get(span.name, 0.0) + (
            span.duration - cover
        )
    return totals


#: Percentiles the tail rule may pick, highest first, in per mille (so
#: "ten samples beyond" is exact integer arithmetic).
_TAILS = (999, 990, 950, 900, 750)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it
    (``None`` when even the 75th has fewer)."""
    for per_mille in _TAILS:
        if count * (1000 - per_mille) >= 10_000:
            return per_mille / 10.0
    return None


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (``0 < q <= 100``) of *samples*."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[min(len(ordered), rank) - 1]


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, the tail percentile the rule allows, range and count."""
    tail = tail_percentile(len(samples))
    return {
        "median": statistics.median(samples),
        "tail": None if tail is None else f"p{tail:g}",
        "tail_value": None if tail is None else percentile(samples, tail),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance (``statistics.quantiles(n=4)``) for four or more values, the
    full range for fewer."""
    centre = statistics.median(values)
    if centre == 0 or len(values) < 2:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(centre)
    return (max(values) - min(values)) / abs(centre)


class Stopwatch:
    """Wall and process-CPU seconds (all threads) of a ``with`` block."""

    wall = 0.0
    cpu = 0.0

    def __enter__(self) -> "Stopwatch":
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._wall0
        self.cpu = time.process_time() - self._cpu0


def calibrate(rounds: int = 15) -> float:
    """Milliseconds a fixed pure-Python loop takes (best of *rounds*).

    Timed before and after a workload: the host, not the program, moved
    when the two disagree.  The best round is the host's unloaded speed;
    a shared box slows single rounds by a quarter for seconds at a time,
    which a median would report as drift on nearly every run.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best


def digest(*parts: object) -> str:
    """sha256 over the ``repr`` of *parts* (a result's identity)."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode("utf-8"))
    return sha.hexdigest()
