"""Exact Mean Value Analysis (MVA) for closed queueing networks.

This module implements the standard algorithms the paper relies on
[Lazowska 1984]:

* :class:`MVAStepper` — exact single-class MVA, advanced one customer at a
  time.  The multi-master model needs this incremental form because the
  paper re-estimates the conflict window (and hence the service demands)
  *between MVA iterations* ("we approximate CW(N) at iteration i+1 by the
  sum of CPU, disk residence time and certification time at iteration i",
  §4.1.1).
* :func:`solve_mva` — convenience wrapper with linear interpolation for
  fractional populations (the single-master balancing algorithm produces
  non-integer client counts such as ``Pr*C*N/(N-1)``).
* :class:`MulticlassLattice` — exact multiclass MVA over a population
  lattice that is kept and grown from query to query, the multiclass
  sibling of :class:`MVAStepper`.  The single-master model's master serves
  both update transactions and extra read-only transactions, and its
  balancing loop re-solves that one network at populations one step apart.
* :func:`solve_mva_multiclass` — one-shot wrapper around a fresh lattice.
* :func:`approximate_mva` — Schweitzer's fixed-point approximation, kept as
  an ablation to show exact MVA is worth it at these population sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, ConvergenceError
from .network import CenterKind, ClosedNetwork, MulticlassNetwork
from .operational import closed_loop_throughput


@dataclass(frozen=True)
class MVASolution:
    """Steady-state metrics of a single-class closed network.

    ``response_time`` covers the service centers only (think time excluded),
    matching how the paper reports client-perceived latency.
    """

    population: float
    throughput: float
    response_time: float
    residence_times: Dict[str, float] = field(default_factory=dict)
    queue_lengths: Dict[str, float] = field(default_factory=dict)
    #: Queue length an arriving customer sees (the arrival theorem: the
    #: network state with one customer removed).  Used to derive
    #: class-specific residence times such as the conflict window.
    arrival_queue_lengths: Dict[str, float] = field(default_factory=dict)
    utilization: Dict[str, float] = field(default_factory=dict)

    def residence_seen_by(
        self,
        demands: Mapping[str, float],
        queue_cap: Optional[float] = None,
    ) -> float:
        """Residence time of a tagged customer with custom *demands*.

        By the arrival theorem a customer arriving at queueing center *k*
        waits for the ``Q_k(n-1)`` customers already there and then receives
        its own service.  This lets us evaluate the residence time of a
        specific transaction class (e.g. update transactions, whose demand
        is ``wc`` rather than the mix average) in a network solved with
        mix-average demands.

        ``queue_cap`` bounds the queue an arrival can share the server with,
        modelling admission control: under a multiprogramming level of M, a
        transaction *executes* alongside at most M-1 others, so its
        execution time (and hence its conflict window) is bounded even when
        the closed-loop population piles up in the admission queue.
        """
        total = 0.0
        for name, demand in demands.items():
            if name not in self.arrival_queue_lengths:
                raise ConfigurationError(f"unknown center {name!r}")
            queue = self.arrival_queue_lengths[name]
            if queue_cap is not None:
                queue = min(queue, queue_cap)
            total += demand * (1.0 + queue)
        return total


class MVAStepper:
    """Exact MVA advanced one customer at a time with mutable demands.

    Usage::

        stepper = MVAStepper(network)
        for _ in range(population):
            stepper.set_demands({"cpu": new_cpu_demand})   # optional
            solution = stepper.step()

    Each :meth:`step` adds one customer and returns the exact solution **if
    the demands had been constant at their current values** — which is the
    approximation the paper makes when it lets the conflict window evolve
    with the iteration number.  :meth:`advance` adds customers without
    building their solutions, for callers that only want the last one.

    Cost model: on the paper's replica layout (CPU and disk queueing, then
    delays only; checked once, here) :meth:`advance` is a scalar kernel, a
    few float operations on locals per customer and one queue list at the
    end.  :meth:`step`, and ``advance`` on any other layout, build lists
    per customer.  Both add residences left to right in center order.
    """

    def __init__(self, network: ClosedNetwork) -> None:
        centers = list(network.centers)
        self._names = [c.name for c in centers]
        self._queueing = [c.kind is CenterKind.QUEUEING for c in centers]
        self._replica = _replica_layout(self._queueing)
        self._think_time = network.think_time
        self._demands = [c.demand for c in centers]
        self._queue = [0.0] * len(centers)
        self._population = 0

    @property
    def population(self) -> int:
        """Number of customers added so far."""
        return self._population

    def set_demands(self, demands: Mapping[str, float]) -> None:
        """Replace the demands of the named centers before the next step."""
        for name, demand in demands.items():
            if name not in self._names:
                raise ConfigurationError(f"unknown center {name!r}")
            if demand < 0.0:
                raise ConfigurationError(
                    f"center {name!r} given negative demand {demand}"
                )
            self._demands[self._names.index(name)] = demand

    def _add_customer(self) -> Tuple[List[float], float]:
        """Add one customer; return its residence times and throughput."""
        # R is added left to right in center order, as the kernels add it
        # (``sum`` compensates from Python 3.12).
        residence, total = [], 0.0
        for demand, queue, queueing in zip(self._demands, self._queue, self._queueing):
            r = demand * (1.0 + queue) if queueing else demand
            residence.append(r)
            total += r
        throughput = closed_loop_throughput(
            self._population + 1, total, self._think_time
        )
        self._population += 1
        self._queue = [throughput * r for r in residence]
        return residence, throughput

    def advance(self, customers: int) -> None:
        """Add *customers* customers, updating only the queue lengths."""
        if not self._replica or customers <= 0:
            for _ in range(customers):
                self._add_customer()
            return
        cpu, disk, *delays = self._demands
        think, n = self._think_time, self._population
        q_cpu, q_disk = self._queue[0], self._queue[1]
        for n in range(n + 1, n + customers + 1):
            r_cpu, r_disk = cpu * (1.0 + q_cpu), disk * (1.0 + q_disk)
            r = r_cpu + r_disk
            for d in delays:
                r += d
            z = r + think
            x = n / z if z > 0 else closed_loop_throughput(n, r, think)
            q_cpu, q_disk = x * r_cpu, x * r_disk
        self._population = n
        self._queue = [q_cpu, q_disk, *[x * d for d in delays]]

    def step(self) -> MVASolution:
        """Add one customer and return the resulting network solution."""
        names = self._names
        arrival_queue = dict(zip(names, self._queue))
        residence, throughput = self._add_customer()
        return MVASolution(
            population=float(self._population),
            throughput=throughput,
            response_time=sum(residence),
            residence_times=dict(zip(names, residence)),
            queue_lengths=dict(zip(names, self._queue)),
            arrival_queue_lengths=arrival_queue,
            utilization={
                name: min(1.0, throughput * demand)
                for name, demand, queueing in zip(
                    names, self._demands, self._queueing
                )
                if queueing
            },
        )


def _replica_layout(queueing: List[bool]) -> bool:
    """The paper's replica network: CPU and disk queueing, then delays."""
    return queueing[:2] == [True, True] and not any(queueing[2:])


def _empty_solution(network: ClosedNetwork) -> MVASolution:
    zero = {c.name: 0.0 for c in network.centers}
    return MVASolution(
        population=0.0,
        throughput=0.0,
        response_time=0.0,
        residence_times=dict(zero),
        queue_lengths=dict(zero),
        arrival_queue_lengths=dict(zero),
        utilization={
            c.name: 0.0
            for c in network.centers
            if c.kind is CenterKind.QUEUEING
        },
    )


def _interpolate(low: MVASolution, high: MVASolution, frac: float) -> MVASolution:
    def mix(a: float, b: float) -> float:
        return a + (b - a) * frac

    def mix_map(a: Dict[str, float], b: Dict[str, float]) -> Dict[str, float]:
        return {k: mix(a[k], b[k]) for k in a}

    return MVASolution(
        population=mix(low.population, high.population),
        throughput=mix(low.throughput, high.throughput),
        response_time=mix(low.response_time, high.response_time),
        residence_times=mix_map(low.residence_times, high.residence_times),
        queue_lengths=mix_map(low.queue_lengths, high.queue_lengths),
        arrival_queue_lengths=mix_map(
            low.arrival_queue_lengths, high.arrival_queue_lengths
        ),
        utilization=mix_map(low.utilization, high.utilization),
    )


def solve_mva(network: ClosedNetwork, population: float) -> MVASolution:
    """Solve a single-class closed network exactly.

    Integer populations use the exact recurrence; fractional populations are
    linearly interpolated between the two neighbouring integer solutions
    (needed by the single-master balancing algorithm, whose per-slave client
    counts are generally not integers), both taken from one pass of the
    recurrence.
    """
    if population < 0:
        raise ConfigurationError(f"population must be >= 0, got {population}")
    floor = int(population)
    stepper = MVAStepper(network)
    if floor == 0:
        low = _empty_solution(network)
    else:
        stepper.advance(floor - 1)
        low = stepper.step()
    if floor == population:
        return low
    return _interpolate(low, stepper.step(), population - floor)


def approximate_mva(
    network: ClosedNetwork,
    population: float,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
) -> MVASolution:
    """Schweitzer's approximate MVA (fixed point on queue lengths).

    Provided as an ablation: at the population sizes of the paper's
    experiments (tens of clients per replica) the exact algorithm is cheap,
    and the benchmark ``bench_ablation_mva`` quantifies the approximation
    error.  For ``population == 0`` returns the empty-network solution.
    """
    if population < 0:
        raise ConfigurationError(f"population must be >= 0, got {population}")
    if population == 0:
        return _empty_solution(network)

    centers = list(network.centers)
    queueing = [c for c in centers if c.kind is CenterKind.QUEUEING]
    n = float(population)
    # Initial guess: customers spread evenly over queueing centers.
    queue: Dict[str, float] = {
        c.name: n / max(1, len(queueing)) for c in queueing
    }
    throughput = 0.0
    residence: Dict[str, float] = {}
    for iteration in range(max_iterations):
        residence = {}
        for center in centers:
            if center.kind is CenterKind.QUEUEING:
                # Schweitzer: an arrival sees (n-1)/n of the time-average queue.
                seen = queue[center.name] * (n - 1.0) / n
                residence[center.name] = center.demand * (1.0 + seen)
            else:
                residence[center.name] = center.demand
        total = sum(residence.values())
        throughput = n / (network.think_time + total)
        new_queue = {c.name: throughput * residence[c.name] for c in queueing}
        delta = max(
            (abs(new_queue[k] - queue[k]) for k in queue), default=0.0
        )
        queue = new_queue
        if delta < tolerance:
            break
    else:
        raise ConvergenceError(
            "Schweitzer approximation did not converge", iterations=max_iterations
        )

    arrival = {c.name: queue.get(c.name, 0.0) * (n - 1.0) / n for c in centers}
    queue_all = {
        c.name: queue.get(c.name, throughput * residence[c.name]) for c in centers
    }
    utilization = {
        c.name: min(1.0, throughput * c.demand) for c in queueing
    }
    return MVASolution(
        population=n,
        throughput=throughput,
        response_time=sum(residence.values()),
        residence_times=residence,
        queue_lengths=queue_all,
        arrival_queue_lengths=arrival,
        utilization=utilization,
    )


@dataclass(frozen=True)
class MulticlassSolution:
    """Per-class metrics of a multiclass closed network."""

    populations: Dict[str, float]
    throughputs: Dict[str, float]
    response_times: Dict[str, float]
    residence_times: Dict[str, Dict[str, float]]
    queue_lengths: Dict[str, float]
    utilization: Dict[str, float]

    @property
    def total_throughput(self) -> float:
        """Sum of class throughputs."""
        return sum(self.throughputs.values())


class MulticlassLattice:
    """Exact multiclass MVA of one network, answered from a kept lattice.

    The recurrence needs the mean queue lengths at every population vector
    below the target.  The lattice owns that ``state -> queue lengths``
    table for the box of populations computed so far and extends it only
    over the new slab when a query leaves the box, so a caller that
    re-solves one network at growing (or repeated, or smaller) populations
    — the single-master balancing loop — pays for each state once.  Every
    state is a pure function of its predecessors, so an answer does not
    depend on the order of the queries before it.

    Cost model: one table entry (every center's queue length) per state.
    On the paper's master, two classes over the replica layout (checked
    once, here), :meth:`_fill` computes each state with float operations on
    locals, no list, slice or call per class, and the same floats as the
    loop over centers in :meth:`_visit` that any other network takes.
    """

    def __init__(self, network: MulticlassNetwork) -> None:
        self._classes = network.classes
        centers = list(network.centers)
        self._names = [c.name for c in centers]
        self._queueing = [c.kind is CenterKind.QUEUEING for c in centers]
        self._replica = len(self._classes) == 2 and _replica_layout(self._queueing)
        self._demands = [list(network.demands[k]) for k in self._classes]
        self._think = [network.think_times[k] for k in self._classes]
        #: Per-class extent of the box of states already in ``_queue``.
        self._box = [0] * len(self._classes)
        #: Queue lengths of the empty network (and the residence times of
        #: a class with no customers); shared, never written.
        self._empty = [0.0] * len(centers)
        self._queue: Dict[Tuple[int, ...], List[float]] = {
            tuple(self._box): self._empty
        }

    def solve(self, populations: Mapping[str, float]) -> MulticlassSolution:
        """Solve at *populations* (classes left out have no customers).

        Fractional per-class populations are handled by multilinear
        interpolation over the neighbouring integer lattice points, all
        read from this one lattice.
        """
        classes = self._classes
        unknown = set(populations) - set(classes)
        if unknown:
            raise ConfigurationError(f"unknown classes {sorted(unknown)}")
        pops = [float(populations.get(k, 0.0)) for k in classes]
        if any(p < 0 for p in pops):
            raise ConfigurationError("populations must be non-negative")

        floors = [int(p) for p in pops]
        fracs = [p - f for p, f in zip(pops, floors)]
        self._extend([f + (frac > 0.0) for f, frac in zip(floors, fracs)])
        if all(f == 0.0 for f in fracs):
            return self._solve_integer(tuple(floors))

        # Multilinear interpolation over the corners of the fractional cell.
        corners: List[Tuple[float, MulticlassSolution]] = []
        for offsets in itertools.product(
            *[[0, 1] if frac > 0.0 else [0] for frac in fracs]
        ):
            weight = 1.0
            for frac, off in zip(fracs, offsets):
                weight *= frac if off else (1.0 - frac if frac > 0.0 else 1.0)
            if weight == 0.0:
                continue
            corner = tuple(f + off for f, off in zip(floors, offsets))
            corners.append((weight, self._solve_integer(corner)))
        return _blend_multiclass(classes, self._names, pops, corners)

    def _extend(self, target: Sequence[int]) -> None:
        """Grow the box to cover *target*, one axis slab at a time."""
        box = self._box
        for axis, extent in enumerate(target):
            if extent <= box[axis]:
                continue
            # Lexicographic order inside the slab visits every predecessor
            # first; the ones outside it are in the box already.
            ranges = [range(b + 1) for b in box]
            ranges[axis] = range(box[axis] + 1, extent + 1)
            if self._replica:
                self._fill(*ranges)
            else:
                for state in itertools.product(*ranges):
                    self._queue[state] = self._visit(state)[2]
            box[axis] = extent

    def _fill(self, rows: range, cols: range) -> None:
        """:meth:`_visit`'s queue lengths on ``rows x cols``, written out for
        the two-class replica layout (an empty class adds ``0.0 * 0.0``)."""
        queue = self._queue
        (cpu_a, disk_a, *delays_a), (cpu_b, disk_b, *delays_b) = self._demands
        think_a, think_b = self._think
        delay_pairs = list(zip(delays_a, delays_b))
        for a in rows:
            left = queue.get((a, cols[0] - 1))
            for b in cols:
                if a:
                    up = queue[a - 1, b]
                    ra_cpu, ra_disk = cpu_a * (1.0 + up[0]), disk_a * (1.0 + up[1])
                    r = ra_cpu + ra_disk
                    for d in delays_a:
                        r += d
                    z = r + think_a
                    xa = a / z if z > 0 else closed_loop_throughput(a, r, think_a)
                else:
                    xa = ra_cpu = ra_disk = 0.0
                if b:
                    rb_cpu, rb_disk = cpu_b * (1.0 + left[0]), disk_b * (1.0 + left[1])
                    r = rb_cpu + rb_disk
                    for d in delays_b:
                        r += d
                    z = r + think_b
                    xb = b / z if z > 0 else closed_loop_throughput(b, r, think_b)
                else:
                    xb = rb_cpu = rb_disk = 0.0
                left = [xa * ra_cpu + xb * rb_cpu, xa * ra_disk + xb * rb_disk]
                for d, e in delay_pairs:
                    left.append(xa * d + xb * e)
                queue[a, b] = left

    def _visit(
        self, state: Tuple[int, ...]
    ) -> Tuple[List[float], List[List[float]], List[float]]:
        """Per-class throughputs and residence times, and the queue lengths,
        at *state*, from the queue lengths of its predecessors."""
        queueing, queue = self._queueing, self._queue
        throughputs = [0.0] * len(state)
        residences = [self._empty] * len(state)
        q_now = [0.0] * len(queueing)
        centers = range(len(queueing))
        for ci, customers in enumerate(state):
            if customers == 0:
                continue
            prev_queue = queue[state[:ci] + (customers - 1,) + state[ci + 1:]]
            r_class, total = [], 0.0
            for d, q, is_queueing in zip(self._demands[ci], prev_queue, queueing):
                r = d * (1.0 + q) if is_queueing else d
                r_class.append(r)
                total += r
            x = closed_loop_throughput(customers, total, self._think[ci])
            throughputs[ci] = x
            residences[ci] = r_class
            for k in centers:
                q_now[k] += x * r_class[k]
        return throughputs, residences, q_now

    def _solve_integer(self, target: Tuple[int, ...]) -> MulticlassSolution:
        classes, names = self._classes, self._names
        throughputs, residences, queue = self._visit(target)
        utilization = {}
        for k, (name, is_queueing) in enumerate(zip(names, self._queueing)):
            busy = sum(x * d[k] for x, d in zip(throughputs, self._demands))
            utilization[name] = min(1.0, busy) if is_queueing else 0.0
        return MulticlassSolution(
            populations={k: float(n) for k, n in zip(classes, target)},
            throughputs=dict(zip(classes, throughputs)),
            response_times={k: sum(r) for k, r in zip(classes, residences)},
            residence_times={
                k: dict(zip(names, r)) for k, r in zip(classes, residences)
            },
            queue_lengths=dict(zip(names, queue)),
            utilization=utilization,
        )


def solve_mva_multiclass(
    network: MulticlassNetwork, populations: Mapping[str, float]
) -> MulticlassSolution:
    """Exact multiclass MVA at *populations*, from a fresh lattice.

    Complexity is the product of the class populations; a caller that
    solves the same network more than once keeps a
    :class:`MulticlassLattice` instead.
    """
    return MulticlassLattice(network).solve(populations)


def _blend_multiclass(
    classes: Sequence[str],
    names: Sequence[str],
    pops: Sequence[float],
    corners: Sequence[Tuple[float, MulticlassSolution]],
) -> MulticlassSolution:
    def blend(getter) -> float:
        return sum(w * getter(sol) for w, sol in corners)

    throughputs = {k: blend(lambda s, k=k: s.throughputs[k]) for k in classes}
    response = {k: blend(lambda s, k=k: s.response_times[k]) for k in classes}
    residence = {
        k: {
            name: blend(lambda s, k=k, name=name: s.residence_times[k][name])
            for name in names
        }
        for k in classes
    }
    queues = {name: blend(lambda s, name=name: s.queue_lengths[name]) for name in names}
    util = {name: blend(lambda s, name=name: s.utilization[name]) for name in names}
    return MulticlassSolution(
        populations=dict(zip(classes, pops)),
        throughputs=throughputs,
        response_times=response,
        residence_times=residence,
        queue_lengths=queues,
        utilization=util,
    )
