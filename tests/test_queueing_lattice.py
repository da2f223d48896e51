"""The kept population lattice against the from-scratch solvers it replaced.

``solve_multiclass_from_scratch`` below is the dynamic program
``queueing/mva.py`` ran before :class:`MulticlassLattice`: one full walk of
the population lattice per integer target, one walk per corner of a
fractional cell.  It stays here as the oracle — the lattice must return the
*same floats*, whatever was asked of it before.  The single-class twin
checks that ``solve_mva``'s one pass equals two independent integer solves.

Both solvers take a scalar kernel on the paper's replica layout (CPU and
disk queueing, then delays) and keep their loop over centers for any other
layout, so the strategies draw both: the oracle judges the two paths alike.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.params import ReplicationConfig
from repro.models import multimaster, singlemaster
from repro.queueing.mva import (
    MVASolution,
    MVAStepper,
    MulticlassLattice,
    MulticlassSolution,
    solve_mva,
    solve_mva_multiclass,
)
from repro.queueing.network import (
    CenterKind,
    ClosedNetwork,
    MulticlassNetwork,
    delay_center,
    queueing_center,
)

# ---------------------------------------------------------------------
# The oracle: the from-scratch lattice DP, as it was
# ---------------------------------------------------------------------


def _solve_integer_from_scratch(network, populations):
    classes = network.classes
    centers = list(network.centers)
    n_centers = len(centers)
    demands = {k: list(network.demands[k]) for k in classes}
    think = {k: network.think_times[k] for k in classes}
    target = tuple(int(populations.get(k, 0)) for k in classes)

    zero_state = tuple(0 for _ in classes)
    queue = {zero_state: [0.0] * n_centers}
    last_throughputs = {k: 0.0 for k in classes}
    last_residence = {k: [0.0] * n_centers for k in classes}

    for state in itertools.product(*[range(t + 1) for t in target]):
        if state == zero_state:
            continue
        residences = {}
        throughputs = {}
        q_now = [0.0] * n_centers
        for ci, klass in enumerate(classes):
            if state[ci] == 0:
                continue
            prev = list(state)
            prev[ci] -= 1
            prev_queue = queue[tuple(prev)]
            r_class = [0.0] * n_centers
            for k, center in enumerate(centers):
                d = demands[klass][k]
                if center.kind is CenterKind.QUEUEING:
                    r_class[k] = d * (1.0 + prev_queue[k])
                else:
                    r_class[k] = d
            # Left to right in center order, as ``sum`` adds before 3.12.
            total = 0.0
            for r in r_class:
                total += r
            x = state[ci] / (think[klass] + total)
            residences[klass] = r_class
            throughputs[klass] = x
            for k in range(n_centers):
                q_now[k] += x * r_class[k]
        queue[tuple(state)] = q_now
        if tuple(state) == target:
            last_throughputs.update(throughputs)
            for klass, r_class in residences.items():
                last_residence[klass] = r_class

    names = [c.name for c in centers]
    util_out = {}
    for k_idx, center in enumerate(centers):
        if center.kind is CenterKind.QUEUEING:
            util_out[center.name] = min(
                1.0,
                sum(last_throughputs[klass] * demands[klass][k_idx]
                    for klass in classes),
            )
        else:
            util_out[center.name] = 0.0
    return MulticlassSolution(
        populations={k: float(populations.get(k, 0)) for k in classes},
        throughputs=dict(last_throughputs),
        response_times={k: sum(last_residence[k]) for k in classes},
        residence_times={k: dict(zip(names, last_residence[k])) for k in classes},
        queue_lengths=dict(zip(names, queue[target])),
        utilization=util_out,
    )


def solve_multiclass_from_scratch(network, populations):
    classes = network.classes
    pops = [float(populations.get(k, 0.0)) for k in classes]
    floors = [int(p) for p in pops]
    fracs = [p - f for p, f in zip(pops, floors)]
    if all(f == 0.0 for f in fracs):
        return _solve_integer_from_scratch(network, dict(zip(classes, floors)))

    corners = []
    for offsets in itertools.product(
        *[[0, 1] if frac > 0.0 else [0] for frac in fracs]
    ):
        weight = 1.0
        corner_pop = {}
        for klass, floor, frac, off in zip(classes, floors, fracs, offsets):
            weight *= frac if off else (1.0 - frac if frac > 0.0 else 1.0)
            corner_pop[klass] = floor + off
        corners.append((weight, _solve_integer_from_scratch(network, corner_pop)))

    names = [c.name for c in network.centers]

    def blend(getter):
        return sum(w * getter(sol) for w, sol in corners)

    return MulticlassSolution(
        populations=dict(zip(classes, pops)),
        throughputs={k: blend(lambda s, k=k: s.throughputs[k]) for k in classes},
        response_times={
            k: blend(lambda s, k=k: s.response_times[k]) for k in classes
        },
        residence_times={
            k: {
                name: blend(lambda s, k=k, name=name: s.residence_times[k][name])
                for name in names
            }
            for k in classes
        },
        queue_lengths={
            name: blend(lambda s, name=name: s.queue_lengths[name])
            for name in names
        },
        utilization={
            name: blend(lambda s, name=name: s.utilization[name]) for name in names
        },
    )


# ---------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------

demand_st = st.floats(min_value=1e-4, max_value=0.2)
think_st = st.floats(min_value=0.0, max_value=3.0)
#: A per-class population: an integer, or one strictly inside a cell.
population_st = st.one_of(
    st.integers(0, 6),
    st.builds(
        lambda n, frac: n + frac,
        st.integers(0, 5),
        st.floats(min_value=0.05, max_value=0.95),
    ),
)


#: The multi-master's replica: CPU and disk, then balancer and certifier,
#: with demands for which a pre-summed or regrouped delay sum moves floats.
TWO_DELAYS = (
    queueing_center("cpu", 0.0313),
    queueing_center("disk", 0.0171),
    delay_center("lb", 0.0017),
    delay_center("certifier", 0.0093),
)


@st.composite
def layouts(draw, demand=st.just(0.0)):
    """1–3 queueing and 0–2 delay centers, two delays drawn first (a
    regrouped delay sum differs from the kernels' only then).  Half the
    draws are the replica layout (two queueing centers, then the delays),
    which takes the kernels; the rest come in any order, a delay before a
    queueing center included, and take the loop over centers."""
    delays = ["d"] * draw(st.sampled_from([2, 1, 0]))
    if draw(st.booleans()):
        kinds = ["q", "q"] + delays
    else:
        kinds = draw(st.permutations(["q"] * draw(st.integers(1, 3)) + delays))
    return tuple(
        (queueing_center if kind == "q" else delay_center)(f"c{i}", draw(demand))
        for i, kind in enumerate(kinds)
    )


@st.composite
def multiclass_networks(draw):
    classes = ["a", "b", "c"][: draw(st.integers(2, 3))]
    centers = draw(layouts())
    return MulticlassNetwork(
        centers=centers,
        demands={k: tuple(draw(demand_st) for _ in centers) for k in classes},
        think_times={k: draw(think_st) for k in classes},
    )


@st.composite
def lattice_sessions(draw):
    """A network and an arbitrary order of targets asked of one lattice:
    growing either axis, shrinking, repeating, integer and fractional."""
    network = draw(multiclass_networks())
    target = st.fixed_dictionaries({k: population_st for k in network.classes})
    queries = draw(st.lists(target, min_size=1, max_size=6))
    repeated = draw(st.integers(0, len(queries) - 1))
    return network, queries + [queries[repeated]]


class TestLatticeAgainstOracle:
    @given(session=lattice_sessions())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_any_query_order_equals_from_scratch(self, session):
        network, queries = session
        lattice = MulticlassLattice(network)
        for populations in queries:
            assert lattice.solve(populations) == solve_multiclass_from_scratch(
                network, populations
            )

    def test_a_covered_query_adds_no_states(self):
        network = MulticlassNetwork(
            centers=(queueing_center("cpu", 0.0), delay_center("lb", 0.0)),
            demands={"a": (0.03, 0.001), "b": (0.01, 0.001)},
            think_times={"a": 1.0, "b": 0.5},
        )
        lattice = MulticlassLattice(network)
        lattice.solve({"a": 4.5, "b": 3})
        states = len(lattice._queue)
        assert states == 6 * 4  # the box [0..5] x [0..3], each state once
        lattice.solve({"a": 2, "b": 2.25})
        lattice.solve({"a": 5, "b": 0})
        assert len(lattice._queue) == states
        lattice.solve({"a": 5, "b": 4})
        assert len(lattice._queue) == states + 6  # one new slab

    def test_two_delays_are_added_one_by_one(self):
        """The multi-master's shape as a two-class kernel network: with
        two delays a pre-summed or regrouped residence sum moves floats."""
        network = MulticlassNetwork(
            centers=TWO_DELAYS,
            demands={"a": tuple(c.demand for c in TWO_DELAYS),
                     "b": (0.0419, 0.0523, 0.0011, 0.0097)},
            think_times={"a": 0.7, "b": 1.3},
        )
        lattice = MulticlassLattice(network)
        for a, b in itertools.product(range(0, 30, 7), range(0, 30, 5)):
            populations = {"a": a + 0.5, "b": b}
            assert lattice.solve(populations) == solve_multiclass_from_scratch(
                network, populations
            )

    def test_one_shot_wrapper_is_a_fresh_lattice(self):
        network = MulticlassNetwork(
            centers=(queueing_center("cpu", 0.0), queueing_center("disk", 0.0)),
            demands={"a": (0.03, 0.01), "b": (0.01, 0.02)},
            think_times={"a": 1.0, "b": 1.0},
        )
        populations = {"a": 7.5, "b": 3}
        assert solve_mva_multiclass(network, populations) == (
            solve_multiclass_from_scratch(network, populations)
        )


# ---------------------------------------------------------------------
# Single class: one pass yields both neighbours
# ---------------------------------------------------------------------


def _stepped(network, population):
    """An integer solve of its own: a fresh stepper, a solution per customer."""
    stepper = MVAStepper(network)
    solution = None
    for _ in range(population):
        solution = stepper.step()
    return solution


def _interpolated(low, high, frac):
    def mix(a, b):
        return a + (b - a) * frac

    def mix_map(a, b):
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


def single_class_networks():
    return st.builds(
        ClosedNetwork, centers=layouts(demand_st), think_time=think_st
    )


class TestSinglePassAgainstTwoSolves:
    @given(
        network=single_class_networks(),
        floor=st.integers(1, 40),
        frac=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_fractional_population_equals_two_integer_solves(
        self, network, floor, frac
    ):
        population = floor + frac
        expected = _interpolated(
            _stepped(network, floor),
            _stepped(network, floor + 1),
            population - floor,
        )
        assert solve_mva(network, population) == expected

    @given(network=single_class_networks(), population=st.integers(1, 40))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_integer_population_equals_stepping_every_customer(
        self, network, population
    ):
        assert solve_mva(network, population) == _stepped(network, population)

    def test_advance_then_step_equals_stepping(self):
        loop = (queueing_center("cpu", 0.04), delay_center("lb", 0.002))
        for centers in (loop, TWO_DELAYS):
            network = ClosedNetwork(centers=centers, think_time=0.7)
            stepper = MVAStepper(network)
            stepper.advance(39)
            assert stepper.population == 39
            assert stepper.step() == _stepped(network, 40)


# ---------------------------------------------------------------------
# The degenerate network fails one way in both solvers
# ---------------------------------------------------------------------


class TestNetworkNobodyEverLeaves:
    """Zero demand everywhere and zero think time: ``X = n / 0``.

    The (cpu, lb) layout takes the loop over centers, (cpu, disk, lb) the
    scalar kernels; both refuse at the first state that holds a customer
    of the degenerate class, not when the solver is built."""

    MESSAGE = "R \\+ Z must be positive"
    LAYOUTS = (("cpu",), ("cpu", "disk"))

    @staticmethod
    def centers(names):
        return tuple(queueing_center(n, 0.0) for n in names) + (
            delay_center("lb", 0.0),
        )

    def test_single_class(self):
        for names in self.LAYOUTS:
            network = ClosedNetwork(centers=self.centers(names), think_time=0.0)
            stepper = MVAStepper(network)
            with pytest.raises(ConfigurationError, match=self.MESSAGE):
                stepper.advance(2)
            with pytest.raises(ConfigurationError, match=self.MESSAGE):
                solve_mva(network, 3)
            with pytest.raises(ConfigurationError, match=self.MESSAGE):
                MVAStepper(network).step()

    def test_multiclass(self):
        for names in self.LAYOUTS:
            network = MulticlassNetwork(
                centers=self.centers(names),
                demands={"a": (0.0,) * (len(names) + 1),
                         "b": (0.02,) * len(names) + (0.001,)},
                think_times={"a": 0.0, "b": 1.0},
            )
            with pytest.raises(ConfigurationError, match=self.MESSAGE):
                solve_mva_multiclass(network, {"a": 2, "b": 2})
            # The degenerate class harms nobody while it has no customers.
            lattice = MulticlassLattice(network)
            assert lattice.solve({"b": 2}).throughputs["a"] == 0.0
            with pytest.raises(ConfigurationError, match=self.MESSAGE):
                lattice.solve({"a": 1, "b": 2})


# ---------------------------------------------------------------------
# Which networks take the kernels
# ---------------------------------------------------------------------


def test_the_models_networks_take_the_kernels(shopping_profile):
    """Every network ``models/`` solves many times is the replica layout;
    the multi-master's certify-service center, after its delays, is not."""
    config = ReplicationConfig(replicas=4, clients_per_replica=20)
    demand = shopping_profile.demands.read
    assert MulticlassLattice(
        singlemaster._master_network(shopping_profile, config, 0.0)
    )._replica
    for network in (
        singlemaster._replica_network(demand, config),
        multimaster._build_network(config, 0.2),
        ClosedNetwork((queueing_center("cpu", 0.1), queueing_center("disk", 0.1))),
    ):
        assert MVAStepper(network)._replica
    certify_service = multimaster._build_network(config, 0.2, service_demand=0.01)
    assert not MVAStepper(certify_service)._replica
