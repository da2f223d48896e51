"""Microbenchmarks of the core components (classic pytest-benchmark style).

These time the hot paths many callers hit in a loop: the exact MVA solver,
the multiclass solver, the SI engine's commit path, the certifier, and raw
discrete-event throughput.
"""


from repro.core.rng import make_rng
from repro.models.multimaster import predict_multimaster
from repro.queueing.mva import solve_mva, solve_mva_multiclass
from repro.queueing.network import (
    ClosedNetwork,
    MulticlassNetwork,
    delay_center,
    queueing_center,
)
from repro.sidb.certifier import GlobalCertifier
from repro.sidb.engine import SIDatabase
from repro.sidb.writeset import Writeset
from repro.simulator.des import Environment, Timeout
from repro.workloads import tpcw


def test_mva_solver_speed(benchmark):
    """Exact single-class MVA, 100 clients over 3 centers."""
    network = ClosedNetwork(
        centers=(
            queueing_center("cpu", 0.035),
            queueing_center("disk", 0.013),
            delay_center("lb", 0.001),
        ),
        think_time=1.0,
    )
    solution = benchmark(solve_mva, network, 100)
    assert solution.throughput > 0


def test_multiclass_mva_speed(benchmark):
    """Exact two-class MVA over a 60x20 population lattice."""
    network = MulticlassNetwork(
        centers=(queueing_center("cpu", 0.0), queueing_center("disk", 0.0)),
        demands={"read": (0.025, 0.011), "write": (0.041, 0.049)},
        think_times={"read": 1.0, "write": 1.0},
    )
    solution = benchmark(
        solve_mva_multiclass, network, {"read": 60, "write": 20}
    )
    assert solution.total_throughput > 0


def test_multimaster_prediction_speed(benchmark, shopping_profile=None):
    """Full multi-master prediction (MVA + conflict-window fixed point)."""
    spec = tpcw.SHOPPING
    profile = spec.ground_truth_profile(
        abort_rate=0.0002, update_response_time=0.1
    )
    config = spec.replication_config(16)
    prediction = benchmark(predict_multimaster, profile, config)
    assert prediction.throughput > 0


def test_sidb_commit_path_speed(benchmark):
    """SI engine: begin/write/commit of disjoint update transactions."""
    db = SIDatabase({("row", i): 0 for i in range(1000)})
    counter = [0]

    def txn():
        t = db.begin()
        key = ("row", counter[0] % 1000)
        counter[0] += 1
        t.write(key, counter[0])
        db.commit(t)

    benchmark(txn)
    assert db.update_commits > 0


def test_certifier_speed(benchmark):
    """Certification against a deep history window."""
    certifier = GlobalCertifier()
    rng = make_rng(7)
    for i in range(1, 2001):
        keys = {("row", int(r)): i for r in rng.integers(0, 100_000, size=3)}
        certifier.certify(Writeset.from_dict(i, certifier.latest_version, keys))
    state = [certifier.latest_version]

    def certify_one():
        keys = {("row", int(r)): 0 for r in rng.integers(0, 100_000, size=3)}
        outcome = certifier.certify(
            Writeset.from_dict(0, max(0, state[0] - 50), keys)
        )
        state[0] = certifier.latest_version
        return outcome

    benchmark(certify_one)


def test_des_event_throughput(benchmark):
    """Raw event loop throughput: 10k timeout events."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(10_000):
                yield Timeout(0.001)

        env.start(ticker())
        env.run_until(100.0)
        return env.now

    benchmark.pedantic(run, rounds=3, iterations=1)
