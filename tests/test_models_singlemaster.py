"""Unit tests for the single-master analytical model (Figure 3 balancing)."""

import pytest

from repro.core.params import ReplicationConfig, StandaloneProfile, WorkloadMix
from repro.models.singlemaster import predict_singlemaster
from repro.models.standalone import predict_standalone


def config(n, clients=20, **kwargs):
    return ReplicationConfig(replicas=n, clients_per_replica=clients, **kwargs)


class TestDegenerateCases:
    def test_n1_close_to_standalone(self, simple_profile):
        sm = predict_singlemaster(
            simple_profile, config(1, load_balancer_delay=0.0)
        )
        standalone = predict_standalone(simple_profile, clients=20)
        assert sm.throughput == pytest.approx(standalone.throughput, rel=0.02)

    def test_read_only_scales_linearly(self, simple_demands):
        profile = StandaloneProfile(
            mix=WorkloadMix(read_fraction=1.0, write_fraction=0.0),
            demands=simple_demands,
        )
        x1 = predict_singlemaster(profile, config(1)).throughput
        x8 = predict_singlemaster(profile, config(8)).throughput
        assert x8 == pytest.approx(8 * x1, rel=0.02)

    def test_read_only_no_aborts(self, simple_demands):
        profile = StandaloneProfile(
            mix=WorkloadMix(read_fraction=1.0, write_fraction=0.0),
            demands=simple_demands,
        )
        assert predict_singlemaster(profile, config(4)).abort_rate == 0.0


class TestScalingBehaviour:
    def test_throughput_grows_then_saturates_for_heavy_writes(self, simple_demands):
        # A write-heavy mix saturates the master (§6.2.1, ordering mix).
        profile = StandaloneProfile(
            mix=WorkloadMix(read_fraction=0.5, write_fraction=0.5),
            demands=simple_demands,
            abort_rate=0.0005,
            update_response_time=0.05,
        )
        throughputs = [
            predict_singlemaster(profile, config(n, clients=50)).throughput
            for n in (1, 2, 4, 8, 16)
        ]
        # Grows early ...
        assert throughputs[1] > throughputs[0]
        # ... but the last doubling of replicas buys little (< 25% more).
        assert throughputs[4] < throughputs[3] * 1.25

    def test_write_capacity_bounded_by_master(self, simple_demands):
        profile = StandaloneProfile(
            mix=WorkloadMix(read_fraction=0.5, write_fraction=0.5),
            demands=simple_demands,
            abort_rate=0.0005,
            update_response_time=0.05,
        )
        prediction = predict_singlemaster(profile, config(16, clients=50))
        # Updates are half the committed work; the master can serve at most
        # 1/max(wc_cpu, wc_disk) updates per second.
        max_updates = 1.0 / max(0.012, 0.006)
        assert prediction.throughput / 2 <= max_updates * 1.05

    def test_light_writes_scale_nearly_linearly(self, simple_demands):
        # 5% updates: slaves dominate, like TPC-W browsing on SM (Figure 8).
        profile = StandaloneProfile(
            mix=WorkloadMix(read_fraction=0.95, write_fraction=0.05),
            demands=simple_demands,
            abort_rate=0.0002,
            update_response_time=0.05,
        )
        x2 = predict_singlemaster(profile, config(2, clients=30)).throughput
        x8 = predict_singlemaster(profile, config(8, clients=30)).throughput
        assert x8 >= 3.0 * x2

    def test_throughput_positive_at_all_scales(self, simple_profile):
        for n in (1, 2, 3, 4, 8, 16):
            assert predict_singlemaster(simple_profile, config(n)).throughput > 0


class TestBalancing:
    def test_extra_reads_when_master_underutilized(self, simple_demands):
        # Read-dominated mix: the master has spare capacity, so the
        # balancer routes extra reads to it (E > 0 in §3.3.3).
        profile = StandaloneProfile(
            mix=WorkloadMix(read_fraction=0.95, write_fraction=0.05),
            demands=simple_demands,
            abort_rate=0.0002,
            update_response_time=0.05,
        )
        prediction = predict_singlemaster(profile, config(4, clients=30))
        assert prediction.master_extra_reads > 0

    def test_no_extra_reads_when_master_bottlenecked(self, simple_demands):
        profile = StandaloneProfile(
            mix=WorkloadMix(read_fraction=0.5, write_fraction=0.5),
            demands=simple_demands,
            abort_rate=0.0005,
            update_response_time=0.05,
        )
        prediction = predict_singlemaster(profile, config(16, clients=50))
        assert prediction.master_extra_reads == 0.0

    def test_breakdown_has_master_and_slave(self, simple_profile):
        prediction = predict_singlemaster(simple_profile, config(4))
        roles = [b.role for b in prediction.breakdown]
        assert roles == ["master", "slave"]

    def test_breakdown_n1_master_only(self, simple_profile):
        prediction = predict_singlemaster(simple_profile, config(1))
        assert [b.role for b in prediction.breakdown] == ["master"]


class TestAbortRates:
    def test_master_abort_rate_grows_with_n(self, simple_profile):
        values = [
            predict_singlemaster(simple_profile, config(n)).abort_rate
            for n in (1, 4, 16)
        ]
        assert values == sorted(values)

    def test_zero_a1_zero_apn(self, simple_profile):
        profile = simple_profile.replace(abort_rate=0.0)
        assert predict_singlemaster(profile, config(8)).abort_rate == 0.0

    def test_mpl_bounds_abort_rate_growth(self, simple_demands):
        # Without admission control a saturated master's conflict window
        # (and hence A'N) would blow up with queued clients.
        profile = StandaloneProfile(
            mix=WorkloadMix(read_fraction=0.5, write_fraction=0.5),
            demands=simple_demands,
            abort_rate=0.001,
            update_response_time=0.05,
        )
        prediction = predict_singlemaster(
            profile, config(16, clients=50, max_concurrency=32)
        )
        assert prediction.abort_rate < 0.5
