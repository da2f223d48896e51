"""Unit tests for simulator statistics and workload sampling."""

import numpy as np
import pytest

from repro.core import rng as rng_util
from repro.core.errors import ConfigurationError, SimulationError
from repro.simulator import sampling
from repro.simulator.sampling import (
    DETERMINISTIC,
    LOGNORMAL,
    ServiceSampler,
    WorkloadSampler,
    next_txn_id,
)
from repro.simulator.stats import MetricsCollector, RunningStats


class TestRunningStats:
    def test_matches_numpy_on_random_data(self):
        data = np.random.default_rng(0).normal(5.0, 2.0, size=500)
        stats = RunningStats()
        for x in data:
            stats.add(float(x))
        assert stats.mean == pytest.approx(np.mean(data))
        assert stats.variance == pytest.approx(np.var(data, ddof=1))
        assert stats.stddev == pytest.approx(np.std(data, ddof=1))

    def test_empty_stats_are_zero(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.stderr == 0.0

    def test_single_observation(self):
        stats = RunningStats()
        stats.add(3.0)
        assert stats.mean == 3.0
        assert stats.variance == 0.0

    def test_stderr_shrinks_with_count(self):
        a, b = RunningStats(), RunningStats()
        rng = np.random.default_rng(1)
        for x in rng.normal(size=100):
            a.add(float(x))
        for x in rng.normal(size=10_000):
            b.add(float(x))
        assert b.stderr < a.stderr


class TestMetricsCollector:
    def test_records_only_inside_window(self):
        metrics = MetricsCollector()
        metrics.record_commit(False, 0.1, 0)  # before window: dropped
        metrics.begin_window(10.0)
        metrics.record_commit(False, 0.2, 0)
        metrics.record_commit(True, 0.3, 2)
        metrics.end_window(20.0)
        metrics.record_commit(True, 0.4, 0)  # after window: dropped
        assert metrics.committed == 2
        assert metrics.read_commits == 1
        assert metrics.update_commits == 1
        assert metrics.update_abort_attempts == 2

    def test_throughput_over_window(self):
        metrics = MetricsCollector()
        metrics.begin_window(0.0)
        for _ in range(50):
            metrics.record_commit(False, 0.1, 0)
        metrics.end_window(10.0)
        assert metrics.throughput() == pytest.approx(5.0)
        assert metrics.read_throughput() == pytest.approx(5.0)
        assert metrics.update_throughput() == 0.0

    def test_abort_rate(self):
        metrics = MetricsCollector()
        metrics.begin_window(0.0)
        metrics.record_commit(True, 0.1, 1)
        metrics.record_commit(True, 0.1, 0)
        metrics.end_window(1.0)
        # 2 commits + 1 aborted attempt -> 1/3 of attempts aborted.
        assert metrics.abort_rate() == pytest.approx(1 / 3)

    def test_end_without_begin_rejected(self):
        metrics = MetricsCollector()
        with pytest.raises(SimulationError):
            metrics.end_window(1.0)

    def test_duplicate_resource_registration_rejected(self):
        metrics = MetricsCollector()

        class FakeResource:
            def busy_time_now(self):
                return 0.0

        metrics.watch_resource("cpu", FakeResource())
        with pytest.raises(SimulationError):
            metrics.watch_resource("cpu", FakeResource())

    def test_utilization_from_busy_delta(self):
        metrics = MetricsCollector()

        class FakeResource:
            def __init__(self):
                self.busy = 0.0

            def busy_time_now(self):
                return self.busy

        resource = FakeResource()
        metrics.watch_resource("cpu", resource)
        metrics.begin_window(0.0)
        resource.busy = 4.0
        metrics.end_window(10.0)
        assert metrics.utilizations()["cpu"] == pytest.approx(0.4)


class TestWorkloadSampler:
    def test_update_fraction_matches_mix(self, shopping_spec):
        sampler = WorkloadSampler(shopping_spec, rng_util.make_rng(0))
        updates = sum(sampler.next_is_update() for _ in range(20_000))
        assert updates / 20_000 == pytest.approx(0.2, abs=0.01)

    def test_read_only_spec_never_updates(self, rubis_browsing_spec):
        sampler = WorkloadSampler(rubis_browsing_spec, rng_util.make_rng(0))
        assert not any(sampler.next_is_update() for _ in range(1000))

    def test_exponential_draws_have_correct_mean(self, shopping_spec):
        sampler = WorkloadSampler(shopping_spec, rng_util.make_rng(1))
        samples = [sampler.read_cpu() for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(
            shopping_spec.demands.read.cpu, rel=0.03
        )

    def test_deterministic_draws_are_exact(self, shopping_spec):
        sampler = WorkloadSampler(
            shopping_spec, rng_util.make_rng(1), distribution=DETERMINISTIC
        )
        assert sampler.read_cpu() == shopping_spec.demands.read.cpu
        assert sampler.update_disk() == shopping_spec.demands.write.disk

    def test_lognormal_draws_have_correct_mean(self, shopping_spec):
        sampler = WorkloadSampler(
            shopping_spec, rng_util.make_rng(2), distribution=LOGNORMAL
        )
        samples = [sampler.read_cpu() for _ in range(40_000)]
        assert np.mean(samples) == pytest.approx(
            shopping_spec.demands.read.cpu, rel=0.05
        )

    def test_zero_demand_draws_zero(self, rubis_browsing_spec):
        sampler = WorkloadSampler(rubis_browsing_spec, rng_util.make_rng(0))
        assert sampler.update_cpu() == 0.0
        assert sampler.writeset_disk() == 0.0

    def test_unknown_distribution_rejected(self, shopping_spec):
        with pytest.raises(ConfigurationError):
            WorkloadSampler(
                shopping_spec, rng_util.make_rng(0), distribution="uniform"
            )

    def test_writeset_respects_conflict_profile(self, shopping_spec):
        sampler = WorkloadSampler(shopping_spec, rng_util.make_rng(3))
        writeset = sampler.sample_writeset(snapshot_version=0)
        conflict = shopping_spec.conflict
        assert len(writeset.keys) == conflict.updates_per_transaction
        for table, row in writeset.keys:
            assert table == "updatable"
            assert 0 <= row < conflict.db_update_size

    def test_writeset_on_read_only_spec_rejected(self, rubis_browsing_spec):
        sampler = WorkloadSampler(rubis_browsing_spec, rng_util.make_rng(0))
        with pytest.raises(ConfigurationError):
            sampler.sample_writeset(0)

    def test_txn_ids_monotone(self):
        a, b = next_txn_id(), next_txn_id()
        assert b == a + 1

    def test_think_time_mean(self, shopping_spec):
        sampler = WorkloadSampler(shopping_spec, rng_util.make_rng(4))
        samples = [sampler.think_time() for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(1.0, rel=0.03)


class TestServiceSampler:
    """A replica's service-only stream draws exponentials in blocks."""

    def test_block_draws_equal_scalar_draws_bit_for_bit(self, shopping_spec):
        # Means drawn at random, with zeros (which consume nothing) placed
        # on and around block boundaries; three and a half blocks' worth.
        block = sampling._BLOCK
        means = rng_util.make_rng(4).uniform(0.0, 0.2, 7 * block // 2)
        means[[0, block - 1, block, block + 1, 2 * block, 3 * block - 2]] = 0.0
        blocked = ServiceSampler(shopping_spec, rng_util.make_rng(9))
        scalar = rng_util.make_rng(9)
        for mean in means.tolist():
            want = float(scalar.exponential(mean)) if mean > 0.0 else 0.0
            assert blocked._draw(mean).hex() == want.hex()

    def test_public_draws_match_a_client_sampler(self, shopping_spec):
        blocked = ServiceSampler(shopping_spec, rng_util.make_rng(5))
        client = WorkloadSampler(shopping_spec, rng_util.make_rng(5))
        kinds = ("read_cpu", "read_disk", "update_cpu", "update_disk",
                 "writeset_cpu", "writeset_disk")
        for i in range(3 * sampling._BLOCK):
            kind = kinds[i % len(kinds)]
            assert getattr(blocked, kind)() == getattr(client, kind)()

    @pytest.mark.parametrize("distribution", [DETERMINISTIC, LOGNORMAL])
    def test_other_distributions_stay_scalar(self, shopping_spec,
                                             distribution):
        blocked = ServiceSampler(shopping_spec, rng_util.make_rng(6),
                                 distribution=distribution)
        client = WorkloadSampler(shopping_spec, rng_util.make_rng(6),
                                 distribution=distribution)
        for _ in range(50):
            assert blocked.update_cpu() == client.update_cpu()

    @pytest.mark.parametrize("draw", [
        "next_is_update", "think_time", "sample_partition_set",
        "sample_writeset",
    ])
    def test_client_draws_are_refused(self, shopping_spec, draw):
        # A client draw would desynchronise the block from the stream.
        sampler = ServiceSampler(shopping_spec, rng_util.make_rng(0))
        assert not hasattr(sampler, draw)
