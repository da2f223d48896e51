"""Tests for the load-trace layer of the autoscaling control plane."""

import pytest

from repro.control.trace import (
    DiurnalTrace,
    FlashCrowdTrace,
    ModulatedTrace,
    PiecewiseTrace,
)
from repro.core.errors import ConfigurationError


class TestDiurnalTrace:
    def test_swings_between_base_and_peak(self):
        trace = DiurnalTrace(base_rate=10.0, peak_rate=100.0, period=200.0)
        assert trace.rate(0.0) == pytest.approx(10.0)
        assert trace.rate(100.0) == pytest.approx(100.0)  # half period
        assert trace.rate(200.0) == pytest.approx(10.0)
        assert trace.max_rate == 100.0
        for t in (13.0, 57.0, 123.0):
            assert 10.0 <= trace.rate(t) <= 100.0

    def test_peak_between_exact_at_crest(self):
        trace = DiurnalTrace(base_rate=10.0, peak_rate=100.0, period=200.0)
        # Window containing the crest at t=100 reports the exact peak.
        assert trace.peak_between(90.0, 110.0) == pytest.approx(100.0)
        # Window on the rising flank reports the right endpoint.
        assert trace.peak_between(10.0, 40.0) == pytest.approx(
            trace.rate(40.0)
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            DiurnalTrace(base_rate=50.0, peak_rate=10.0, period=100.0)
        with pytest.raises(ConfigurationError):
            DiurnalTrace(base_rate=1.0, peak_rate=2.0, period=0.0)


class TestFlashCrowdTrace:
    def test_trapezoid_shape(self):
        trace = FlashCrowdTrace(base_rate=10.0, spike_rate=100.0,
                                spike_start=50.0, spike_duration=20.0,
                                ramp=10.0)
        assert trace.rate(0.0) == 10.0
        assert trace.rate(55.0) == pytest.approx(55.0)  # mid-ramp
        assert trace.rate(65.0) == 100.0                # plateau
        assert trace.rate(85.0) == pytest.approx(55.0)  # mid-descent
        assert trace.rate(120.0) == 10.0

    def test_peak_between_catches_narrow_spike(self):
        trace = FlashCrowdTrace(base_rate=10.0, spike_rate=100.0,
                                spike_start=50.0, spike_duration=1.0,
                                ramp=0.5)
        # A wide window around a narrow spike must still see the spike.
        assert trace.peak_between(0.0, 500.0) == pytest.approx(100.0)
        assert trace.peak_between(100.0, 500.0) == 10.0


class TestModulatedTrace:
    def test_deterministic_and_level_valued(self):
        trace = ModulatedTrace(rates=(10.0, 40.0, 90.0), dwell=5.0, seed=3)
        rates = [trace.rate(t) for t in range(0, 100)]
        assert all(r in (10.0, 40.0, 90.0) for r in rates)
        again = ModulatedTrace(rates=(10.0, 40.0, 90.0), dwell=5.0, seed=3)
        assert [again.rate(t) for t in range(0, 100)] == rates
        # A different seed modulates differently somewhere.
        other = ModulatedTrace(rates=(10.0, 40.0, 90.0), dwell=5.0, seed=4)
        assert [other.rate(t) for t in range(0, 100)] != rates

    def test_constant_within_a_dwell_epoch(self):
        trace = ModulatedTrace(rates=(10.0, 90.0), dwell=10.0, seed=1)
        assert trace.rate(20.0) == trace.rate(29.9)

    def test_peak_between_spans_epochs(self):
        trace = ModulatedTrace(rates=(10.0, 90.0), dwell=10.0, seed=1)
        window_peak = trace.peak_between(0.0, 200.0)
        assert window_peak == max(trace.rate(t) for t in range(0, 201))

    def test_max_rate_bounds_every_level_and_label_names_it(self):
        trace = ModulatedTrace(rates=(10.0, 90.0, 40.0), dwell=5.0, seed=2)
        assert trace.max_rate == 90.0
        assert max(trace.rate(t) for t in range(0, 500)) <= trace.max_rate
        assert trace.label == "modulated"


class TestPiecewiseTrace:
    POINTS = ((0.0, 10.0), (60.0, 100.0), (120.0, 40.0))

    def test_interpolates_linearly(self):
        trace = PiecewiseTrace(points=self.POINTS)
        assert trace.rate(0.0) == 10.0
        assert trace.rate(30.0) == pytest.approx(55.0)
        assert trace.rate(60.0) == 100.0
        assert trace.rate(90.0) == pytest.approx(70.0)
        # Holds the last rate beyond the final point.
        assert trace.rate(500.0) == 40.0
        assert trace.max_rate == 100.0

    def test_cyclic_replay_wraps(self):
        trace = PiecewiseTrace(points=self.POINTS, period=180.0)
        assert trace.rate(180.0) == trace.rate(0.0)
        assert trace.rate(240.0) == pytest.approx(trace.rate(60.0))
        # Across the wrap it interpolates back toward the first point.
        assert 10.0 <= trace.rate(150.0) <= 40.0

    def test_peak_between_includes_breakpoints(self):
        trace = PiecewiseTrace(points=self.POINTS)
        assert trace.peak_between(0.0, 120.0) == 100.0
        cyclic = PiecewiseTrace(points=self.POINTS, period=180.0)
        # Any window >= one period sees the global peak.
        assert cyclic.peak_between(500.0, 700.0) == 100.0

    def test_from_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# time rate\n0, 10\n60 100\n\n120,40\n")
        trace = PiecewiseTrace.from_file(str(path))
        assert trace.points == ((0.0, 10.0), (60.0, 100.0), (120.0, 40.0))
        with pytest.raises(ConfigurationError):
            bad = tmp_path / "bad.txt"
            bad.write_text("0 10 extra\n")
            PiecewiseTrace.from_file(str(bad))

    def test_rejects_unsorted_times(self):
        with pytest.raises(ConfigurationError):
            PiecewiseTrace(points=((10.0, 5.0), (0.0, 5.0)))
