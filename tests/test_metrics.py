"""Unit + property tests for metrics collectors and statistics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import JoinLog, ThroughputRecorder
from repro.metrics.stats import (
    cdf_at,
    empirical_cdf,
    mean,
    median,
    percentile,
    stdev,
    summarize,
)
from repro.sim.engine import Simulator


class TestStats:
    def test_mean_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_mean_basic(self):
        assert mean([1, 2, 3]) == 2.0

    def test_stdev_constant_is_zero(self):
        assert stdev([5, 5, 5]) == 0.0

    def test_stdev_known_value(self):
        assert stdev([2, 4]) == pytest.approx(1.0)

    def test_percentile_bounds(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 5

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 50) == 5.0

    @pytest.mark.parametrize("n", [2, 64])
    def test_percentile_of_subnormals_stays_in_range(self, n):
        # 5e-324 * 0.75 rounds to 0.0; the interpolation must clamp
        # back to the bracketing order statistics.
        tiny = 5e-324
        for q in (25, 50, 75):
            assert percentile([tiny] * n, q) == tiny

    def test_percentile_preserves_int_returns(self):
        result = percentile([1, 2, 3, 4, 5], 0)
        assert result == 1 and type(result) is int

    def test_stdev_squares_by_multiplication(self):
        # ``(v - mu) ** 2`` rounds this delta's square one ulp away from
        # ``(v - mu) * (v - mu)``; the goldens were recorded with the
        # product.
        values = [0.0] * 63 + [975848535.400963]
        mu = sum(values) / len(values)
        by_product = math.sqrt(sum((v - mu) * (v - mu) for v in values) / len(values))
        assert stdev(values) == by_product

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_median(self):
        assert median([3, 1, 2]) == 2

    def test_empirical_cdf_shape(self):
        xs, ys = empirical_cdf([3.0, 1.0, 2.0])
        assert xs == [1.0, 2.0, 3.0]
        assert ys == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_empirical_cdf_empty(self):
        assert empirical_cdf([]) == ([], [])

    def test_cdf_at(self):
        assert cdf_at([1, 2, 3, 4], 2.5) == 0.5

    def test_summarize_keys(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["median"] == 2.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_percentile_within_minmax(self, values):
        for q in (0, 25, 50, 75, 100):
            assert min(values) <= percentile(values, q) <= max(values)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_cdf_is_nondecreasing(self, values):
        xs, ys = empirical_cdf(values)
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert all(b >= a for a, b in zip(xs, xs[1:]))


class TestThroughputRecorder:
    def test_average_throughput(self):
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        sim.schedule(0.5, recorder.record, 1000)
        sim.schedule(1.5, recorder.record, 1000)
        sim.run(until=10.0)
        assert recorder.average_throughput_kbytes_per_s() == pytest.approx(0.2)
        assert recorder.average_throughput_bps() == pytest.approx(1600.0)

    def test_connectivity_fraction(self):
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        for t in (0.5, 1.5, 2.5):
            sim.schedule(t, recorder.record, 100)
        sim.run(until=10.0)
        assert recorder.connectivity_fraction() == pytest.approx(0.3)

    def test_connection_episodes(self):
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        for t in (0.5, 1.5, 5.5):  # two buckets, gap, one bucket
            sim.schedule(t, recorder.record, 100)
        sim.run(until=10.0)
        assert recorder.connection_durations() == [2.0, 1.0]

    def test_disruption_episodes(self):
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        for t in (0.5, 5.5):
            sim.schedule(t, recorder.record, 100)
        sim.run(until=10.0)
        assert recorder.disruption_durations() == [4.0, 4.0]

    def test_instantaneous_bandwidths_skip_dead_air(self):
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        sim.schedule(0.5, recorder.record, 2000)
        sim.schedule(3.5, recorder.record, 4000)
        sim.run(until=10.0)
        assert recorder.instantaneous_bandwidths_kbytes() == [2.0, 4.0]

    def test_empty_recorder(self):
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        sim.run(until=5.0)
        assert recorder.average_throughput_bps() == 0.0
        assert recorder.connectivity_fraction() == 0.0
        assert recorder.connection_durations() == []

    def test_zero_duration(self):
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        assert recorder.average_throughput_kbytes_per_s() == 0.0

    def test_final_partial_bucket_is_counted(self):
        """A run ending mid-bucket still spent time in that bucket: a
        delivery at 10.4 s of a run ending at 10.5 s must count."""
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        sim.schedule(10.4, recorder.record, 100)
        sim.schedule(10.5, lambda: None)  # pin sim.now to 10.5
        sim.run()
        # 11 buckets ([0,1) .. [10,10.5]), exactly one connected.
        assert recorder.connectivity_fraction() == pytest.approx(1 / 11)

    def test_sub_second_run_reports_connectivity(self):
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        sim.schedule(0.2, recorder.record, 100)
        sim.run()
        assert recorder.connectivity_fraction() == pytest.approx(1.0)

    def test_sub_second_silent_run_is_disconnected(self):
        sim = Simulator()
        recorder = ThroughputRecorder(sim)
        sim.schedule(0.4, lambda: None)
        sim.run()
        assert recorder.connectivity_fraction() == 0.0


class TestJoinLog:
    def test_open_record_appends(self):
        log = JoinLog()
        record = log.open_record("ap", 1, now=5.0)
        assert log.records == [record]
        assert record.started_at == 5.0

    def test_timings(self):
        log = JoinLog()
        record = log.open_record("ap", 1, now=10.0)
        record.associated_at = 10.4
        record.bound_at = 11.5
        assert record.association_time == pytest.approx(0.4)
        assert record.join_time == pytest.approx(1.5)
        assert record.succeeded

    def test_unfinished_record_has_no_times(self):
        log = JoinLog()
        record = log.open_record("ap", 1, now=0.0)
        assert record.association_time is None
        assert record.join_time is None
        assert not record.succeeded

    def test_series_extraction(self):
        log = JoinLog()
        a = log.open_record("a", 1, now=0.0)
        a.associated_at, a.bound_at = 0.2, 1.0
        b = log.open_record("b", 6, now=0.0)
        b.associated_at = 0.3
        b.dhcp_failures = 2
        assert log.association_times() == [pytest.approx(0.2), pytest.approx(0.3)]
        assert log.join_times() == [pytest.approx(1.0)]
        assert log.attempts() == 2
        assert log.successes() == 1
        assert log.dhcp_attempts() == 2

    def test_dhcp_failure_rate(self):
        log = JoinLog()
        good = log.open_record("a", 1, now=0.0)
        good.associated_at, good.bound_at = 0.1, 0.5
        bad = log.open_record("b", 1, now=0.0)
        bad.associated_at = 0.1
        bad.dhcp_failures = 3
        assert log.dhcp_failure_rate() == pytest.approx(0.75)

    def test_failure_rate_empty_is_zero(self):
        assert JoinLog().dhcp_failure_rate() == 0.0
