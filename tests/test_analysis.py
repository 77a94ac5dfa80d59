import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsync.analysis import (
    _BLOCK,
    PERIOD_STRENGTH_THRESHOLD,
    CountSeries,
    PeriodEstimate,
    _lag_products,
    autocorr,
    bucket_counts,
    compute_stats,
    detect_period,
    interarrival_stats,
    write_histogram_csv,
)
from drsync.workload import Direction, Trace, TraceRecord, generate_trace, preset


def rec(t, conn="c0000", direction=Direction.CLIENT_TO_SERVER, payload=20,
        header=40, ack=False):
    return TraceRecord(
        t_ms=t, conn_id=conn, direction=direction, payload_bytes=payload,
        header_bytes=header, is_ack=ack,
    )


def brute_autocorr(xs, lag):
    """Straight-from-the-definition reference, no vectorization."""
    n = len(xs)
    mean = sum(xs) / n
    num = sum((xs[i] - mean) * (xs[i + lag] - mean) for i in range(n - lag))
    den = sum((x - mean) ** 2 for x in xs)
    return num / den


class TestComputeStats:
    def test_hand_example(self):
        trace = Trace([rec(0, payload=20), rec(1000, payload=2, ack=True)])
        stats = compute_stats(trace, Direction.CLIENT_TO_SERVER)
        assert stats.packets == 2
        assert stats.total_bytes == 102
        assert stats.header_bytes == 80
        assert stats.duration_ms == 1000
        assert stats.n_clients == 1
        assert stats.header_byte_fraction == 80 / 102
        assert stats.ack_byte_fraction == 42 / 102
        assert stats.ack_packet_fraction == 0.5
        assert stats.mean_client_bandwidth_bps == 102 * 8 / 1.0

    def test_direction_accepts_string(self):
        trace = Trace([rec(0), rec(500)])
        by_enum = compute_stats(trace, Direction.CLIENT_TO_SERVER)
        by_str = compute_stats(trace, "c2s")
        assert by_enum == by_str

    def test_fraction_below_is_strict(self):
        trace = Trace([rec(0, payload=20), rec(100, payload=2)])  # wire sizes 60, 42
        stats = compute_stats(trace, "c2s", duration_ms=1000)
        assert stats.fraction_below(71) == 1.0
        assert stats.fraction_below(60) == 0.5  # 60 is not below 60
        assert stats.fraction_below(61) == 1.0
        assert stats.fraction_below(42) == 0.0

    def test_explicit_duration_required_for_zero_span(self):
        with pytest.raises(ValueError):
            compute_stats(Trace([rec(0)]), "c2s")
        stats = compute_stats(Trace([rec(0)]), "c2s", duration_ms=1000)
        assert stats.mean_client_bandwidth_bps == 60 * 8

    def test_empty_and_missing_direction(self):
        with pytest.raises(ValueError):
            compute_stats(Trace([]), "c2s")
        with pytest.raises(ValueError):
            compute_stats(Trace([rec(0)]), "s2c", duration_ms=100)

    def test_bandwidth_divides_across_clients(self):
        trace = Trace([rec(0, conn="c0000"), rec(1000, conn="c0001")])
        stats = compute_stats(trace, "c2s")
        # 120 bytes over 1 s shared by 2 clients.
        assert stats.mean_client_bandwidth_bps == 120 * 8 / 2

    def test_n_clients_counts_connections_in_either_direction(self):
        # c0001 only receives; it still counts as a client of the c2s side.
        receiver = rec(1000, conn="c0001", direction=Direction.SERVER_TO_CLIENT)
        trace = Trace([rec(0), receiver])
        stats = compute_stats(trace, "c2s")
        assert stats.packets == 1
        assert stats.n_clients == 2
        assert stats.mean_client_bandwidth_bps == 60 * 8 / 2

    def test_matches_a_loop_over_rows(self):
        trace = generate_trace(preset("mmorpg"), n_clients=3, duration_ms=20_000, seed=9)
        for direction in Direction:
            rows = [r for r in trace if r.direction is direction]
            acks = [r for r in rows if r.is_ack]
            stats = compute_stats(trace, direction)
            assert stats.packets == len(rows)
            assert stats.total_bytes == sum(r.total_bytes for r in rows)
            assert stats.header_bytes == sum(r.header_bytes for r in rows)
            assert stats.ack_packets == len(acks)
            assert stats.ack_bytes == sum(r.total_bytes for r in acks)
            assert stats.size_counts == Counter(r.total_bytes for r in rows)
            assert all(type(k) is int and type(v) is int
                       for k, v in stats.size_counts.items())
            assert stats.duration_ms == trace[-1].t_ms - trace[0].t_ms
            assert stats.n_clients == len({r.conn_id for r in trace})

            counts = [0.0] * 200
            for r in rows:
                counts[r.t_ms // 100] += 1
            series = bucket_counts(trace, 100, direction=direction, duration_ms=20_000)
            assert series.counts == tuple(counts)
            assert all(type(c) is float for c in series.counts)

            times = [r.t_ms for r in rows if r.conn_id == "c0001"]
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = math.fsum(gaps) / len(gaps)
            inter = interarrival_stats(trace, "c0001", direction)
            assert inter.mean_ms == mean
            assert inter.stddev_ms == math.sqrt(
                math.fsum((g - mean) ** 2 for g in gaps) / len(gaps)
            )
            ordered = sorted(gaps)
            assert inter.percentiles_ms == {
                p: float(ordered[max(1, math.ceil(p / 100 * len(gaps))) - 1])
                for p in (50, 90, 95, 99)
            }

    def test_size_histogram_buckets(self):
        trace = Trace([rec(0, payload=0), rec(1, payload=7), rec(2, payload=8),
                       rec(3, payload=24)])
        stats = compute_stats(trace, "c2s", duration_ms=10)
        hist = stats.size_histogram(bucket_bytes=8)
        # Wire sizes are 40, 47, 48, 64: [40,48) holds two, then one each.
        assert hist == [(40, 48, 2), (48, 56, 1), (64, 72, 1)]

    def test_histogram_csv(self, tmp_path):
        stats = compute_stats(Trace([rec(0, payload=0), rec(1, payload=8)]), "c2s",
                              duration_ms=10)
        path = tmp_path / "hist.csv"
        write_histogram_csv(stats, str(path))
        assert path.read_text() == "bucket_low,bucket_high,count\n40,48,1\n48,56,1\n"


class TestInterarrival:
    def test_hand_example(self):
        trace = Trace([rec(0), rec(100), rec(300)])
        stats = interarrival_stats(trace, "c0000", "c2s")
        assert stats.samples == 2
        assert stats.mean_ms == 150.0
        assert stats.stddev_ms == 50.0  # population stddev of {100, 200}
        assert stats.percentiles_ms == {50: 100.0, 90: 200.0, 95: 200.0, 99: 200.0}

    def test_needs_two_packets(self):
        with pytest.raises(ValueError):
            interarrival_stats(Trace([rec(0)]), "c0000", "c2s")

    def test_filters_by_connection(self):
        trace = Trace([rec(0), rec(40, conn="c0001"), rec(100)])
        stats = interarrival_stats(trace, "c0000", "c2s")
        assert stats.mean_ms == 100.0


class TestBucketCounts:
    def test_hand_example(self):
        trace = Trace([rec(0), rec(50), rec(150)])
        series = bucket_counts(trace, bucket_ms=100, duration_ms=300)
        assert series.bucket_ms == 100
        assert list(series.counts) == [2, 1, 0]

    def test_direction_filter(self):
        trace = Trace([rec(0), rec(0, direction=Direction.SERVER_TO_CLIENT)])
        series = bucket_counts(trace, bucket_ms=50, direction="s2c", duration_ms=50)
        assert list(series.counts) == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            bucket_counts(Trace([rec(0)]), bucket_ms=0, duration_ms=100)
        with pytest.raises(ValueError):
            bucket_counts(Trace([]), bucket_ms=100)


class TestAutocorr:
    def test_lag_zero_is_exactly_one(self):
        rng = random.Random(2)
        xs = [rng.uniform(0, 10) for _ in range(64)]
        assert autocorr(xs, 0) == 1.0

    def test_alternating_series(self):
        xs = [1.0, -1.0] * 8
        assert autocorr(xs, 1) == -15 / 16
        assert autocorr(xs, 2) == 14 / 16

    def test_matches_brute_force(self):
        rng = random.Random(17)
        xs = [rng.gauss(5, 2) for _ in range(200)]
        for lag in (1, 3, 10, 99):
            assert autocorr(xs, lag) == pytest.approx(brute_autocorr(xs, lag), abs=1e-12)

    def test_accepts_count_series(self):
        series = CountSeries(bucket_ms=100, counts=(1.0, 2.0, 1.0, 2.0, 1.0))
        assert autocorr(series, 2) == autocorr([1.0, 2.0, 1.0, 2.0, 1.0], 2)

    def test_errors(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError):
            autocorr(xs, -1)
        with pytest.raises(ValueError):
            autocorr(xs, 4)  # lag must be < n
        with pytest.raises(ValueError):
            autocorr([1.0], 0)
        with pytest.raises(ValueError):
            autocorr([3.0, 3.0, 3.0, 3.0], 1)  # zero variance


class TestDetectPeriod:
    def test_exact_period(self):
        xs = [2.0, 0.0, 0.0] * 4
        estimate = detect_period(xs)
        assert estimate is not None
        assert estimate.lag_buckets == 3
        assert estimate.strength == 0.75  # exact: 8.25 / 11

    def test_constant_series_has_no_period(self):
        assert detect_period([5.0] * 32) is None

    def test_noise_has_no_period(self):
        for seed in (11, 12, 13):
            rng = random.Random(seed)
            xs = [float(rng.randint(0, 50)) for _ in range(256)]
            assert detect_period(xs) is None

    def test_too_short(self):
        with pytest.raises(ValueError):
            detect_period([1.0, 0.0] * 3)  # 6 < 8 samples

    def test_workload_tick_shows_up(self):
        # A strictly periodic 300 ms workload bucketed at 100 ms: every
        # third bucket is busy, so the detected lag is exactly 3 buckets.
        from drsync.workload import PayloadSizeDist, WorkloadProfile

        profile = WorkloadProfile(
            tick_period_ms=300,
            payload_size_dist=PayloadSizeDist(body=((10, 1.0),)),
            ack_every_n=1,
        )
        trace = generate_trace(profile, n_clients=2, duration_ms=30_000, seed=3)
        series = bucket_counts(trace, bucket_ms=100, duration_ms=30_000)
        estimate = detect_period(series)
        assert estimate is not None
        assert estimate.lag_buckets * series.bucket_ms == 300
        assert estimate.strength > 0.9


# --- the FFT period detector against the lag-by-lag scan ----------------------

# Series lengths whose lags fall on the FFT's block edges.
BLOCK_EDGES = [8, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]


def scan_period(xs) -> PeriodEstimate | None:
    """The lag-by-lag scan detect_period replaced: one dot per lag 1..n//2."""
    x = np.asarray(xs, dtype=float)
    n = x.size
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        return None
    best_lag = 0
    best_r = -math.inf
    for lag in range(1, n // 2 + 1):
        r = float(np.dot(centered[: n - lag], centered[lag:])) / denom
        if r > best_r:
            best_r = r
            best_lag = lag
    if best_r <= PERIOD_STRENGTH_THRESHOLD:
        return None
    return PeriodEstimate(lag_buckets=best_lag, strength=best_r)


def make_series(family: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "periodic":  # bucketed ticks over Poisson background
        period = int(rng.integers(2, 40))
        return rng.poisson(1.0, n) + rng.integers(1, 6) * (np.arange(n) % period == 0)
    if family == "poisson":
        return rng.poisson(rng.uniform(0.1, 20.0), n).astype(float)
    if family == "spikes":
        x = np.zeros(n)
        x[rng.integers(0, n, size=rng.integers(1, 8))] = 1.0
        return x
    # Near ties: a [s, -s] pair at offsets o, o + a and o + a + b of a zero
    # series.  Its mean is exactly 0, and lags a, b and a + b all come to
    # exactly 1/3; tiny noise makes the tie a near tie.
    x = np.zeros(n)
    a, b = rng.integers(2, max(3, n // 4), size=2)
    o = int(rng.integers(0, n - a - b - 1))
    s = float(rng.integers(1, 4))
    for start in (o, o + a, o + a + b):
        x[start : start + 2] = (s, -s)
    if family == "near-ties":
        x += rng.normal(0.0, 1e-12, n)
    return x


@given(
    n=st.sampled_from(BLOCK_EDGES) | st.integers(2, 3 * _BLOCK),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["periodic", "poisson", "spikes"]),
    whole=st.booleans(),
)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_lag_products_match_dots(n, seed, family, whole):
    x = make_series(family, n, seed)
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    max_lag = n - 1 if whole else n // 2
    products = _lag_products(centered, max_lag)
    dots = [float(np.dot(centered[: n - k], centered[k:])) for k in range(max_lag + 1)]
    assert products.shape == (max_lag + 1,)
    assert np.all(np.abs(products - dots) <= 1e-12 * denom)


@given(
    n=st.sampled_from(BLOCK_EDGES) | st.integers(8, 2 * _BLOCK + 1),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["periodic", "poisson", "spikes", "ties", "near-ties"]),
)
@example(n=64, seed=5, family="ties")
@example(n=_BLOCK + 1, seed=3, family="near-ties")
@settings(derandomize=True, max_examples=80, deadline=None)
def test_detect_period_equals_the_lag_scan(n, seed, family):
    x = make_series(family, n, seed)
    estimate = detect_period(x.tolist())
    assert estimate == scan_period(x)
    if estimate is not None:
        # One centring, one exact dot: the strength is autocorr's value.
        assert estimate.strength == autocorr(x.tolist(), estimate.lag_buckets)


def test_exact_tie_goes_to_the_smallest_lag():
    x = make_series("ties", 64, 5)
    r = [autocorr(x, lag) for lag in range(1, 33)]
    tied = [lag for lag, value in enumerate(r, start=1) if value == 1 / 3]
    assert len(tied) == 3 and max(r) == 1 / 3
    assert detect_period(x) == PeriodEstimate(lag_buckets=tied[0], strength=1 / 3)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_huge_values_give_the_scans_result():
    # The squares are finite but the raw FFT products would overflow.
    x = [1e152, 0.0, 0.0] * 1000
    assert detect_period(x) == scan_period(x) == PeriodEstimate(3, 0.9990000000000002)
    # The sum of squares overflows; neither detector sees a period.
    x = [1e200, 0.0] * 8
    assert detect_period(x) is None and scan_period(x) is None


def test_mmorpg_global_events_visible_in_autocorrelation():
    # The 10 s rally must raise the lag-100 autocorrelation of 100 ms
    # buckets well above the no-events baseline.
    profile = preset("mmorpg")
    trace = generate_trace(profile, n_clients=30, duration_ms=300_000, seed=42)
    series = bucket_counts(trace, bucket_ms=100, direction="c2s", duration_ms=300_000)
    with_events = autocorr(series, 100)

    from drsync.workload import GlobalEventModel
    from dataclasses import replace

    quiet = replace(profile, global_event=GlobalEventModel())
    trace_q = generate_trace(quiet, n_clients=30, duration_ms=300_000, seed=42)
    series_q = bucket_counts(trace_q, bucket_ms=100, direction="c2s", duration_ms=300_000)
    without_events = autocorr(series_q, 100)

    assert with_events > without_events + 0.1
    assert with_events > 0.15
