import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsync.analysis import (
    PERIOD_STRENGTH_THRESHOLD,
    CountSeries,
    PeriodEstimate,
    _lag_products,
    _smooth,
    autocorr,
    bucket_counts,
    compute_stats,
    detect_period,
    interarrival_stats,
    write_histogram_csv,
)
from drsync.workload import Direction, Trace, TraceRecord, generate_trace, preset


WINDOW_ERROR = r"^duration_ms must be in \(0, 2\*\*63\], got {}$"


def rec(t, conn="c0000", direction=Direction.CLIENT_TO_SERVER, payload=20,
        header=40, ack=False):
    return TraceRecord(
        t_ms=t, conn_id=conn, direction=direction, payload_bytes=payload,
        header_bytes=header, is_ack=ack,
    )


def trace_of(rows):
    """A Trace of ``(t_ms, conn_id, direction, payload_bytes, header_bytes,
    is_ack)`` rows, its connections numbered in order of first appearance."""
    ids = {}
    conn = [ids.setdefault(row[1], len(ids)) for row in rows]
    direction = [list(Direction).index(row[2]) for row in rows]
    t, _, _, payload, header, is_ack = zip(*rows) if rows else [()] * 6
    return Trace(t, conn, ids, direction, payload, header, is_ack)


def brute_autocorr(xs, lag):
    """Straight-from-the-definition reference, no vectorization."""
    n = len(xs)
    mean = sum(xs) / n
    num = sum((xs[i] - mean) * (xs[i + lag] - mean) for i in range(n - lag))
    den = sum((x - mean) ** 2 for x in xs)
    return num / den


class TestComputeStats:
    def test_hand_example(self):
        trace = trace_of([rec(0, payload=20), rec(1000, payload=2, ack=True)])
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
        trace = trace_of([rec(0), rec(500)])
        by_enum = compute_stats(trace, Direction.CLIENT_TO_SERVER)
        by_str = compute_stats(trace, "c2s")
        assert by_enum == by_str

    def test_fraction_below_is_strict(self):
        trace = trace_of([rec(0, payload=20), rec(100, payload=2)])  # wire sizes 60, 42
        stats = compute_stats(trace, "c2s", duration_ms=1000)
        assert stats.fraction_below(71) == 1.0
        assert stats.fraction_below(60) == 0.5  # 60 is not below 60
        assert stats.fraction_below(61) == 1.0
        assert stats.fraction_below(42) == 0.0

    def test_explicit_duration_required_for_zero_span(self):
        with pytest.raises(ValueError):
            compute_stats(trace_of([rec(0)]), "c2s")
        stats = compute_stats(trace_of([rec(0)]), "c2s", duration_ms=1000)
        assert stats.mean_client_bandwidth_bps == 60 * 8

    def test_empty_and_missing_direction(self):
        with pytest.raises(ValueError):
            compute_stats(trace_of([]), "c2s")
        with pytest.raises(ValueError):
            compute_stats(trace_of([rec(0)]), "s2c", duration_ms=100)

    def test_bandwidth_divides_across_clients(self):
        trace = trace_of([rec(0, conn="c0000"), rec(1000, conn="c0001")])
        stats = compute_stats(trace, "c2s")
        # 120 bytes over 1 s shared by 2 clients.
        assert stats.mean_client_bandwidth_bps == 120 * 8 / 2

    def test_n_clients_counts_connections_in_either_direction(self):
        # c0001 only receives; it still counts as a client of the c2s side.
        receiver = rec(1000, conn="c0001", direction=Direction.SERVER_TO_CLIENT)
        trace = trace_of([rec(0), receiver])
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
            assert series.counts.tolist() == counts
            assert series.counts.dtype == np.float64
            assert not series.counts.flags.writeable

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
        trace = trace_of([rec(0, payload=0), rec(1, payload=7), rec(2, payload=8),
                          rec(3, payload=24)])
        stats = compute_stats(trace, "c2s", duration_ms=10)
        hist = stats.size_histogram(bucket_bytes=8)
        # Wire sizes are 40, 47, 48, 64: [40,48) holds two, then one each.
        assert hist == [(40, 48, 2), (48, 56, 1), (64, 72, 1)]
        with pytest.raises(ValueError, match=r"^bucket_bytes must be >= 1, got 0$"):
            stats.size_histogram(0)

    def test_packets_without_bytes_are_refused(self):
        trace = trace_of([rec(0, payload=0, header=0)])
        with pytest.raises(
            ValueError, match="^trace packets in direction c2s carry no bytes$"
        ):
            compute_stats(trace, "c2s", duration_ms=10)

    @pytest.mark.parametrize("duration_ms", [0, -5, -500, 2**63 + 1])
    def test_window_out_of_range(self, duration_ms):
        with pytest.raises(ValueError, match=WINDOW_ERROR.format(duration_ms)):
            compute_stats(trace_of([rec(0)]), "c2s", duration_ms=duration_ms)

    def test_window_at_the_limit(self):
        stats = compute_stats(trace_of([rec(0)]), "c2s", duration_ms=2**63)
        assert stats.duration_ms == 2**63

    def test_histogram_csv(self, tmp_path):
        trace = trace_of([rec(0, payload=0), rec(1, payload=8)])
        stats = compute_stats(trace, "c2s", duration_ms=10)
        path = tmp_path / "hist.csv"
        write_histogram_csv(stats, str(path))
        assert path.read_text() == "bucket_low,bucket_high,count\n40,48,1\n48,56,1\n"


class TestInterarrival:
    def test_hand_example(self):
        trace = trace_of([rec(0), rec(100), rec(300)])
        stats = interarrival_stats(trace, "c0000", "c2s")
        assert stats.samples == 2
        assert stats.mean_ms == 150.0
        assert stats.stddev_ms == 50.0  # population stddev of {100, 200}
        assert stats.percentiles_ms == {50: 100.0, 90: 200.0, 95: 200.0, 99: 200.0}

    def test_needs_two_packets(self):
        with pytest.raises(ValueError):
            interarrival_stats(trace_of([rec(0)]), "c0000", "c2s")

    def test_filters_by_connection(self):
        trace = trace_of([rec(0), rec(40, conn="c0001"), rec(100)])
        stats = interarrival_stats(trace, "c0000", "c2s")
        assert stats.mean_ms == 100.0


class TestBucketCounts:
    def test_hand_example(self):
        trace = trace_of([rec(0), rec(50), rec(150)])
        series = bucket_counts(trace, bucket_ms=100, duration_ms=300)
        assert series.bucket_ms == 100
        assert list(series.counts) == [2, 1, 0]

    def test_direction_filter(self):
        trace = trace_of([rec(0), rec(0, direction=Direction.SERVER_TO_CLIENT)])
        series = bucket_counts(trace, bucket_ms=50, direction="s2c", duration_ms=50)
        assert list(series.counts) == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            bucket_counts(trace_of([rec(0)]), bucket_ms=0, duration_ms=100)
        with pytest.raises(ValueError):
            bucket_counts(trace_of([]), bucket_ms=100)

    @pytest.mark.parametrize("duration_ms", [0, -5, -500, 2**63 + 1])
    def test_window_out_of_range(self, duration_ms):
        with pytest.raises(ValueError, match=WINDOW_ERROR.format(duration_ms)):
            bucket_counts(trace_of([rec(0)]), bucket_ms=100, duration_ms=duration_ms)

    def test_window_at_the_limit(self):
        series = bucket_counts(trace_of([rec(0)]), bucket_ms=2**62, duration_ms=2**63)
        assert series.counts.tolist() == [1.0, 0.0]


@st.composite
def split_traces(draw):
    """A trace of up to 40 rows: few connections, either direction, sizes
    from 0 to 2**32 - 1 and any ack flags; or one direction, all acks."""
    n = draw(st.integers(0, 40))
    column = lambda items: draw(st.lists(items, min_size=n, max_size=n))
    one_way = draw(st.booleans())
    direction = [0] * n if one_way else column(st.integers(0, 1))
    acks = [True] * n if draw(st.booleans()) else column(st.booleans())
    sizes = st.one_of(st.integers(0, 100), st.integers(0, 2**32 - 1))
    conn = column(st.integers(0, 2))
    times = sorted(column(st.integers(0, 10**6)))
    return Trace(times, conn, ("c0", "c1", "c2"), direction, column(sizes),
                 column(sizes), acks)


def rows_where(trace, mask):
    """The rows of ``trace`` that a boolean ``mask`` picks, by mask indexing."""
    columns = (trace.t_ms, trace.conn, trace.direction, trace.payload_bytes,
               trace.header_bytes, trace.is_ack)
    t, conn, direction, payload, header, is_ack = (c[mask] for c in columns)
    return Trace(t, conn, trace.conn_ids, direction, payload, header, is_ack)


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@given(trace=split_traces(), bucket_ms=st.integers(1, 50_000))
@example(trace=trace_of([]), bucket_ms=1)
@example(trace=trace_of([rec(5, ack=True)]), bucket_ms=3)
@example(trace=trace_of([rec(0, payload=0, header=0), rec(9)]), bucket_ms=2)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_direction_splits_match_mask_indexing(trace, bucket_ms):
    # Each direction split gives what x[mask] gives: the stats, counts and
    # gaps of a trace equal those of its rows in the direction, picked by
    # mask indexing.  Explicit windows, since a split's span is its own.
    window = int(trace.t_ms[-1]) + 1 if len(trace) else 1
    for direction in Direction:
        mask = trace.in_direction(direction)
        split = rows_where(trace, mask)
        got = outcome(compute_stats, trace, direction, duration_ms=window)
        if len(trace) and not mask.any():
            assert got == f"trace has no packets in direction {direction.value}"
        else:
            assert got == outcome(compute_stats, split, direction, duration_ms=window)
        counts = bucket_counts(trace, bucket_ms, direction, duration_ms=window).counts
        assert counts.tolist() == bucket_counts(
            split, bucket_ms, duration_ms=window
        ).counts.tolist()
        for conn_id in (*trace.conn_ids, "absent"):
            code = trace.conn_ids.index(conn_id) if conn_id in trace.conn_ids else -1
            one = rows_where(trace, mask & (trace.conn == code))
            assert outcome(interarrival_stats, trace, conn_id, direction) == outcome(
                interarrival_stats, one, conn_id, direction
            )


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

# Series lengths at the edges of the FFT's length, _smooth(n + n // 2):
# 8 + 4 = 12 needs no padding and 9 + 4 = 13 is padded to 15; 665 + 332 = 997
# and 666 + 333 = 999 are padded to 1000 = 2^3 5^3, which 667 + 333 is, and
# 668 + 334 = 1002 is padded to 1024; a prime; and analyst-fine's 74,976
# buckets, padded to 112,500 = 2^2 3^2 5^5.
FFT_EDGES = [8, 9, 665, 666, 667, 668, 7919]
ANALYST_FINE_BUCKETS = 74_976


def test_smooth_is_the_least_5_smooth_number_at_or_past_n():
    def is_smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    smooth = [m for m in range(1, 10_241) if is_smooth(m)]  # 10,240 = 2^11 5
    for n in range(1, 10_001):
        assert _smooth(n) == min(m for m in smooth if m >= n)


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
    n=st.sampled_from(FFT_EDGES) | st.integers(2, 24_576),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["periodic", "poisson", "spikes"]),
    whole=st.booleans(),
)
@example(n=ANALYST_FINE_BUCKETS, seed=1, family="poisson", whole=True)
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
    n=st.sampled_from(FFT_EDGES) | st.integers(8, 16_385),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["periodic", "poisson", "spikes", "ties", "near-ties"]),
)
@example(n=64, seed=5, family="ties")
@example(n=667, seed=3, family="near-ties")
@example(n=ANALYST_FINE_BUCKETS, seed=2, family="periodic")
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


def test_best_value_at_the_threshold_is_no_period():
    # The FFT estimate clears the threshold within its tolerance; the exact
    # best value, 0.3 at lag 1, does not.
    x = [3, 3, 1, 0, 1, 3, 2, 3]
    assert max(autocorr(x, lag) for lag in range(1, 5)) == PERIOD_STRENGTH_THRESHOLD
    assert detect_period(x) is None and scan_period(x) is None


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
