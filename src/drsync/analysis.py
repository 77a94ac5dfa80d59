"""Descriptive statistics and structure detection over packet traces.

Works on the columns of a :class:`~drsync.workload.Trace`: wire-size composition
(histograms, header and ack byte shares, per-client bandwidth), per-connection
inter-arrival statistics, and sample autocorrelation over bucketed packet
counts, which is what exposes tick periodicity and burst locality.

Autocorrelation uses the standard biased estimator normalized by the
full-series mean and variance:

    r(k) = sum_{i<n-k} (x_i - m)(x_{i+k} - m) / sum_i (x_i - m)^2

so ``r(0) == 1`` exactly and ``|r(k)| <= 1`` always.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import spec
from .protocol import nearest_rank
from .workload import MAX_T_MS, Direction, Trace

# A flat series must clear this autocorrelation to count as periodic.
PERIOD_STRENGTH_THRESHOLD = 0.3
# The most buckets bucket_counts makes; detect_period takes about 0.11 s and
# 64 MiB at the cap, 3 ms at 75,000 buckets.
MAX_BUCKETS = 2**20
_MIN_PERIOD_SAMPLES = 8


@dataclass
class TraceStats:
    """Single-direction traffic composition summary."""

    direction: Direction
    packets: int
    total_bytes: int
    header_bytes: int
    ack_bytes: int
    ack_packets: int
    duration_ms: int
    n_clients: int
    size_counts: Counter = field(repr=False, default_factory=Counter)

    @property
    def header_byte_fraction(self) -> float:
        return self.header_bytes / self.total_bytes

    @property
    def ack_byte_fraction(self) -> float:
        return self.ack_bytes / self.total_bytes

    @property
    def ack_packet_fraction(self) -> float:
        return self.ack_packets / self.packets

    @property
    def mean_client_bandwidth_bps(self) -> float:
        """Average bits per second per client, headers included."""
        return self.total_bytes * 8.0 / (self.duration_ms / 1000.0) / self.n_clients

    def fraction_below(self, threshold_bytes: int) -> float:
        """Fraction of packets strictly smaller than ``threshold_bytes`` on the wire."""
        small = sum(c for size, c in self.size_counts.items() if size < threshold_bytes)
        return small / self.packets

    def size_histogram(self, bucket_bytes: int = 8) -> list[tuple[int, int, int]]:
        """Counts of wire sizes in ``[low, high)`` buckets of the given width."""
        if bucket_bytes < 1:
            raise ValueError(f"bucket_bytes must be >= 1, got {bucket_bytes}")
        buckets: Counter = Counter()
        for size, c in self.size_counts.items():
            buckets[size // bucket_bytes] += c
        return [
            (b * bucket_bytes, (b + 1) * bucket_bytes, buckets[b])
            for b in sorted(buckets)
        ]


def compute_stats(
    trace: Trace,
    direction: Direction | str,
    duration_ms: int | None = None,
) -> TraceStats:
    """Summarize one direction of a trace.

    ``duration_ms`` defaults to the trace's time span; pass it explicitly when
    the observation window is longer than the span (a single packet has zero
    span, for instance).  Client count is the number of distinct connections
    in the whole trace.
    """
    direction = Direction(direction)
    if not len(trace):
        raise ValueError("cannot compute stats for an empty trace")
    if duration_ms is None:
        duration_ms = int(trace.t_ms[-1] - trace.t_ms[0])
        if duration_ms <= 0:
            raise ValueError(
                "trace has no time span; pass duration_ms explicitly"
            )
    else:
        _check_duration(duration_ms)

    # Each direction split is np.compress, not x[mask]: mask indexing
    # branches on each row, and a trace's directions interleave about 50/50,
    # so it took 0.54 ms a trace-mmorpg column against compress's 0.11 ms.
    mask = trace.in_direction(direction)
    headers = np.compress(mask, trace.header_bytes)
    sizes = np.compress(mask, trace.payload_bytes) + headers
    ack_sizes = np.compress(np.compress(mask, trace.is_ack), sizes)
    total_bytes = int(sizes.sum())
    if not len(sizes):
        raise ValueError(f"trace has no packets in direction {direction.value}")
    if total_bytes == 0:
        raise ValueError(f"trace packets in direction {direction.value} carry no bytes")
    values, counts = np.unique(sizes, return_counts=True)

    return TraceStats(
        direction=direction,
        packets=len(sizes),
        total_bytes=total_bytes,
        header_bytes=int(headers.sum()),
        ack_bytes=int(ack_sizes.sum()),
        ack_packets=len(ack_sizes),
        duration_ms=duration_ms,
        n_clients=len(trace.conn_ids),
        size_counts=Counter(dict(zip(values.tolist(), counts.tolist()))),
    )


def _check_duration(duration_ms: int) -> None:
    """Reject an explicit observation window outside ``(0, MAX_T_MS]``."""
    if not 0 < duration_ms <= MAX_T_MS:
        raise ValueError(f"duration_ms must be in (0, 2**63], got {duration_ms}")


@dataclass(frozen=True)
class InterarrivalStats:
    """Gaps between consecutive packets of one connection and direction."""

    mean_ms: float
    stddev_ms: float
    percentiles_ms: dict[int, float]
    samples: int


def interarrival_stats(
    trace: Trace, conn_id: str, direction: Direction | str
) -> InterarrivalStats:
    """Inter-arrival gap statistics for one connection in one direction.

    Needs at least two matching packets.
    """
    direction = Direction(direction)
    # -1 matches no row when the connection is not in the trace.
    conn = trace.conn_ids.index(conn_id) if conn_id in trace.conn_ids else -1
    rows = (trace.conn == conn) & trace.in_direction(direction)
    times = np.compress(rows, trace.t_ms)
    if len(times) < 2:
        raise ValueError(
            f"need at least 2 packets for {conn_id}/{direction.value}, got {len(times)}"
        )
    gaps = np.diff(times)
    mean = math.fsum(gaps.tolist()) / len(gaps)
    deviations = gaps - mean
    var = math.fsum((deviations * deviations).tolist()) / len(gaps)
    ordered = np.sort(gaps).tolist()
    return InterarrivalStats(
        mean_ms=mean,
        stddev_ms=math.sqrt(var),
        percentiles_ms={
            p: float(nearest_rank(ordered, p / 100.0)) for p in (50, 90, 95, 99)
        },
        samples=len(gaps),
    )


class CountSeries(NamedTuple):
    """Packet counts per fixed-width time bucket; :func:`bucket_counts` makes it."""

    bucket_ms: int
    counts: np.ndarray  # read-only float64, one entry per bucket


def bucket_counts(
    trace: Trace,
    bucket_ms: int,
    direction: Direction | str | None = None,
    duration_ms: int | None = None,
) -> CountSeries:
    """Aggregate a trace into per-bucket packet counts."""
    # Every t_ms is below MAX_T_MS, so no window needs to be longer, and a
    # longer one would reach numpy and float conversions as an overflow.
    if not 1 <= bucket_ms < MAX_T_MS:
        raise ValueError(f"bucket_ms must be in [1, 2**63), got {bucket_ms}")
    if duration_ms is None:
        if not len(trace):
            raise ValueError("cannot infer duration from an empty trace")
        duration_ms = int(trace.t_ms[-1]) + 1
    else:
        _check_duration(duration_ms)
    n_buckets = -(-duration_ms // bucket_ms)
    if n_buckets > MAX_BUCKETS:
        raise ValueError(
            f"{n_buckets} buckets of {bucket_ms} ms exceed MAX_BUCKETS ({MAX_BUCKETS})"
        )
    times = trace.t_ms
    if direction is not None:
        times = np.compress(trace.in_direction(direction), times)
    buckets = times // bucket_ms
    counts = np.bincount(buckets[buckets < n_buckets], minlength=n_buckets)
    counts = counts.astype(float)
    counts.flags.writeable = False
    return CountSeries(bucket_ms=bucket_ms, counts=counts)


def autocorr(series: CountSeries | Sequence[float], lag: int) -> float:
    """Sample autocorrelation of the series at the given non-negative lag."""
    if isinstance(series, CountSeries):
        series = series.counts
    x = np.asarray(series, dtype=float)
    n = x.size
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if n < 2:
        raise ValueError(f"series too short for autocorrelation: length {n}")
    if lag >= n:
        raise ValueError(f"lag {lag} out of range for series of length {n}")
    centered, denom = _centered(x)
    if denom == 0.0:
        raise ValueError("series has zero variance; autocorrelation undefined")
    if lag == 0:
        return 1.0
    return _exact_r(centered, denom, lag)


@dataclass(frozen=True)
class PeriodEstimate:
    lag_buckets: int
    strength: float


def detect_period(
    series: CountSeries | Sequence[float],
) -> PeriodEstimate | None:
    """Find the dominant period of the series, if any.

    Returns the lag in ``1..n//2`` with the highest :func:`autocorr` (the
    smallest such lag on a tie) when it clears
    :data:`PERIOD_STRENGTH_THRESHOLD`; constant or unconvincing series yield
    None.  The result equals a lag-by-lag scan's, bit for bit: one FFT pair
    of about ``1.5 * n`` points estimates every lag to within about 1e-14,
    not the scan's ``n / 2`` dots of up to ``n``, and only the lags within a
    tolerance of the best estimate get :func:`autocorr`'s exact dot.
    """
    if isinstance(series, CountSeries):
        series = series.counts
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < _MIN_PERIOD_SAMPLES:
        raise ValueError(
            f"series too short for period detection: {n} < {_MIN_PERIOD_SAMPLES}"
        )
    centered, denom = _centered(x)
    if denom == 0.0:
        return None
    # Unit norm keeps the FFT's sums far from overflow.
    approx = _lag_products(centered / math.sqrt(denom), n // 2)[1:]
    # The estimates are within 1e-12 of the exact values; an exact dot is
    # within n * eps of the true value (2.3e-10 at MAX_BUCKETS).  A tolerance
    # above twice their sum keeps the exact best lag among those re-checked.
    tolerance = max(1e-9, 4 * n * np.finfo(float).eps)
    top = float(approx.max())
    if top + tolerance <= PERIOD_STRENGTH_THRESHOLD:
        return None
    best_lag = 0
    best_r = -math.inf
    for lag in (np.flatnonzero(approx >= top - tolerance) + 1).tolist():
        r = _exact_r(centered, denom, lag)
        if r > best_r:
            best_r = r
            best_lag = lag
    if best_r <= PERIOD_STRENGTH_THRESHOLD:
        return None
    return PeriodEstimate(lag_buckets=best_lag, strength=best_r)


def _centered(x: np.ndarray) -> tuple[np.ndarray, float]:
    """The series minus its mean, and that difference's sum of squares."""
    centered = x - x.mean()
    return centered, float(np.dot(centered, centered))


def _exact_r(centered: np.ndarray, denom: float, lag: int) -> float:
    """The autocorrelation at ``lag`` of a :func:`_centered` series, by exact dot."""
    n = centered.size
    return float(np.dot(centered[: n - lag], centered[lag:])) / denom


def _lag_products(centered: np.ndarray, max_lag: int) -> np.ndarray:
    """``sum_i c[i] * c[i + k]`` for ``k = 0..max_lag``, by one FFT pair.

    The inverse FFT of the power spectrum is the circular correlation, whose
    lag ``k`` also adds ``c[i] * c[i + k - m]`` for ``i >= m - k``: each
    ``c[i]`` there is padding when ``m >= n + max_lag``.  pocketfft is as
    fast per point at the least such ``m`` of the form ``2^a 3^b 5^c`` as at
    a power of two, which may be twice as long, and ten times slower at a prime.
    """
    size = _smooth(centered.size + max_lag)
    spectrum = np.fft.rfft(centered, size)
    spectrum *= spectrum.conj()
    return np.fft.irfft(spectrum, size)[: max_lag + 1]


def _smooth(n: int) -> int:
    """The least ``2^a 3^b 5^c`` at least ``n >= 1``."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def write_histogram_csv(
    stats: TraceStats, path: str, bucket_bytes: int = 8
) -> None:
    """Write the wire-size histogram as ``bucket_low,bucket_high,count``."""
    columns = spec.transpose(stats.size_histogram(bucket_bytes), 3)
    spec.write_csv(path, ("bucket_low", "bucket_high", "count"), columns)
