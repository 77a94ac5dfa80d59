"""Descriptive statistics and structure detection over packet traces.

Works on :class:`~drsync.workload.TraceRecord` lists: wire-size composition
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

import numpy as np

from . import spec
from .protocol import nearest_rank
from .workload import Direction, TraceRecord

# A flat series must clear this autocorrelation to count as periodic.
PERIOD_STRENGTH_THRESHOLD = 0.3
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
    trace: list[TraceRecord],
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
    if not trace:
        raise ValueError("cannot compute stats for an empty trace")
    if duration_ms is None:
        duration_ms = trace[-1].t_ms - trace[0].t_ms
        if duration_ms <= 0:
            raise ValueError(
                "trace has no time span; pass duration_ms explicitly"
            )
    elif duration_ms <= 0:
        raise ValueError(f"duration_ms must be > 0, got {duration_ms}")

    n_clients = len({r.conn_id for r in trace})
    packets = 0
    total_bytes = 0
    header_bytes = 0
    ack_bytes = 0
    ack_packets = 0
    size_counts: Counter = Counter()
    for r in trace:
        if r.direction is not direction:
            continue
        packets += 1
        total_bytes += r.total_bytes
        header_bytes += r.header_bytes
        size_counts[r.total_bytes] += 1
        if r.is_ack:
            ack_packets += 1
            ack_bytes += r.total_bytes
    if packets == 0:
        raise ValueError(f"trace has no packets in direction {direction.value}")
    if total_bytes == 0:
        raise ValueError(f"trace packets in direction {direction.value} carry no bytes")

    return TraceStats(
        direction=direction,
        packets=packets,
        total_bytes=total_bytes,
        header_bytes=header_bytes,
        ack_bytes=ack_bytes,
        ack_packets=ack_packets,
        duration_ms=duration_ms,
        n_clients=n_clients,
        size_counts=size_counts,
    )


@dataclass(frozen=True)
class InterarrivalStats:
    """Gaps between consecutive packets of one connection and direction."""

    mean_ms: float
    stddev_ms: float
    percentiles_ms: dict[int, float]
    samples: int


def interarrival_stats(
    trace: list[TraceRecord], conn_id: str, direction: Direction | str
) -> InterarrivalStats:
    """Inter-arrival gap statistics for one connection in one direction.

    Needs at least two matching packets; the trace must already be sorted by
    time, as produced by the generator.
    """
    direction = Direction(direction)
    times = [r.t_ms for r in trace if r.conn_id == conn_id and r.direction is direction]
    if len(times) < 2:
        raise ValueError(
            f"need at least 2 packets for {conn_id}/{direction.value}, got {len(times)}"
        )
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = math.fsum(gaps) / len(gaps)
    var = math.fsum((g - mean) ** 2 for g in gaps) / len(gaps)
    ordered = sorted(gaps)
    return InterarrivalStats(
        mean_ms=mean,
        stddev_ms=math.sqrt(var),
        percentiles_ms={
            p: float(nearest_rank(ordered, p / 100.0)) for p in (50, 90, 95, 99)
        },
        samples=len(gaps),
    )


@dataclass(frozen=True)
class CountSeries:
    """Packet (or byte) counts per fixed-width time bucket."""

    bucket_ms: int
    counts: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.bucket_ms < 1:
            raise ValueError(f"bucket_ms must be >= 1, got {self.bucket_ms}")


def bucket_counts(
    trace: list[TraceRecord],
    bucket_ms: int,
    direction: Direction | str | None = None,
    duration_ms: int | None = None,
    bytes_mode: bool = False,
) -> CountSeries:
    """Aggregate a trace into per-bucket packet counts (or byte totals)."""
    if direction is not None:
        direction = Direction(direction)
    if bucket_ms < 1:
        raise ValueError(f"bucket_ms must be >= 1, got {bucket_ms}")
    if duration_ms is None:
        if not trace:
            raise ValueError("cannot infer duration from an empty trace")
        duration_ms = trace[-1].t_ms + 1
    n_buckets = -(-duration_ms // bucket_ms)
    counts = [0.0] * n_buckets
    for r in trace:
        if direction is not None and r.direction is not direction:
            continue
        b = r.t_ms // bucket_ms
        if 0 <= b < n_buckets:
            counts[b] += r.total_bytes if bytes_mode else 1
    return CountSeries(bucket_ms=bucket_ms, counts=tuple(counts))


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
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise ValueError("series has zero variance; autocorrelation undefined")
    if lag == 0:
        return 1.0
    num = float(np.dot(centered[: n - lag], centered[lag:]))
    return num / denom


@dataclass(frozen=True)
class PeriodEstimate:
    lag_buckets: int
    strength: float


def detect_period(
    series: CountSeries | Sequence[float],
) -> PeriodEstimate | None:
    """Find the dominant period of the series, if any.

    Scans lags ``1..n//2`` and returns the lag with the highest
    autocorrelation when it clears :data:`PERIOD_STRENGTH_THRESHOLD`;
    constant or unconvincing series yield None.
    """
    if isinstance(series, CountSeries):
        series = series.counts
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < _MIN_PERIOD_SAMPLES:
        raise ValueError(
            f"series too short for period detection: {n} < {_MIN_PERIOD_SAMPLES}"
        )
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


def write_histogram_csv(
    stats: TraceStats, path: str, bucket_bytes: int = 8
) -> None:
    """Write the wire-size histogram as ``bucket_low,bucket_high,count``."""
    spec.write_csv(
        path, ("bucket_low", "bucket_high", "count"), stats.size_histogram(bucket_bytes)
    )
