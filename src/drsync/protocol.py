"""Threshold-driven dead-reckoning sender, newest-wins receiver, export error.

The sender owns ground truth and runs once per simulation tick.  It keeps the
receiver's predicted view reconstructible from the last snapshot it emitted:
when the prediction drifts from truth by more than a configured threshold, it
emits a fresh :class:`~drsync.core.DRVector`.  The first tick always emits so
the receiver has something to render.

The receiver keeps only the newest snapshot by sequence number and renders by
extrapolating it forward.  Export error is the per-tick distance between the
sender's truth and the receiver's rendered position; ticks before the first
snapshot arrives are warm-up and are excluded from the aggregates but
reported separately.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import spec
from .core import _MS_PER_S, DRVector, TimeMs, Vec3, ZERO, deviation, extrapolate


@dataclass(frozen=True)
class ProtocolConfig:
    """Sender-side policy knobs.

    ``threshold`` is the deviation (world units) a prediction may accumulate
    before a new snapshot is sent; the comparison is strict, so a deviation
    exactly at the threshold does not trigger a send.  ``min_send_interval_ms``
    rate-limits snapshots regardless of deviation.
    """

    threshold: float = spec.field(spec.Real(ge=0))
    tick_ms: int = spec.field(spec.Int(ge=1))
    min_send_interval_ms: int = spec.field(spec.Int(ge=0), 0)

    __post_init__ = spec.check


@dataclass
class SenderState:
    """Mutable per-entity sender bookkeeping across ticks."""

    entity_id: str = "player-0"
    next_seq: int = 1
    last_sent: DRVector | None = None
    prev_true_pos: Vec3 | None = None
    # Below every valid tick, so the first one must be >= 0.
    last_tick_ms: TimeMs = -1


@dataclass
class ReceiverState:
    """Receiver bookkeeping: the newest snapshot wins, everything else is dropped."""

    latest: DRVector | None = None
    applied: int = 0
    stale_dropped: int = 0


def sender_tick(
    state: SenderState, cfg: ProtocolConfig, true_pos: Vec3, t: TimeMs
) -> DRVector | None:
    """Advance the sender one tick; return a snapshot if one must be sent.

    Velocity in an emitted snapshot is the one-tick backward finite
    difference of the true positions, scaled to per-second; the very first
    tick has no history and claims zero velocity.  Ticks must be called with
    strictly increasing ``t`` from 0 up.
    """
    if t <= state.last_tick_ms:
        raise ValueError(f"sender ticks must be >= 0 and increasing, got t={t}")
    state.last_tick_ms = t

    if state.prev_true_pos is None:
        velocity = ZERO
    else:
        velocity = (true_pos - state.prev_true_pos).scaled(_MS_PER_S / cfg.tick_ms)
    state.prev_true_pos = true_pos

    if state.last_sent is None:
        send = True
    else:
        predicted = extrapolate(state.last_sent, t)
        drifted = deviation(true_pos, predicted) > cfg.threshold
        spaced = t - state.last_sent.t_sent >= cfg.min_send_interval_ms
        send = drifted and spaced
    if not send:
        return None

    dr = DRVector(state.entity_id, state.next_seq, t, true_pos, velocity)
    state.next_seq += 1
    state.last_sent = dr
    return dr


def receiver_apply(state: ReceiverState, dr: DRVector) -> bool:
    """Apply a snapshot if it is newer than the current one; return whether it was."""
    if state.latest is not None and dr.seq <= state.latest.seq:
        state.stale_dropped += 1
        return False
    state.latest = dr
    state.applied += 1
    return True


def render_position(state: ReceiverState, t: TimeMs) -> Vec3 | None:
    """Position the receiver draws at ``t``, or None before any snapshot arrived.

    A snapshot stamped later than the local render time is clamped to its own
    timestamp rather than run backwards.
    """
    if state.latest is None:
        return None
    return extrapolate(state.latest, max(t, state.latest.t_sent))


@dataclass
class ExportErrorReport:
    """Per-tick export error series plus aggregates over the non-warm-up ticks.

    ``series`` holds one entry per tick: the error, or None during warm-up.
    Aggregates are None when every tick was warm-up.
    """

    entity_id: str
    series: list[tuple[TimeMs, float | None]] = field(default_factory=list)
    mean: float | None = None
    max: float | None = None
    p95: float | None = None
    samples_count: int = 0
    warmup_ticks: int = 0


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q <= 1) of a non-empty sorted sequence."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def percentile_95(values: list[float]) -> float:
    """Nearest-rank 95th percentile of a non-empty list."""
    return nearest_rank(sorted(values), 0.95)


def compute_export_error(
    true_series: list[tuple[TimeMs, Vec3]],
    rendered_series: list[tuple[TimeMs, Vec3 | None]],
    entity_id: str = "player-0",
) -> ExportErrorReport:
    """Per-tick distance between truth and the rendered view, with aggregates.

    Both series must cover exactly the same tick instants; anything else is a
    data-alignment bug in the caller.  A non-finite mean (an overflow from huge
    coordinates) is a ``ValueError`` naming the first non-finite tick.
    """
    if len(true_series) != len(rendered_series):
        raise ValueError(
            "tick grids differ: "
            f"{len(true_series)} true vs {len(rendered_series)} rendered samples"
        )
    series: list[tuple[TimeMs, float | None]] = []
    for (t_true, pos), (t_rend, rendered) in zip(true_series, rendered_series):
        if t_true != t_rend:
            raise ValueError(
                f"tick grids differ: true tick {t_true} vs rendered tick {t_rend}"
            )
        series.append((t_true, None if rendered is None else deviation(pos, rendered)))
    errors = [err for _, err in series if err is not None]

    report = ExportErrorReport(
        entity_id=entity_id,
        series=series,
        samples_count=len(errors),
        warmup_ticks=len(series) - len(errors),
    )
    if errors:
        # fsum keeps the mean correctly rounded and therefore reproducible by
        # any other exact-summation implementation.
        report.mean = math.fsum(errors) / len(errors)
        if not math.isfinite(report.mean):
            bad = next(t for t, e in series if e is not None and not math.isfinite(e))
            raise ValueError(
                f"export error at t_ms={bad} is not finite: "
                "trajectory coordinates are too large"
            )
        report.max = max(errors)
        report.p95 = percentile_95(errors)
    return report


def write_export_error_csv(report: ExportErrorReport, path: str) -> None:
    """Write the error series as ``t_ms,entity_id,error`` (empty error = warm-up)."""
    entity = report.entity_id
    rows = ((t, entity, err) for t, err in report.series)
    spec.write_csv(path, ("t_ms", "entity_id", "error"), rows)
