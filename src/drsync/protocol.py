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

Each stage has two forms.  The scalar functions (:func:`sender_tick`,
:func:`receiver_apply`, :func:`render_position` and
:func:`compute_export_error`) take one tick or one snapshot at a time and
are the reference model.  The array forms (:func:`sender_run`,
:func:`receiver_run` and :func:`export_error_report`) take a whole run at
once, do the same float operations in the same order, and are what
:func:`~drsync.scenario.run_simulation` uses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

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
    return _report(entity_id, series, [err for _, err in series if err is not None])


def _report(
    entity_id: str, series: list[tuple[TimeMs, float | None]], errors: list[float]
) -> ExportErrorReport:
    """The report of ``series``, whose non-warm-up errors are ``errors``."""
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


def sender_run(
    cfg: ProtocolConfig, ticks: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sender_tick` at every tick of a run: what it sends, and velocities.

    ``ticks`` is the run's ascending int64 grid from 0 and ``positions`` the
    ``(n, 3)`` truth at each tick.  Returns the indices of the ticks that
    send (snapshot ``seq`` ``s`` is sent at tick ``sent[s - 1]``) and the
    ``(n, 3)`` velocity a snapshot would claim at each tick.
    """
    velocities = np.zeros_like(positions)
    velocities[1:] = (positions[1:] - positions[:-1]) * (_MS_PER_S / cfg.tick_ms)
    ts = ticks.tolist()
    xs, ys, zs = positions.T.tolist()
    us, vs, ws = velocities.T.tolist()
    threshold, gap = cfg.threshold, cfg.min_send_interval_ms
    # The last snapshot sent: its tick, position and velocity.
    t0, x0, y0, z0, u0, v0, w0 = ts[0], xs[0], ys[0], zs[0], us[0], vs[0], ws[0]
    sent = [0]
    for k in range(1, len(ts)):
        elapsed = ts[k] - t0
        if elapsed < gap:
            continue
        dt = elapsed / _MS_PER_S
        dx = xs[k] - (x0 + u0 * dt)
        dy = ys[k] - (y0 + v0 * dt)
        dz = zs[k] - (z0 + w0 * dt)
        if math.sqrt(dx * dx + dy * dy + dz * dz) > threshold:
            sent.append(k)
            t0, x0, y0, z0, u0, v0, w0 = ts[k], xs[k], ys[k], zs[k], us[k], vs[k], ws[k]
    return np.array(sent, dtype=np.intp), velocities


def receiver_run(
    ticks: np.ndarray,
    deliver_ms: np.ndarray,
    sent: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
) -> tuple[int, np.ndarray]:
    """:func:`receiver_apply` and :func:`render_position` at every tick of a run.

    ``deliver_ms`` is the run's :attr:`~drsync.netsim.Deliveries.deliver_ms`
    (seq ``i + 1`` in row ``i``, -1 for none), applied in ``(deliver_ms,
    seq)`` order; ``sent``, ``positions`` and ``velocities`` are
    :func:`sender_run`'s.  Returns the warm-up ticks before the first
    delivery, and the ``(n - warmup, 3)`` positions rendered after them.
    """
    # Deliveries after the last tick never reach the screen.
    shown_by = (deliver_ms >= 0) & (deliver_ms <= int(ticks[-1]))
    deliver = deliver_ms[shown_by].astype(np.int64)
    order = np.argsort(deliver, kind="stable")  # seqs ascend already
    seq = np.flatnonzero(shown_by)[order] + 1
    # The newest seq applied after each delivery; 0 before the first.
    newest = np.concatenate(([0], np.maximum.accumulate(seq)))
    shown = newest[np.searchsorted(deliver[order], ticks, side="right")]
    warmup = int(np.count_nonzero(shown == 0))  # shown never falls
    k = sent[shown[warmup:] - 1]
    t_sent = ticks[k]
    dt = (np.maximum(ticks[warmup:], t_sent) - t_sent) / _MS_PER_S
    return warmup, positions[k] + velocities[k] * dt[:, None]


def export_error_report(
    ticks: np.ndarray,
    positions: np.ndarray,
    warmup: int,
    rendered: np.ndarray,
    entity_id: str = "player-0",
) -> ExportErrorReport:
    """:func:`compute_export_error` of :func:`receiver_run`'s output."""
    d = positions[warmup:] - rendered
    errors = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]).tolist()
    times = ticks.tolist()
    series: list[tuple[TimeMs, float | None]] = [(t, None) for t in times[:warmup]]
    series += zip(times[warmup:], errors)
    return _report(entity_id, series, errors)


def write_export_error_csv(report: ExportErrorReport, path: str) -> None:
    """Write the error series as ``t_ms,entity_id,error`` (empty error = warm-up)."""
    t_ms, errors = spec.transpose(report.series, 2)
    entity = spec.Table(np.zeros(len(t_ms), np.intp), [report.entity_id])
    spec.write_csv(path, ("t_ms", "entity_id", "error"), [t_ms, entity, errors])
