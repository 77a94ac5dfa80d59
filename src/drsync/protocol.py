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
:func:`~drsync.scenario.run_simulation` uses; :func:`sender_run` leaves out
the ticks of a straight stretch that provably cannot send.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

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


class ExportErrorReport:
    """The per-tick export error of a run: two columns and their aggregates.

    ``t_ms`` holds every tick as int64, and ``errors`` the float64 error at
    each tick after the leading warm-up ones.  The rest follows from them:
    ``samples_count`` and ``warmup_ticks`` count the two kinds of tick, and
    ``mean``, ``max`` and ``p95`` (None if every tick was warm-up) are taken
    over ``errors``; a non-finite mean is a ``ValueError``.  ``series``, a
    ``(t_ms, error or None)`` pair per tick, is built when first read.
    """

    __hash__ = None  # mutable, and == compares the columns

    def __init__(
        self, entity_id: str, t_ms: Sequence[TimeMs], errors: Sequence[float]
    ):
        self.entity_id = entity_id
        self.t_ms = t_ms = np.asarray(t_ms, dtype=np.int64)
        self.errors = errors = np.asarray(errors, dtype=np.float64)
        self.samples_count = n = len(errors)
        self.warmup_ticks = len(t_ms) - n
        if self.warmup_ticks < 0:
            raise ValueError(f"{n} errors for {len(t_ms)} ticks")
        self.mean = self.max = self.p95 = None
        if not n:
            return
        # fsum keeps the mean correctly rounded and therefore reproducible by
        # any other exact-summation implementation.
        self.mean = math.fsum(errors.tolist()) / n
        if not math.isfinite(self.mean):
            bad = self.warmup_ticks + np.flatnonzero(~np.isfinite(errors))[0]
            raise ValueError(
                f"export error at t_ms={int(t_ms[bad])} is not finite: "
                "trajectory coordinates are too large"
            )
        self.max = float(errors.max())
        # The element a sort would put at the nearest rank.
        k = _rank(n, 0.95)
        self.p95 = float(np.partition(errors, k)[k])

    @functools.cached_property
    def series(self) -> list[tuple[TimeMs, float | None]]:
        errors = [None] * self.warmup_ticks + self.errors.tolist()
        return list(zip(self.t_ms.tolist(), errors))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.entity_id == other.entity_id
            and np.array_equal(self.t_ms, other.t_ms)
            and np.array_equal(self.errors, other.errors)
        )

    def __repr__(self) -> str:
        return (
            f"ExportErrorReport(entity_id={self.entity_id!r}, ticks={len(self.t_ms)}, "
            f"mean={self.mean!r}, max={self.max!r}, p95={self.p95!r}, "
            f"samples_count={self.samples_count!r}, warmup_ticks={self.warmup_ticks!r})"
        )


def _rank(n: int, q: float) -> int:
    """Index of the nearest-rank ``q`` quantile (0 < q <= 1) of ``n`` sorted values."""
    return max(1, math.ceil(q * n)) - 1


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q <= 1) of a non-empty sorted sequence."""
    return ordered[_rank(len(ordered), q)]


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
    data-alignment bug in the caller, and so is a tick with nothing rendered
    after one with a position.  A non-finite mean (an overflow from huge
    coordinates) is a ``ValueError`` naming the first non-finite tick.
    """
    if len(true_series) != len(rendered_series):
        raise ValueError(
            "tick grids differ: "
            f"{len(true_series)} true vs {len(rendered_series)} rendered samples"
        )
    times: list[TimeMs] = []
    errors: list[float] = []
    late = None  # the first warm-up tick after a rendered one
    for (t_true, pos), (t_rend, rendered) in zip(true_series, rendered_series):
        if t_true != t_rend:
            raise ValueError(
                f"tick grids differ: true tick {t_true} vs rendered tick {t_rend}"
            )
        times.append(t_true)
        if rendered is not None:
            errors.append(deviation(pos, rendered))
        elif errors and late is None:
            late = t_true
    if late is not None:
        raise ValueError(f"warm-up tick t_ms={late} follows a rendered tick")
    return ExportErrorReport(entity_id, times, errors)


# sender_run turns this many ticks at a time into Python numbers, so that
# its lists hold one chunk of the run rather than all of it.
_SENDER_CHUNK = 8_192

# sender_run tries to skip the rest of a segment only when at least this many
# of its ticks are left: a check costs about what testing 8 ticks one by one
# does.  Measured on walkers with 12- to 64-tick segments, cuts from 8 to 40
# ticks gave the sender 0.81-0.88 of the plain loop's time (geometric mean),
# and 8 keeps all of the benchmark walker's 38- to 100-tick segments.
_SKIP_MIN_TICKS = 8
# How far below the threshold both ends must lie, per unit of the threshold
# plus the largest operand: 2**13 units of 2**-53, some 80 times the
# rounding it covers (see _cannot_send).
_SKIP_MARGIN = 2.0**-40
# A threshold outside this range never skips: below it the squares of a
# deviation can underflow, above it they can overflow, and _SKIP_MARGIN,
# a relative bound, covers neither.
_SKIP_THRESHOLDS = (2.0**-400, 2.0**400)


def sender_run(
    cfg: ProtocolConfig,
    ticks: np.ndarray,
    positions: np.ndarray,
    segments: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sender_tick` at every tick of a run: what it sends, and velocities.

    ``ticks`` is the run's grid, ``0, tick_ms, 2 * tick_ms, ...`` as int64,
    and ``positions`` the ``(n, 3)`` truth at each tick; ``segments`` is the
    trajectory segment of each tick, as :func:`~drsync.core.sample_positions`
    returns both.  The caller promises that within a run of equal indices
    the positions are that segment's interpolation (a constant past the
    last waypoint).  Returns the indices of the ticks that send (snapshot
    ``seq`` ``s`` is sent at tick ``sent[s - 1]``) and the ``(n, 3)``
    velocity a snapshot would claim at each tick.

    The ticks are tested one by one, as :func:`sender_tick` tests them,
    except the rest of a segment at least ``_SKIP_MIN_TICKS`` ticks long,
    from its first tick or from a send, whose two ends show that none of it
    can send (see :func:`_cannot_send`).
    """
    velocities = np.zeros_like(positions)
    velocities[1:] = (positions[1:] - positions[:-1]) * (_MS_PER_S / cfg.tick_ms)
    arrays = ticks, positions, velocities
    test = cfg.threshold, cfg.min_send_interval_ms
    sent = [0]
    last = _row(arrays, 0)  # the last snapshot sent
    # The first row of each long segment, and one past its last.
    edges = np.flatnonzero(segments[1:] != segments[:-1]) + 1
    bounds = np.concatenate(([0], edges, [len(ticks)]))
    long = np.flatnonzero(np.diff(bounds) >= _SKIP_MIN_TICKS)
    lo, hi = _SKIP_THRESHOLDS
    if not lo <= cfg.threshold < hi:
        long = long[:0]  # walk every tick
    starts, stops = bounds[long], bounds[long + 1]
    scales = np.abs(positions[starts]).max(axis=1)  # NaN stays NaN
    k = 1
    for start, stop, scale in zip(starts.tolist(), stops.tolist(), scales.tolist()):
        if k < start:
            last = _walk(arrays, k, start, test, last, sent)
            k = start
        while stop - k >= _SKIP_MIN_TICKS:
            if _cannot_send(arrays, k, stop - 1, cfg.threshold, last, scale):
                k = stop
                break
            k, last = _step(arrays, k, stop, test, last, sent)
    _walk(arrays, k, len(ticks), test, last, sent)
    return np.array(sent, dtype=np.intp), velocities


def _row(arrays: tuple[np.ndarray, ...], k: int) -> tuple:
    """Row ``k``'s tick, position and velocity as Python numbers."""
    ticks, positions, velocities = arrays
    return (int(ticks[k]), *positions[k].tolist(), *velocities[k].tolist())


def _walk(
    arrays: tuple[np.ndarray, ...],
    k: int,
    stop: int,
    test: tuple[float, int],
    last: tuple,
    sent: list[int],
) -> tuple:
    """Test rows ``k`` to ``stop - 1`` one by one, converted ``_SENDER_CHUNK``
    at a time; append each send to ``sent`` and return the last one."""
    ticks, positions, velocities = arrays
    threshold, gap = test
    t0, x0, y0, z0, u0, v0, w0 = last
    for base in range(k, stop, _SENDER_CHUNK):
        rows = slice(base, min(stop, base + _SENDER_CHUNK))
        ts = ticks[rows].tolist()
        xs, ys, zs = positions[rows].T.tolist()
        us, vs, ws = velocities[rows].T.tolist()
        for j in range(len(ts)):
            elapsed = ts[j] - t0
            if elapsed < gap:
                continue
            dt = elapsed / _MS_PER_S
            dx = xs[j] - (x0 + u0 * dt)
            dy = ys[j] - (y0 + v0 * dt)
            dz = zs[j] - (z0 + w0 * dt)
            if math.sqrt(dx * dx + dy * dy + dz * dz) > threshold:
                sent.append(base + j)
                t0, x0, y0, z0 = ts[j], xs[j], ys[j], zs[j]
                u0, v0, w0 = us[j], vs[j], ws[j]
    return t0, x0, y0, z0, u0, v0, w0


def _step(
    arrays: tuple[np.ndarray, ...],
    k: int,
    stop: int,
    test: tuple[float, int],
    last: tuple,
    sent: list[int],
) -> tuple[int, tuple]:
    """Test rows ``k`` to ``stop - 1`` one by one, read singly, up to the
    first send; return the row after it (or ``stop``) and the last send."""
    ticks, positions, _ = arrays
    threshold, gap = test
    t0, x0, y0, z0, u0, v0, w0 = last
    for j in range(k, stop):
        elapsed = int(ticks[j]) - t0
        if elapsed < gap:
            continue
        dt = elapsed / _MS_PER_S
        x, y, z = positions[j].tolist()
        dx, dy, dz = x - (x0 + u0 * dt), y - (y0 + v0 * dt), z - (z0 + w0 * dt)
        if math.sqrt(dx * dx + dy * dy + dz * dz) > threshold:
            sent.append(j)
            return j + 1, _row(arrays, j)
    return stop, last


def _cannot_send(
    arrays: tuple[np.ndarray, ...],
    a: int,
    b: int,
    threshold: float,
    last: tuple,
    scale: float,
) -> bool:
    """Whether no row from ``a`` to ``b``, all of one segment, can send.

    On one segment the truth is affine in ``t``, and so is the prediction
    from the last send, so their exact distance is convex there and largest
    at ``a`` or ``b``.  Both ends are evaluated with the per-tick test's
    float operations.  If both are at most ``threshold - _SKIP_MARGIN *
    (threshold + M)``, no row between them computes a deviation above
    ``threshold``:

    - ``M`` is the largest magnitude among the ends' operands: the truth,
      the last send's position and ``velocity * dt`` (taken apart, since
      ``x0 + u0 * dt`` can cancel), and ``scale``, the largest coordinate of
      the truth at the segment's first tick.
    - Every operand between the ends is affine in ``t``, so its magnitude
      is at most the larger of its magnitudes at the ends.
    - A sampled position ``p0 + (p1 - p0) * frac`` lies a few ulps of
      ``|p0|`` and ``|(p1 - p0) * frac|`` off the segment's line.  The
      segment's first tick lies within one tick of ``p0``'s, and the
      segment has at least ``_SKIP_MIN_TICKS`` ticks, so both are within a
      few times ``M``.
    - An evaluation rounds about 10 times at ``2**-53``, so each computed
      deviation lies within some ``100 * 2**-53 * (threshold + M)`` of the
      exact one: the margin holds twice that with room to spare.
    - The margin is relative, which fails where squares underflow or
      overflow; ``_SKIP_THRESHOLDS`` keeps those thresholds out.

    A NaN or infinite operand makes an end's deviation or ``M`` non-finite,
    and a non-finite one never skips.
    """
    ticks, positions, _ = arrays
    t0, x0, y0, z0, u0, v0, w0 = last
    m = max(scale, abs(x0), abs(y0), abs(z0))
    deviations = []
    for k in (b, a):  # the far end fails more often
        dt = (int(ticks[k]) - t0) / _MS_PER_S
        x, y, z = positions[k].tolist()
        px, py, pz = u0 * dt, v0 * dt, w0 * dt
        dx, dy, dz = x - (x0 + px), y - (y0 + py), z - (z0 + pz)
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        if not d <= threshold:
            return False
        deviations.append(d)
        m = max(m, abs(x), abs(y), abs(z), abs(px), abs(py), abs(pz))
    return max(deviations) <= threshold - _SKIP_MARGIN * (threshold + m)


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
    errors = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    return ExportErrorReport(entity_id, ticks, errors)


def write_export_error_csv(report: ExportErrorReport, path: str) -> None:
    """Write the error series as ``t_ms,entity_id,error`` (empty error = warm-up)."""
    n = len(report.t_ms)
    errors = [None] * (n - len(report.errors)) + report.errors.tolist()
    entity = spec.Table(np.zeros(n, np.intp), [report.entity_id])
    spec.write_csv(path, ("t_ms", "entity_id", "error"), [report.t_ms, entity, errors])
