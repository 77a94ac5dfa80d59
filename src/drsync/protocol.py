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
        # The exact sum, rounded once, keeps the mean reproducible by any
        # other exact-summation implementation, math.fsum among them.
        try:
            self.mean = exact_sum(errors) / n
        except OverflowError:  # the sum, not an error, passes the float range
            self.mean = math.inf
        if not math.isfinite(self.mean):
            bad = np.flatnonzero(~np.isfinite(errors))
            what = (
                f"export error at t_ms={int(t_ms[self.warmup_ticks + bad[0]])}"
                if bad.size
                else "mean export error"
            )
            raise ValueError(
                f"{what} is not finite: trajectory coordinates are too large"
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


# Added to np.frexp's exponents, so that the least, 2**-1074's, is bin 1.
_EXACT_BIAS = 1074


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum`` of a float64 array: its exact sum, rounded once, half to even.

    ``np.frexp`` writes each value as ``m * 2**e`` with ``|m|`` in ``[0.5,
    1)``, so ``m * 2**53`` is an integer.  Its high 26 and low 27 bits are
    summed per exponent by ``np.bincount``, exactly while no bin passes
    ``2**53``; the bins are joined as one Python int, which one true
    division rounds.  A sum past the float range raises ``OverflowError``,
    as ``fsum``'s does, but where ``fsum`` overflows only in between, mixed
    signs can give a finite sum here.  With a NaN or an infinity among
    ``values`` the result is ``fsum``'s of those alone.
    """
    finite = np.isfinite(values)
    if not finite.all():
        return math.fsum(values[~finite])
    if len(values) >= 2**26:  # a bin of low bits could pass 2**53
        return math.fsum(values)
    m, e = np.frexp(values)
    m *= 2.0**26
    high = np.trunc(m)
    m -= high
    m *= 2.0**27  # the low bits, exactly
    e += _EXACT_BIAS
    highs = np.bincount(e, weights=high)
    lows = np.bincount(e, weights=m)
    total = 0
    for k in np.flatnonzero((highs != 0) | (lows != 0)).tolist():
        total += ((int(highs[k]) << 27) + int(lows[k])) << k
    if not total:  # the sign of a zero sum is the interpreter's
        return math.fsum(values[:1]) if np.signbit(values).all() else 0.0
    return total / (1 << (_EXACT_BIAS + 53))


def _rank(n: int, q: float) -> int:
    """Index of the nearest-rank ``q`` quantile (0 < q <= 1) of ``n`` sorted values."""
    return max(1, math.ceil(q * n)) - 1


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q <= 1) of a non-empty sorted sequence."""
    return ordered[_rank(len(ordered), q)]


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

# The fewest ticks a check may skip: a check costs about what testing a few
# ticks one by one does.  Only a segment of twice as many ticks is checked
# from its first tick, since after a corner that check mostly fails, and
# the check after the first send must still find that many ticks to skip.
# On walkers with 12- to 64-tick segments at thresholds 0.2, 1 and 5 the
# sender took at most 1.11 of the plain loop's time (geometric mean 0.75,
# medians of 5 processes that interleave the two), and 16 keeps all of the
# benchmark walker's 38- to 100-tick segments.
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
    cfg: ProtocolConfig, positions: np.ndarray, runs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sender_tick` at every tick of a run: what it sends, and velocities.

    ``positions`` is the ``(3, n)`` truth at the run's ticks ``0, tick_ms,
    2 * tick_ms, ...``, and ``runs`` counts the ticks of each trajectory
    segment in turn, as :func:`~drsync.core.sample_positions` returns both.
    The caller promises that within each run the positions are that
    segment's interpolation (a constant past the last waypoint).  Returns
    the indices of the ticks that send (snapshot ``seq`` ``s`` is sent at
    tick ``sent[s - 1]``) and the ``(3, len(sent))`` velocity each snapshot
    claims: ``sender_tick``'s backward difference, and none at the first.

    The ticks are tested one by one, as :func:`sender_tick` tests them,
    except in a segment at least ``2 * _SKIP_MIN_TICKS`` ticks long: there
    the rest of it from its first tick, or from a send that leaves at least
    ``_SKIP_MIN_TICKS`` ticks, is skipped when its two ends show that none
    of it can send (see :func:`_cannot_send`).
    """
    tick = cfg.tick_ms
    test = cfg.threshold, cfg.min_send_interval_ms, tick
    sent = [0]
    last = (0, *positions[:, 0].tolist(), 0.0, 0.0, 0.0)
    # The first row of each long segment, and one past its last.
    stops = np.cumsum(runs)
    lo, hi = _SKIP_THRESHOLDS
    long = (runs >= 2 * _SKIP_MIN_TICKS) & (lo <= cfg.threshold < hi)
    starts, stops = stops[long] - runs[long], stops[long]
    ends = np.concatenate((starts, stops - 1))
    scales = np.abs(positions[:, ends]).max(axis=0)  # NaN stays NaN
    scales = np.maximum(scales[: len(starts)], scales[len(starts) :])
    # Each check's ends as Python numbers: the first row to test (row 0
    # always sends) and the segment's last.
    firsts = np.maximum(starts, 1)
    nears = zip((firsts * tick).tolist(), *positions[:, firsts].tolist())
    fars = zip(((stops - 1) * tick).tolist(), *positions[:, stops - 1].tolist())
    k = 1
    for first, stop, near, far, scale in zip(
        firsts.tolist(), stops.tolist(), nears, fars, scales.tolist()
    ):
        if k < first:
            last = _walk(positions, k, first, test, last, sent)
        k = stop
        if not _cannot_send(near, far, cfg.threshold, last, scale):
            last = _walk(positions, first, stop, test, last, sent, (far, scale))
    _walk(positions, k, positions.shape[1], test, last, sent)
    sent = np.array(sent, dtype=np.intp)
    # Column -1 stands in for the first send's row before, and is zeroed.
    velocities = (positions[:, sent] - positions[:, sent - 1]) * (_MS_PER_S / tick)
    velocities[:, 0] = 0.0
    return sent, velocities


def _walk(
    positions: np.ndarray,
    k: int,
    stop: int,
    test: tuple[float, int, int],
    last: tuple,
    sent: list[int],
    skip: tuple[tuple, float] | None = None,
) -> tuple:
    """Test rows ``k >= 1`` to ``stop - 1`` one by one, converted
    ``_SENDER_CHUNK`` at a time; append each send to ``sent`` and return the
    last one: its tick, position and velocity, the backward difference that
    ``sender_tick`` takes.

    With ``skip``, the segment's last row and scale, the rows are all of one
    segment, and after a send that leaves at least ``_SKIP_MIN_TICKS`` rows
    the walk stops if :func:`_cannot_send` shows that none of them can send.
    Such a walk converts ``2 * _SKIP_MIN_TICKS`` rows first, as it may soon
    stop.
    """
    threshold, gap, tick = test
    per_s = _MS_PER_S / tick
    far, scale = skip or (None, None)
    size = _SENDER_CHUNK if skip is None else 2 * _SKIP_MIN_TICKS
    t0, x0, y0, z0, u0, v0, w0 = last
    base = k - 1  # each list leads with the row before, for the velocity
    while base + 1 < stop:
        end = base + 1 + size
        end = end if end < stop else stop
        size = _SENDER_CHUNK
        ts = list(range(base * tick, end * tick, tick))
        xs, ys, zs = positions[:, base:end].tolist()
        for j in range(1, len(ts)):
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
                u0 = (x0 - xs[j - 1]) * per_s
                v0 = (y0 - ys[j - 1]) * per_s
                w0 = (z0 - zs[j - 1]) * per_s
                if (
                    far is not None
                    and stop - (base + j) > _SKIP_MIN_TICKS
                    and j + 1 < len(ts)
                ):
                    near = ts[j + 1], xs[j + 1], ys[j + 1], zs[j + 1]
                    last = t0, x0, y0, z0, u0, v0, w0
                    if _cannot_send(near, far, threshold, last, scale):
                        return last
        base = end - 1
    return t0, x0, y0, z0, u0, v0, w0


def _cannot_send(
    near: tuple, far: tuple, threshold: float, last: tuple, scale: float
) -> bool:
    """Whether no row from ``near`` to ``far``, all of one segment, can send.

    ``near`` and ``far`` are those rows' tick and position, and ``last`` the
    last send's tick, position and velocity, all as Python numbers; ``scale``
    is the largest coordinate of the truth at the segment's first and last
    ticks.

    On one segment the truth is affine in ``t``, and so is the prediction
    from the last send, so their exact distance is convex there and largest
    at ``near`` or ``far``.  Both ends are evaluated with the per-tick
    test's float operations.  If both are at most ``threshold - _SKIP_MARGIN
    * (threshold + M)``, no row between them computes a deviation above
    ``threshold``:

    - ``M`` bounds the magnitude of every operand: the truth, the last
      send's position and ``velocity * dt`` (taken apart, since ``x0 + u0 *
      dt`` can cancel).  It is the largest of ``scale`` and the norms of the
      last send's position and of ``velocity * dt`` at ``far``, the end
      where ``dt`` is largest.
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
      overflow; ``_SKIP_THRESHOLDS`` keeps those thresholds out.  A norm
      whose squares underflow is below ``2**-500``, which such a threshold
      outweighs, and one whose squares overflow is infinite.

    A NaN or infinite operand makes an end's deviation or ``M`` non-finite,
    and a non-finite one never skips.
    """
    t0, x0, y0, z0, u0, v0, w0 = last
    t, x, y, z = far
    dt = (t - t0) / _MS_PER_S
    px, py, pz = u0 * dt, v0 * dt, w0 * dt
    dx, dy, dz = x - (x0 + px), y - (y0 + py), z - (z0 + pz)
    d_far = math.sqrt(dx * dx + dy * dy + dz * dz)
    if not d_far <= threshold:  # the far end fails more often
        return False
    t, x, y, z = near
    dt = (t - t0) / _MS_PER_S
    dx, dy, dz = x - (x0 + u0 * dt), y - (y0 + v0 * dt), z - (z0 + w0 * dt)
    d_near = math.sqrt(dx * dx + dy * dy + dz * dz)
    # Builtin max(a, b) as the comparison it makes: b if b > a else a.
    m2 = x0 * x0 + y0 * y0 + z0 * z0
    v2 = px * px + py * py + pz * pz
    m2 = v2 if v2 > m2 else m2
    m = math.sqrt(m2)
    m = m if m > scale else scale
    d = d_near if d_near > d_far else d_far
    return d <= threshold - _SKIP_MARGIN * (threshold + m)


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
    seq)`` order; ``positions`` is the ``(3, n)`` truth, and ``sent`` and
    ``velocities`` are :func:`sender_run`'s.  Returns the warm-up ticks
    before the first delivery, and the ``(3, n - warmup)`` positions
    rendered after them.
    """
    # Deliveries after the last tick never reach the screen.
    shown_by = (deliver_ms >= 0) & (deliver_ms <= int(ticks[-1]))
    deliver = deliver_ms[shown_by].astype(np.int64)
    order = np.argsort(deliver, kind="stable")  # seqs ascend already
    # The newest seq applied after each delivery, and the first tick to show it.
    newest = np.maximum.accumulate(np.flatnonzero(shown_by)[order] + 1)
    at = np.searchsorted(ticks, deliver[order], side="left")
    warmup = int(at[0]) if len(at) else len(ticks)
    # Where the newest seq rises, the screen shows it from that tick up to
    # the next rise: a run of ticks per send, none for a send never shown.
    rise = np.flatnonzero(np.diff(newest, prepend=0))
    runs = np.zeros(len(sent), dtype=np.intp)
    runs[newest[rise] - 1] = np.diff(at[rise], append=len(ticks))
    # In place where it can be, and each column let go once used: fewer
    # fresh arrays live at once, so fewer of them cost new pages.
    t_sent = np.repeat(ticks[sent], runs)
    dt = np.maximum(ticks[warmup:], t_sent)
    dt -= t_sent
    del t_sent
    dt = dt.astype(np.float64)  # exact: no time passes MAX_TIME_MS
    dt /= _MS_PER_S
    rendered = np.repeat(velocities, runs, axis=1)
    rendered *= dt
    del dt
    origins = np.repeat(positions[:, sent], runs, axis=1)
    return warmup, np.add(origins, rendered, out=rendered)


def export_error_report(
    ticks: np.ndarray,
    positions: np.ndarray,
    warmup: int,
    rendered: np.ndarray,
    entity_id: str = "player-0",
) -> ExportErrorReport:
    """:func:`compute_export_error` of :func:`receiver_run`'s output.

    The differences are taken in ``rendered``'s buffer, which is lost.
    """
    d = np.subtract(positions[:, warmup:], rendered, out=rendered)
    d *= d
    errors = d[0] + d[1]
    errors += d[2]
    return ExportErrorReport(entity_id, ticks, np.sqrt(errors, out=errors))


def write_export_error_csv(
    report: ExportErrorReport, path: str, shared: spec.SharedCells | None = None
) -> None:
    """Write the error series as ``t_ms,entity_id,error`` (empty error = warm-up).

    ``shared`` is as for :func:`~drsync.spec.write_csv`.
    """
    n = len(report.t_ms)
    errors = [None] * (n - len(report.errors)) + report.errors.tolist()
    entity = spec.Table(np.zeros(n, np.intp), [report.entity_id])
    columns = [report.t_ms, entity, errors]
    spec.write_csv(path, ("t_ms", "entity_id", "error"), columns, shared)
