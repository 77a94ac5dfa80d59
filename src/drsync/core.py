"""Core value types for dead-reckoned entity state.

Positions live in a 3-D world measured in abstract world units; velocities
are world units per second.  Time is integer milliseconds throughout
(``TimeMs`` is a plain ``int`` alias), which keeps every schedule exactly
representable and comparisons exact.

A dead-reckoning vector (:class:`DRVector`) is the unit of state exchanged
between a sender and a receiver: a position/velocity snapshot taken at
``t_sent``.  :func:`extrapolate` advances such a snapshot to a later time,
:func:`deviation` measures the distance between a true and a predicted
position, and :class:`TrajectoryScript` supplies ground-truth motion as a
piecewise-linear path through timed waypoints.

Values are checked where they enter, not per record: finiteness in
:class:`TrajectoryScript` and, for an overflow in between, where the export
error leaves (:func:`~drsync.protocol.compute_export_error`); a snapshot's
``seq`` and ``t_sent`` by :func:`~drsync.protocol.sender_tick`, which makes it.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import spec

# Milliseconds, non-negative. Kept as int so tick grids compare exactly.
TimeMs = int

# The latest time a trajectory or a run may reach.  Up to here every time
# and time difference is exact as a float64, so the array stages divide
# exactly what the scalar functions divide.
MAX_TIME_MS = 2**53

_MS_PER_S = 1000.0


class Vec3(NamedTuple):
    """Point or velocity in 3-D world units; a plain, unchecked value."""

    x: float
    y: float
    z: float

    def __add__(self, other: Vec3) -> Vec3:
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: Vec3) -> Vec3:
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, k: float) -> Vec3:
        return Vec3(self.x * k, self.y * k, self.z * k)


ZERO = Vec3(0.0, 0.0, 0.0)


class DRVector(NamedTuple):
    """Position/velocity snapshot of one entity, stamped when it was taken.

    ``velocity`` is world units per second; ``seq`` orders snapshots from the
    same sender (higher is newer, from 1).
    """

    entity_id: str
    seq: int
    t_sent: TimeMs
    position: Vec3
    velocity: Vec3


def extrapolate(dr: DRVector, t: TimeMs) -> Vec3:
    """Predict the entity position at ``t`` by linear dead reckoning.

    ``t`` must not precede the snapshot; running a vector backwards is a
    caller bug, not a supported query.
    """
    if t < dr.t_sent:
        raise ValueError(
            f"cannot extrapolate backwards: t={t} < t_sent={dr.t_sent}"
        )
    # Velocity is per second, timestamps are ms.
    return dr.position + dr.velocity.scaled((t - dr.t_sent) / _MS_PER_S)


def deviation(true_pos: Vec3, predicted_pos: Vec3) -> float:
    """Euclidean distance between truth and prediction, over all three axes."""
    d = true_pos - predicted_pos
    return math.sqrt(d.x * d.x + d.y * d.y + d.z * d.z)


class TrajectoryScript:
    """Ground-truth motion as straight segments between timed waypoints.

    Waypoint times must be strictly increasing and within ``[0,
    MAX_TIME_MS]``, every coordinate must be finite and there must be at
    least two waypoints; positions between waypoints are linear
    interpolations.  A script keeps its waypoints as two arrays, the int64
    times ``_t`` and the ``(n, 3)`` float64 positions ``_p``;
    :attr:`waypoints` is built from them when first read.
    """

    def __init__(self, waypoints: Sequence[tuple[TimeMs, Vec3]]):
        times = [t for t, _ in waypoints]
        try:
            t_ms = np.array(times, dtype=np.int64)
        except OverflowError:  # past int64, which the checks reject by value
            t_ms = np.array(times, dtype=object)
        points = np.array([pos for _, pos in waypoints], dtype=np.float64)
        self._set(t_ms, points.reshape(len(times), 3))

    @classmethod
    def from_columns(cls, t_ms: np.ndarray, points: np.ndarray) -> TrajectoryScript:
        """The script of int64 times ``t_ms`` and ``(n, 3)`` float64 ``points``."""
        script = cls.__new__(cls)
        script._set(t_ms, points)
        return script

    def _set(self, t_ms: np.ndarray, points: np.ndarray) -> None:
        if len(t_ms) < 2:
            raise ValueError(f"trajectory needs at least 2 waypoints, got {len(t_ms)}")
        back = np.flatnonzero(t_ms[1:] <= t_ms[:-1])
        if len(back):
            k = back[0]
            raise ValueError(
                "waypoint times must be strictly increasing, "
                f"got {int(t_ms[k])} then {int(t_ms[k + 1])}"
            )
        if t_ms[0] < 0:
            raise ValueError(f"waypoint times must be >= 0, got {int(t_ms[0])}")
        if t_ms[-1] > MAX_TIME_MS:
            raise ValueError(
                f"waypoint times must be <= {MAX_TIME_MS}, got {int(t_ms[-1])}"
            )
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if len(bad):
            k = bad[0]
            raise ValueError(
                f"waypoint at t_ms={int(t_ms[k])}: coordinates must be finite, "
                f"got {Vec3._make(points[k].tolist())}"
            )
        self._t, self._p = t_ms, points

    @functools.cached_property
    def waypoints(self) -> tuple[tuple[TimeMs, Vec3], ...]:
        return tuple(zip(self._times, map(Vec3._make, self._p.tolist())))

    @functools.cached_property
    def _times(self) -> list[TimeMs]:
        return self._t.tolist()

    @property
    def start_ms(self) -> TimeMs:
        return int(self._t[0])

    @property
    def end_ms(self) -> TimeMs:
        return int(self._t[-1])

    @classmethod
    def from_csv(cls, path: str) -> TrajectoryScript:
        """Load waypoints from a CSV file with header ``t_ms,x,y,z``."""
        waypoints = spec.read_csv(
            path,
            {
                ("t_ms", "x", "y", "z"): lambda row: (
                    int(row[0]),
                    Vec3(float(row[1]), float(row[2]), float(row[3])),
                )
            },
        )
        try:
            return cls(waypoints)
        except ValueError as exc:
            raise spec.InputFileError([f"{path}: {exc}"]) from exc

    def __repr__(self) -> str:
        return (
            f"TrajectoryScript({len(self._t)} waypoints, "
            f"[{self.start_ms}..{self.end_ms}] ms)"
        )


def sample_trajectory(script: TrajectoryScript, t: TimeMs) -> Vec3:
    """Return the scripted position at ``t``; ``t`` must lie inside the script."""
    if t < script.start_ms or t > script.end_ms:
        raise ValueError(
            f"t={t} outside trajectory range [{script.start_ms}, {script.end_ms}]"
        )
    wps = script.waypoints
    i = bisect.bisect_right(script._times, t) - 1
    if i >= len(wps) - 1:
        return wps[-1][1]
    t0, p0 = wps[i]
    t1, p1 = wps[i + 1]
    if t == t0:
        return p0
    frac = (t - t0) / (t1 - t0)
    return p0 + (p1 - p0).scaled(frac)


def sample_positions(
    script: TrajectoryScript, ticks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions at each tick of an ascending int64 array, and ticks per segment.

    This is the array form of :func:`sample_trajectory`: each position is
    computed with the scalar function's float operations in their order, so
    it is equal bit for bit.  A tick on a waypoint takes the waypoint itself
    (a ``-0.0`` stays ``-0.0``).  An overflow gives infinity with numpy's
    usual warning; the caller chooses whether to hear it.

    Returns the ``(3, n)`` positions, one row per coordinate, and for each
    waypoint the number of ticks from it up to the next one (for the last,
    the tick on it, if any).  Within each such run of ticks the positions
    are that segment's interpolation: :func:`~drsync.protocol.sender_run`
    relies on it.
    """
    if ticks[0] < script.start_ms or ticks[-1] > script.end_ms:
        raise ValueError(
            f"ticks [{ticks[0]}, {ticks[-1]}] outside trajectory range "
            f"[{script.start_ms}, {script.end_ms}]"
        )
    times, points = script._t, script._p.T
    # The first tick at or after each waypoint.  The ticks never go back, so
    # each segment's come in one run; one on the last waypoint continues the
    # last segment's.
    first = np.searchsorted(ticks, times)
    runs = np.diff(first, append=len(ticks))
    spans = runs[:-1].copy()
    spans[-1] += runs[-1]
    t0 = np.repeat(times[:-1], spans)
    frac = (ticks - t0) / np.repeat(np.diff(times), spans)
    # p0 + (p1 - p0) * frac, with each segment's p1 - p0 taken once.
    out = np.repeat(np.diff(points, axis=1), spans, axis=1)
    out *= frac
    out += np.repeat(points[:, :-1], spans, axis=1)
    # A tick on a waypoint takes the waypoint itself.
    on = np.flatnonzero(ticks[np.minimum(first, len(ticks) - 1)] == times)
    out[:, first[on]] = points[:, on]
    return out, runs


class Stopwatch:
    """Wall-clock seconds per stage of a run, for logs and ``RunResult``.

    Each :meth:`lap` adds the seconds since the previous lap, or since the
    stopwatch was made, to its stage's total.
    """

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}
        self._start = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.timings[stage] = self.timings.get(stage, 0.0) + now - self._start
        self._start = now

    def __str__(self) -> str:
        """``stage=seconds`` pairs, as the ``stage seconds:`` log lines give them."""
        return " ".join(f"{stage}={s:.6f}" for stage, s in self.timings.items())
