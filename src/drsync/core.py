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
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from . import spec

# Milliseconds, non-negative. Kept as int so tick grids compare exactly.
TimeMs = int

_MS_PER_S = 1000.0


@dataclass(frozen=True)
class Vec3:
    """Point or velocity in 3-D world units. Components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Vec3.{name} must be finite, got {v!r}")

    def __add__(self, other: Vec3) -> Vec3:
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: Vec3) -> Vec3:
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, k: float) -> Vec3:
        return Vec3(self.x * k, self.y * k, self.z * k)


ZERO = Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DRVector:
    """Position/velocity snapshot of one entity, stamped when it was taken.

    ``velocity`` is world units per second; ``seq`` orders snapshots from the
    same sender (higher is newer).
    """

    entity_id: str
    seq: int
    t_sent: TimeMs
    position: Vec3
    velocity: Vec3

    def __post_init__(self) -> None:
        if self.seq < 1:
            raise ValueError(f"DRVector.seq must be >= 1, got {self.seq}")
        if self.t_sent < 0:
            raise ValueError(f"DRVector.t_sent must be >= 0, got {self.t_sent}")


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

    Waypoint times must be strictly increasing and there must be at least two
    waypoints; positions between waypoints are linear interpolations.
    """

    def __init__(self, waypoints: list[tuple[TimeMs, Vec3]]):
        if len(waypoints) < 2:
            raise ValueError(
                f"trajectory needs at least 2 waypoints, got {len(waypoints)}"
            )
        times = [t for t, _ in waypoints]
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise ValueError(
                    f"waypoint times must be strictly increasing, got {a} then {b}"
                )
        if times[0] < 0:
            raise ValueError(f"waypoint times must be >= 0, got {times[0]}")
        self.waypoints: tuple[tuple[TimeMs, Vec3], ...] = tuple(waypoints)
        self._times: list[TimeMs] = times

    @property
    def start_ms(self) -> TimeMs:
        return self.waypoints[0][0]

    @property
    def end_ms(self) -> TimeMs:
        return self.waypoints[-1][0]

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
            f"TrajectoryScript({len(self.waypoints)} waypoints, "
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
