import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsync.core import (
    DRVector,
    TrajectoryScript,
    Vec3,
    ZERO,
    deviation,
    extrapolate,
    sample_positions,
    sample_trajectory,
)
from drsync.protocol import compute_export_error

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def vec(x, y, z):
    return Vec3(float(x), float(y), float(z))


class TestVec3:
    def test_arithmetic(self):
        a = vec(1, 2, 3)
        b = vec(10, 20, 30)
        assert a + b == vec(11, 22, 33)
        assert b - a == vec(9, 18, 27)
        assert a.scaled(2.0) == vec(2, 4, 6)
        assert a.scaled(0.0) == ZERO

    def test_frozen(self):
        with pytest.raises(AttributeError):
            vec(1, 2, 3).x = 5.0


class TestDRVector:
    def test_extrapolate_hand_value(self):
        # 500 ms at (2, -4, 1) units/s moves exactly half the velocity vector.
        dr = DRVector(
            entity_id="e",
            seq=1,
            t_sent=1000,
            position=ZERO,
            velocity=vec(2, -4, 1),
        )
        assert extrapolate(dr, 1500) == vec(1.0, -2.0, 0.5)

    def test_extrapolate_at_send_time_is_position(self):
        dr = DRVector(
            entity_id="e", seq=1, t_sent=700, position=vec(3, 1, 4),
            velocity=vec(9, 9, 9),
        )
        assert extrapolate(dr, 700) == vec(3, 1, 4)

    def test_extrapolate_rejects_past(self):
        dr = DRVector(entity_id="e", seq=1, t_sent=100, position=ZERO, velocity=ZERO)
        with pytest.raises(ValueError):
            extrapolate(dr, 99)

    @given(px=finite, py=finite, pz=finite, vx=finite, vy=finite, vz=finite,
           dt=st.integers(min_value=0, max_value=10_000))
    @settings(derandomize=True, max_examples=50)
    def test_extrapolation_is_linear(self, px, py, pz, vx, vy, vz, dt):
        dr = DRVector(
            entity_id="e", seq=1, t_sent=0,
            position=vec(px, py, pz), velocity=vec(vx, vy, vz),
        )
        got = extrapolate(dr, dt)
        s = dt / 1000.0
        assert got.x == pytest.approx(px + vx * s, abs=1e-6, rel=1e-9)
        assert got.y == pytest.approx(py + vy * s, abs=1e-6, rel=1e-9)
        assert got.z == pytest.approx(pz + vz * s, abs=1e-6, rel=1e-9)


class TestDeviation:
    def test_three_four_five(self):
        assert deviation(vec(0, 0, 0), vec(3, 4, 0)) == 5.0

    def test_zero_for_equal_points(self):
        assert deviation(vec(1, 2, 3), vec(1, 2, 3)) == 0.0

    @given(ax=finite, ay=finite, az=finite, bx=finite, by=finite, bz=finite)
    @settings(derandomize=True, max_examples=50)
    def test_symmetric_and_nonnegative(self, ax, ay, az, bx, by, bz):
        a, b = vec(ax, ay, az), vec(bx, by, bz)
        assert deviation(a, b) == deviation(b, a) >= 0.0


class TestTrajectoryScript:
    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            TrajectoryScript([(0, ZERO)])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            TrajectoryScript([(0, ZERO), (0, vec(1, 0, 0))])
        with pytest.raises(ValueError):
            TrajectoryScript([(100, ZERO), (50, vec(1, 0, 0))])

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TrajectoryScript([(-5, ZERO), (100, vec(1, 0, 0))])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_coordinates(self, bad):
        for pos in (vec(bad, 0, 0), vec(0, bad, 0), vec(0, 0, bad)):
            with pytest.raises(ValueError, match="t_ms=500: coordinates must be finite"):
                TrajectoryScript([(0, ZERO), (500, pos)])

    def test_sampling_interpolates(self):
        script = TrajectoryScript([(0, ZERO), (1000, vec(10, 0, 0))])
        assert sample_trajectory(script, 0) == ZERO
        assert sample_trajectory(script, 1000) == vec(10, 0, 0)
        assert sample_trajectory(script, 250) == vec(2.5, 0, 0)

    def test_sampling_picks_correct_segment(self):
        script = TrajectoryScript(
            [(0, ZERO), (1000, vec(10, 0, 0)), (3000, vec(10, 20, 0))]
        )
        assert sample_trajectory(script, 1000) == vec(10, 0, 0)
        assert sample_trajectory(script, 2000) == vec(10, 10, 0)

    def test_sampling_outside_range(self):
        script = TrajectoryScript([(100, ZERO), (200, vec(1, 0, 0))])
        with pytest.raises(ValueError):
            sample_trajectory(script, 99)
        with pytest.raises(ValueError):
            sample_trajectory(script, 201)

    def test_sampling_ticks_past_the_script(self):
        script = TrajectoryScript([(0, ZERO), (100, vec(1, 0, 0))])
        ticks = np.array([0, 200], dtype=np.int64)
        with pytest.raises(
            ValueError, match=r"^ticks \[0, 200\] outside trajectory range \[0, 100\]$"
        ):
            sample_positions(script, ticks)

    @given(t=st.integers(min_value=0, max_value=3000))
    @settings(derandomize=True, max_examples=50)
    def test_sample_stays_in_hull(self, t):
        script = TrajectoryScript(
            [(0, vec(0, 0, 0)), (1500, vec(6, -2, 4)), (3000, vec(3, 3, 3))]
        )
        p = sample_trajectory(script, t)
        for axis, lo, hi in [("x", 0, 6), ("y", -2, 3), ("z", 0, 4)]:
            v = getattr(p, axis)
            assert lo - 1e-9 <= v <= hi + 1e-9

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t_ms,x,y,z\n0,0.0,1.5,2\n500,3,4,5\n1500,-1,0,0.25\n")
        script = TrajectoryScript.from_csv(str(path))
        assert script.start_ms == 0
        assert script.end_ms == 1500
        assert sample_trajectory(script, 500) == vec(3, 4, 5)

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("time,x,y,z\n0,0,0,0\n")
        with pytest.raises(ValueError, match="header"):
            TrajectoryScript.from_csv(str(path))

    def test_csv_reports_bad_row(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t_ms,x,y,z\n0,0,0,0\n500,oops,0,0\n")
        with pytest.raises(ValueError, match="row 3"):
            TrajectoryScript.from_csv(str(path))


def _columns(waypoints):
    t_ms = np.array([t for t, _ in waypoints], dtype=np.int64)
    return t_ms, np.array([p for _, p in waypoints], dtype=np.float64).reshape(-1, 3)


def _write_csv(path, waypoints):
    rows = "".join(f"{t},{x!r},{y!r},{z!r}\n" for t, (x, y, z) in waypoints)
    path.write_text("t_ms,x,y,z\n" + rows)


NAN, INF = float("nan"), float("inf")


class TestColumnBuiltScript:
    """A script built from arrays is the script built from its waypoint list."""

    WAYPOINTS = [(0, vec(-0.0, 1.5, 2)), (500, vec(3, 4, 5)), (1500, vec(-1, 0, 0.25))]

    def test_same_waypoints_repr_and_range(self, tmp_path):
        listed = TrajectoryScript(self.WAYPOINTS)
        built = TrajectoryScript.from_columns(*_columns(self.WAYPOINTS))
        path = tmp_path / "traj.csv"
        _write_csv(path, self.WAYPOINTS)
        for script in (listed, built, TrajectoryScript.from_csv(str(path))):
            assert repr(script.waypoints) == repr(tuple(self.WAYPOINTS))
            assert all(type(t) is int for t, _ in script.waypoints)
            assert repr(script) == "TrajectoryScript(3 waypoints, [0..1500] ms)"
            assert (script.start_ms, script.end_ms) == (0, 1500)
            assert type(script.start_ms) is int and type(script.end_ms) is int
            assert repr(sample_trajectory(script, 0)) == repr(self.WAYPOINTS[0][1])

    def test_waypoints_are_built_when_first_read(self):
        script = TrajectoryScript.from_columns(*_columns(self.WAYPOINTS))
        assert "waypoints" not in vars(script)
        assert sample_trajectory(script, 1000) == vec(1, 2, 2.625)
        assert "waypoints" in vars(script)

    @pytest.mark.parametrize(
        "waypoints, message",
        [
            ([(0, ZERO)], "trajectory needs at least 2 waypoints, got 1"),
            (
                [(0, ZERO), (100, ZERO), (100, ZERO), (50, ZERO)],
                "waypoint times must be strictly increasing, got 100 then 100",
            ),
            ([(-5, ZERO), (100, ZERO)], "waypoint times must be >= 0, got -5"),
            (
                [(0, ZERO), (2**53 + 1, ZERO)],
                f"waypoint times must be <= {2**53}, got {2**53 + 1}",
            ),
            (
                [(0, ZERO), (500, vec(1, NAN, 2)), (700, vec(INF, 0, 0))],
                "waypoint at t_ms=500: coordinates must be finite, "
                "got Vec3(x=1.0, y=nan, z=2.0)",
            ),
        ],
    )
    def test_same_error_messages(self, tmp_path, waypoints, message):
        with pytest.raises(ValueError) as listed:
            TrajectoryScript(waypoints)
        with pytest.raises(ValueError) as built:
            TrajectoryScript.from_columns(*_columns(waypoints))
        path = tmp_path / "traj.csv"
        _write_csv(path, waypoints)
        with pytest.raises(ValueError) as read:
            TrajectoryScript.from_csv(str(path))
        assert str(listed.value) == str(built.value) == message
        assert read.value.problems == [f"{path}: {message}"]

    @pytest.mark.parametrize(
        "times, message",
        [
            ([0, 2**70], f"waypoint times must be <= {2**53}, got {2**70}"),
            (
                [0, 2**70, 5],
                f"waypoint times must be strictly increasing, got {2**70} then 5",
            ),
            ([-(2**70), 5], f"waypoint times must be >= 0, got {-(2**70)}"),
        ],
    )
    def test_times_past_int64_are_named(self, tmp_path, times, message):
        waypoints = [(t, ZERO) for t in times]
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrajectoryScript(waypoints)
        path = tmp_path / "traj.csv"
        _write_csv(path, waypoints)
        with pytest.raises(ValueError) as read:
            TrajectoryScript.from_csv(str(path))
        assert read.value.problems == [f"{path}: {message}"]


def test_export_error_rejects_an_overflowed_distance():
    # Each coordinate is finite, but squaring the 1e200 offset overflows.
    truth = [(0, ZERO), (100, ZERO)]
    rendered = [(0, ZERO), (100, vec(1e200, 0, 0))]
    with pytest.raises(ValueError, match="t_ms=100 is not finite"):
        compute_export_error(truth, rendered)


def test_deviation_of_extrapolations_grows_linearly():
    # Two snapshots from the same point whose velocities differ by (1,0,0)
    # drift apart at exactly 1 unit/s.
    a = DRVector(entity_id="e", seq=1, t_sent=0, position=ZERO, velocity=vec(1, 0, 0))
    b = DRVector(entity_id="e", seq=2, t_sent=0, position=ZERO, velocity=vec(2, 0, 0))
    for dt in (0, 100, 500, 2000):
        d = deviation(extrapolate(a, dt), extrapolate(b, dt))
        assert math.isclose(d, dt / 1000.0, abs_tol=1e-12)
