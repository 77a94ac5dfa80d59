"""The array stages of ``run_simulation`` equal the scalar reference model.

``run_simulation`` samples, sends, receives and measures on arrays over the
whole tick grid.  The scalar stage functions, called once per tick or per
snapshot, are the reference: the loop below is the one the benchmark's
traced replay runs, and every run must give ``==``-equal sends, delivery
events and export-error report.
"""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsync import protocol, scenario
from drsync.core import TrajectoryScript, Vec3, sample_positions, sample_trajectory
from drsync.netsim import (
    DejitterConfig,
    LatePolicy,
    ReliableOrdered,
    reliable_run,
    unreliable_run,
)
from drsync.protocol import (
    ExportErrorReport,
    ProtocolConfig,
    ReceiverState,
    SenderState,
    compute_export_error,
    receiver_apply,
    render_position,
    sender_run,
    sender_tick,
    write_export_error_csv,
)
from drsync.scenario import (
    MODE_RELIABLE,
    MODE_UNRELIABLE,
    ChannelSpec,
    ScenarioConfig,
    TrajectoryGenConfig,
    TrajectorySource,
    run_simulation,
)


def scalar_run(cfg: ScenarioConfig):
    """Sends, events and report from the scalar stage functions, tick by tick."""
    script = scenario._load_trajectory(cfg)
    chan = scenario._resolve_channel(cfg)
    tick = cfg.protocol.tick_ms
    ticks = [k * tick for k in range(cfg.duration_ms // tick + 1)]
    true_series = [(t, sample_trajectory(script, t)) for t in ticks]
    sender = SenderState(entity_id=cfg.entity_id)
    sends, dr_by_seq = [], {}
    for t, pos in true_series:
        dr = sender_tick(sender, cfg.protocol, pos, t)
        if dr is not None:
            sends.append((dr.seq, t))
            dr_by_seq[dr.seq] = dr
    if cfg.mode == MODE_RELIABLE:
        events = reliable_run(chan, ReliableOrdered(rto_ms=cfg.rto_ms), sends)
    else:
        events = unreliable_run(chan, cfg.dejitter, sends)
    deliveries = sorted(
        (ev for ev in events if ev.deliver_ms is not None),
        key=lambda ev: (ev.deliver_ms, ev.seq),
    )
    receiver = ReceiverState()
    rendered = []
    di = 0
    for t in ticks:
        while di < len(deliveries) and deliveries[di].deliver_ms <= t:
            receiver_apply(receiver, dr_by_seq[deliveries[di].seq])
            di += 1
        rendered.append((t, render_position(receiver, t)))
    report = compute_export_error(true_series, rendered, entity_id=cfg.entity_id)
    return sends, events, report


coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1e6, -1e6]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
# A waypoint gap in ticks (so the next waypoint sits on a tick) or in ms.
gap = st.tuples(st.booleans(), st.integers(min_value=1, max_value=40))

run_spec = st.fixed_dictionaries(
    {
        "tick_ms": st.integers(min_value=1, max_value=120),
        "ticks": st.integers(min_value=0, max_value=150),
        "extra_ms": st.integers(min_value=0, max_value=119),
        "threshold": st.one_of(
            st.just(0.0), st.floats(min_value=0.0, max_value=20.0)
        ),
        "min_send_interval_ms": st.sampled_from([0, 0, 1, 50, 120, 400]),
        # 2**70: every delivery is past the run, and past int64; 2**62
        # fits int64 until a retransmission or the playout adds to it.
        "latency": st.one_of(
            st.integers(min_value=0, max_value=300), st.sampled_from([2**62, 2**70])
        ),
        "jitter": st.integers(min_value=0, max_value=200),
        "loss": st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.95, 1.0]),
        "mode": st.sampled_from([MODE_UNRELIABLE, MODE_RELIABLE]),
        "rto_ms": st.one_of(st.integers(min_value=1, max_value=500), st.just(2**70)),
        "playout": st.one_of(st.integers(min_value=0, max_value=150), st.just(2**63)),
        "late_policy": st.sampled_from(list(LatePolicy)),
        "seed": st.integers(min_value=0, max_value=2**32),
        # None: the built-in generator; else waypoint gaps and coordinates.
        "waypoints": st.one_of(
            st.none(),
            st.lists(
                st.tuples(gap, coordinate, coordinate, coordinate),
                min_size=2,
                max_size=25,
            ),
        ),
    }
)

BASE = {
    "tick_ms": 50, "ticks": 60, "extra_ms": 0, "threshold": 1.0,
    "min_send_interval_ms": 0, "latency": 100, "jitter": 40, "loss": 0.1,
    "mode": MODE_UNRELIABLE, "rto_ms": 400, "playout": 80,
    "late_policy": LatePolicy.DELIVER_LATE, "seed": 1, "waypoints": None,
}
ON_TICKS = [
    ((True, 3), -0.0, 0.0, -0.0),
    ((True, 1), 5.0, -0.0, 2.5),
    ((False, 17), -0.0, -0.0, 0.0),
    ((True, 7), 1e6, -3.0, -0.0),
    ((True, 2), -0.0, 4.0, 4.0),
]


def build_config(spec: dict, folder: Path) -> ScenarioConfig:
    """The scenario ``spec`` describes; a trajectory file is written to ``folder``."""
    tick = spec["tick_ms"]
    duration = (spec["ticks"] + 1) * tick + spec["extra_ms"]
    if spec["waypoints"] is None:
        source = TrajectorySource(
            generator=TrajectoryGenConfig(
                box_size=200.0, speed_min=5.0, speed_max=80.0,
                waypoint_interval_min_ms=50, waypoint_interval_max_ms=600,
            )
        )
    else:
        rows, t = [], 0
        for (on_tick, n), x, y, z in spec["waypoints"]:
            rows.append(f"{t},{x!r},{y!r},{z!r}")
            t += n * tick if on_tick else n
        # The last waypoint lies past the run's end, or on its last tick and
        # then one more at its end.
        t = max(t, duration - duration % tick)
        rows.append(f"{t},1.0,-0.0,2.0")
        if t < duration:
            rows.append(f"{duration},1.0,-0.0,2.0")
        path = folder / "trajectory.csv"
        path.write_text("t_ms,x,y,z\n" + "\n".join(rows) + "\n")
        source = TrajectorySource(file=str(path))
    return ScenarioConfig(
        seed=spec["seed"],
        duration_ms=duration,
        trajectory=source,
        protocol=ProtocolConfig(
            threshold=spec["threshold"],
            tick_ms=tick,
            min_send_interval_ms=spec["min_send_interval_ms"],
        ),
        channel=ChannelSpec(
            base_latency_ms=spec["latency"],
            jitter_max_ms=spec["jitter"],
            loss_rate=spec["loss"],
        ),
        mode=spec["mode"],
        rto_ms=spec["rto_ms"],
        dejitter=DejitterConfig(
            playout_delay_ms=spec["playout"], late_policy=spec["late_policy"]
        ),
    )


@given(spec=run_spec)
@example(spec={**BASE, "threshold": 0.0, "min_send_interval_ms": 150})
@example(spec={**BASE, "late_policy": LatePolicy.DROP, "jitter": 200})
@example(spec={**BASE, "mode": MODE_RELIABLE, "loss": 0.95})
@example(spec={**BASE, "tick_ms": 10, "ticks": 80, "waypoints": ON_TICKS})
@example(spec={**BASE, "loss": 1.0})
@example(spec={**BASE, "mode": MODE_RELIABLE, "loss": 0.5, "latency": 2**62,
               "rto_ms": 2**70})
@example(spec={**BASE, "latency": 2**62, "playout": 2**63})
# The runs' edges: the last waypoint on the last tick, deliveries after the
# last tick, and the shortest run, two ticks between two waypoints.
@example(spec={**BASE, "tick_ms": 10, "ticks": 80, "waypoints": ON_TICKS[:2]})
@example(spec={**BASE, "latency": 2_000, "ticks": 60})
@example(spec={**BASE, "ticks": 0, "waypoints": [((True, 1), 0.0, 0.0, 0.0)] * 2})
@settings(derandomize=True, max_examples=120, deadline=None)
def test_array_core_equals_scalar_stages(spec):
    with tempfile.TemporaryDirectory() as folder:
        cfg = build_config(spec, Path(folder))
        result = run_simulation(cfg)
        sends, events, report = scalar_run(cfg)
    assert result.sends == sends
    assert result.events == events
    assert result.report == report
    for t, err in result.report.series:
        assert type(t) is int
        assert err is None or type(err) is float
    assert all(type(seq) is int and type(t) is int for seq, t in result.sends)
    assert list(result.timings) == [
        "trajectory", "sample", "sender", "transport", "receiver",
        "export_error", "summary",
    ]


def test_required_cases_happen():
    """Each ``@example`` above reaches the case it is there for."""
    def run(**kw):
        with tempfile.TemporaryDirectory() as folder:
            return run_simulation(build_config({**BASE, **kw}, Path(folder)))

    gated = run(threshold=0.0, min_send_interval_ms=150)
    assert [t for _, t in gated.sends[:3]] == [0, 150, 300]
    dropped = run(late_policy=LatePolicy.DROP, jitter=200)
    assert any(ev.arrive_ms is not None and ev.deliver_ms is None for ev in dropped.events)
    given_up = run(mode=MODE_RELIABLE, loss=0.95)
    assert any(ev.arrive_ms is None for ev in given_up.events)
    assert any(ev.deliver_ms is not None for ev in given_up.events)
    dead = run(loss=1.0)
    assert dead.report.warmup_ticks == len(dead.report.series)
    assert dead.report.mean is None
    # Times past int64 run on Python ints, retransmissions and playouts too.
    wide = run(mode=MODE_RELIABLE, loss=0.5, latency=2**62, rto_ms=2**70)
    assert wide.deliveries.arrive_ms.dtype == object
    assert wide.summary["transmissions"] > wide.summary["sends"]
    held = run(latency=2**62, playout=2**63)
    assert held.deliveries.deliver_ms.dtype == object
    with tempfile.TemporaryDirectory() as folder:
        cfg = build_config(
            {**BASE, "tick_ms": 10, "ticks": 80, "waypoints": ON_TICKS[:2]}, Path(folder)
        )
        script = scenario._load_trajectory(cfg)
    assert script.end_ms == cfg.duration_ms == 810
    _, runs = sample_positions(script, np.arange(82, dtype=np.int64) * 10)
    assert runs.tolist() == [3, 78, 1]  # the last tick is on the last waypoint
    after = run(latency=2_000, ticks=60)
    last_tick = after.report.t_ms[-1]
    assert any(ev.deliver_ms is not None and ev.deliver_ms > last_tick for ev in after.events)
    assert after.report.samples_count > 0
    shortest = run(ticks=0, waypoints=[((True, 1), 0.0, 0.0, 0.0)] * 2)
    assert shortest.report.t_ms.tolist() == [0, 50]


def test_sampling_is_bitwise_equal_on_and_between_waypoints():
    # A -0.0 coordinate survives only when a waypoint is returned as it is,
    # not computed as ``p0 + (p1 - p0) * 0``.  Tick 71 is the last waypoint.
    script = TrajectoryScript(
        [
            (0, Vec3(-0.0, 1.0, -0.0)),
            (30, Vec3(0.5, -0.0, 3.0)),
            (70, Vec3(-0.0, -0.0, -0.0)),
            (71, Vec3(1e300, -1e300, 2.0)),
        ]
    )
    ticks = np.arange(0, 72, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        positions, runs = sample_positions(script, ticks)
    arrays = positions.T.tolist()
    scalars = [list(sample_trajectory(script, t)) for t in range(72)]
    assert repr(arrays) == repr(scalars)
    assert math.copysign(1.0, arrays[70][0]) == -1.0
    # Each waypoint's ticks, up to the next one or on from the last.
    assert runs.tolist() == [30, 40, 1, 1]


def tick_sends(cfg: ProtocolConfig, ticks: np.ndarray, positions: np.ndarray):
    """The rows at which a loop of ``sender_tick`` sends."""
    state = SenderState()
    return [
        k
        for k, (t, pos) in enumerate(zip(ticks.tolist(), positions.T.tolist()))
        if sender_tick(state, cfg, Vec3._make(pos), t) is not None
    ]


def sampled_run(tick_ms: int, waypoints, past: int = 0):
    """Ticks, positions and segment runs of a script of ``(gap_ms, x, y, z)``
    waypoints, sampled to its last waypoint and held there ``past`` ticks."""
    rows, t = [], 0
    for gap_ms, *point in waypoints:
        rows.append((t, Vec3(*point)))
        t += gap_ms
    script = TrajectoryScript(rows)
    ticks = np.arange(script.end_ms // tick_ms + 1, dtype=np.int64) * tick_ms
    with np.errstate(over="ignore", invalid="ignore"):
        positions, runs = sample_positions(script, ticks)
    # Past the last waypoint the truth stays there, in the last segment.
    ticks = np.arange(len(ticks) + past, dtype=np.int64) * tick_ms
    positions = np.concatenate((positions, np.repeat(positions[:, -1:], past, axis=1)), axis=1)
    runs[-1] += past
    return ticks, positions, runs


@given(
    tick_ms=st.integers(min_value=1, max_value=120),
    steps=st.lists(
        st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=40
    ),
    threshold=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0)),
    gap=st.sampled_from([0, 1, 50, 120, 400]),
)
@example(tick_ms=50, steps=[(0.0, 0.0, 0.0)] * 3 + [(1.0, 0.0, 0.0)] * 9,
         threshold=0.0, gap=120)
@settings(derandomize=True, max_examples=100, deadline=None)
def test_sender_chunks_give_the_unchunked_sends(tick_ms, steps, threshold, gap):
    """The state carried across chunk edges gives the sends of one chunk."""
    cfg = ProtocolConfig(threshold=threshold, tick_ms=tick_ms, min_send_interval_ms=gap)
    positions = np.cumsum(np.array(steps, dtype=np.float64).T, axis=1)
    # A random walk is no segment's interpolation: one segment a tick.
    runs = np.ones(len(steps), dtype=np.int64)
    with mock.patch.object(protocol, "_SENDER_CHUNK", len(steps)):
        whole, velocities = sender_run(cfg, positions, runs)
    for chunk in (1, 2, 7):
        with mock.patch.object(protocol, "_SENDER_CHUNK", chunk):
            sent, chunked_velocities = sender_run(cfg, positions, runs)
        assert sent.tolist() == whole.tolist()
        assert chunked_velocities.tobytes() == velocities.tobytes()


# A waypoint gap: whole ticks, then an offset (taken modulo the tick) off
# the grid; short segments mix with ones long enough to skip.
long_gap = st.tuples(
    st.one_of(st.integers(min_value=1, max_value=7), st.integers(min_value=8, max_value=60)),
    st.integers(min_value=0, max_value=119),
)
unit = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)


@given(
    tick_ms=st.integers(min_value=1, max_value=100),
    scale=st.sampled_from([1.0, 1e3, 1e6, 1e9, 1e12, 1e15, 1e307, 1e308]),
    waypoints=st.lists(st.tuples(long_gap, unit, unit, unit), min_size=2, max_size=10),
    past=st.integers(min_value=0, max_value=20),
    threshold=st.one_of(
        st.sampled_from([0.0, 1e-9, 1e6, 1e12, 1e300]),
        st.floats(min_value=0.0, max_value=1e3),
    ),
    relative=st.booleans(),
    gap=st.sampled_from([0, 1, 50, 120, 400, 1000]),
    chunk=st.sampled_from([1, 7, 8_192]),
)
@example(tick_ms=50, scale=1e3, waypoints=[((40, 0), 0.0, 0.0, 0.0),
         ((40, 0), 1.0, 0.0, 0.0), ((40, 0), 1.0, 1.0, 0.0)],
         past=20, threshold=5.0, relative=False, gap=0, chunk=7)
@example(tick_ms=50, scale=10.0, waypoints=[((4, 0), 0.0, 0.0, 0.0),
         ((40, 0), 1.0, 0.0, 0.0), ((1, 0), 0.0, 0.0, 0.0)],
         past=0, threshold=0.5, relative=False, gap=400, chunk=8_192)
# The squares of these deviations are subnormal: one inside the segment
# computes above the threshold while both ends compute below it.
@example(tick_ms=1, scale=1.0, waypoints=[((1, 0), 0.0, 0.0, 0.0),
         ((14, 0), 1.404610405483608e-161, -7.095896103645665e-162,
          -1.698380973324435e-161),
         ((1, 0), 1.395068145950433e-161, -7.096057906972382e-162,
          -1.7021919818452273e-161), ((1, 0), 0.0, 0.0, 0.0)],
         past=0, threshold=2.315e-161, relative=False, gap=0, chunk=8_192)
@example(tick_ms=1, scale=1e308, waypoints=[((30, 0), -1.0, 0.0, 1.0),
         ((30, 0), 1.0, 0.0, -1.0)], past=10, threshold=1e300,
         relative=False, gap=0, chunk=8_192)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_sender_skips_give_the_sends_of_sender_tick(
    tick_ms, scale, waypoints, past, threshold, relative, gap, chunk
):
    """sender_run, skipping straight stretches, sends where sender_tick does.

    Waypoints sit on and off the tick grid, the truth may stay at the last
    one for ``past`` ticks, and coordinates reach 1e15, or overflow to
    infinity from 1e307 up; a ``relative`` threshold is a share of the scale.
    """
    if relative:
        threshold = min(threshold * scale / 1e3, 1e300)
    cfg = ProtocolConfig(threshold=threshold, tick_ms=tick_ms, min_send_interval_ms=gap)
    spaced = [
        (n * tick_ms + off % tick_ms, x * scale, y * scale, z * scale)
        for (n, off), x, y, z in waypoints
    ]
    ticks, positions, runs = sampled_run(tick_ms, spaced, past)
    with mock.patch.object(protocol, "_SENDER_CHUNK", chunk), np.errstate(
        over="ignore", invalid="ignore"
    ):
        sent, _ = sender_run(cfg, positions, runs)
        assert sent.tolist() == tick_sends(cfg, ticks, positions)


def test_sender_skip_cases_happen():
    """The first ``@example`` above skips, past its last waypoint too, and
    the 1e308 one overflows."""
    cfg = ProtocolConfig(threshold=5.0, tick_ms=50)
    ticks, positions, runs = sampled_run(
        50, [(2000, 0.0, 0.0, 0.0), (2000, 1e3, 0.0, 0.0), (2000, 1e3, 1e3, 0.0)], 20
    )
    skipped = []
    check = protocol._cannot_send

    def spy(near, far, *rest):
        skips = check(near, far, *rest)
        if skips:  # as rows: a check's ends are (tick, x, y, z)
            skipped.append((near[0] // 50, far[0] // 50))
        return skips

    with mock.patch.object(protocol, "_cannot_send", spy):
        sender_run(cfg, positions, runs)
    # Row 80 is the last waypoint; the truth stops there, so row 81 sends.
    assert skipped == [(2, 39), (42, 79), (82, 100)]
    _, positions, _ = sampled_run(1, [(30, -1e308, 0.0, 1e308), (30, 1e308, 0.0, -1e308)])
    assert np.isinf(positions).any()


@given(
    tick_ms=st.integers(min_value=1, max_value=100),
    # 1e-155: the squares of a deviation are subnormal.
    scale=st.sampled_from([1e-155, 1.0, 1e3, 1e6, 1e9, 1e12, 1e15]),
    speed=st.floats(min_value=0.5, max_value=2.0),
    pause=st.integers(min_value=1, max_value=30),
    ulps=st.integers(min_value=-64, max_value=64),
    gap=st.sampled_from([0, 0, 50]),
)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_sender_skips_hold_at_a_grazing_threshold(tick_ms, scale, speed, pause, ulps, gap):
    """A deviation that stays within rounding of the threshold for a whole
    segment sends where sender_tick does.

    The truth moves along x, and a send on the first segment takes up its
    velocity.  It pauses for ``pause`` ticks and moves on at the same speed,
    so on the last segment it lags the prediction by a constant distance,
    give or take the rounding of two float paths; the threshold is that
    distance, moved by a few ulps.
    """
    move, pause = 40 * tick_ms, pause * tick_ms
    v = speed * scale / move  # per ms, so that a move spans about ``scale``
    waypoints = [
        (move, 0.0, 0.0, 0.0),
        (pause, v * move, 0.0, 0.0),
        (move, v * move, 0.0, 0.0),
        (tick_ms, v * (2 * move), 0.0, 0.0),
    ]
    ticks, positions, runs = sampled_run(tick_ms, waypoints)
    threshold = v * pause * (1 + ulps * 2.0**-52)
    cfg = ProtocolConfig(threshold=threshold, tick_ms=tick_ms, min_send_interval_ms=gap)
    sent, _ = sender_run(cfg, positions, runs)
    assert sent.tolist() == tick_sends(cfg, ticks, positions)


@pytest.mark.parametrize("segment_ticks", [12, 16, 24, 32, 64])
@pytest.mark.parametrize("threshold", [0.2, 1.0, 5.0])
def test_walkers_send_as_sender_tick(segment_ticks, threshold):
    """The random-waypoint walkers whose segments are 12 to 64 ticks long,
    over 5 minutes, send where sender_tick does."""
    gen = TrajectoryGenConfig(
        waypoint_interval_min_ms=50 * segment_ticks,
        waypoint_interval_max_ms=50 * segment_ticks,
    )
    script = scenario.generate_trajectory(gen, 300_000, seed=1)
    ticks = np.arange(6_001, dtype=np.int64) * 50
    positions, runs = sample_positions(script, ticks)
    cfg = ProtocolConfig(threshold=threshold, tick_ms=50)
    sent, _ = sender_run(cfg, positions, runs)
    assert sent.tolist() == tick_sends(cfg, ticks, positions)


class TestReportColumns:
    """``run_simulation``'s report keeps columns; its ``series`` is built on reading."""

    @staticmethod
    def runs(folder):
        cfg = build_config({**BASE, "ticks": 90}, Path(folder))
        return run_simulation(cfg), scalar_run(cfg)[2]

    def test_equal_to_the_list_built_report_whichever_is_read_first(self):
        with tempfile.TemporaryDirectory() as folder:
            for first in ("array", "list"):
                result, listed = self.runs(folder)
                arrays = result.report
                assert arrays.warmup_ticks > 0 and arrays.samples_count > 0
                assert "series" not in vars(arrays) and "series" not in vars(listed)
                (arrays if first == "array" else listed).series
                assert arrays == listed and listed == arrays
                assert arrays.series == listed.series

    def test_column_built_report_equals_its_source(self):
        with tempfile.TemporaryDirectory() as folder:
            result, _ = self.runs(folder)
        report = result.report
        for columns in (
            (report.t_ms, report.errors),
            (report.t_ms.tolist(), report.errors.tolist()),
        ):
            rebuilt = ExportErrorReport(report.entity_id, *columns)
            assert rebuilt == report and report == rebuilt
            assert repr(rebuilt) == repr(report)
            assert rebuilt.series == report.series

    def test_one_ulp_one_tick_or_the_entity_tells_reports_apart(self):
        with tempfile.TemporaryDirectory() as folder:
            result, _ = self.runs(folder)
        report = result.report
        errors = report.errors.copy()
        errors[-1] = np.nextafter(errors[-1], np.inf)
        ticks = report.t_ms.copy()
        ticks[-1] += 1
        for other in (
            ExportErrorReport(report.entity_id, report.t_ms, errors),
            ExportErrorReport(report.entity_id, ticks, report.errors),
            ExportErrorReport("player-1", report.t_ms, report.errors),
        ):
            assert other != report and report != other

    def test_run_leaves_series_unbuilt(self):
        with tempfile.TemporaryDirectory() as folder:
            result, _ = self.runs(folder)
            scenario.write_run_outputs(result, Path(folder) / "out")
        assert "series" not in vars(result.report)

    def test_csv_bytes_equal_from_both_forms(self):
        with tempfile.TemporaryDirectory() as folder:
            result, listed = self.runs(folder)
            # The columns of the list-built report's series.
            rebuilt = ExportErrorReport(
                result.report.entity_id,
                [t for t, _ in listed.series],
                [e for _, e in listed.series if e is not None],
            )
            written = []
            for n, report in enumerate((result.report, listed, rebuilt)):
                path = Path(folder) / f"export_error_{n}.csv"
                write_export_error_csv(report, str(path))
                written.append(path.read_bytes())
        assert written[0] == written[1] == written[2]
        assert written[0].startswith(b"t_ms,entity_id,error\n0,player-0,\n")

    def test_warm_up_must_lead(self):
        truth = [(t, Vec3(0.0, 0.0, 0.0)) for t in (0, 10, 20)]
        rendered = [(0, None), (10, Vec3(1.0, 0.0, 0.0)), (20, None)]
        message = "^warm-up tick t_ms=20 follows a rendered tick$"
        with pytest.raises(ValueError, match=message):
            compute_export_error(truth, rendered)

    def test_a_grid_mismatch_wins_over_a_late_warm_up_tick(self):
        truth = [(t, Vec3(0.0, 0.0, 0.0)) for t in (0, 10, 20, 30)]
        rendered = [(0, None), (10, Vec3(1.0, 0.0, 0.0)), (20, None), (31, None)]
        message = "^tick grids differ: true tick 30 vs rendered tick 31$"
        with pytest.raises(ValueError, match=message):
            compute_export_error(truth, rendered)
