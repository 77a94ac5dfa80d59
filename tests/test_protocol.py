import csv
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsync.core import DRVector, Vec3, ZERO
from drsync.protocol import (
    ExportErrorReport,
    ProtocolConfig,
    ReceiverState,
    SenderState,
    compute_export_error,
    nearest_rank,
    receiver_apply,
    render_position,
    sender_tick,
    write_export_error_csv,
)


def vec(x, y=0.0, z=0.0):
    return Vec3(float(x), float(y), float(z))


def run_sender(cfg, positions, tick_ms=None):
    """Feed positions tick by tick; return the emitted snapshots."""
    tick = cfg.tick_ms if tick_ms is None else tick_ms
    state = SenderState(entity_id="e")
    out = []
    for k, pos in enumerate(positions):
        dr = sender_tick(state, cfg, pos, k * tick)
        if dr is not None:
            out.append(dr)
    return out


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(threshold=-0.1, tick_ms=100)
        with pytest.raises(ValueError):
            ProtocolConfig(threshold=1.0, tick_ms=0)
        with pytest.raises(ValueError):
            ProtocolConfig(threshold=1.0, tick_ms=100, min_send_interval_ms=-1)
        with pytest.raises(ValueError):
            ProtocolConfig(threshold=float("nan"), tick_ms=100)


class TestSender:
    def test_first_tick_always_sends(self):
        cfg = ProtocolConfig(threshold=1000.0, tick_ms=100)
        state = SenderState(entity_id="e")
        dr = sender_tick(state, cfg, vec(5), 0)
        assert dr is not None
        assert dr.seq == 1
        assert dr.velocity == ZERO
        assert dr.position == vec(5)

    def test_stationary_entity_sends_once(self):
        cfg = ProtocolConfig(threshold=0.5, tick_ms=100)
        sent = run_sender(cfg, [vec(3, 3, 3)] * 50)
        assert len(sent) == 1

    def test_deviation_equal_to_threshold_does_not_send(self):
        # First snapshot has zero velocity, so the sender's own prediction
        # stays at the origin; drift of exactly the threshold must not fire.
        cfg = ProtocolConfig(threshold=1.0, tick_ms=1000)
        sent = run_sender(cfg, [vec(0), vec(1), vec(2)])
        assert [dr.seq for dr in sent] == [1, 2]
        assert sent[1].t_sent == 2000
        # Velocity is the one-tick backward difference: (2-1) unit / 1 s.
        assert sent[1].velocity == vec(1)

    def test_velocity_is_backward_difference(self):
        cfg = ProtocolConfig(threshold=0.0, tick_ms=200)
        sent = run_sender(cfg, [vec(0), vec(1, 2, 0), vec(4, 2, -1)])
        assert sent[0].velocity == ZERO
        assert sent[1].velocity == vec(5, 10, 0)  # (1,2,0) over 0.2 s
        assert sent[2].velocity == vec(15, 0, -5)

    def test_clock_must_advance(self):
        cfg = ProtocolConfig(threshold=1.0, tick_ms=100)
        state = SenderState(entity_id="e")
        sender_tick(state, cfg, ZERO, 0)
        with pytest.raises(ValueError):
            sender_tick(state, cfg, ZERO, 0)

    def test_rejects_a_negative_first_tick(self):
        # The sender is where a snapshot's t_sent and seq are made, so it is
        # where they are checked; DRVector itself checks nothing.
        cfg = ProtocolConfig(threshold=1.0, tick_ms=100)
        state = SenderState(entity_id="e")
        with pytest.raises(ValueError, match="must be >= 0 and increasing, got t=-1"):
            sender_tick(state, cfg, ZERO, -1)
        assert state.next_seq == 1 and state.last_sent is None
        dr = sender_tick(state, cfg, ZERO, 0)
        assert (dr.seq, dr.t_sent) == (1, 0)

    def test_min_send_interval_rate_limits(self):
        cfg = ProtocolConfig(threshold=0.0, tick_ms=100, min_send_interval_ms=250)
        # Accelerating motion so the constant-velocity prediction always lags.
        sent = run_sender(cfg, [vec(k * k) for k in range(10)])
        # Allowed again once 250 ms have passed since the last snapshot.
        assert [dr.t_sent for dr in sent] == [0, 300, 600, 900]

    def test_lower_threshold_sends_at_least_as_much(self):
        rng = random.Random(5)
        positions = []
        p = 0.0
        for _ in range(300):
            p += rng.uniform(-1, 1)
            positions.append(vec(p, 0, 0))
        counts = []
        for threshold in (0.0, 0.25, 1.0, 4.0):
            cfg = ProtocolConfig(threshold=threshold, tick_ms=100)
            counts.append(len(run_sender(cfg, positions)))
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 300  # zero threshold resends every tick

    def test_seq_numbers_are_contiguous(self):
        cfg = ProtocolConfig(threshold=0.1, tick_ms=100)
        rng = random.Random(9)
        positions = [vec(rng.uniform(0, 10)) for _ in range(200)]
        sent = run_sender(cfg, positions)
        assert [dr.seq for dr in sent] == list(range(1, len(sent) + 1))


def dr_at(seq, t_sent=0, pos=None, vel=None):
    return DRVector(
        entity_id="e",
        seq=seq,
        t_sent=t_sent,
        position=pos or ZERO,
        velocity=vel or ZERO,
    )


class TestReceiver:
    def test_empty_receiver_renders_none(self):
        assert render_position(ReceiverState(), 1000) is None

    def test_newest_wins(self):
        state = ReceiverState()
        assert receiver_apply(state, dr_at(2)) is True
        assert receiver_apply(state, dr_at(1)) is False
        assert state.latest.seq == 2
        assert state.stale_dropped == 1

    def test_duplicate_is_stale(self):
        state = ReceiverState()
        receiver_apply(state, dr_at(3))
        assert receiver_apply(state, dr_at(3)) is False
        assert state.stale_dropped == 1

    def test_render_extrapolates(self):
        state = ReceiverState()
        receiver_apply(state, dr_at(1, t_sent=1000, pos=vec(1), vel=vec(2)))
        assert render_position(state, 1500) == vec(2.0)

    def test_render_clamps_before_send_time(self):
        # A snapshot from the future renders at its own timestamp, never
        # extrapolated backwards.
        state = ReceiverState()
        receiver_apply(state, dr_at(1, t_sent=1000, pos=vec(1), vel=vec(2)))
        assert render_position(state, 200) == vec(1.0)

    @given(st.permutations(list(range(1, 9))))
    @settings(derandomize=True, max_examples=40)
    def test_any_arrival_order_keeps_max_seq(self, order):
        state = ReceiverState()
        seen_max = 0
        stale = 0
        for seq in order:
            applied = receiver_apply(state, dr_at(seq, t_sent=seq * 10))
            if seq > seen_max:
                assert applied
                seen_max = seq
            else:
                assert not applied
                stale += 1
        assert state.latest.seq == 8
        assert state.stale_dropped == stale


class TestExportError:
    def test_hand_example(self):
        true_series = [(0, vec(0)), (100, vec(1)), (200, vec(2))]
        rendered = [(0, None), (100, vec(1, 1, 0)), (200, vec(2))]
        report = compute_export_error(true_series, rendered)
        assert report.warmup_ticks == 1
        assert report.samples_count == 2
        assert [e for _, e in report.series] == [None, 1.0, 0.0]
        assert report.mean == 0.5
        assert report.max == 1.0
        assert report.p95 == 1.0

    def test_all_warmup_gives_no_aggregates(self):
        true_series = [(0, vec(0)), (100, vec(1))]
        rendered = [(0, None), (100, None)]
        report = compute_export_error(true_series, rendered)
        assert report.samples_count == 0
        assert report.warmup_ticks == 2
        assert report.mean is None and report.max is None and report.p95 is None

    def test_series_must_align(self):
        with pytest.raises(ValueError):
            compute_export_error([(0, vec(0))], [(0, None), (100, None)])
        with pytest.raises(ValueError):
            compute_export_error([(0, vec(0))], [(50, vec(0))])

    def test_percentile_is_nearest_rank(self):
        values = [float(v) for v in range(1, 21)]
        assert nearest_rank(values, 0.95) == 19.0  # ceil(0.95 * 20) = 19
        values = [float(v) for v in range(1, 22)]
        assert nearest_rank(values, 0.95) == 20.0  # ceil(0.95 * 21) = 20
        assert nearest_rank([7.0], 0.95) == 7.0

    def test_percentile_order_independent(self):
        rng = random.Random(3)
        values = [rng.uniform(0, 50) for _ in range(101)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        p95 = nearest_rank(sorted(values), 0.95)
        assert nearest_rank(sorted(shuffled), 0.95) == p95
        assert p95 == sorted(values)[95]  # rank 96 of 101

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(derandomize=True, max_examples=60)
    def test_aggregates_are_those_of_the_sorted_errors(self, errors):
        # One tick each, at the origin, rendered `error` away along x.
        truth = [(10 * k, ZERO) for k in range(len(errors))]
        rendered = [(10 * k, vec(e)) for k, e in enumerate(errors)]
        report = compute_export_error(truth, rendered)
        errors = [e for _, e in report.series]  # a tiny error squares to 0
        assert report.p95 == nearest_rank(sorted(errors), 0.95)
        assert report.max == max(errors)
        assert report.mean == math.fsum(errors) / len(errors)
        assert all(type(v) is float for v in (report.mean, report.max, report.p95))

    def test_mean_uses_exact_summation(self):
        # fsum keeps the mean stable no matter how the terms are ordered.
        true_series = [(k * 10, vec(0)) for k in range(1000)]
        rendered = [(k * 10, vec(0.1)) for k in range(1000)]
        report = compute_export_error(true_series, rendered)
        assert report.mean == math.fsum([0.1] * 1000) / 1000

    def test_csv_blank_error_means_warmup(self, tmp_path):
        true_series = [(0, vec(0)), (100, vec(1))]
        rendered = [(0, None), (100, vec(1.5))]
        report = compute_export_error(true_series, rendered, entity_id="p7")
        path = tmp_path / "err.csv"
        write_export_error_csv(report, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0] == {"t_ms": "0", "entity_id": "p7", "error": ""}
        assert rows[1]["error"] == repr(0.5)

    def test_report_is_frozen_snapshot(self):
        # One warm-up tick and no error: the aggregates are None.
        report = ExportErrorReport("e", [0], [])
        assert report.entity_id == "e"
        assert (report.samples_count, report.warmup_ticks) == (0, 1)
        assert (report.mean, report.max, report.p95) == (None, None, None)
        assert report.series == [(0, None)]

    def test_report_needs_a_tick_for_each_error(self):
        with pytest.raises(ValueError, match="^2 errors for 1 ticks$"):
            ExportErrorReport("e", [0], [0.5, 0.5])
