import pytest

from drsync.netsim import (
    MAX_RETRANSMISSIONS,
    ChannelConfig,
    DejitterConfig,
    DeliveryEvent,
    LatePolicy,
    ReliableOrdered,
    channel_transmit,
    dejitter_deliver,
    read_delivery_csv,
    reliable_run,
    transmission_rng,
    unreliable_run,
    write_delivery_csv,
)

THREE_SENDS = [(1, 0), (2, 100), (3, 200)]


def chan(base=50, jitter=0, loss=0.0, seed=0):
    return ChannelConfig(
        base_latency_ms=base, jitter_max_ms=jitter, loss_rate=loss, seed=seed
    )


class TestConfigValidation:
    def test_channel_bounds(self):
        with pytest.raises(ValueError):
            chan(base=-1)
        with pytest.raises(ValueError):
            chan(jitter=-1)
        with pytest.raises(ValueError):
            chan(loss=-0.01)
        with pytest.raises(ValueError):
            chan(loss=1.01)
        with pytest.raises(ValueError):
            ChannelConfig(base_latency_ms=0, jitter_max_ms=0, loss_rate=0.0, seed=-1)

    def test_transport_bounds(self):
        with pytest.raises(ValueError):
            ReliableOrdered(rto_ms=0)
        with pytest.raises(ValueError):
            DejitterConfig(playout_delay_ms=-1)

    def test_sends_must_be_contiguous(self):
        with pytest.raises(ValueError):
            reliable_run(chan(), ReliableOrdered(rto_ms=100), [(1, 0), (3, 100)])
        with pytest.raises(ValueError):
            reliable_run(chan(), ReliableOrdered(rto_ms=100), [(2, 0)])

    def test_send_times_must_not_go_backwards(self):
        with pytest.raises(ValueError):
            unreliable_run(chan(), DejitterConfig(playout_delay_ms=0), [(1, 100), (2, 50)])


class TestTransmissionRng:
    def test_same_triple_same_stream(self):
        assert transmission_rng(7, 3, 1).random() == transmission_rng(7, 3, 1).random()

    def test_any_coordinate_changes_the_stream(self):
        base = transmission_rng(7, 3, 1).random()
        assert transmission_rng(8, 3, 1).random() != base
        assert transmission_rng(7, 4, 1).random() != base
        assert transmission_rng(7, 3, 2).random() != base

    def test_draw_order_is_loss_then_jitter(self):
        cfg = chan(base=10, jitter=30, loss=0.0, seed=12)
        rng = transmission_rng(cfg.seed, 1, 0)
        arrive = channel_transmit(cfg, rng, send_ms=100)
        reference = transmission_rng(cfg.seed, 1, 0)
        reference.random()  # loss draw happens even at loss_rate 0
        expected_jitter = reference.randint(0, 30)
        assert arrive == 110 + expected_jitter


class TestHandWorkedDeliveries:
    """Frozen seeds whose loss patterns reproduce worked examples."""

    def test_reliable_single_loss_blocks_follower(self):
        # Seed 37 at 50% loss drops exactly the first copy of packet 2.
        # Retransmit goes out at 100+200, lands at 350; packet 3 arrived at
        # 250 but must wait for packet 2: ordered delivery, both at 350.
        events = reliable_run(chan(seed=37, loss=0.5), ReliableOrdered(rto_ms=200), THREE_SENDS)
        assert [(e.seq, e.arrive_ms, e.deliver_ms, e.retransmissions) for e in events] == [
            (1, 50, 50, 0),
            (2, 350, 350, 1),
            (3, 250, 350, 0),
        ]
        assert all(not e.late for e in events)

    def test_reliable_given_up_packet_holds_nothing_back(self):
        # Seed 16 at 90% loss loses all 16 copies of packet 2.  Packet 3
        # arrived at 250 and is released then; nothing waits for packet 2.
        events = reliable_run(chan(seed=16, loss=0.9), ReliableOrdered(rto_ms=100), THREE_SENDS)
        assert [(e.seq, e.arrive_ms, e.deliver_ms, e.retransmissions) for e in events] == [
            (1, 150, 150, 1),
            (2, None, None, MAX_RETRANSMISSIONS),
            (3, 250, 250, 0),
        ]

    def test_reliable_double_loss(self):
        # Seed 0 drops packet 2 twice; second retransmit at 500 lands at 550.
        events = reliable_run(chan(seed=0, loss=0.5), ReliableOrdered(rto_ms=200), THREE_SENDS)
        assert [(e.seq, e.arrive_ms, e.deliver_ms, e.retransmissions) for e in events] == [
            (1, 50, 50, 0),
            (2, 550, 550, 2),
            (3, 250, 550, 0),
        ]

    def test_unreliable_same_loss_pattern_drops_instead(self):
        # Same seed 37: first attempts match the reliable run exactly, so
        # packet 2 is simply gone while 1 and 3 play out after 30 ms.
        events = unreliable_run(chan(seed=37, loss=0.5), DejitterConfig(playout_delay_ms=30), THREE_SENDS)
        assert [(e.seq, e.arrive_ms, e.deliver_ms, e.late) for e in events] == [
            (1, 50, 80, False),
            (2, None, None, False),
            (3, 250, 280, False),
        ]

    def test_late_packet_delivered_late(self):
        # Seed 6 with jitter up to 100: packet 2 misses its 30 ms playout
        # point and is handed over immediately on arrival, flagged late.
        events = unreliable_run(chan(seed=6, jitter=100), DejitterConfig(playout_delay_ms=30), THREE_SENDS)
        assert [(e.seq, e.arrive_ms, e.deliver_ms, e.late) for e in events] == [
            (1, 79, 80, False),
            (2, 240, 240, True),
            (3, 279, 280, False),
        ]

    def test_late_packet_dropped_under_drop_policy(self):
        cfg = DejitterConfig(playout_delay_ms=30, late_policy=LatePolicy.DROP)
        events = unreliable_run(chan(seed=6, jitter=100), cfg, THREE_SENDS)
        assert events[1].arrive_ms == 240
        assert events[1].deliver_ms is None
        assert events[1].late is True
        assert events[0].deliver_ms == 80 and events[2].deliver_ms == 280


class TestChannelBehavior:
    def test_lossless_channel_is_exact(self):
        sends = [(i, i * 20) for i in range(1, 51)]
        events = unreliable_run(chan(base=40), DejitterConfig(playout_delay_ms=0), sends)
        assert all(e.arrive_ms == e.send_ms + 40 for e in events)
        assert all(e.deliver_ms == e.arrive_ms for e in events)
        assert all(not e.late and e.retransmissions == 0 for e in events)

    def test_jitter_stays_in_range(self):
        sends = [(i, i * 10) for i in range(1, 201)]
        events = unreliable_run(chan(base=30, jitter=25, seed=3), DejitterConfig(playout_delay_ms=25), sends)
        for e in events:
            assert 30 <= e.arrive_ms - e.send_ms <= 55

    def test_total_loss_unreliable(self):
        events = unreliable_run(chan(loss=1.0), DejitterConfig(playout_delay_ms=0), THREE_SENDS)
        assert all(e.arrive_ms is None and e.deliver_ms is None for e in events)

    def test_total_loss_reliable_gives_up(self):
        # Every packet is given up after MAX_RETRANSMISSIONS (15) retries.
        events = reliable_run(chan(loss=1.0), ReliableOrdered(rto_ms=100), THREE_SENDS)
        assert MAX_RETRANSMISSIONS == 15
        assert [(e.arrive_ms, e.deliver_ms, e.late, e.retransmissions) for e in events] == [
            (None, None, False, 15)
        ] * 3

    def test_runs_are_deterministic(self):
        cfg = chan(base=20, jitter=60, loss=0.3, seed=1234)
        sends = [(i, i * 15) for i in range(1, 301)]
        a = unreliable_run(cfg, DejitterConfig(playout_delay_ms=50), sends)
        b = unreliable_run(cfg, DejitterConfig(playout_delay_ms=50), sends)
        assert a == b
        ra = reliable_run(cfg, ReliableOrdered(rto_ms=120), sends)
        rb = reliable_run(cfg, ReliableOrdered(rto_ms=120), sends)
        assert ra == rb

    def test_reliable_delivery_is_ordered(self):
        cfg = chan(base=25, jitter=90, loss=0.25, seed=88)
        sends = [(i, i * 30) for i in range(1, 201)]
        events = reliable_run(cfg, ReliableOrdered(rto_ms=150), sends)
        delivers = [e.deliver_ms for e in events]
        assert delivers == sorted(delivers)
        assert all(e.deliver_ms >= e.arrive_ms for e in events)

    def test_first_attempts_match_across_transports(self):
        # Impairments are a function of (seed, seq, attempt), so both
        # transports see identical first-attempt fates: a packet the
        # unreliable run lost is exactly one the reliable run retransmitted.
        cfg = chan(base=25, jitter=40, loss=0.3, seed=4242)
        sends = [(i, i * 30) for i in range(1, 301)]
        unrel = unreliable_run(cfg, DejitterConfig(playout_delay_ms=40), sends)
        rel = reliable_run(cfg, ReliableOrdered(rto_ms=200), sends)
        for u, r in zip(unrel, rel):
            if u.arrive_ms is None:
                assert r.retransmissions >= 1
            else:
                assert r.retransmissions == 0
                assert r.arrive_ms == u.arrive_ms

    def test_dejitter_deliver_function(self):
        cfg = DejitterConfig(playout_delay_ms=50)
        assert dejitter_deliver(cfg, base_latency_ms=100, send_ms=0, arrive_ms=120) == (150, False)
        assert dejitter_deliver(cfg, base_latency_ms=100, send_ms=0, arrive_ms=150) == (150, False)
        assert dejitter_deliver(cfg, base_latency_ms=100, send_ms=0, arrive_ms=151) == (151, True)
        dropping = DejitterConfig(playout_delay_ms=50, late_policy=LatePolicy.DROP)
        assert dejitter_deliver(dropping, base_latency_ms=100, send_ms=0, arrive_ms=151) is None


class TestDeliveryCsv:
    def test_round_trip_preserves_everything(self, tmp_path):
        cfg = chan(base=20, jitter=70, loss=0.4, seed=99)
        sends = [(i, i * 25) for i in range(1, 101)]
        events = unreliable_run(cfg, DejitterConfig(playout_delay_ms=30), sends)
        path = tmp_path / "d.csv"
        write_delivery_csv(events, str(path))
        assert read_delivery_csv(str(path)) == events

    def test_none_fields_round_trip(self, tmp_path):
        events = [
            DeliveryEvent(seq=1, send_ms=0, arrive_ms=None, deliver_ms=None,
                          late=False, retransmissions=0),
            DeliveryEvent(seq=2, send_ms=10, arrive_ms=55, deliver_ms=None,
                          late=True, retransmissions=0),
        ]
        path = tmp_path / "d.csv"
        write_delivery_csv(events, str(path))
        text = path.read_text()
        assert text.splitlines()[0] == "seq,send_ms,arrive_ms,deliver_ms,late,retransmissions"
        assert read_delivery_csv(str(path)) == events
