import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsync import netsim
from drsync.netsim import (
    MAX_RETRANSMISSIONS,
    ChannelConfig,
    DejitterConfig,
    Deliveries,
    DeliveryEvent,
    LatePolicy,
    ReliableOrdered,
    channel_transmit,
    dejitter_deliver,
    draw,
    read_delivery_csv,
    reliable_run,
    unreliable_run,
    write_delivery_csv,
)
from drsync.rng import mix64, mix64_array, mt_first_words, substream

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
        with pytest.raises(ValueError, match=">= 0"):
            unreliable_run(chan(), DejitterConfig(), [(1, -5)])


class TestTransmissionRng:
    def test_same_triple_same_stream(self):
        assert substream(7, 3, 1).random() == substream(7, 3, 1).random()

    def test_any_coordinate_changes_the_stream(self):
        base = substream(7, 3, 1).random()
        assert substream(8, 3, 1).random() != base
        assert substream(7, 4, 1).random() != base
        assert substream(7, 3, 2).random() != base

    def test_draw_order_is_loss_then_jitter(self):
        cfg = chan(base=10, jitter=30, loss=0.0, seed=12)
        rng = substream(cfg.seed, 1, 0)
        arrive = channel_transmit(cfg, rng, send_ms=100)
        reference = substream(cfg.seed, 1, 0)
        reference.random()  # loss draw happens even at loss_rate 0
        expected_jitter = reference.randint(0, 30)
        assert arrive == 110 + expected_jitter


# --- the transports' draws equal the reference ------------------------------

def reference_arrival(cfg, seq, send_ms, rto_ms, retries):
    """Arrival and retransmissions of one packet, one generator per attempt."""
    for attempt in range(retries + 1):
        arrive = channel_transmit(
            cfg, substream(cfg.seed, seq, attempt), send_ms + attempt * rto_ms
        )
        if arrive is not None:
            return arrive, attempt
    return None, retries


def reference_reliable(cfg, rto_ms, sends):
    events, prev_deliver = [], 0
    for seq, send_ms in sends:
        arrive, retransmissions = reference_arrival(
            cfg, seq, send_ms, rto_ms, MAX_RETRANSMISSIONS
        )
        deliver = None
        if arrive is not None:
            deliver = prev_deliver = max(arrive, prev_deliver)
        events.append(
            DeliveryEvent(seq, send_ms, arrive, deliver, False, retransmissions)
        )
    return events


def reference_unreliable(cfg, dejitter, sends):
    events = []
    for seq, send_ms in sends:
        arrive, _ = reference_arrival(cfg, seq, send_ms, 0, 0)
        deliver, late = None, False
        if arrive is not None:
            slot = dejitter_deliver(dejitter, cfg.base_latency_ms, send_ms, arrive)
            deliver, late = (None, True) if slot is None else slot
        events.append(DeliveryEvent(seq, send_ms, arrive, deliver, late, 0))
    return events


def reference_delays(cfg, seqs, attempt):
    """Each seq's delay on ``attempt``, or -1 if lost, one generator each."""
    arrivals = [
        channel_transmit(cfg, substream(cfg.seed, seq, attempt), 0) for seq in seqs
    ]
    return [-1 if arrive is None else arrive for arrive in arrivals]


JITTERS = [0, 1, 40, 2**32 - 1, 2**32, 2**40]

channels = st.builds(
    ChannelConfig,
    # 2**62 leaves int64 room for the delay, not for 2**70 retransmissions.
    base_latency_ms=st.one_of(st.integers(0, 300), st.sampled_from([2**62, 2**70])),
    jitter_max_ms=st.one_of(st.sampled_from(JITTERS), st.integers(0, 1000)),
    loss_rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**64 - 1),
)
send_lists = st.lists(st.integers(0, 60), max_size=30).map(
    lambda gaps: [(i, t) for i, t in enumerate(np.cumsum(gaps).tolist(), start=1)]
)


@settings(max_examples=150, deadline=None, derandomize=True)
@example(
    cfg=chan(base=10, jitter=2**32, loss=0.5, seed=2**64 - 1),
    sends=THREE_SENDS,
    rto_ms=200,
    playout=30,
    policy=LatePolicy.DROP,
    min_keys=0,
)
@example(
    cfg=chan(base=2**62, jitter=40, loss=0.9, seed=3),
    sends=THREE_SENDS,
    rto_ms=2**70,
    playout=2**63,
    policy=LatePolicy.DELIVER_LATE,
    min_keys=10**9,
)
@given(
    cfg=channels,
    sends=send_lists,
    rto_ms=st.one_of(st.integers(1, 500), st.just(2**70)),
    playout=st.one_of(st.integers(0, 200), st.just(2**63)),
    policy=st.sampled_from(list(LatePolicy)),
    # 0 puts every draw, down to a round of one key, past the crossover.
    min_keys=st.sampled_from([0, 10**9]),
)
def test_transports_draw_as_one_generator_per_transmission(
    cfg, sends, rto_ms, playout, policy, min_keys
):
    seqs = [seq for seq, _ in sends]
    with mock.patch.object(netsim, "BATCH_MIN_KEYS", min_keys):
        [first] = draw([(cfg, np.array(seqs))], 0)
        assert first.tolist() == reference_delays(cfg, seqs, 0)
        transport = ReliableOrdered(rto_ms=rto_ms)
        reliable = reliable_run(cfg, transport, sends)
        dejitter = DejitterConfig(playout_delay_ms=playout, late_policy=policy)
        unreliable = unreliable_run(cfg, dejitter, sends)
    assert reliable == reference_reliable(cfg, rto_ms, sends)
    assert unreliable == reference_unreliable(cfg, dejitter, sends)


batch_channels = st.builds(
    ChannelConfig,
    base_latency_ms=st.sampled_from([0, 100, 2**70]),
    jitter_max_ms=st.one_of(
        st.sampled_from([0, 1, 40, 2**31, 2**32 - 2, 2**32 - 1, 2**40]),
        st.integers(0, 1000),
    ),
    loss_rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**64 - 1),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    runs=st.lists(
        st.tuples(
            batch_channels, st.lists(st.integers(1, 2**40), max_size=30, unique=True)
        ),
        min_size=1,
        max_size=3,
    ),
    attempt=st.sampled_from([0, 1, MAX_RETRANSMISSIONS]),
    min_keys=st.sampled_from([0, 10**9]),
    # With 3 words a jitter gets one try, so many run out of words.
    words=st.sampled_from([3, 8]),
    chunk=st.sampled_from([7, 2**15]),
)
def test_batched_draws_equal_channel_transmit(runs, attempt, min_keys, words, chunk):
    # min_keys 0 puts every batch past the crossover, 10**9 none.
    with mock.patch.multiple(
        netsim, BATCH_MIN_KEYS=min_keys, _FIRST_WORDS=words, _CHUNK_KEYS=chunk
    ):
        batched = draw([(cfg, np.array(seqs, np.int64)) for cfg, seqs in runs], attempt)
    assert [delays.tolist() for delays in batched] == [
        reference_delays(cfg, seqs, attempt) for cfg, seqs in runs
    ]


def test_a_jitter_rejected_in_every_word_is_drawn_again():
    # At jitter_max_ms 0 a try is rejected when its word's top bit is set.
    cfg = chan(jitter=0, seed=21)
    seqs = np.arange(1, 501)
    keys = mix64_array(cfg.seed, seqs, 0)
    tries = mt_first_words(keys, netsim._FIRST_WORDS)[2:]
    assert (tries >> 31).all(axis=0).any()
    with mock.patch.object(netsim, "BATCH_MIN_KEYS", 0):
        [delays] = draw([(cfg, seqs)], 0)
    assert delays.tolist() == reference_delays(cfg, seqs.tolist(), 0)


def test_the_batched_loss_draw_is_random_to_the_last_bit():
    # A packet is lost when random() < loss_rate, so a loss rate at its
    # random() keeps it and the next float up loses it.
    seqs = np.arange(1, 65)
    with mock.patch.object(netsim, "BATCH_MIN_KEYS", 0):
        for seq in (1, 64):
            u = substream(5, seq, 0).random()
            for loss, lost in ((u, False), (math.nextafter(u, 1.0), True)):
                [delays] = draw([(chan(loss=loss, seed=5), seqs)], 0)
                assert (delays[seq - 1] < 0) == lost


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    parts=st.lists(
        st.one_of(
            st.integers(0, 2**64 - 1),
            st.integers(2**64, 2**100),
            st.lists(st.integers(0, 2**63 - 1), min_size=5, max_size=5),
        ),
        max_size=4,
    )
)
def test_vectorized_mix64_equals_the_scalar_one(parts):
    arrays = [np.array(p, dtype=np.int64) if isinstance(p, list) else p for p in parts]
    mixed = mix64_array(*arrays)
    for i in range(5 if any(isinstance(p, list) for p in parts) else 1):
        scalars = [p[i] if isinstance(p, list) else p for p in parts]
        assert int(mixed.flat[i]) == mix64(*scalars)


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
        send_ms = np.arange(1, 101) * 25
        dejitter = DejitterConfig(playout_delay_ms=30)
        transport = ReliableOrdered(rto_ms=40)
        # A base of 2**70 puts every time past int64, into Python ints.
        for base in (20, 2**70):
            cfg = chan(base=base, jitter=70, loss=0.4, seed=99)
            [first] = draw([(cfg, np.arange(1, 101))], 0)
            for deliveries in (
                netsim.unreliable(cfg, dejitter, send_ms, first),
                netsim.reliable(cfg, transport, send_ms, first),
            ):
                path = tmp_path / "d.csv"
                write_delivery_csv(deliveries, str(path))
                assert read_delivery_csv(str(path)) == deliveries.events()

    def test_none_fields_round_trip(self, tmp_path):
        deliveries = Deliveries(
            send_ms=np.array([0, 10]),
            arrive_ms=np.array([-1, 55]),
            deliver_ms=np.array([-1, -1]),
            late=np.array([False, True]),
            retransmissions=np.array([0, 0]),
        )
        path = tmp_path / "d.csv"
        write_delivery_csv(deliveries, str(path))
        assert path.read_text().splitlines() == [
            "seq,send_ms,arrive_ms,deliver_ms,late,retransmissions",
            "1,0,,,false,0",
            "2,10,55,,true,0",
        ]
        assert read_delivery_csv(str(path)) == deliveries.events() == [
            DeliveryEvent(seq=1, send_ms=0, arrive_ms=None, deliver_ms=None,
                          late=False, retransmissions=0),
            DeliveryEvent(seq=2, send_ms=10, arrive_ms=55, deliver_ms=None,
                          late=True, retransmissions=0),
        ]
