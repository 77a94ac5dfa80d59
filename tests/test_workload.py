import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from operator import itemgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drsync import spec, workload
from drsync.rng import TAG_CLIENT, TAG_EVENTS, TAG_SERVER, substream
from drsync.workload import (
    BurstModel,
    Direction,
    GlobalEventModel,
    PayloadSizeDist,
    Trace,
    WorkloadProfile,
    generate_trace,
    preset,
    preset_names,
    profile_from_dict,
    profile_from_json,
    profile_to_dict,
    profile_to_json,
    read_trace_csv,
    write_trace_csv,
)

C2S, S2C = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
NO_ACKS = 10**9  # first ack would need a billion packets


def without_bursts_and_events(profile: WorkloadProfile) -> WorkloadProfile:
    """Copy of ``profile`` with the activity machine and global events disabled."""
    return replace(
        profile,
        burst=replace(profile.burst, p_enter=0.0, p_exit=0.0),
        global_event=GlobalEventModel(),
    )


def steady_profile(tick=100, ack_every_n=NO_ACKS, **kw) -> WorkloadProfile:
    """Always-on, one fixed-size packet per tick per direction."""
    return WorkloadProfile(
        tick_period_ms=tick,
        payload_size_dist=PayloadSizeDist(body=((10, 1.0),)),
        ack_every_n=ack_every_n,
        **kw,
    )


def trace_from_rows(rows):
    """A Trace of ``(t_ms, conn_id, direction, payload_bytes, header_bytes,
    is_ack)`` rows, its connections numbered in order of first appearance."""
    ids = {}
    conn = [ids.setdefault(row[1], len(ids)) for row in rows]
    direction = [list(Direction).index(row[2]) for row in rows]
    t, _, _, payload, header, is_ack = zip(*rows) if rows else [()] * 6
    return Trace(t, conn, ids, direction, payload, header, is_ack)


def packets(trace, direction=None, is_ack=None, t_ms=None):
    out = trace
    if direction is not None:
        out = [r for r in out if r.direction is direction]
    if is_ack is not None:
        out = [r for r in out if r.is_ack is is_ack]
    if t_ms is not None:
        out = [r for r in out if r.t_ms == t_ms]
    return out


class TestPayloadSizeDist:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PayloadSizeDist(body=((10, 0.5),))
        with pytest.raises(ValueError):
            PayloadSizeDist(body=((10, 0.9),), tail_prob=0.2)

    def test_tail_range_validated_when_used(self):
        with pytest.raises(ValueError):
            PayloadSizeDist(body=((10, 0.8),), tail_prob=0.2, tail_range=(50, 40))
        # An unused tail range is allowed to be the (0, 0) placeholder.
        PayloadSizeDist(body=((10, 1.0),), tail_prob=0.0)

    def test_mean(self):
        dist = PayloadSizeDist(body=((10, 0.5), (20, 0.5)))
        assert dist.mean() == 15.0
        tailed = PayloadSizeDist(body=((10, 0.8),), tail_prob=0.2, tail_range=(100, 200))
        assert tailed.mean() == 8.0 + 0.2 * 150.0

    def test_samples_stay_in_support(self):
        dist = PayloadSizeDist(body=((10, 0.8),), tail_prob=0.2, tail_range=(100, 200))
        rng = random.Random(1)
        draws = [sample_size(dist, rng) for _ in range(5000)]
        assert all(v == 10 or 100 <= v <= 200 for v in draws)
        tail_fraction = sum(v != 10 for v in draws) / len(draws)
        assert 0.17 <= tail_fraction <= 0.23

    def test_draw_past_the_rounded_sum_takes_the_last_size(self):
        # The probabilities sum to 1.0 exactly, but adding them in order ends
        # at 0.9999999999999999, below the largest draw random() can return.
        dist = PayloadSizeDist(body=tuple((size, 0.1) for size in range(1, 11)))

        class LargestDraw:
            def random(self):
                return 1 - 2**-53

        assert sample_size(dist, LargestDraw()) == 10

    def test_model_validation(self):
        with pytest.raises(ValueError):
            BurstModel(p_enter=1.5)
        with pytest.raises(ValueError):
            BurstModel(rate_multiplier=-1)
        with pytest.raises(ValueError):
            GlobalEventModel(period_ms=-1)
        with pytest.raises(ValueError):
            WorkloadProfile(
                tick_period_ms=0, payload_size_dist=PayloadSizeDist(body=((1, 1.0),))
            )
        with pytest.raises(ValueError):
            WorkloadProfile(
                tick_period_ms=100,
                payload_size_dist=PayloadSizeDist(body=((1, 1.0),)),
                ack_every_n=0,
            )


class TestGenerateTrace:
    def test_argument_validation(self):
        profile = steady_profile()
        with pytest.raises(ValueError):
            generate_trace(profile, n_clients=-1, duration_ms=1000, seed=0)
        with pytest.raises(ValueError):
            generate_trace(profile, n_clients=1, duration_ms=99, seed=0)
        assert len(generate_trace(profile, n_clients=0, duration_ms=1000, seed=0)) == 0

    def test_seed_must_be_below_2_to_the_64(self):
        # mix64 masks a seed to 64 bits, so -5 would draw seed 2**64 - 5.
        profile = steady_profile()
        for seed in (0, 2**64 - 1):
            assert len(generate_trace(profile, 1, 1000, seed)) > 0
        for seed in (-1, -5, 2**64):
            with pytest.raises(ValueError) as exc_info:
                generate_trace(profile, 1, 1000, seed)
            assert str(exc_info.value) == f"seed: must be in [0, {2**64 - 1}], got {seed}"

    def test_always_on_profile_is_exactly_periodic(self):
        trace = generate_trace(steady_profile(), n_clients=1, duration_ms=3000, seed=4)
        c2s = packets(trace, Direction.CLIENT_TO_SERVER)
        s2c = packets(trace, Direction.SERVER_TO_CLIENT)
        assert [r.t_ms for r in c2s] == list(range(0, 3000, 100))
        assert [r.t_ms for r in s2c] == list(range(0, 3000, 100))
        assert all(r.payload_bytes == 10 and not r.is_ack for r in trace)

    def test_trace_is_time_sorted(self):
        trace = generate_trace(preset("mmorpg"), n_clients=4, duration_ms=20_000, seed=3)
        times = [r.t_ms for r in trace]
        assert times == sorted(times)

    def test_same_seed_reproduces(self):
        profile = preset("mmorpg")
        a = generate_trace(profile, n_clients=3, duration_ms=30_000, seed=11)
        b = generate_trace(profile, n_clients=3, duration_ms=30_000, seed=11)
        assert list(a) == list(b)
        c = generate_trace(profile, n_clients=3, duration_ms=30_000, seed=12)
        assert list(a) != list(c)

    def test_clients_are_independent_substreams(self):
        # Adding a second client must not disturb the first one's packets.
        profile = preset("mmorpg")
        solo = generate_trace(profile, n_clients=1, duration_ms=20_000, seed=5)
        pair = generate_trace(profile, n_clients=2, duration_ms=20_000, seed=5)
        assert [r for r in pair if r.conn_id == "c0000"] == list(solo)

    def test_global_event_adds_exactly_one_send(self):
        profile = steady_profile(
            global_event=GlobalEventModel(period_ms=1000, participation=1.0)
        )
        trace = generate_trace(profile, n_clients=1, duration_ms=3000, seed=2)
        c2s = packets(trace, Direction.CLIENT_TO_SERVER)
        for t in range(0, 3000, 100):
            expect = 2 if t in (1000, 2000) else 1
            assert len(packets(c2s, t_ms=t)) == expect
        # Server traffic does not join the crowd.
        assert all(
            len(packets(trace, Direction.SERVER_TO_CLIENT, t_ms=t)) == 1
            for t in range(0, 3000, 100)
        )

    def test_event_times_snap_to_next_tick(self):
        profile = steady_profile(
            global_event=GlobalEventModel(period_ms=250, participation=1.0)
        )
        trace = generate_trace(profile, n_clients=1, duration_ms=1100, seed=2)
        c2s = packets(trace, Direction.CLIENT_TO_SERVER)
        doubled = [t for t in range(0, 1100, 100) if len(packets(c2s, t_ms=t)) == 2]
        # Events at 250, 500, 750, 1000 ms land on ticks 300, 500, 800, 1000.
        assert doubled == [300, 500, 800, 1000]

    def test_acks_pair_with_data(self):
        profile = steady_profile(ack_every_n=2)
        trace = generate_trace(profile, n_clients=1, duration_ms=2000, seed=8)
        c2s_data = packets(trace, Direction.CLIENT_TO_SERVER, is_ack=False)
        s2c_acks = packets(trace, Direction.SERVER_TO_CLIENT, is_ack=True)
        assert len(c2s_data) == 20
        assert len(s2c_acks) == 10
        # Every 2nd data packet is acknowledged in the same tick, reverse way.
        assert [r.t_ms for r in s2c_acks] == [r.t_ms for r in c2s_data[1::2]]
        assert all(r.payload_bytes == 0 and r.header_bytes == 40 for r in s2c_acks)
        # Symmetric for server data acked by the client.
        s2c_data = packets(trace, Direction.SERVER_TO_CLIENT, is_ack=False)
        c2s_acks = packets(trace, Direction.CLIENT_TO_SERVER, is_ack=True)
        assert len(c2s_acks) == len(s2c_data) // 2

    def test_burst_machine_duty_cycle(self):
        # p_enter 0.15 / p_exit 0.01 gives ON duty 0.15/0.16 = 0.9375.
        profile = steady_profile(
            tick=10, burst=BurstModel(p_enter=0.15, p_exit=0.01, rate_multiplier=1.0)
        )
        trace = generate_trace(profile, n_clients=1, duration_ms=300_000, seed=21)
        data = packets(trace, Direction.CLIENT_TO_SERVER, is_ack=False)
        duty = len(data) / 30_000
        assert abs(duty - 0.9375) < 0.02

    def test_fractional_rate_multiplier(self):
        profile = steady_profile(
            tick=10, burst=BurstModel(p_enter=0.0, p_exit=0.0, rate_multiplier=2.5)
        )
        trace = generate_trace(profile, n_clients=1, duration_ms=200_000, seed=6)
        data = packets(trace, Direction.CLIENT_TO_SERVER, is_ack=False)
        per_tick = len(data) / 20_000
        assert abs(per_tick - 2.5) < 0.05

    def test_server_rate_scales_with_nearby_characters(self):
        profile = steady_profile(server_scale_range=(3.0, 3.0))
        trace = generate_trace(profile, n_clients=1, duration_ms=50_000, seed=9)
        c2s = packets(trace, Direction.CLIENT_TO_SERVER, is_ack=False)
        s2c = packets(trace, Direction.SERVER_TO_CLIENT, is_ack=False)
        assert len(c2s) == 500
        assert len(s2c) == 1500  # deterministic: multiplier 3.0 exactly

    def test_without_bursts_and_events(self):
        cleaned = without_bursts_and_events(preset("mmorpg"))
        assert cleaned.burst.p_enter == 0.0
        assert cleaned.global_event.period_ms == 0
        assert cleaned.tick_period_ms == preset("mmorpg").tick_period_ms


def event_ticks_by_event(period_ms, tick, duration_ms):
    """The event ticks as the generator first found them, one step per event."""
    ticks, e = set(), period_ms
    while e < duration_ms:
        ticks.add(-(-e // tick))  # the next tick boundary
        e += period_ms
    return ticks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    tick=st.one_of(st.integers(1, 50), st.integers(1, 10**12)),
    period_ms=st.one_of(st.integers(1, 50), st.integers(1, 10**13)),
    n_ticks=st.integers(1, 200),
    extra=st.integers(0, 10**12),
)
def test_event_ticks_match_the_walk_over_events(tick, period_ms, n_ticks, extra):
    duration_ms = n_ticks * tick + extra % tick
    assume(duration_ms // period_ms <= 20_000)  # the walk's step count
    # Only events send: each event tick gives the client one packet.
    profile = steady_profile(
        tick=tick,
        burst=BurstModel(rate_multiplier=0.0),
        global_event=GlobalEventModel(period_ms=period_ms, participation=1.0),
    )
    trace = generate_trace(profile, n_clients=1, duration_ms=duration_ms, seed=3)
    ticks = (trace.t_ms // tick).tolist()
    by_event = event_ticks_by_event(period_ms, tick, duration_ms)
    assert ticks == sorted(k for k in by_event if k < n_ticks)


def sample_size(dist: PayloadSizeDist, rng: random.Random) -> int:
    """One payload size from ``dist``: one ``random()``, then, below
    ``tail_prob``, a ``randint`` over ``tail_range``; otherwise the first body
    size whose running sum of probabilities exceeds the rest of the draw."""
    u = rng.random()
    if u < dist.tail_prob:
        return rng.randint(dist.tail_range[0], dist.tail_range[1])
    u -= dist.tail_prob
    acc = 0.0
    for size, prob in dist.body:
        acc += prob
        if u < acc:
            return size
    return dist.body[-1][0]


def _tick_sends(
    rng: random.Random, state_on: bool, burst: BurstModel, scale: float
) -> tuple[int, bool]:
    """Advance one client-tick of the activity machine; return (packets, new state)."""
    if burst.p_enter > 0:
        u = rng.random()
        if state_on:
            state_on = u >= burst.p_exit
        else:
            state_on = u < burst.p_enter
    else:
        state_on = True
    if not state_on:
        return 0, state_on
    rate = burst.rate_multiplier * scale
    count = int(rate)
    frac = rate - count
    if frac > 0 and rng.random() < frac:
        count += 1
    return count, state_on


def generate_rows(profile, n_clients, duration_ms, seed):
    """The generator as it was before it appended columns, kept as the
    reference: one row tuple per packet, sorted by time at the end."""
    tick, event = profile.tick_period_ms, profile.global_event
    period = event.period_ms if event.participation > 0 else 0
    epoch_ticks = max(1, profile.server_epoch_ms // tick)
    rows = []

    def emit(t, conn_id, data_dir, ack_dir, rng, n_data, sent):
        for _ in range(n_data):
            payload = sample_size(profile.payload_size_dist, rng)
            rows.append((t, conn_id, data_dir, payload, profile.header_bytes, False))
            sent += 1
            if sent % profile.ack_every_n == 0:
                rows.append((t, conn_id, ack_dir, 0, profile.header_bytes, True))
        return sent

    for idx in range(n_clients):
        conn_id = f"c{idx:04d}"
        client_rng = substream(seed, TAG_CLIENT, idx)
        server_rng = substream(seed, TAG_SERVER, idx)
        event_rng = substream(seed, TAG_EVENTS, idx)
        client_on = server_on = True
        nearby, client_data, server_data = 1.0, 0, 0
        for k in range(duration_ms // tick):
            t = k * tick
            n_client, client_on = _tick_sends(client_rng, client_on, profile.burst, 1.0)
            if (
                period and k
                and t // period > (t - tick) // period
                and event_rng.random() < event.participation
            ):
                n_client += 1
            client_data = emit(t, conn_id, C2S, S2C, client_rng, n_client, client_data)
            if k % epoch_ticks == 0:
                nearby = server_rng.uniform(*profile.server_scale_range)
            n_server, server_on = _tick_sends(
                server_rng, server_on, profile.burst, nearby
            )
            server_data = emit(t, conn_id, S2C, C2S, server_rng, n_server, server_data)
    rows.sort(key=itemgetter(0))  # stable: generation order breaks ties
    return rows


@st.composite
def profiles(draw):
    """Small profiles: payload 0 data packets, acks on every packet, event
    periods on and off the tick grid, and clients that send little or nothing."""
    tick = draw(st.integers(1, 200))
    sizes = draw(st.lists(st.integers(0, 300), min_size=1, max_size=4))
    tail_prob = draw(st.sampled_from([0.0, 0.25]))
    low = draw(st.integers(0, 500))
    scale_low = draw(st.floats(0, 2))
    return WorkloadProfile(
        tick_period_ms=tick,
        payload_size_dist=PayloadSizeDist(
            body=tuple((size, (1 - tail_prob) / len(sizes)) for size in sizes),
            tail_prob=tail_prob,
            tail_range=(low, low + draw(st.integers(0, 500))),
        ),
        burst=BurstModel(
            p_enter=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])),
            p_exit=draw(st.sampled_from([0.0, 0.3, 1.0])),
            rate_multiplier=draw(st.floats(0, 3)),
        ),
        header_bytes=draw(st.integers(0, 100)),
        ack_every_n=draw(st.integers(1, 4)),
        global_event=GlobalEventModel(
            period_ms=draw(st.one_of(
                st.just(0), st.integers(1, 10).map(lambda m: m * tick),
                st.integers(1, 1000),
            )),
            participation=draw(st.floats(0, 1)),
        ),
        server_scale_range=(scale_low, scale_low + draw(st.floats(0, 2))),
        server_epoch_ms=draw(st.integers(1, 2000)),
    )


def sparse_profile(rate):
    """Clients that often fall silent (``rate`` 0: they send only on events)."""
    return WorkloadProfile(
        tick_period_ms=100,
        payload_size_dist=PayloadSizeDist(body=((0, 0.5), (5, 0.5))),
        burst=BurstModel(p_enter=0.05, p_exit=0.5, rate_multiplier=rate),
        ack_every_n=1,
        global_event=GlobalEventModel(period_ms=250, participation=0.3),
    )


TEN_TENTHS = PayloadSizeDist(body=tuple((size, 0.1) for size in range(1, 11)))


def sized_profile(dist, **kw):
    """The mmorpg preset with another payload size distribution."""
    return replace(preset("mmorpg"), payload_size_dist=dist, **kw)


TRACE_COLUMNS = ("t_ms", "conn", "direction", "payload_bytes", "header_bytes", "is_ack")
EXAMPLES = {
    "silent at first": (sparse_profile(0.3), 6, 20, 0, 2),
    "never sends": (sparse_profile(0.0), 6, 10, 0, 1),
    "only tail sizes": (
        sized_profile(
            PayloadSizeDist(body=((7, 0.0),), tail_prob=1.0, tail_range=(3, 900))
        ), 3, 40, 0, 4,
    ),
    "one tail size": (
        sized_profile(
            PayloadSizeDist(body=((7, 0.5),), tail_prob=0.5, tail_range=(42, 42))
        ), 3, 40, 0, 5,
    ),
    # A draw past the body's rounded sum is too rare for a seed to reach;
    # test_size_lookup_matches_sample_on_every_edge makes one.
    "ten tenths": (sized_profile(TEN_TENTHS), 3, 60, 0, 6),
    "two a tick": (
        sized_profile(
            TEN_TENTHS,
            burst=BurstModel(p_enter=0.2, p_exit=0.1, rate_multiplier=2.0),
            server_scale_range=(1.0, 1.0),
        ), 3, 40, 0, 7,
    ),
    "on every other tick": (
        sized_profile(
            TEN_TENTHS, burst=BurstModel(p_enter=1.0, p_exit=1.0, rate_multiplier=1.0)
        ), 2, 40, 0, 8,
    ),
    "no acks": (sized_profile(TEN_TENTHS, ack_every_n=2**70), 3, 40, 0, 9),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    profile=st.one_of(st.sampled_from([preset("mmorpg"), preset("fps")]), profiles()),
    n_clients=st.integers(0, 7),
    n_ticks=st.integers(1, 60),
    extra=st.integers(0, 10**6),
    seed=st.integers(0, 2**64 - 1),
)
@example(*EXAMPLES["silent at first"])
@example(*EXAMPLES["never sends"])
@example(*EXAMPLES["only tail sizes"])
@example(*EXAMPLES["one tail size"])
@example(*EXAMPLES["ten tenths"])
@example(*EXAMPLES["two a tick"])
@example(*EXAMPLES["on every other tick"])
@example(*EXAMPLES["no acks"])
def test_columns_match_the_row_generator(profile, n_clients, n_ticks, extra, seed):
    duration_ms = n_ticks * profile.tick_period_ms + extra % profile.tick_period_ms
    trace = generate_trace(profile, n_clients, duration_ms, seed)
    rows = trace_from_rows(generate_rows(profile, n_clients, duration_ms, seed))
    assert trace.conn_ids == rows.conn_ids
    for name in TRACE_COLUMNS:
        got, want = getattr(trace, name), getattr(rows, name)
        assert (got.dtype, got.tolist()) == (want.dtype, want.tolist())


def test_the_examples_reach_their_cases():
    traces = {
        name: generate_trace(profile, n_clients, n_ticks * profile.tick_period_ms, seed)
        for name, (profile, n_clients, n_ticks, _, seed) in EXAMPLES.items()
    }
    assert traces["silent at first"].conn_ids[0] != "c0000"
    assert 0 < len(traces["never sends"].conn_ids) < 6

    def data_sizes(name):
        trace = traces[name]
        return set(trace.payload_bytes[~trace.is_ack].tolist())

    tail = data_sizes("only tail sizes")
    assert len(tail) > 10 and min(tail) >= 3 and max(tail) <= 900
    assert data_sizes("one tail size") == {7, 42}
    assert data_sizes("ten tenths") == set(range(1, 11))
    # With a whole rate and no scale there is no fraction draw: an ON side
    # sends exactly two packets a tick (events add one on the client side).
    two = packets(traces["two a tick"], S2C, is_ack=False)
    assert set(Counter((r.t_ms, r.conn_id) for r in two).values()) == {2}
    # p_enter = p_exit = 1 switches every tick: ON only on odd ticks.
    flips = traces["on every other tick"]
    ticks = flips.t_ms[flips.in_direction(S2C) & ~flips.is_ack] // 100
    assert len(ticks) and (ticks % 2 == 1).all()
    assert not traces["no acks"].is_ack.any()


def client_draws_by_tick(profile, n_ticks, seed, idx):
    """The per-client draw loop as it stood before the payload sizes left it,
    kept as the oracle: every draw in its order, the event test and the
    epoch's scale draw made tick by tick, and each payload looked up with
    ``bisect`` as it is drawn.  Returns each side's data count per tick,
    client side first, and the payloads in that order."""
    tick, burst, dist = profile.tick_period_ms, profile.burst, profile.payload_size_dist
    p_enter, p_exit, rate = burst.p_enter, burst.p_exit, burst.rate_multiplier
    event = profile.global_event
    period = event.period_ms if event.participation > 0 else 0  # 0: no events
    participation = event.participation
    epoch_ticks = max(1, profile.server_epoch_ms // tick)
    scale_lo, scale_hi = profile.server_scale_range
    tail_prob, (tail_lo, tail_hi) = dist.tail_prob, dist.tail_range
    sums = list(itertools.accumulate(prob for _, prob in dist.body))
    sizes = [size for size, _ in dist.body]
    sizes.append(sizes[-1])

    client_rng = substream(seed, TAG_CLIENT, idx)
    server_rng = substream(seed, TAG_SERVER, idx)
    event_random = substream(seed, TAG_EVENTS, idx).random
    counts, payloads = [], []

    def draw_payloads(rng, n):
        for _ in range(n):
            u = rng.random()
            if u < tail_prob:
                payloads.append(rng.randint(tail_lo, tail_hi))
            else:
                payloads.append(sizes[bisect.bisect_right(sums, u - tail_prob)])

    client_whole = int(rate)
    client_frac = rate - client_whole
    client_on = server_on = True
    for k in range(n_ticks):
        t = k * tick
        if p_enter > 0:
            u = client_rng.random()
            client_on = u >= p_exit if client_on else u < p_enter
        n = 0
        if client_on:
            n = client_whole
            if client_frac > 0 and client_rng.random() < client_frac:
                n += 1
        if (
            period and k
            and t // period > (t - tick) // period
            and event_random() < participation
        ):
            n += 1
        counts.append(n)
        draw_payloads(client_rng, n)

        if k % epoch_ticks == 0:
            server_rate = rate * server_rng.uniform(scale_lo, scale_hi)
            server_whole = int(server_rate)
            server_frac = server_rate - server_whole
        if p_enter > 0:
            u = server_rng.random()
            server_on = u >= p_exit if server_on else u < p_enter
        n = 0
        if server_on:
            n = server_whole
            if server_frac > 0 and server_rng.random() < server_frac:
                n += 1
        counts.append(n)
        draw_payloads(server_rng, n)
    return counts, payloads


MMORPG = preset("mmorpg")
# 513 tail sizes: randint draws 10 bits and rejects nearly half of them.
WIDE_TAIL = PayloadSizeDist(
    body=((6, 0.25), (18, 0.0), (30, 0.45)), tail_prob=0.3, tail_range=(80, 80 + 512)
)
ORACLE_PROFILES = {
    "mmorpg": MMORPG,
    "fps": preset("fps"),
    "always on": replace(MMORPG, burst=replace(MMORPG.burst, p_enter=0.0)),
    **{
        f"rate {r}": replace(MMORPG, burst=replace(MMORPG.burst, rate_multiplier=r))
        for r in (0.5, 1.0, 2.3)
    },
    "no tail": sized_profile(TEN_TENTHS),
    "wide tail": sized_profile(WIDE_TAIL),
    "events off the tick grid": replace(
        MMORPG, global_event=GlobalEventModel(period_ms=333, participation=0.6)
    ),
    "events faster than ticks": replace(
        MMORPG, global_event=GlobalEventModel(period_ms=40, participation=1.0)
    ),
    "epoch below a tick": replace(
        MMORPG, server_epoch_ms=30, server_scale_range=(0.2, 2.9)
    ),
    "every knob": WorkloadProfile(
        tick_period_ms=7,
        payload_size_dist=WIDE_TAIL,
        burst=BurstModel(p_enter=0.3, p_exit=0.2, rate_multiplier=2.3),
        global_event=GlobalEventModel(period_ms=17, participation=0.5),
        server_scale_range=(0.5, 1.5),
        server_epoch_ms=5,
    ),
}


@pytest.mark.parametrize("name", ORACLE_PROFILES)
def test_client_draws_match_the_loop_over_ticks(name):
    profile = ORACLE_PROFILES[name]
    for seed, idx in [(1, 0), (2, 3), (2**64 - 1, 1)]:
        counts, payloads = workload._client_draws(profile, 700, seed, idx)
        want_counts, want_payloads = client_draws_by_tick(profile, 700, seed, idx)
        assert list(counts) == want_counts
        assert payloads.tolist() == want_payloads
    if profile.payload_size_dist.tail_prob:
        lo, hi = profile.payload_size_dist.tail_range
        assert any(lo <= size <= hi for size in want_payloads)


class ScriptedRng:
    """A stand-in substream: ``random`` returns ``draws`` in turn, ``randint``
    its upper bound and ``uniform`` its lower one."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)

    def randint(self, lo, hi):
        return hi

    def uniform(self, lo, hi):
        return lo


@pytest.mark.parametrize(
    "dist",
    [
        TEN_TENTHS,
        PayloadSizeDist(
            body=((5, 0.125), (9, 0.0), (13, 0.375), (17, 0.25)),
            tail_prob=0.25,
            tail_range=(80, 90),
        ),
    ],
)
def test_size_lookup_matches_sample_on_every_edge(monkeypatch, dist):
    # A draw on a running sum of the body takes the next size, and one at or
    # past the last sum takes the last size: ten 0.1s sum to 1 - 2**-53, the
    # largest draw, not to 1.
    edges, acc = [dist.tail_prob], 0.0
    for _, prob in dist.body:
        acc += prob
        edges.append(acc + dist.tail_prob)
    draws = [0.0, 1 - 2**-53]
    for u in edges:
        if u < 1:
            draws += [math.nextafter(u, 0), u]
    sample_rng = ScriptedRng(draws)
    want = [sample_size(dist, sample_rng) for _ in draws]

    def scripted_substream(seed, tag, idx):
        return ScriptedRng(draws if tag == TAG_CLIENT else itertools.repeat(0.0))

    monkeypatch.setattr(workload, "substream", scripted_substream)
    profile = WorkloadProfile(tick_period_ms=1, payload_size_dist=dist)
    trace = generate_trace(profile, n_clients=1, duration_ms=len(draws), seed=0)
    c2s = trace.in_direction(C2S) & ~trace.is_ack
    assert trace.payload_bytes[c2s].tolist() == want


class TestPresets:
    def test_names(self):
        assert preset_names() == ["fps", "mmorpg"]

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="available"):
            preset("rts")

    def test_mmorpg_shape(self):
        profile = preset("mmorpg")
        assert profile.tick_period_ms == 100
        assert profile.header_bytes == 40
        assert profile.ack_every_n == 2
        assert profile.payload_size_dist.tail_prob > 0

    def test_fps_is_always_on(self):
        profile = preset("fps")
        assert profile.burst.p_enter == 0.0
        assert profile.tick_period_ms == 50


class TestProfileSerialization:
    def test_dict_round_trip(self):
        for name in preset_names():
            profile = preset(name)
            assert profile_from_dict(profile_to_dict(profile)) == profile

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "profile.json"
        profile_to_json(preset("mmorpg"), str(path))
        assert profile_from_json(str(path)) == preset("mmorpg")

    def test_unknown_keys_rejected_at_each_level(self):
        base = profile_to_dict(preset("fps"))
        for mutate in (
            lambda d: d.update(frobnicate=1),
            lambda d: d["payload_size_dist"].update(shape="pareto"),
            lambda d: d["burst"].update(p_misspelt=0.1),
            lambda d: d["global_event"].update(period=5),
        ):
            data = profile_to_dict(preset("fps"))
            mutate(data)
            with pytest.raises(ValueError, match="unknown"):
                profile_from_dict(data)
        profile_from_dict(base)  # untouched dict still parses

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="tick_period_ms"):
            profile_from_dict({"payload_size_dist": {"body": [[10, 1.0]]}})
        with pytest.raises(ValueError, match="payload_size_dist"):
            profile_from_dict({"tick_period_ms": 100})


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = generate_trace(preset("mmorpg"), n_clients=2, duration_ms=15_000, seed=1)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        assert list(read_trace_csv(str(path))) == list(trace)

    def test_file_format(self, tmp_path):
        trace = generate_trace(steady_profile(ack_every_n=1), 1, 200, seed=0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack"
        assert lines[1] == "0,c0000,c2s,10,40,false"
        assert any(line.endswith(",true") for line in lines[1:])


class TestTrace:
    ROWS = [
        (0, "b", C2S, 12, 40, False),
        (0, "a", S2C, 0, 40, True),
        (100, "b", S2C, 200, 28, False),
        (250, "a", C2S, 7, 40, False),
    ]
    COLUMNS = dict(
        t_ms=[0, 0, 100],
        conn=[0, 1, 0],
        conn_ids=("b", "a"),
        direction=[0, 1, 1],
        payload_bytes=[12, 0, 200],
        header_bytes=[40, 40, 28],
        is_ack=[False, True, False],
    )

    def test_rows_come_back_as_built(self):
        trace = trace_from_rows(self.ROWS)
        assert len(trace) == 4
        assert list(trace) == self.ROWS
        assert [trace[i] for i in range(4)] == self.ROWS
        assert trace[-1] == self.ROWS[-1]
        assert trace[2].total_bytes == 228
        assert trace.conn_ids == ("b", "a")
        for row in (trace[0], *trace):
            assert [type(v) for v in row] == [int, str, Direction, int, int, bool]
        assert list(Trace(**self.COLUMNS)) == self.ROWS[:3]

    @staticmethod
    def long_trace():
        chunk = workload._ITER_ROWS
        rows = [(t, "c0", C2S, t % 7, 40, t % 3 == 0) for t in range(2 * chunk + 1)]
        return rows, trace_from_rows(rows)

    @staticmethod
    def spy_on_columns(monkeypatch):
        """The number of rows each call of ``Trace._columns`` converts."""
        converted = []
        columns = Trace._columns

        def spy(self, rows):
            converted.append(len(self.t_ms[rows]))
            return columns(self, rows)

        monkeypatch.setattr(Trace, "_columns", spy)
        return converted

    def test_iteration_converts_one_chunk_at_a_time(self, monkeypatch):
        # A scan that stops at the first row must not convert the whole trace.
        chunk = workload._ITER_ROWS
        rows, trace = self.long_trace()
        converted = self.spy_on_columns(monkeypatch)
        assert any(rec.direction is C2S for rec in trace)
        assert converted == [chunk]
        assert list(trace) == rows
        assert converted[1:] == [chunk, chunk, 1]

    def test_writing_converts_one_chunk_at_a_time(self, monkeypatch, tmp_path):
        # The writer formats the columns a block of rows at a time.
        chunk = workload._ITER_ROWS
        rows, trace = self.long_trace()
        formatted, format_block = [], spec._format_block

        def spy(columns, start, stop):
            formatted.append(stop - start)
            return format_block(columns, start, stop)

        monkeypatch.setattr(spec, "_format_block", spy)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        assert formatted == [chunk, chunk, 1]
        monkeypatch.undo()
        assert list(read_trace_csv(str(path))) == rows

    def test_rows_must_be_in_time_order(self):
        with pytest.raises(ValueError, match="row 3 goes back"):
            trace_from_rows([*self.ROWS[:3], self.ROWS[0]])

    @pytest.mark.parametrize(
        "field, value", [(0, -1), (0, 2**63), (3, -1), (3, 2**32), (4, 2**32)]
    )
    def test_values_outside_the_columns_are_rejected(self, field, value):
        row = list(self.ROWS[0])
        row[field] = value
        with pytest.raises(ValueError, match="payload_bytes and header_bytes in"):
            trace_from_rows([tuple(row)])

    @pytest.mark.parametrize(
        "change, error",
        [
            (dict(is_ack=[False, True]), "1-D and all one length"),
            (dict(payload_bytes=[12, 0, 200, 5]), "1-D and all one length"),
            (dict(t_ms=[[0, 0, 100]]), "1-D and all one length"),
            (dict(t_ms=0, conn=0, direction=0, payload_bytes=0, header_bytes=0,
                  is_ack=False), "1-D and all one length"),
            (dict(conn=[0, 5, 0], conn_ids=("b",)), r"conn codes must be in"),
            (dict(conn=[0, -1, 0]), r"conn codes must be in"),
            (dict(conn_ids=()), r"conn codes must be in"),
            (dict(direction=[0, 7, 1]), "direction codes must be 0 or 1"),
            (dict(direction=[0, 256, 1]), "direction codes must be 0 or 1"),
            (dict(direction=[0, -1, 1]), "direction codes must be 0 or 1"),
        ],
    )
    def test_columns_that_do_not_fit_are_rejected(self, change, error):
        with pytest.raises(ValueError, match=error):
            Trace(**{**self.COLUMNS, **change})
