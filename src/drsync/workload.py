"""Synthetic tick-based game traffic with bursty clients and a mirrored server.

Each client runs on a global tick grid and owns a two-state activity machine:
ON means the player is acting (one or more data packets per tick, scaled by
``rate_multiplier``), OFF means idle (the tick is skipped).  Transitions
happen once per tick: OFF enters ON with ``p_enter``, ON falls back with
``p_exit``.  ``p_enter == 0`` disables the machine entirely and the client
stays ON, which makes its data stream exactly periodic at the tick period.

The server side mirrors each client's profile with its own state machine,
scaled by a "nearby characters" multiplier resampled once per epoch, so more
happens around a busy player.  Every ``ack_every_n`` data packets in one
direction trigger one pure acknowledgement (header only) in the opposite
direction at the same tick, mimicking delayed-ack behaviour.  A global event
(think server-wide boss spawn) periodically forces all participating clients
to send in the same tick.

All randomness is drawn from substreams derived from ``(seed, stream tag,
client index)``, so traces are bit-reproducible and independent of
generation order.  One Python loop per client makes every draw, tick by
tick, and records only each side's data count and each payload's draws;
numpy finds the event ticks before it and the payload sizes after it, and
acks take no draw, so numpy places them afterwards too.  A trace is a
:class:`Trace` of numpy columns; its rows are :class:`TraceRecord` tuples,
built only when a caller asks for them.
"""

from __future__ import annotations

import array
import enum
import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spec
from .core import TimeMs
from .rng import TAG_CLIENT, TAG_EVENTS, TAG_SERVER, check_seed, substream
from .spec import _ITER_ROWS, INVALID


# The most data packets one side of a connection may send in one tick.  A
# profile above it is rejected: generation time grows with the rate.
MAX_PACKETS_PER_TICK = 1000
# The most client ticks (clients times ticks) one trace may have.  For the
# mmorpg preset (10 clients) at 1/16 and 1/4 of this cap and at the cap,
# ``generate`` took 0.60, 2.0 and 4.8 s and peaked at 58, 135 and 452 MiB,
# and ``analyze`` of its trace took 0.61, 1.8 and 4.2 s and peaked at 58,
# 123 and 381 MiB (``tools/worst_case.py``, a 2-vCPU Xeon).
MAX_CLIENT_TICKS = 2_000_000
# The most data packets one trace may have at its profile's peak rates: the
# client's and the server's per client tick, plus one event action.  It
# counts data packets only; acks add up to one row per ack_every_n of them,
# and with ack_every_n 1 double the rows.  Both presets at MAX_CLIENT_TICKS
# fit it (mmorpg reaches it exactly), but not the 512 MiB budget: mmorpg's
# 6.76 M rows took 452 MiB to generate, a dense profile's 12.0 M 788 MiB.
MAX_TRACE_PACKETS = 8_000_000
# The int64 columns' bounds: every t_ms is below MAX_T_MS, and sizes stay
# below 2**32 so that the byte sum of 2**31 packets fits too.
MAX_T_MS, _MAX_BYTES = 2**63, 2**32
# A packet size in a profile: one that Trace accepts.
_SIZE = spec.Int(ge=0, le=_MAX_BYTES - 1)


class Direction(enum.Enum):
    CLIENT_TO_SERVER = "c2s"
    SERVER_TO_CLIENT = "s2c"


@dataclass(frozen=True)
class PayloadSizeDist:
    """Discrete payload-size distribution: a small-message body plus a long tail.

    ``body`` maps payload bytes to probability; with probability ``tail_prob``
    the size is instead uniform over the inclusive ``tail_range``.  Body mass
    and tail mass must sum to 1.
    """

    body: tuple[tuple[int, float], ...] = spec.field(
        spec.Seq(spec.Pair(_SIZE, spec.Real(ge=0)))
    )
    tail_prob: float = spec.field(spec.Real(ge=0, le=1), 0.0)
    tail_range: tuple[int, int] = spec.field(
        spec.Pair(_SIZE, _SIZE, ordered=True), (0, 0)
    )

    __post_init__ = spec.check

    @staticmethod
    def _relations(v: dict) -> list[str]:
        if INVALID in (v["body"], v["tail_prob"]):
            return []
        mass = math.fsum(p for _, p in v["body"]) + v["tail_prob"]
        if abs(mass - 1.0) > 1e-9:
            return [f"body: probabilities plus tail_prob must sum to 1, got {mass}"]
        return []

    def mean(self) -> float:
        lo, hi = self.tail_range
        tail_mean = (lo + hi) / 2.0 if self.tail_prob > 0 else 0.0
        return (
            math.fsum(size * prob for size, prob in self.body)
            + self.tail_prob * tail_mean
        )


@dataclass(frozen=True)
class BurstModel:
    """Two-state ON/OFF activity machine; ``p_enter == 0`` means always ON."""

    p_enter: float = spec.field(spec.Real(ge=0, le=1), 0.0)
    p_exit: float = spec.field(spec.Real(ge=0, le=1), 0.0)
    rate_multiplier: float = spec.field(spec.Real(ge=0), 1.0)

    __post_init__ = spec.check


@dataclass(frozen=True)
class GlobalEventModel:
    """Periodic all-hands moment; ``period_ms == 0`` disables it."""

    period_ms: int = spec.field(spec.Int(ge=0), 0)
    participation: float = spec.field(spec.Real(ge=0, le=1), 0.0)

    __post_init__ = spec.check


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything that shapes one synthetic workload."""

    tick_period_ms: int = spec.field(spec.Int(ge=1))
    payload_size_dist: PayloadSizeDist = spec.field(spec.Nested(PayloadSizeDist))
    burst: BurstModel = spec.field(spec.Nested(BurstModel), BurstModel())
    header_bytes: int = spec.field(_SIZE, 40)
    ack_every_n: int = spec.field(spec.Int(ge=1), 2)
    global_event: GlobalEventModel = spec.field(
        spec.Nested(GlobalEventModel), GlobalEventModel()
    )
    # Server-side "nearby characters" activity multiplier, resampled per epoch.
    server_scale_range: tuple[float, float] = spec.field(
        spec.Pair(spec.Real(ge=0), spec.Real(ge=0), ordered=True), (1.0, 1.0)
    )
    server_epoch_ms: int = spec.field(spec.Int(ge=1), 10_000)

    __post_init__ = spec.check

    @staticmethod
    def _relations(v: dict) -> list[str]:
        rate, scale = v["burst"].rate_multiplier, v["server_scale_range"]
        if INVALID in (rate, scale):
            return []
        peak = rate * max(1.0, scale[1])
        if peak > MAX_PACKETS_PER_TICK:
            return [
                "burst.rate_multiplier: times the top of server_scale_range must "
                f"be <= {MAX_PACKETS_PER_TICK} packets per tick, got {peak}"
            ]
        return []


class TraceRecord(NamedTuple):
    """One packet observed on the wire (a pure ack has payload 0)."""

    t_ms: TimeMs
    conn_id: str
    direction: Direction
    payload_bytes: int
    header_bytes: int
    is_ack: bool

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.header_bytes


# The direction column holds each row's index into this tuple.
_DIRECTIONS = tuple(Direction)
DIRECTION_TEXTS = tuple(d.value for d in _DIRECTIONS)
_OUT_OF_RANGE = (
    "t_ms must be in [0, 2**63), payload_bytes and header_bytes in [0, 2**32)"
)


class Trace:
    """A packet trace held as columns, in time order.

    ``t_ms``, ``payload_bytes`` and ``header_bytes`` are int64 arrays,
    ``is_ack`` a bool array, ``direction`` an index into ``tuple(Direction)``
    and ``conn`` an index into ``conn_ids``, the connection names.  It is
    built from these columns only, which must be 1-D, of one length, in
    range and in time order.  ``len``, indexing and iteration give rows
    back as :class:`TraceRecord` tuples.
    """

    def __init__(
        self, t_ms, conn, conn_ids, direction, payload_bytes, header_bytes, is_ack
    ) -> None:
        try:
            t, conn, payload, header = (
                np.asarray(c, np.int64)
                for c in (t_ms, conn, payload_bytes, header_bytes)
            )
        except OverflowError:  # a Python int past int64
            raise ValueError(_OUT_OF_RANGE) from None
        direction, is_ack = np.asarray(direction), np.asarray(is_ack, bool)
        columns = (conn, direction, payload, header, is_ack)
        if t.ndim != 1 or any(c.shape != t.shape for c in columns):
            raise ValueError("the columns must be 1-D and all one length")
        if len(t) and (
            min(t.min(), payload.min(), header.min()) < 0
            or max(payload.max(), header.max()) >= _MAX_BYTES
        ):
            raise ValueError(_OUT_OF_RANGE)
        if len(t) and (conn.min() < 0 or conn.max() >= len(conn_ids)):
            raise ValueError("conn codes must be in [0, len(conn_ids))")
        if not ((direction == 0) | (direction == 1)).all():
            raise ValueError("direction codes must be 0 or 1")
        back = np.flatnonzero(t[1:] < t[:-1])
        if back.size:
            raise ValueError(f"rows must be in time order; row {back[0] + 1} goes back")
        self.t_ms, self.payload_bytes, self.header_bytes = t, payload, header
        self.conn, self.conn_ids = conn, tuple(conn_ids)
        self.direction, self.is_ack = direction.astype(np.int8), is_ack

    def in_direction(self, direction: Direction | str) -> np.ndarray:
        """Bool mask of the rows sent in ``direction``."""
        return self.direction == _DIRECTIONS.index(Direction(direction))

    def __len__(self) -> int:
        return len(self.t_ms)

    def __getitem__(self, i: int) -> TraceRecord:
        (row,) = map(TraceRecord, *self._columns([i]))
        return row

    def __iter__(self) -> Iterator[TraceRecord]:
        for start in range(0, len(self), _ITER_ROWS):
            rows = slice(start, start + _ITER_ROWS)
            yield from map(TraceRecord, *self._columns(rows))

    def _columns(self, rows: slice | list[int]) -> list[Iterable]:
        """The fields of ``rows`` as the Python values of a :class:`TraceRecord`."""
        return [
            self.t_ms[rows].tolist(),
            map(self.conn_ids.__getitem__, self.conn[rows].tolist()),
            map(_DIRECTIONS.__getitem__, self.direction[rows].tolist()),
            self.payload_bytes[rows].tolist(),
            self.header_bytes[rows].tolist(),
            self.is_ack[rows].tolist(),
        ]


# Calibrated so a long default-profile run reproduces the headline traffic
# shape of tick-based MMORPG clients: tiny commands (98% of client packets
# under 71 bytes on the wire), roughly 7 Kbps per client, headers near 73%
# of client bytes with pure acks near 30%.
_MMORPG_PROFILE = WorkloadProfile(
    tick_period_ms=100,
    payload_size_dist=PayloadSizeDist(
        body=(
            (6, 0.03),
            (10, 0.06),
            (14, 0.09),
            (18, 0.13),
            (22, 0.19),
            (26, 0.24),
            (30, 0.24),
        ),
        tail_prob=0.02,
        tail_range=(80, 200),
    ),
    burst=BurstModel(p_enter=0.15, p_exit=0.01, rate_multiplier=1.0),
    header_bytes=40,
    ack_every_n=2,
    global_event=GlobalEventModel(period_ms=10_000, participation=0.5),
    server_scale_range=(1.1, 1.7),
    server_epoch_ms=10_000,
)

# Near-constant bit rate around 40 Kbps per client, the classic fast-shooter
# profile: every tick carries a sizeable state packet, no idle periods.
_FPS_PROFILE = WorkloadProfile(
    tick_period_ms=50,
    payload_size_dist=PayloadSizeDist(
        body=((180, 0.25), (190, 0.25), (200, 0.25), (210, 0.25)),
    ),
    burst=BurstModel(),
    header_bytes=40,
    ack_every_n=2,
    global_event=GlobalEventModel(),
    server_scale_range=(1.0, 1.0),
)

_PRESETS = {
    "mmorpg": _MMORPG_PROFILE,
    "fps": _FPS_PROFILE,
}


def preset(name: str) -> WorkloadProfile:
    """Return a named built-in profile; unknown names raise ``KeyError``."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def generate_trace(
    profile: WorkloadProfile,
    n_clients: int,
    duration_ms: int,
    seed: int,
    lap: Callable[[str], None] = lambda stage: None,
) -> Trace:
    """Generate a full bidirectional trace, sorted by timestamp.

    ``n_clients == 0`` legitimately yields an empty trace.  Duration must
    cover at least one tick and be below 2**63, the bound on ``t_ms``, and
    ``seed`` must keep :data:`drsync.rng.SEED`.

    Each client is drawn by one loop over its ticks (:func:`_client_draws`)
    that records only how many data packets each side sends in each tick
    and their payloads' draws.  Acks take no draw, so numpy places them
    after the loop (:func:`_append_packets`).  Clients are appended to four
    typed columns one at a time, and the columns are sorted once at the end.
    ``lap`` is called with ``"draw"`` when every client is drawn and with
    ``"sort"`` when the trace is built, for the caller's stage timings.
    """
    check_seed(seed)
    if n_clients < 0:
        raise ValueError(f"n_clients must be >= 0, got {n_clients}")
    tick = profile.tick_period_ms
    if not tick <= duration_ms < MAX_T_MS:
        raise ValueError(
            f"duration_ms must be in [tick_period_ms ({tick}), 2**63), "
            f"got {duration_ms}"
        )
    n_ticks = duration_ms // tick
    if n_clients * n_ticks > MAX_CLIENT_TICKS:
        raise ValueError(
            f"clients * ticks must be <= {MAX_CLIENT_TICKS}, got {n_clients * n_ticks}"
        )
    rate, scale_hi = profile.burst.rate_multiplier, profile.server_scale_range[1]
    per_tick = math.ceil(rate) + 1 + math.ceil(rate * max(1.0, scale_hi))
    if n_clients * n_ticks * per_tick > MAX_TRACE_PACKETS:
        raise ValueError(
            f"clients * ticks * {per_tick} peak packets per client tick must be "
            f"<= {MAX_TRACE_PACKETS}, got {n_clients * n_ticks * per_tick}"
        )

    # The t_ms, direction code, payload and is_ack of every packet, client
    # by client in generation order, as int64, int8, int64 and int8 arrays
    # that numpy reads in place (18 bytes a packet, no Python object), and
    # where each client's packets end.
    columns = tuple(map(array.array, "qbqb"))
    ends = array.array("q")
    for idx in range(n_clients):
        _append_packets(columns, profile, *_client_draws(profile, n_ticks, seed, idx))
        ends.append(len(columns[0]))
    lap("draw")

    t, direction, payload, is_ack = map(np.asarray, columns)
    order = np.argsort(t, kind="stable")  # generation order breaks ties
    rows = np.diff(ends, prepend=0)
    # Connections are numbered in order of first appearance, so a client
    # that sends nothing has no name.  A client's first generated row is
    # also its first in time order, so the clients appear in the order of
    # their first rows' times, ties broken by client index, which is
    # generation order.
    firsts = np.subtract(ends, rows)[rows > 0]
    named = np.flatnonzero(rows)[np.argsort(t[firsts], kind="stable")]
    conn = np.empty(n_clients, np.int64)
    conn[named] = np.arange(len(named))
    names = [f"c{idx:04d}" for idx in named.tolist()]
    header = np.full(len(t), profile.header_bytes, np.int64)
    trace = Trace(
        t[order], np.repeat(conn, rows)[order], names,
        direction[order], payload[order], header, is_ack[order],
    )
    lap("sort")
    return trace


def _client_draws(
    profile: WorkloadProfile, n_ticks: int, seed: int, idx: int
) -> tuple[array.array, np.ndarray]:
    """Draw client ``idx``'s data packets: the count each side sends in each
    tick, client side first (``2k`` and ``2k + 1`` for tick ``k``), and
    their payloads in that order.

    Each side steps its activity machine once per tick from its own
    substream: one draw for the state when ``p_enter > 0``, and one for the
    fraction of the rate when the state is ON and the rate is not whole.
    The server's rate is scaled by a multiplier from ``server_scale_range``,
    drawn at the start of each epoch before that tick's state draw.  An
    event adds one client packet.
    Each payload then takes one ``random()`` from the side's substream, right
    after that side's state and rate draws: below ``tail_prob`` its size is a
    ``randint`` over ``tail_range``, else a body size (see ``sums`` below).
    The loop records only those draws; numpy looks up the body sizes after
    it, and finds the event ticks before it.
    """
    tick, burst, dist = profile.tick_period_ms, profile.burst, profile.payload_size_dist
    bursty, p_enter, p_exit = burst.p_enter > 0, burst.p_enter, burst.p_exit
    rate, participation = burst.rate_multiplier, profile.global_event.participation
    epoch_ticks = max(1, profile.server_epoch_ms // tick)
    scale_lo, scale_hi = profile.server_scale_range
    tail_prob, (tail_lo, tail_hi) = dist.tail_prob, dist.tail_range

    client_rng = substream(seed, TAG_CLIENT, idx)
    server_rng = substream(seed, TAG_SERVER, idx)
    client_random, client_randint = client_rng.random, client_rng.randint
    server_random, server_randint = server_rng.random, server_rng.randint
    server_uniform = server_rng.uniform
    event_random = substream(seed, TAG_EVENTS, idx).random

    # Counts are at most MAX_PACKETS_PER_TICK + 2 a side and tick, and tail
    # sizes below 2**32; every payload's random() is kept for the lookup.
    counts, uniforms, tails = array.array("H"), array.array("d"), array.array("I")
    add_count, add_uniform, add_tail = counts.append, uniforms.append, tails.append
    client_whole = int(rate)
    client_frac = rate - client_whole
    client_on = server_on = True
    events = _event_ticks(profile, n_ticks)
    for start in range(0, n_ticks, epoch_ticks):
        server_rate = rate * server_uniform(scale_lo, scale_hi)
        server_whole = int(server_rate)
        server_frac = server_rate - server_whole
        for fires in events[start : start + epoch_ticks]:
            if bursty:
                u = client_random()
                client_on = u >= p_exit if client_on else u < p_enter
            n = 0
            if client_on:
                n = client_whole
                if client_frac and client_random() < client_frac:
                    n += 1
            if fires and event_random() < participation:
                n += 1  # flash crowd: one forced action even when idle
            add_count(n)
            for _ in range(n):
                u = client_random()
                add_uniform(u)
                if u < tail_prob:
                    add_tail(client_randint(tail_lo, tail_hi))

            if bursty:
                u = server_random()
                server_on = u >= p_exit if server_on else u < p_enter
            n = 0
            if server_on:
                n = server_whole
                if server_frac and server_random() < server_frac:
                    n += 1
            add_count(n)
            for _ in range(n):
                u = server_random()
                add_uniform(u)
                if u < tail_prob:
                    add_tail(server_randint(tail_lo, tail_hi))

    # The body's running sums, added in its order: a draw less tail_prob
    # takes the first size whose sum exceeds it, and one at or past the last
    # sum (which can round below 1) takes the last size.
    sums = list(itertools.accumulate(prob for _, prob in dist.body))
    sizes = np.array([size for size, _ in dist.body] + [dist.body[-1][0]], np.int64)
    u = np.frombuffer(uniforms)
    payloads = sizes[np.searchsorted(sums, u - tail_prob, side="right")]
    payloads[u < tail_prob] = np.frombuffer(tails, np.uintc)
    return counts, payloads


def _event_ticks(profile: WorkloadProfile, n_ticks: int) -> bytes:
    """Whether an event fires at each tick, as a byte 0 or 1 a tick.

    Events fire at every multiple of the period and snap to the next tick
    boundary: tick ``k > 0`` holds one when a multiple lies in
    ``((k - 1) * tick, k * tick]``, so when ``t // period > (t - tick) //
    period`` at ``t = k * tick``.  A period of 0, or one past every ``t``,
    fires none, and so does a participation of 0, which draws nothing.
    """
    tick, event = profile.tick_period_ms, profile.global_event
    fires = np.zeros(n_ticks, np.uint8)
    if event.participation > 0 and 0 < event.period_ms < MAX_T_MS:
        t = np.arange(n_ticks, dtype=np.int64) * tick
        fires[1:] = np.diff(t // event.period_ms) > 0
    return fires.tobytes()


def _append_packets(
    columns: tuple[array.array, ...],
    profile: WorkloadProfile,
    counts: array.array,
    payloads: np.ndarray,
) -> None:
    """Append one client's data packets, drawn by :func:`_client_draws`,
    and the acks they trigger to ``columns``.

    Each side's ``ack_every_n``-th data packet is acknowledged by a
    header-only packet right after it, in the other direction.
    """
    # Each data packet's slot: 2k + side for tick k, where the side, 0 for
    # the client and 1 for the server, is its direction code.
    slot = np.repeat(np.arange(len(counts)), np.frombuffer(counts, np.ushort))
    side = slot & 1
    # Each packet's number within its side, from 1.  An ack_every_n above
    # every number acks nothing, so it is cut to one above them all (an
    # int64 holds that, but not every ack_every_n).
    server = np.cumsum(side)
    client = np.arange(1, len(slot) + 1) - server
    every = min(profile.ack_every_n, len(slot) + 1)
    acked = np.where(side, server, client) % every == 0
    # A data packet with k acks before it lands k rows on, its ack right after.
    ack_rows = np.flatnonzero(acked)
    ack_rows += np.arange(1, len(ack_rows) + 1)
    slot = np.repeat(slot, acked + 1)
    is_ack = np.zeros(len(slot), bool)
    is_ack[ack_rows] = True
    payload = np.zeros(len(slot), np.int64)
    payload[~is_ack] = payloads

    times, directions, sizes, acks = columns
    times.frombytes(((slot >> 1) * profile.tick_period_ms).view(np.uint8))
    directions.frombytes(((slot & 1) ^ is_ack).astype(np.int8).view(np.uint8))
    sizes.frombytes(payload.view(np.uint8))
    acks.frombytes(is_ack.view(np.uint8))


_TRACE_FIELDS = (
    "t_ms", "conn_id", "direction", "payload_bytes", "header_bytes", "is_ack"
)


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write ``t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack``."""
    columns = [
        trace.t_ms,
        spec.Table(trace.conn, trace.conn_ids),
        spec.Table(trace.direction, DIRECTION_TEXTS),
        trace.payload_bytes,
        trace.header_bytes,
        spec.flags(trace.is_ack),
    ]
    spec.write_csv(path, _TRACE_FIELDS, columns)


# A trace CSV row as numpy parses it.  A connection name stays a Python
# string, exactly as the row reader reads it.
_TRACE_DTYPE = np.dtype(
    [
        ("t_ms", np.int64),
        ("conn_id", object),
        ("direction", spec.text_field(DIRECTION_TEXTS)),
        ("payload_bytes", np.int64),
        ("header_bytes", np.int64),
        ("is_ack", spec.text_field(spec.FLAG_TEXTS)),
    ]
)


def read_trace_csv(path: str) -> Trace:
    """Inverse of :func:`write_trace_csv`; the rows must be sorted by time.

    Connections are numbered in order of their first row.  A block is
    checked before its names are numbered, so that where numpy's parser gives
    way, the row reader goes on from the names and time the blocks left.
    """
    ids: dict[str, int] = {}
    last_t = converted_t = 0  # the last row's time, as built and as converted

    def record(row: list[str]) -> tuple:
        nonlocal last_t
        t, payload, header = int(row[0]), int(row[3]), int(row[4])
        sizes_ok = 0 <= payload < _MAX_BYTES and 0 <= header < _MAX_BYTES
        if not (sizes_ok and 0 <= t < MAX_T_MS):
            raise ValueError(_OUT_OF_RANGE)
        if t < last_t:
            raise ValueError(
                f"t_ms {t} precedes the previous row's {last_t}; "
                "a trace must be sorted by time"
            )
        last_t = t
        Direction(row[2])  # each raises ValueError for a cell it rejects
        spec.flag(row[5])
        return t, row[1], row[2], payload, header, row[5]

    def convert(block: np.ndarray) -> list[np.ndarray]:
        nonlocal last_t, converted_t
        t = block["t_ms"]
        payload, header = block["payload_bytes"], block["header_bytes"]
        direction = spec.codes(block["direction"], DIRECTION_TEXTS)
        is_ack = spec.codes(block["is_ack"], spec.FLAG_TEXTS)
        if len(t):
            # Times in order from converted_t are >= 0; a size past 2**32,
            # or negative, sets a bit past 2**32 in the sizes or'ed.
            sizes = (payload | header).view(np.uint64).max()
            if t[0] < converted_t or (t[1:] < t[:-1]).any() or sizes >= _MAX_BYTES:
                raise ValueError("a row out of range or time order")
            last_t = converted_t = int(t[-1])
        names = block["conn_id"].tolist()
        try:
            conn = np.fromiter(map(ids.__getitem__, names), np.int64, len(names))
        except KeyError:  # a connection first seen in this block
            conn = np.fromiter(
                (ids.setdefault(name, len(ids)) for name in names), np.int64, len(names)
            )
        return [t, conn, direction, payload, header, is_ack]

    finish = lambda t, conn, *rest: Trace(t, conn, ids, *rest)
    layouts = {_TRACE_FIELDS: (_TRACE_DTYPE, record)}
    return spec.read_columns(path, layouts, convert, finish)


def profile_to_dict(profile: WorkloadProfile) -> dict:
    """Plain-dict form of a profile, suitable for JSON dumping and editing."""
    return spec.dump(profile)


def profile_from_dict(data: dict) -> WorkloadProfile:
    """Parse a profile dict, rejecting unknown keys so typos do not pass silently."""
    return spec.parse(WorkloadProfile, data)


def profile_to_json(profile: WorkloadProfile, path: str) -> None:
    spec.write_json(profile_to_dict(profile), path)


def profile_from_json(path: str) -> WorkloadProfile:
    return profile_from_dict(spec.load_json(path))
