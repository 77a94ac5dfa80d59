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
generation order.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, replace

from . import spec
from .core import TimeMs
from .rng import TAG_CLIENT, TAG_EVENTS, TAG_SERVER, substream
from .spec import INVALID


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
        spec.Seq(spec.Pair(spec.Int(ge=0), spec.Real(ge=0)))
    )
    tail_prob: float = spec.field(spec.Real(ge=0, le=1), 0.0)
    tail_range: tuple[int, int] = spec.field(
        spec.Pair(spec.Int(ge=0), spec.Int(ge=0), ordered=True), (0, 0)
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

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        if u < self.tail_prob:
            return rng.randint(self.tail_range[0], self.tail_range[1])
        u -= self.tail_prob
        acc = 0.0
        for size, prob in self.body:
            acc += prob
            if u < acc:
                return size
        return self.body[-1][0]

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
    header_bytes: int = spec.field(spec.Int(ge=0), 40)
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


@dataclass(frozen=True)
class TraceRecord:
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


def generate_trace(
    profile: WorkloadProfile, n_clients: int, duration_ms: int, seed: int
) -> list[TraceRecord]:
    """Generate a full bidirectional trace, sorted by timestamp.

    ``n_clients == 0`` legitimately yields an empty trace.  Duration must
    cover at least one tick.
    """
    if n_clients < 0:
        raise ValueError(f"n_clients must be >= 0, got {n_clients}")
    if duration_ms < profile.tick_period_ms:
        raise ValueError(
            f"duration_ms must be >= tick_period_ms ({profile.tick_period_ms}), "
            f"got {duration_ms}"
        )

    tick = profile.tick_period_ms
    n_ticks = duration_ms // tick
    event = profile.global_event
    event_ticks: set[int] = set()
    if event.period_ms > 0 and event.participation > 0:
        e = event.period_ms
        while e < duration_ms:
            # Events snap to the next tick boundary.
            event_ticks.add(-(-e // tick))
            e += event.period_ms
    epoch_ticks = max(1, profile.server_epoch_ms // tick)

    records: list[TraceRecord] = []
    for idx in range(n_clients):
        conn_id = f"c{idx:04d}"
        client_rng = substream(seed, TAG_CLIENT, idx)
        server_rng = substream(seed, TAG_SERVER, idx)
        event_rng = substream(seed, TAG_EVENTS, idx)

        client_on = True
        server_on = True
        nearby = 1.0
        client_data = 0
        server_data = 0
        for k in range(n_ticks):
            t = k * tick

            n_client, client_on = _tick_sends(client_rng, client_on, profile.burst, 1.0)
            if k in event_ticks and event_rng.random() < event.participation:
                n_client += 1  # flash crowd: one forced action even when idle
            client_data = _emit(
                records, profile, t, conn_id, _CLIENT_SIDE, client_rng, n_client,
                client_data,
            )

            if k % epoch_ticks == 0:
                nearby = server_rng.uniform(*profile.server_scale_range)
            n_server, server_on = _tick_sends(
                server_rng, server_on, profile.burst, nearby
            )
            server_data = _emit(
                records, profile, t, conn_id, _SERVER_SIDE, server_rng, n_server,
                server_data,
            )

    records.sort(key=lambda r: r.t_ms)  # stable: generation order breaks ties
    return records


# The (data, ack) directions of each side of a connection.
_CLIENT_SIDE = (Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT)
_SERVER_SIDE = (Direction.SERVER_TO_CLIENT, Direction.CLIENT_TO_SERVER)


def _emit(
    records: list[TraceRecord],
    profile: WorkloadProfile,
    t: TimeMs,
    conn_id: str,
    side: tuple[Direction, Direction],
    rng: random.Random,
    n_data: int,
    sent: int,
) -> int:
    """Append one side's ``n_data`` packets at ``t`` and the acks they trigger.

    ``sent`` counts the side's earlier data packets; each ``ack_every_n``-th
    one is acknowledged by a header-only packet in the other direction.
    Returns the new count.
    """
    data_dir, ack_dir = side
    header = profile.header_bytes
    for _ in range(n_data):
        payload = profile.payload_size_dist.sample(rng)
        records.append(TraceRecord(t, conn_id, data_dir, payload, header, False))
        sent += 1
        if sent % profile.ack_every_n == 0:
            records.append(TraceRecord(t, conn_id, ack_dir, 0, header, True))
    return sent


_TRACE_FIELDS = (
    "t_ms", "conn_id", "direction", "payload_bytes", "header_bytes", "is_ack"
)


def write_trace_csv(records: list[TraceRecord], path: str) -> None:
    """Write ``t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack``."""
    flag = spec.FLAG_TEXT
    rows = (
        (r.t_ms, r.conn_id, r.direction.value, r.payload_bytes, r.header_bytes,
         flag[r.is_ack])
        for r in records
    )
    spec.write_csv(path, _TRACE_FIELDS, rows)


def read_trace_csv(path: str) -> list[TraceRecord]:
    """Inverse of :func:`write_trace_csv`; the rows must be sorted by time."""
    last_t = 0

    def record(row: list[str]) -> TraceRecord:
        nonlocal last_t
        t, payload, header = int(row[0]), int(row[3]), int(row[4])
        if t < last_t or payload < 0 or header < 0:
            if t < 0 or payload < 0 or header < 0:
                raise ValueError("t_ms, payload_bytes and header_bytes must be >= 0")
            raise ValueError(
                f"t_ms {t} precedes the previous row's {last_t}; "
                "a trace must be sorted by time"
            )
        last_t = t
        direction, is_ack = Direction(row[2]), spec.flag(row[5])
        return TraceRecord(t, row[1], direction, payload, header, is_ack)

    return spec.read_csv(path, {_TRACE_FIELDS: record})


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


def without_bursts_and_events(profile: WorkloadProfile) -> WorkloadProfile:
    """Copy of ``profile`` with the activity machine and global events disabled."""
    return replace(
        profile,
        burst=replace(profile.burst, p_enter=0.0, p_exit=0.0),
        global_event=GlobalEventModel(),
    )
