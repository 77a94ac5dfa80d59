"""Seeded lossy channel plus two transport disciplines over it.

The channel applies two impairments per transmission, drawn in a fixed,
documented order: first a Bernoulli loss test against ``loss_rate``, then an
integer jitter uniform on ``{0..jitter_max_ms}``.  Draws come from a
``random.Random`` derived per transmission from ``(seed, seq, attempt)`` via
:func:`drsync.rng.mix64`, so the impairment of any given transmission is a
pure function of the channel seed and never depends on how other packets
fared.  Two runs over the same channel seed therefore impair the first
attempt of each packet identically, whichever transport is in use; only
retransmissions consume extra draws.

Transports:

* ``reliable_run`` (configured by ``ReliableOrdered``) retransmits each lost
  packet at the prior attempt time plus a fixed ``rto_ms``, up to
  :data:`MAX_RETRANSMISSIONS` times, then releases packets to the
  application strictly in order, so one straggler holds back everything
  behind it.  A packet lost on every attempt is given up: it gets no arrival
  or delivery and holds back nothing.
* ``unreliable_run`` sends each packet once; losses simply vanish.
  Survivors pass through a de-jitter buffer that holds early arrivals until
  a playout deadline of ``send + base_latency + playout_delay``; later
  arrivals are either delivered immediately (late) or dropped, per policy.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from . import spec
from .core import TimeMs
from .rng import mix64

# Attempts after the first before a reliable transport gives a packet up;
# Linux's default ``tcp_retries2``.
MAX_RETRANSMISSIONS = 15


@dataclass(frozen=True)
class ChannelConfig:
    """One-way impaired link: fixed base delay, bounded jitter, Bernoulli loss."""

    base_latency_ms: int = spec.field(spec.Int(ge=0))
    jitter_max_ms: int = spec.field(spec.Int(ge=0))
    loss_rate: float = spec.field(spec.Real(ge=0, le=1))
    seed: int = spec.field(spec.Int(ge=0))

    __post_init__ = spec.check


class LatePolicy(enum.Enum):
    """What the de-jitter buffer does with a packet that misses its playout time."""

    DELIVER_LATE = "deliver_late"
    DROP = "drop"


@dataclass(frozen=True)
class DejitterConfig:
    playout_delay_ms: int = spec.field(spec.Int(ge=0), 0)
    late_policy: LatePolicy = spec.field(
        spec.Choice(LatePolicy), LatePolicy.DELIVER_LATE
    )

    __post_init__ = spec.check


@dataclass(frozen=True)
class ReliableOrdered:
    """In-order transport with fixed-interval retransmission, like simplified TCP."""

    rto_ms: int = spec.field(spec.Int(ge=1))

    __post_init__ = spec.check


@dataclass(frozen=True)
class DeliveryEvent:
    """Fate of one packet: when it was sent, arrived, and reached the application.

    ``arrive_ms`` is None when every transmission was lost (for the reliable
    transport, all ``MAX_RETRANSMISSIONS + 1`` of them); ``deliver_ms`` is
    None when the packet never reached the application (lost, or dropped as
    late).  ``late`` marks arrivals past their de-jitter playout time.
    """

    seq: int
    send_ms: TimeMs
    arrive_ms: TimeMs | None
    deliver_ms: TimeMs | None
    late: bool
    retransmissions: int


def transmission_rng(seed: int, seq: int, attempt: int) -> random.Random:
    """Generator governing one transmission attempt of one packet."""
    return random.Random(mix64(seed, seq, attempt))


def channel_transmit(
    cfg: ChannelConfig, rng: random.Random, send_ms: TimeMs
) -> TimeMs | None:
    """Push one transmission through the channel; return arrival time or None if lost.

    Consumes exactly one (loss, jitter) draw pair from ``rng``, in that order,
    whatever the outcome.
    """
    lost = rng.random() < cfg.loss_rate
    jitter = rng.randint(0, cfg.jitter_max_ms)
    if lost:
        return None
    return send_ms + cfg.base_latency_ms + jitter


def dejitter_deliver(
    cfg: DejitterConfig,
    base_latency_ms: int,
    send_ms: TimeMs,
    arrive_ms: TimeMs,
) -> tuple[TimeMs, bool] | None:
    """Run one arrival through the de-jitter buffer.

    Returns ``(deliver_ms, late)``, or None if the packet was dropped as
    late.  On-time packets are held until ``send + base_latency +
    playout_delay`` so constant pacing at the sender re-emerges at the
    application.
    """
    playout_ms = send_ms + base_latency_ms + cfg.playout_delay_ms
    if arrive_ms <= playout_ms:
        return playout_ms, False
    if cfg.late_policy is LatePolicy.DROP:
        return None
    return arrive_ms, True


def _check_sends(sends: list[tuple[int, TimeMs]]) -> None:
    prev_t: TimeMs | None = None
    for i, (seq, t) in enumerate(sends):
        if seq != i + 1:
            raise ValueError(
                f"send seqs must be contiguous from 1, got seq={seq} at index {i}"
            )
        if prev_t is not None and t < prev_t:
            raise ValueError(
                f"send times must be monotone, got {t} after {prev_t}"
            )
        prev_t = t


def _first_arrival(
    chan: ChannelConfig, seq: int, send_ms: TimeMs, rto_ms: int, retries: int
) -> tuple[TimeMs | None, int]:
    """Transmit one packet until it arrives or ``retries`` retransmissions fail.

    Attempt ``k`` leaves at ``send_ms + k * rto_ms``.  Returns the arrival
    time, None if every attempt was lost, and the retransmissions made.
    """
    for attempt in range(retries + 1):
        arrive = channel_transmit(
            chan, transmission_rng(chan.seed, seq, attempt), send_ms + attempt * rto_ms
        )
        if arrive is not None:
            return arrive, attempt
    return None, retries


def reliable_run(
    chan: ChannelConfig, transport: ReliableOrdered, sends: list[tuple[int, TimeMs]]
) -> list[DeliveryEvent]:
    """Deliver packets in order, retransmitting losses every ``rto_ms``.

    ``sends`` is a list of ``(seq, send_ms)`` with seqs contiguous from 1 and
    monotone times.  A packet still lost after ``MAX_RETRANSMISSIONS``
    retransmissions is given up and holds back nothing behind it.
    """
    _check_sends(sends)
    events: list[DeliveryEvent] = []
    prev_deliver: TimeMs = 0
    for seq, send_ms in sends:
        arrive, retransmissions = _first_arrival(
            chan, seq, send_ms, transport.rto_ms, MAX_RETRANSMISSIONS
        )
        deliver = None
        if arrive is not None:
            # In-order release: nothing overtakes an earlier packet.
            deliver = prev_deliver = max(arrive, prev_deliver)
        events.append(
            DeliveryEvent(seq, send_ms, arrive, deliver, False, retransmissions)
        )
    return events


def unreliable_run(
    chan: ChannelConfig, dejitter: DejitterConfig, sends: list[tuple[int, TimeMs]]
) -> list[DeliveryEvent]:
    """Send each packet once; survivors pass the de-jitter buffer.

    Loss leaves a hole (``arrive_ms`` and ``deliver_ms`` both None); a
    late-dropped packet keeps its arrival time but has no delivery.
    """
    _check_sends(sends)
    events: list[DeliveryEvent] = []
    for seq, send_ms in sends:
        arrive, _ = _first_arrival(chan, seq, send_ms, 0, 0)
        deliver, late = None, False
        if arrive is not None:
            slot = dejitter_deliver(dejitter, chan.base_latency_ms, send_ms, arrive)
            deliver, late = (None, True) if slot is None else slot
        events.append(DeliveryEvent(seq, send_ms, arrive, deliver, late, 0))
    return events


_EVENT_FIELDS = ("seq", "send_ms", "arrive_ms", "deliver_ms", "late", "retransmissions")


def write_delivery_csv(events: list[DeliveryEvent], path: str) -> None:
    """Write events as ``seq,send_ms,arrive_ms,deliver_ms,late,retransmissions``.

    Absent times serialize as empty fields; booleans as ``true``/``false``.
    """
    flag = spec.FLAG_TEXT
    rows = (
        (e.seq, e.send_ms, e.arrive_ms, e.deliver_ms, flag[e.late], e.retransmissions)
        for e in events
    )
    spec.write_csv(path, _EVENT_FIELDS, rows)


def read_delivery_csv(path: str) -> list[DeliveryEvent]:
    """Inverse of :func:`write_delivery_csv`."""

    def event(row: list[str]) -> DeliveryEvent:
        seq, send, arrive, deliver, late, retrans = row
        return DeliveryEvent(
            seq=int(seq),
            send_ms=int(send),
            arrive_ms=int(arrive) if arrive else None,
            deliver_ms=int(deliver) if deliver else None,
            late=spec.flag(late),
            retransmissions=int(retrans),
        )

    return spec.read_csv(path, {_EVENT_FIELDS: event})
