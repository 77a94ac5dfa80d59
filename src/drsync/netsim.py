"""Seeded lossy channel plus two transport disciplines over it.

The channel applies two impairments per transmission, drawn in a fixed,
documented order: first a Bernoulli loss test against ``loss_rate``, then an
integer jitter uniform on ``{0..jitter_max_ms}``.  The draws of a
transmission are those of ``random.Random(mix64(seed, seq, attempt))``
(:func:`drsync.rng.substream`), so the impairment of any given transmission
is a pure function of the channel seed and never depends on how other
packets fared.  Two runs over the same channel seed therefore impair the
first attempt of each packet identically, whichever transport is in use;
only retransmissions consume extra draws.  :func:`first_attempts` draws
those first attempts once, and both transports accept its result.

Every retransmission is :func:`channel_transmit`.  Rather than build a
generator per transmission, each call keeps one ``random.Random`` and
reseeds it with ``seed(key)``, which sets the state ``random.Random(key)``
starts from.  First attempts are the same draws taken in bulk: their keys
are mixed in one array pass, and from :data:`BATCH_MIN_KEYS` keys on,
:func:`drsync.rng.mt_first_words` seeds them all at once and the draws are
read off its words.

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
from typing import NamedTuple

import numpy as np

from . import spec
from .core import TimeMs
from .rng import SEED, mix64, mix64_array, mt_first_words

# Attempts after the first before a reliable transport gives a packet up;
# Linux's default ``tcp_retries2``.
MAX_RETRANSMISSIONS = 15
# The largest base latency and jitter bound.  It leaves room for latencies
# past int64 and keeps the run summary's RTT mean and spread finite floats
# over scenario.MAX_TICKS sends.
MAX_DELAY_MS = 2**256

# From this many keys on, a batch of first attempts is seeded at once by
# rng.mt_first_words; below it, reseeding one random.Random per key is faster
# (they cross at 800 to 1,000 keys on a 2-vCPU Xeon guest).
BATCH_MIN_KEYS = 1_000
# Keys per mt_first_words call, which bounds the memory it works in.
_CHUNK_KEYS = 2**15
# Words drawn per key: two for the loss draw, the rest for the jitter's
# tries.  A jitter still rejected after them is drawn again by reseeding.
_FIRST_WORDS = 8

# Per packet, the arrival time of its first transmission, or None if lost.
FirstAttempts = list[TimeMs | None]


@dataclass(frozen=True)
class ChannelConfig:
    """One-way impaired link: fixed base delay, bounded jitter, Bernoulli loss."""

    base_latency_ms: int = spec.field(spec.Int(ge=0, le=MAX_DELAY_MS))
    jitter_max_ms: int = spec.field(spec.Int(ge=0, le=MAX_DELAY_MS))
    loss_rate: float = spec.field(spec.Real(ge=0, le=1))
    seed: int = spec.field(SEED)

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


class DeliveryEvent(NamedTuple):
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


def first_attempts(
    runs: list[tuple[ChannelConfig, list[tuple[int, TimeMs]]]],
) -> list[FirstAttempts]:
    """For each ``(chan, sends)`` pair, the arrival time of each send's first
    transmission, or None if it was lost.

    From :data:`BATCH_MIN_KEYS` keys in all, every key's first words come
    from one :func:`drsync.rng.mt_first_words` pass, and each draw is read
    off them as ``channel_transmit`` takes it (:func:`_read_draws`).
    """
    keys = []
    for chan, sends in runs:
        _check_sends(sends)
        seqs = np.arange(1, len(sends) + 1, dtype=np.uint64)
        keys.append(mix64_array(chan.seed, seqs, 0))
    total = sum(map(len, keys))
    if total < BATCH_MIN_KEYS:
        return [_transmit_each(*run, k) for run, k in zip(runs, keys)]
    words = np.empty((_FIRST_WORDS, total), np.uint32)
    every = np.concatenate(keys)
    for start in range(0, total, _CHUNK_KEYS):
        chunk = every[start : start + _CHUNK_KEYS]
        words[:, start : start + len(chunk)] = mt_first_words(chunk, _FIRST_WORDS)
    arrivals, start = [], 0
    for (chan, sends), k in zip(runs, keys):
        arrivals.append(_read_draws(chan, sends, k, words[:, start : start + len(k)]))
        start += len(k)
    return arrivals


def _transmit_each(
    chan: ChannelConfig, sends: list[tuple[int, TimeMs]], keys: np.ndarray
) -> FirstAttempts:
    """Each send's first transmission, reseeding one ``random.Random`` per key."""
    rng = random.Random()
    arrivals: FirstAttempts = []
    for key, (_, send_ms) in zip(keys.tolist(), sends):
        rng.seed(key)
        arrivals.append(channel_transmit(chan, rng, send_ms))
    return arrivals


def _read_draws(
    chan: ChannelConfig,
    sends: list[tuple[int, TimeMs]],
    keys: np.ndarray,
    words: np.ndarray,
) -> FirstAttempts:
    """:func:`channel_transmit`'s draws for each key, read off its first ``words``.

    ``random()`` is words 0 and 1 as ``genrand_res53`` joins them.
    ``randint(0, jitter_max_ms)`` is ``getrandbits(k)``, for ``k`` the bit
    length of ``jitter_max_ms + 1``, retried while it is too large; each try
    is the top ``k`` bits of the next word while ``k <= 32``.  A channel
    with wider jitter, and a kept packet whose every try was rejected, go
    through :func:`channel_transmit` instead.
    """
    width = chan.jitter_max_ms + 1
    if width.bit_length() > 32:
        return _transmit_each(chan, sends, keys)
    u = ((words[0] >> 5) * 67108864.0 + (words[1] >> 6)) * (1.0 / 9007199254740992.0)
    lost = u < chan.loss_rate
    tries = words[2:] >> np.uint32(32 - width.bit_length())
    accepted = tries < np.uint32(width)
    jitter = tries[accepted.argmax(axis=0), np.arange(len(keys))]
    base = chan.base_latency_ms
    arrivals: FirstAttempts = [
        None if is_lost else send_ms + base + j
        for (_, send_ms), is_lost, j in zip(sends, lost.tolist(), jitter.tolist())
    ]
    redraw = np.flatnonzero(~lost & ~accepted.any(axis=0))
    if len(redraw):
        again = _transmit_each(chan, [sends[i] for i in redraw], keys[redraw])
        for i, arrive in zip(redraw.tolist(), again):
            arrivals[i] = arrive
    return arrivals


def _first_draws(
    chan: ChannelConfig, sends: list[tuple[int, TimeMs]], first: FirstAttempts | None
) -> FirstAttempts:
    if first is None:
        return first_attempts([(chan, sends)])[0]
    _check_sends(sends)
    if len(first) != len(sends):
        raise ValueError(f"first attempts cover {len(first)} packets, not {len(sends)}")
    return first


def reliable_run(
    chan: ChannelConfig,
    transport: ReliableOrdered,
    sends: list[tuple[int, TimeMs]],
    first: FirstAttempts | None = None,
) -> list[DeliveryEvent]:
    """Deliver packets in order, retransmitting losses every ``rto_ms``.

    ``sends`` is a list of ``(seq, send_ms)`` with seqs contiguous from 1 and
    monotone times.  Attempt ``k`` of a packet leaves at ``send_ms + k *
    rto_ms``.  A packet still lost after ``MAX_RETRANSMISSIONS``
    retransmissions is given up and holds back nothing behind it.
    ``first`` is the :func:`first_attempts` of ``chan`` and these sends, if
    the caller already has them.
    """
    arrivals = _first_draws(chan, sends, first)
    rng = random.Random()
    rto, seed = transport.rto_ms, chan.seed
    events: list[DeliveryEvent] = []
    prev_deliver: TimeMs = 0
    for (seq, send_ms), arrive in zip(sends, arrivals):
        attempt = 0
        while arrive is None and attempt < MAX_RETRANSMISSIONS:
            attempt += 1
            rng.seed(mix64(seed, seq, attempt))
            arrive = channel_transmit(chan, rng, send_ms + attempt * rto)
        deliver = None
        if arrive is not None:
            # In-order release: nothing overtakes an earlier packet.
            deliver = prev_deliver = max(arrive, prev_deliver)
        events.append(DeliveryEvent(seq, send_ms, arrive, deliver, False, attempt))
    return events


def unreliable_run(
    chan: ChannelConfig,
    dejitter: DejitterConfig,
    sends: list[tuple[int, TimeMs]],
    first: FirstAttempts | None = None,
) -> list[DeliveryEvent]:
    """Send each packet once; survivors pass the de-jitter buffer.

    Loss leaves a hole (``arrive_ms`` and ``deliver_ms`` both None); a
    late-dropped packet keeps its arrival time but has no delivery.
    ``first`` is as for :func:`reliable_run`.
    """
    arrivals = _first_draws(chan, sends, first)
    base = chan.base_latency_ms
    events: list[DeliveryEvent] = []
    for (seq, send_ms), arrive in zip(sends, arrivals):
        deliver, late = None, False
        if arrive is not None:
            slot = dejitter_deliver(dejitter, base, send_ms, arrive)
            deliver, late = (None, True) if slot is None else slot
        events.append(DeliveryEvent(seq, send_ms, arrive, deliver, late, 0))
    return events


_EVENT_FIELDS = ("seq", "send_ms", "arrive_ms", "deliver_ms", "late", "retransmissions")


def write_delivery_csv(events: list[DeliveryEvent], path: str) -> None:
    """Write events as ``seq,send_ms,arrive_ms,deliver_ms,late,retransmissions``.

    Absent times serialize as empty fields; booleans as ``true``/``false``.
    """
    seq, send, arrive, deliver, late, retrans = spec.transpose(events, 6)
    columns = [seq, send, arrive, deliver, spec.flags(late), retrans]
    spec.write_csv(path, _EVENT_FIELDS, columns)


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
