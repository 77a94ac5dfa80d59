"""Seeded lossy channel plus two transport disciplines over it.

The channel applies two impairments per transmission, drawn in a fixed,
documented order: first a Bernoulli loss test against ``loss_rate``, then an
integer jitter uniform on ``{0..jitter_max_ms}``.  The draws of a
transmission are those of ``random.Random(mix64(seed, seq, attempt))``
(:func:`drsync.rng.substream`), so the impairment of any given transmission
is a pure function of the channel seed and never depends on how other
packets fared.  Two runs over the same channel seed therefore impair the
first attempt of each packet identically, whichever transport is in use;
only retransmissions consume extra draws.

Every transmission is drawn by :func:`draw`, one attempt of many packets at
a time.  It mixes their keys in one array pass.  From :data:`BATCH_MIN_KEYS`
keys on, :func:`drsync.rng.mt_first_words` seeds them all at once and the
draws are read off its words; below that, one ``random.Random`` is reseeded
with each key, which sets the state ``random.Random(key)`` starts from, and
the draws are taken as :func:`channel_transmit` takes them.

Transports:

* ``reliable_run`` (configured by ``ReliableOrdered``) retransmits each lost
  packet at the prior attempt time plus a fixed ``rto_ms``, up to
  :data:`MAX_RETRANSMISSIONS` times, then releases packets to the
  application strictly in order, so one straggler holds back everything
  behind it.  A packet lost on every attempt is given up: it gets no arrival
  or delivery and holds back nothing.  It retransmits in rounds: round ``k``
  draws attempt ``k`` of every packet still lost.
* ``unreliable_run`` sends each packet once; losses simply vanish.
  Survivors pass through a de-jitter buffer that holds early arrivals until
  a playout deadline of ``send + base_latency + playout_delay``; later
  arrivals are either delivered immediately (late) or dropped, per policy.
"""

from __future__ import annotations

import enum
import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spec
from .core import TimeMs
from .rng import SEED, mix64_array, mt_first_words

# Attempts after the first before a reliable transport gives a packet up;
# Linux's default ``tcp_retries2``.
MAX_RETRANSMISSIONS = 15
# The largest base latency and jitter bound.  It leaves room for latencies
# past int64 and keeps the run summary's RTT mean and spread finite floats
# over scenario.MAX_TICKS sends.
MAX_DELAY_MS = 2**256

# From this many keys on, a draw is seeded at once by rng.mt_first_words;
# below it, reseeding one random.Random per key is faster (they cross at 800
# to 1,000 keys on a 2-vCPU Xeon guest).
BATCH_MIN_KEYS = 1_000
# Keys per mt_first_words call, which bounds the memory it works in.
_CHUNK_KEYS = 2**15
# Words drawn per key: two for the loss draw, the rest for the jitter's
# tries.  A jitter still rejected after them is drawn again by reseeding.
_FIRST_WORDS = 8


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


def _or_none(times: np.ndarray) -> np.ndarray:
    """``times`` as Python ints, with None for each absent (-1) time."""
    return np.where(times < 0, None, times)


class Deliveries(NamedTuple):
    """A run's :class:`DeliveryEvent` columns but ``seq``, seq ``i + 1`` in
    row ``i``; the times share one dtype, and -1 marks an absent one."""

    send_ms: np.ndarray
    arrive_ms: np.ndarray
    deliver_ms: np.ndarray
    late: np.ndarray
    retransmissions: np.ndarray

    def events(self) -> list[DeliveryEvent]:
        send, arrive, deliver, late, retransmissions = self
        columns = (send, _or_none(arrive), _or_none(deliver), late, retransmissions)
        cells = [column.tolist() for column in columns]
        return list(map(DeliveryEvent, itertools.count(1), *cells))


def _time_dtype(most: int) -> type:
    """int64 for times up to ``most`` if it holds them, else ``object``: a
    base latency alone may pass int64, and Python ints cannot overflow."""
    return np.int64 if most < 2**63 else object


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


def draw(
    runs: Sequence[tuple[ChannelConfig, np.ndarray]], attempt: int
) -> list[np.ndarray]:
    """For each ``(chan, seqs)`` pair, the delay of transmission ``attempt``
    of each seq through ``chan``: its base latency plus jitter, or -1 if lost.

    From :data:`BATCH_MIN_KEYS` keys in all, every key's first words come
    from one :func:`drsync.rng.mt_first_words` pass, and each draw is read
    off them as ``channel_transmit`` takes it (:func:`_read_draws`).
    """
    keys = [mix64_array(chan.seed, seqs, attempt) for chan, seqs in runs]
    total = sum(map(len, keys))
    if total < BATCH_MIN_KEYS:
        return [_transmit_each(chan, k) for (chan, _), k in zip(runs, keys)]
    words = np.empty((_FIRST_WORDS, total), np.uint32)
    every = np.concatenate(keys)
    for start in range(0, total, _CHUNK_KEYS):
        chunk = every[start : start + _CHUNK_KEYS]
        words[:, start : start + len(chunk)] = mt_first_words(chunk, _FIRST_WORDS)
    delays, start = [], 0
    for (chan, _), k in zip(runs, keys):
        delays.append(_read_draws(chan, k, words[:, start : start + len(k)]))
        start += len(k)
    return delays


def _transmit_each(chan: ChannelConfig, keys: np.ndarray) -> np.ndarray:
    """Each key's delay, reseeding one ``random.Random`` per key.

    :func:`channel_transmit`'s draws are written out over the generator's
    ``random`` and ``getrandbits``, in CPython's operations and order:
    ``randint(0, jitter_max_ms)`` is ``getrandbits`` of the bit length of
    ``jitter_max_ms + 1``, retried while too large.  ``random.Random.seed``
    of an int checks its type and hands it to the C generator's ``seed``,
    which is called here directly.
    """
    rng = random.Random()
    seed = super(random.Random, rng).seed
    random_, getrandbits = rng.random, rng.getrandbits
    loss, base = chan.loss_rate, chan.base_latency_ms
    width = chan.jitter_max_ms + 1
    bits = width.bit_length()
    delays = []
    for key in keys.tolist():
        seed(key)
        lost = random_() < loss
        jitter = getrandbits(bits)
        while jitter >= width:
            jitter = getrandbits(bits)
        delays.append(-1 if lost else base + jitter)
    return np.array(delays, _time_dtype(chan.base_latency_ms + chan.jitter_max_ms))


def _read_draws(chan: ChannelConfig, keys: np.ndarray, words: np.ndarray) -> np.ndarray:
    """:func:`channel_transmit`'s delay for each key, read off its first ``words``.

    ``random()`` is words 0 and 1 as ``genrand_res53`` joins them.
    ``randint(0, jitter_max_ms)`` is ``getrandbits(k)``, for ``k`` the bit
    length of ``jitter_max_ms + 1``, retried while it is too large; each try
    is the top ``k`` bits of the next word while ``k <= 32``.  A channel
    with wider jitter, and a kept packet whose every try was rejected, go
    through :func:`channel_transmit` instead.
    """
    width = chan.jitter_max_ms + 1
    if width.bit_length() > 32:
        return _transmit_each(chan, keys)
    u = ((words[0] >> 5) * 67108864.0 + (words[1] >> 6)) * (1.0 / 9007199254740992.0)
    lost = u < chan.loss_rate
    tries = words[2:] >> np.uint32(32 - width.bit_length())
    accepted = tries < np.uint32(width)
    jitter = tries[accepted.argmax(axis=0), np.arange(len(keys))]
    dtype = _time_dtype(chan.base_latency_ms + chan.jitter_max_ms)
    delays = np.where(lost, -1, jitter.astype(dtype) + chan.base_latency_ms)
    redraw = np.flatnonzero(~lost & ~accepted.any(axis=0))
    delays[redraw] = _transmit_each(chan, keys[redraw])
    return delays


def reliable(
    chan: ChannelConfig,
    transport: ReliableOrdered,
    send_ms: np.ndarray,
    first: np.ndarray,
) -> Deliveries:
    """:func:`reliable_run` of the send times ``send_ms``, whose first
    attempts' delays are ``first``; round ``k`` draws attempt ``k`` of every
    packet still lost."""
    rto, n = transport.rto_ms, len(send_ms)
    wait = MAX_RETRANSMISSIONS * rto + chan.base_latency_ms + chan.jitter_max_ms
    dtype = _time_dtype(int(send_ms.max(initial=0)) + wait)
    send, delay = send_ms.astype(dtype, copy=False), first.astype(dtype, copy=False)
    arrive = np.where(delay < 0, -1, send + delay)
    retransmissions = np.zeros(n, np.int64)
    lost, attempt = np.flatnonzero(delay < 0), 0
    while len(lost) and attempt < MAX_RETRANSMISSIONS:
        attempt += 1
        retransmissions[lost] = attempt
        [delay] = draw([(chan, lost + 1)], attempt)
        got = delay >= 0
        arrive[lost[got]] = send[lost[got]] + attempt * rto + delay[got].astype(dtype)
        lost = lost[~got]
    # In-order release: nothing overtakes an earlier packet, and a packet
    # given up (-1) holds nothing back.
    deliver = np.maximum.accumulate(arrive)
    deliver[arrive < 0] = -1
    return Deliveries(send, arrive, deliver, np.zeros(n, bool), retransmissions)


def unreliable(
    chan: ChannelConfig,
    dejitter: DejitterConfig,
    send_ms: np.ndarray,
    first: np.ndarray,
) -> Deliveries:
    """:func:`unreliable_run` of ``send_ms`` and ``first``, as for :func:`reliable`."""
    hold = chan.base_latency_ms + dejitter.playout_delay_ms
    wait = max(hold, chan.base_latency_ms + chan.jitter_max_ms)
    dtype = _time_dtype(int(send_ms.max(initial=0)) + wait)
    send, delay = send_ms.astype(dtype, copy=False), first.astype(dtype, copy=False)
    arrived = delay >= 0
    arrive = np.where(arrived, send + delay, -1)
    playout = send + hold
    late = arrived & (arrive > playout)
    deliver = np.where(late, arrive, playout)
    deliver[~arrived] = -1
    if dejitter.late_policy is LatePolicy.DROP:
        deliver[late] = -1
    return Deliveries(send, arrive, deliver, late, np.zeros(len(send), np.int64))


def reliable_run(
    chan: ChannelConfig,
    transport: ReliableOrdered,
    sends: list[tuple[int, TimeMs]],
) -> list[DeliveryEvent]:
    """Deliver packets in order, retransmitting losses every ``rto_ms``.

    ``sends`` is a list of ``(seq, send_ms)`` with seqs contiguous from 1 and
    monotone times from 0.  Attempt ``k`` of a packet leaves at ``send_ms +
    k * rto_ms``.  A packet still lost after ``MAX_RETRANSMISSIONS``
    retransmissions is given up and holds back nothing behind it.
    """
    return reliable(chan, transport, *_columns(chan, sends)).events()


def unreliable_run(
    chan: ChannelConfig,
    dejitter: DejitterConfig,
    sends: list[tuple[int, TimeMs]],
) -> list[DeliveryEvent]:
    """Send each packet once; survivors pass the de-jitter buffer.

    Loss leaves a hole (``arrive_ms`` and ``deliver_ms`` both None); a
    late-dropped packet keeps its arrival time but has no delivery.
    ``sends`` is as for :func:`reliable_run`.
    """
    return unreliable(chan, dejitter, *_columns(chan, sends)).events()


def _columns(
    chan: ChannelConfig, sends: list[tuple[int, TimeMs]]
) -> tuple[np.ndarray, np.ndarray]:
    """The send times of the checked ``sends``, and their first attempts'
    delays through ``chan``."""
    prev_t: TimeMs = 0
    for i, (seq, t) in enumerate(sends):
        if seq != i + 1:
            raise ValueError(
                f"send seqs must be contiguous from 1, got seq={seq} at index {i}"
            )
        if t < prev_t:
            raise ValueError(
                f"send times must be >= 0 and monotone, got {t} after {prev_t}"
            )
        prev_t = t
    [first] = draw([(chan, np.arange(1, len(sends) + 1))], 0)
    return np.array([t for _, t in sends], _time_dtype(prev_t)), first


_EVENT_FIELDS = ("seq", "send_ms", "arrive_ms", "deliver_ms", "late", "retransmissions")


def write_delivery_csv(
    deliveries: Deliveries, path: str, shared: spec.SharedCells | None = None
) -> None:
    """Write deliveries as ``seq,send_ms,arrive_ms,deliver_ms,late,retransmissions``.

    Absent times serialize as empty fields; booleans as ``true``/``false``.
    ``shared`` is as for :func:`~drsync.spec.write_csv`.
    """
    send, arrive, deliver, late, retransmissions = deliveries
    seq = np.arange(1, len(send) + 1)
    columns = [seq, send, _or_none(arrive), _or_none(deliver), spec.flags(late)]
    spec.write_csv(path, _EVENT_FIELDS, [*columns, retransmissions], shared)
