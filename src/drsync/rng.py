"""Deterministic seed derivation for independent random substreams.

Every stochastic component in this package draws from a ``random.Random``
instance seeded through :func:`mix64`, which folds an arbitrary tuple of
integers (master seed, stream tag, sequence number, ...) into a single
well-mixed 64-bit value using the splitmix64 finalizer.  Deriving substreams
this way makes each stream independent of how many draws any other stream
consumed, so results are reproducible regardless of generation order.
Every seed the package takes keeps :data:`SEED`.  :func:`mt_first_words`
gives the first words of many such streams at once.
"""

from __future__ import annotations

import random

import numpy as np

from . import spec

_MASK64 = (1 << 64) - 1

# The seed rule of every config and command: the values mix64 tells apart,
# as it masks each part to 64 bits (a wider seed was a second name for one).
SEED = spec.Int(ge=0, le=_MASK64)

# Stream tags used across the package.  Values are arbitrary but frozen:
# changing them changes every seeded result.
TAG_CHANNEL = 0x43484E4C  # "CHNL"
TAG_TRAJECTORY = 0x54524A43  # "TRJC"
TAG_CLIENT = 0x436C
TAG_SERVER = 0x5376
TAG_EVENTS = 0x4576


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit value via the splitmix64 finalizer.

    Each part is masked to 64 bits and absorbed with a full finalization
    round, so (1, 0) and (0, 1) land far apart.
    """
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc ^= part & _MASK64
        acc = (acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        acc = (acc ^ (acc >> 27)) * 0x94D049BB133111EB & _MASK64
        acc ^= acc >> 31
    return acc


def check_seed(seed: int, name: str = "seed") -> None:
    """Raise ``ValueError``, naming ``name``, if ``seed`` breaks :data:`SEED`."""
    msg = SEED.problem(seed)
    if msg is not None:
        raise ValueError(f"{name}: {msg}")


def mix64_array(*parts: int | np.ndarray) -> np.ndarray:
    """:func:`mix64` over arrays: element ``i`` is ``mix64`` of the parts at ``i``.

    A part is a Python int of any size, masked to 64 bits as ``mix64`` masks
    it, or an array of non-negative integers, which broadcast together.
    """
    arrays = [
        np.asarray(p, dtype=np.uint64)
        if isinstance(p, np.ndarray)
        else np.uint64(p & _MASK64)
        for p in parts
    ]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    acc = np.full(shape, 0x9E3779B97F4A7C15, dtype=np.uint64)
    for part in arrays:
        acc ^= part
        acc ^= acc >> np.uint64(30)
        acc *= np.uint64(0xBF58476D1CE4E5B9)
        acc ^= acc >> np.uint64(27)
        acc *= np.uint64(0x94D049BB133111EB)
        acc ^= acc >> np.uint64(31)
    return acc


def substream(*parts: int) -> random.Random:
    """Return a ``random.Random`` seeded from the mixed parts."""
    return random.Random(mix64(*parts))


# MT19937's state size and twist offset (Matsumoto and Nishimura, ACM TOMACS
# 1998), and the words of ``init_genrand(19650218)``, where CPython's
# ``init_by_array`` starts.
_MT_N, _MT_M = 624, 397


def _init_genrand(s: int) -> list[int]:
    mt = [s]
    for i in range(1, _MT_N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
    return mt


_MT_INIT = np.array(_init_genrand(19650218), dtype=np.uint32)


def mt_first_words(keys: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` words of ``random.Random(key).getrandbits(32)`` for each key.

    ``keys`` is a uint64 array; row ``w`` of the returned ``(n, len(keys))``
    uint32 array holds word ``w`` of every key, for ``1 <= n <= 227``.

    CPython seeds an int key with ``init_by_array`` over its 32-bit words,
    low word first: one word below 2**32, two below 2**64.  Either way its
    two loops take the same 1,247 steps, which differ between keys only in
    the key word the first loop adds, so each step runs once over all keys
    as uint32 columns.  The second loop reads the words the first left
    behind; rather than keep 624 words per key, a replay of the first loop
    runs beside it.  The first ``n`` outputs of the first twist read only
    words ``0..n`` and ``397..396+n`` of the seeded state, so only those are
    kept, and only they are twisted and tempered.
    """
    if not 1 <= n <= _MT_N - _MT_M:
        raise ValueError(f"n must be in [1, {_MT_N - _MT_M}], got {n}")
    u32, g = np.uint32, list(_MT_INIT)  # as uint32 scalars
    keys = np.asarray(keys, dtype=np.uint64)
    lo = (keys & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (keys >> np.uint64(32)).astype(np.uint32)
    # The first loop's step j adds key word j % length, plus j % length.
    adds = (lo, np.where(hi != 0, hi + u32(1), lo))
    shift, xor, mul = np.right_shift, np.bitwise_xor, np.multiply
    add, sub = np.add, np.subtract
    c30, c1, c2 = u32(30), u32(1664525), u32(1566083941)

    # First loop: step s writes word s for s = 1..623, then wraps, copying
    # word 623 to word 0, and step 624 writes word 1 again.
    g0 = int(g[0])
    first = lo + u32(((g0 ^ (g0 >> 30)) * 1664525 ^ int(g[1])) & 0xFFFFFFFF)
    r, t = first.copy(), np.empty(len(keys), np.uint32)
    for i in range(2, _MT_N):
        shift(r, c30, out=t)
        xor(t, r, out=t)
        mul(t, c1, out=t)
        xor(t, g[i], out=r)
        add(r, adds[(i - 1) & 1], out=r)
    shift(r, c30, out=t)
    xor(t, r, out=t)
    mul(t, c1, out=t)
    xor(t, first, out=t)
    word1 = add(t, adds[1])

    # Second loop from word 2: its chain ``p`` is row 1 of ``s``, and row 0,
    # ``r``, replays the first loop's word at the same place, so that one
    # shift, xor and multiply serve both.
    s = np.empty((2, len(keys)), np.uint32)
    s[0], s[1] = first, word1
    r, p = s
    ts = np.empty_like(s)
    mults = np.array([[c1], [c2]], np.uint32)
    kept = np.empty((2 * n + 1, len(keys)), np.uint32)  # words 0..n, 397..396+n
    kept[0] = 0x80000000  # init_by_array's last act sets word 0's top bit
    for i in range(2, _MT_N):
        shift(s, c30, out=ts)
        xor(ts, s, out=s)
        mul(s, mults, out=s)
        xor(r, g[i], out=r)
        add(r, adds[(i - 1) & 1], out=r)
        xor(p, r, out=p)
        sub(p, u32(i), out=p)
        if i <= n:
            kept[i] = p
        elif _MT_M <= i < _MT_M + n:
            kept[n + 1 + i - _MT_M] = p
    # It wraps too: word 0 is now word 623, and step 623 writes word 1.
    shift(p, c30, out=t)
    xor(t, p, out=t)
    mul(t, c2, out=t)
    xor(t, word1, out=t)
    sub(t, u32(1), out=kept[1])
    del s, ts, r, p, first, word1, adds, lo, hi  # freed before the twist's rows

    # Twist and temper one output row at a time, in two scratch columns.
    out = np.empty((n, len(keys)), np.uint32)
    y = np.empty(len(keys), np.uint32)
    for w, o in enumerate(out):
        np.bitwise_and(kept[w], u32(0x80000000), out=y)
        np.bitwise_and(kept[w + 1], u32(0x7FFFFFFF), out=t)
        y |= t
        shift(y, u32(1), out=o)
        o ^= kept[n + 1 + w]
        y &= u32(1)
        y *= u32(0x9908B0DF)
        o ^= y
        # Tempering.
        shift(o, u32(11), out=t)
        o ^= t
        np.left_shift(o, u32(7), out=t)
        t &= u32(0x9D2C5680)
        o ^= t
        np.left_shift(o, u32(15), out=t)
        t &= u32(0xEFC60000)
        o ^= t
        shift(o, u32(18), out=t)
        o ^= t
    return out
