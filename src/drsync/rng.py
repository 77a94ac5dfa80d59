"""Deterministic seed derivation for independent random substreams.

Every stochastic component in this package draws from a ``random.Random``
instance seeded through :func:`mix64`, which folds an arbitrary tuple of
integers (master seed, stream tag, sequence number, ...) into a single
well-mixed 64-bit value using the splitmix64 finalizer.  Deriving substreams
this way makes each stream independent of how many draws any other stream
consumed, so results are reproducible regardless of generation order.
"""

from __future__ import annotations

import random

import numpy as np

_MASK64 = (1 << 64) - 1

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
