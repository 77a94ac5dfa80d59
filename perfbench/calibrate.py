"""A fixed reference job that tracks how fast the host runs Python right now.

The benchmark's host is a shared 2-vCPU guest whose speed drifts by up to 2x
over minutes, while drift within a second is small.  So each timed op runs
right after and right before this job, and its time is scaled by
``REFERENCE_S / job time`` (the mean of the two jobs around it):

    scaled op time = op wall time * REFERENCE_S / job time

That is the op's time on this host at the speed at which the job takes
``REFERENCE_S``.  The job uses no drsync code, so a change to drsync moves
the scaled time exactly as it moves the wall time.  It does the kinds of
work drsync's ops do (small dataclasses, float math, a seeded RNG, CSV
written to a file and parsed back, dict aggregation, a sort) on a working
set of a few MiB, so that it does not set the process's peak RSS.  The
collector is off while it runs, so its time does not depend on the size of
the rest of the heap.

The drift slows interpreted code, not numpy's vector loops:
``detect_period`` over 60,000 buckets held within about 6% while the job
swung by 15%.  So the time an op spends in ``detect_period`` is added
unscaled (``OpResult.array_s`` in ``workloads.py``).
"""

from __future__ import annotations

import csv
import gc
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

# The job's median time on the 2-vCPU Xeon guest the benchmark was built on.
REFERENCE_S = 0.15
ROUNDS = 4
SAMPLES = 6_000


@dataclass(slots=True)
class Sample:
    t: int
    x: float
    y: float
    key: int

    def speed_to(self, other: "Sample") -> float:
        dt = (other.t - self.t) or 1
        return math.hypot(other.x - self.x, other.y - self.y) / dt


def _round(path: Path, seed: int) -> float:
    rng = random.Random(seed)
    samples = []
    x = y = 0.0
    for t in range(SAMPLES):
        x += rng.uniform(-1.0, 1.0)
        y += math.sin(t * 0.01) * rng.random()
        samples.append(Sample(t, x, y, t % 61))
    by_key: dict[int, float] = {}
    for a, b in zip(samples, samples[1:]):
        by_key[a.key] = by_key.get(a.key, 0.0) + a.speed_to(b)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for s in samples:
            writer.writerow((s.t, f"{s.x:.6f}", f"{s.y:.6f}", s.key))
    with open(path, newline="") as fh:
        rows = [
            Sample(int(t), float(x), float(y), int(k)) for t, x, y, k in csv.reader(fh)
        ]
    rows.sort(key=lambda s: (s.key, s.y))
    return rows[0].x + sum(by_key.values())


def job_seconds(work_dir: Path) -> float:
    """Wall time of one run of the reference job, with the collector off."""
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / "calibration.csv"
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(ROUNDS):
            _round(path, i)
        return time.perf_counter() - started
    finally:
        gc.enable()
        path.unlink(missing_ok=True)
