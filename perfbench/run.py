"""drsync benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-fast-lossy --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all

The process builds the workload's inputs from ``--seed``, times five
set-ups in fresh interpreters, runs one discarded warm-up op and then repeats
the op for ``--seconds``.  With ``--trace 0`` every set-up and every op sits
between two runs of the reference job in ``calibrate.py``, and its time is
reported scaled to the job's reference speed (see that module).  Every op's
outputs are hashed and checked against the digests pinned in
``reference_digests.json`` for that seed; for other seeds, every op must
reproduce the first op's digests.  A failed op is counted, and the run goes
on.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced ops alternate, and
the JSON holds the per-layer metrics from the traced ones.  The lines before
it give the same figures under the names of the CLI paths, for people.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every set-up probe.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sim-fast-lossy", "sim-slow-clean", "trace-mmorpg", "analyst-fine")
SETUP_PROBES = 5
MIN_OPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics.  Times are summed span durations within one traced op.
TIMED_SPANS = (
    "core.sample",
    "protocol.sender",
    "protocol.receiver",
    "protocol.export_error",
    "netsim.transport",
    "scenario.run_simulation",
    "scenario.trajectory",
    "scenario.write_outputs",
    "workload.generate",
    "workload.write_csv",
    "workload.read_csv",
    "analysis.stats",
    "analysis.bucket",
    "analysis.period",
    "analysis.interarrival",
    "qon.read_sessions",
    "qon.fit",
    "qon.assess",
)
COUNT_UNITS = {
    "core.samples": "count",
    "protocol.sends": "count",
    "protocol.applied": "count",
    "protocol.stale_dropped": "count",
    "protocol.warmup_ticks": "count",
    "netsim.transmissions": "count",
    "netsim.retransmissions": "count",
    "netsim.delivered": "count",
    "netsim.late": "count",
    "netsim.dropped_late": "count",
    "netsim.hold_ms": "sim_ms",
    "scenario.waypoints": "count",
    "scenario.output_bytes": "bytes",
    "workload.records": "count",
    "workload.csv_bytes": "bytes",
    "analysis.buckets": "count",
    "qon.sessions": "count",
}
LAYER_UNITS = {
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    "scenario.self_s": "s",
    **COUNT_UNITS,
    "protocol.send_ratio": "ratio",
    "netsim.goodput_ratio": "ratio",
    "trace.overhead_pct": "%",
}

RATE_UNITS = {"sim_ticks_per_s": "ticks/s", "trace_records_per_s": "records/s"}


def load_workloads():
    """Import the benchmark's workloads against the drsync sources in this tree."""
    src = ROOT / "src"
    if not (src / "drsync" / "__init__.py").is_file():
        raise SystemExit(f"error: no drsync sources under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


class Calibrator:
    """Scales each timed span by the reference job run just before and after it."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.last = calibrate.job_seconds(work_dir)

    def scale(self) -> float:
        """Call right after a timed span; returns its factor to reference speed."""
        before, self.last = self.last, calibrate.job_seconds(self.work_dir)
        return calibrate.REFERENCE_S / ((before + self.last) / 2)


def time_setup(name: str, seed: int, work_dir: Path) -> float:
    """Seconds from spawning an interpreter to the workload's inputs being built."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-probe", str(work_dir)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    # CLOCK_MONOTONIC is shared by every process on the machine.
    return float(proc.stdout.split()[-1]) - started


class OpRunner:
    """Runs ops, hashes their outputs and counts the ones that fail."""

    def __init__(self, workload, inputs, out_dir: Path, pinned: dict | None):
        self.workload = workload
        self.inputs = inputs
        self.out_dir = out_dir
        self.pinned = pinned is not None
        self.expected = pinned
        self.digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def run(self, tr):
        """Run one op; return its result, or None if it raised."""
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        gc.collect()
        tr.new_run()
        try:
            result = self.workload.op(self.inputs, self.out_dir, tr)
        except Exception:  # a failing op is counted; the benchmark goes on
            self.failed += 1
            traceback.print_exc()
            return None
        if self.expected is None:
            self.expected = result.digests
        wrong = sorted(
            name
            for name in self.expected.keys() | result.digests.keys()
            if self.expected.get(name) != result.digests.get(name)
        )
        if wrong:
            self.failed += 1
            print(f"error: outputs differ from the reference: {wrong}", file=sys.stderr)
        self.digests = result.digests
        return result


def timed_loop(runner: OpRunner, tracers, seconds: float, calibrator=None):
    """Run ops for ``seconds``, cycling through ``tracers``; at least MIN_OPS each.

    Each op is kept as ``(result, run_id, scale)``; ``scale`` is 1 without a
    calibrator.
    """
    results = [[] for _ in tracers]
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or min(map(len, results)) < MIN_OPS:
        for tr, bucket in zip(tracers, results):
            result = runner.run(tr)
            scale = calibrator.scale() if calibrator else 1.0
            if result is not None:
                bucket.append((result, tr.run_id, scale))
            elif time.monotonic() >= deadline:
                return results
    return results


def layer_metrics(tracer, traced, plain, replay_stages) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics: medians of span times over traced ops, exact counts."""
    totals = [tracer.totals(run_id) for _, run_id, _ in traced]
    values = {
        f"{name}_s": statistics.median(t.get(name, 0.0) for t in totals)
        for name in TIMED_SPANS
    }
    values["scenario.self_s"] = statistics.median(
        t.get("scenario.run_simulation", 0.0) - sum(t.get(s, 0.0) for s in replay_stages)
        for t in totals
    )
    counts = [tracer.counts.get(run_id, {}) for _, run_id, _ in traced]
    problems = [] if all(c == counts[0] for c in counts) else ["counts differ between ops"]
    c = counts[0]
    values.update({name: c.get(name, 0) for name in COUNT_UNITS})
    values["protocol.send_ratio"] = ratio(c.get("protocol.sends", 0), c.get("core.samples", 0))
    values["netsim.goodput_ratio"] = ratio(
        c.get("netsim.delivered", 0), c.get("netsim.transmissions", 0)
    )
    traced_s = statistics.median(r.wall_s for r, _, _ in traced)
    plain_s = statistics.median(r.wall_s for r, _, _ in plain)
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return values, problems


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def describe(values: list[float]) -> str:
    q = statistics.quantiles(values, n=4)
    return f"median of {len(values)}; q1 {q[0]:.4g}, q3 {q[2]:.4g}"


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = load_workloads()
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    with open(HERE / "reference_digests.json") as fh:
        pinned = json.load(fh).get(name, {}).get(str(seed))
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        inputs = workload.build(seed, work / "inputs")
        calibrator = None if trace else Calibrator(work / "calibration")
        setups = []
        for i in range(SETUP_PROBES):
            seconds_taken = time_setup(name, seed, work / f"setup-{i}")
            setups.append(seconds_taken * (calibrator.scale() if calibrator else 1.0))
        runner = OpRunner(workload, inputs, work / "out", pinned)
        runner.run(Tracer(enabled=False))  # warm-up, checked but not timed
        if trace:
            tracer = Tracer()
            plain, traced = timed_loop(runner, [Tracer(enabled=False), tracer], seconds)
        else:
            calibrator.scale()  # the warm-up op is not timed
            (plain,) = timed_loop(runner, [Tracer(enabled=False)], seconds, calibrator)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain or (trace and not traced):
        print("error: every op failed", file=sys.stderr)
        return 1

    ops = [r for r, _, _ in plain]
    scales = [scale for _, _, scale in plain]
    rates = [r.work / r.scaled_s(scale, workload.rate_paths) for r, scale in zip(ops, scales)]
    setup_s = statistics.median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems: list[str] = []
    if trace:
        metrics, problems = layer_metrics(tracer, traced, plain, workloads.REPLAY_STAGES)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s": statistics.median(r.scaled_s(scale) for r, scale in zip(ops, scales)),
            "work_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS

    print(
        f"drsync benchmark: {name}, seed {seed}, trace {int(trace)}: "
        f"{len(ops)} timed ops after one warm-up"
    )
    if not trace:
        print(
            f"  times scaled to the reference job's speed; the job took "
            f"{calibrate.REFERENCE_S / statistics.median(scales):.4g} s here "
            f"against {calibrate.REFERENCE_S} s"
        )
    for path in workload.paths:
        times = [r.scaled_s(scale, [path]) for r, scale in zip(ops, scales)]
        print(f"  {path:<22} {statistics.median(times):.6g} s ({describe(times)})")
    print(f"  {workload.rate:<22} {statistics.median(rates):.6g} {RATE_UNITS[workload.rate]}")
    print(f"  {'setup_s':<22} {setup_s:.6g} s ({describe(setups)})")
    print(f"  {'peak_rss_mb':<22} {peak_rss_mb:.6g} MiB")
    print(
        f"  {'error_rate':<22} {runner.failed / runner.attempted:.6g} ratio "
        f"({runner.failed} of {runner.attempted} ops failed)"
    )
    if runner.pinned:
        print(f"  outputs checked against the digests pinned for seed {seed}")
    else:
        print(f"  no digests pinned for seed {seed}; every op matched the first one")
        print(json.dumps({name: {str(seed): runner.digests}}, sort_keys=True), file=sys.stderr)
    if trace:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        for metric, value in metrics.items():
            print(f"  {metric:<28} {value:.6g} {units[metric]}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": runner.failed == 0 and not problems,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    m: {"value": v, "unit": units[m]} for m, v in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.setup_probe is not None:
        workloads = load_workloads()
        workloads.WORKLOADS[args.workload].build(args.seed, args.setup_probe)
        print(time.monotonic())
        return 0
    if args.workload == "all":
        worst = 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
            )
            worst = max(worst, proc.returncode)
        return worst
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
