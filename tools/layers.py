"""Time each production stage of one benchmark workload's op, in process.

    python3 tools/layers.py --workload W [--seed N] [--runs K]

It builds the workload's inputs with ``perfbench/workloads.py``'s builders
and runs the op's production calls ``K`` times in this process:
``run_simulation`` for sim-slow-clean, ``run_compare`` with its output tree
for sim-fast-lossy, and ``drsync generate`` then ``drsync analyze`` (and,
for analyst-fine, ``drsync fit``) through ``drsync.cli.main``.  The stage
seconds are the ones drsync logs at DEBUG in its ``stage seconds:`` lines:
a run's ``RunResult.timings``, its ``write``, compare's own stages and the
CLI's laps.  Each is summed over an op under ``<command>.<stage>``, so a
compare adds up the stages of all its runs.

It prints one JSON line: the workload, seed and runs, and the median
seconds of the op's wall time (``wall_s``) and of each stage (``stages``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import statistics
import sys
import tempfile
import time
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from drsync import cli, scenario  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class StageLines(logging.Handler):
    """Sums the ``stage=seconds`` pairs of every ``stage seconds:`` line."""

    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.seconds: dict[str, float] = {}

    def emit(self, record: logging.LogRecord) -> None:
        _, found, pairs = record.getMessage().partition(" stage seconds: ")
        for pair in pairs.split() if found else ():
            stage, value = pair.split("=")
            self.seconds[stage] = self.seconds.get(stage, 0.0) + float(value)


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"drsync {' '.join(argv)} exited {status}")


def commands(workload, inputs, out: Path) -> list[tuple[str, Callable[[], object]]]:
    """The op's production calls in order, each named by its CLI command."""
    if workload.name == "sim-slow-clean":
        return [("simulate", lambda: scenario.run_simulation(inputs))]
    if workload.name == "sim-fast-lossy":
        cfg, seeds = inputs
        return [("compare", lambda: scenario.run_compare(cfg, seeds, out_dir=out))]
    seed = inputs if workload.name == "trace-mmorpg" else inputs[0]
    profile = "mmorpg" if workload.name == "trace-mmorpg" else "fps"
    trace = str(out / "trace.csv")
    argvs = [
        ["generate", "--preset", profile, "--clients", str(workload.n_clients),
         "--duration-ms", str(workload.duration_ms), "--seed", str(seed),
         "--out", trace],
        ["analyze", "--trace", trace, "--bucket-ms", str(workload.bucket_ms)],
    ]
    if workload.name == "analyst-fine":
        argvs.append(["fit", "--data", str(inputs[1]), "--out", str(out / "w.json")])
    return [(argv[0], lambda argv=argv: _cli(argv)) for argv in argvs]


def measure(workload, seed: int, runs: int) -> list[tuple[float, dict[str, float]]]:
    """Each op's wall seconds and its ``<command>.<stage>`` seconds."""
    log = logging.getLogger("drsync")
    handler = StageLines()
    saved = log.level, log.propagate
    log.setLevel(logging.DEBUG)
    log.propagate = False  # the CLI's stderr handler sits on the root
    log.addHandler(handler)
    ops = []
    try:
        with tempfile.TemporaryDirectory() as folder:
            inputs = workload.build(seed, Path(folder) / "inputs")
            for k in range(runs):
                out = Path(folder) / f"op{k}"
                out.mkdir()
                wall, stages = 0.0, {}
                for command, call in commands(workload, inputs, out):
                    handler.seconds = {}
                    started = time.perf_counter()
                    call()
                    wall += time.perf_counter() - started
                    for stage, s in handler.seconds.items():
                        stages[f"{command}.{stage}"] = s
                ops.append((wall, stages))
    finally:
        log.removeHandler(handler)
        log.setLevel(saved[0])
        log.propagate = saved[1]
    return ops


def summary(name: str, seed: int, ops: list[tuple[float, dict[str, float]]]) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "runs": len(ops),
        "wall_s": statistics.median(wall for wall, _ in ops),
        "stages": {
            stage: statistics.median(stages[stage] for _, stages in ops)
            for stage in ops[0][1]
        },
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    ops = measure(WORKLOADS[args.workload], args.seed, args.runs)
    print(json.dumps(summary(args.workload, args.seed, ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
