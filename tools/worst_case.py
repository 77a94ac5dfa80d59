"""Run a command in a child process and print its wall time and peak RSS.

    python3 tools/worst_case.py run -- COMMAND [ARG ...]
    python3 tools/worst_case.py compare --fraction 16 [--threshold T] [--seeds S]

``run`` starts ``COMMAND`` with its stdout sent to ``/dev/null`` and waits
for it with ``os.wait4``, whose resource usage holds the child's own peak
resident set (``ru_maxrss``), not this script's.  It prints one JSON line:
the command, its exit status, ``wall_s`` and ``peak_rss_mib``.

``compare`` runs ``drsync compare`` over two seeds (``--seeds``, 1,2 by
default) with an output tree in a temporary directory, on
``comparison_scenario()`` cut to ``1/FRACTION`` of ``scenario.MAX_TICKS``
ticks; ``--threshold`` replaces the protocol's threshold (1e12 sends only
tick 0, so a seed whose one packet is lost has no error to compare).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(command: list[str], env: dict[str, str] | None = None) -> dict:
    """Run ``command`` to its end; its exit status, wall time and peak RSS."""
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawnp(
        command[0], command, os.environ if env is None else env,
        file_actions=devnull,
    )
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {
        "command": command,
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": round(wall, 3),
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is KiB
    }


def compare(fraction: int, threshold: float | None, seeds: str) -> dict:
    sys.path.insert(0, str(SRC))
    from drsync.scenario import MAX_TICKS, comparison_scenario, config_to_dict

    cfg = comparison_scenario()
    ticks = MAX_TICKS // fraction  # duration_ms // tick_ms + 1 of them
    cfg = replace(cfg, duration_ms=(ticks - 1) * cfg.protocol.tick_ms)
    if threshold is not None:
        cfg = replace(cfg, protocol=replace(cfg.protocol, threshold=threshold))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "scenario.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        result = measure(
            [sys.executable, "-m", "drsync", "compare", "--config", str(path),
             "--seeds", seeds, "--out", str(Path(work) / "runs")],
            env,
        )
    return {"ticks": ticks, "threshold": cfg.protocol.threshold, **result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    run = sub.add_parser("run", help="measure any command")
    run.add_argument("command", nargs=argparse.REMAINDER)
    cmp_ = sub.add_parser("compare", help="measure a two-seed compare")
    cmp_.add_argument("--fraction", type=int, required=True, help="of MAX_TICKS")
    cmp_.add_argument("--threshold", type=float)
    cmp_.add_argument("--seeds", default="1,2")
    args = parser.parse_args(argv)
    if args.what == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("run needs a command")
        result = measure(command)
    else:
        if args.fraction < 1:
            parser.error("--fraction must be >= 1")
        result = compare(args.fraction, args.threshold, args.seeds)
    print(json.dumps(result))
    return 0 if result["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
