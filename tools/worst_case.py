"""Run a command in a child process and print its wall time and peak RSS.

    python3 tools/worst_case.py run -- COMMAND [ARG ...]
    python3 tools/worst_case.py compare --fraction 16 [--threshold T] [--seeds S]
    python3 tools/worst_case.py simulate --fraction 16

``run`` starts ``COMMAND`` with its stdout sent to ``/dev/null`` and waits
for it with ``os.wait4``, whose resource usage holds the child's own peak
resident set (``ru_maxrss``), not this script's.  It prints one JSON line:
the command, its exit status, ``wall_s`` and ``peak_rss_mib``.

``compare`` and ``simulate`` run ``comparison_scenario()`` cut to
``1/FRACTION`` of ``scenario.MAX_TICKS`` ticks, each the same way.

``compare`` runs ``drsync compare`` over two seeds (``--seeds``, 1,2 by
default) with an output tree in a temporary directory; ``--threshold``
replaces the protocol's threshold (1e12 sends only tick 0, so a seed whose
one packet is lost has no error to compare).

``simulate`` runs ``drsync simulate`` under ``reliable_ordered`` at a
``loss_rate`` of 0.95, the costliest accepted run: a packet is sent 11
times on average.
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


def scenario():
    """``drsync.scenario`` from this checkout, imported only when needed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from drsync import scenario

    return scenario


def cut(fraction: int):
    """``comparison_scenario()`` at ``1/fraction`` of ``MAX_TICKS`` ticks."""
    cfg = scenario().comparison_scenario()
    ticks = scenario().MAX_TICKS // fraction  # duration_ms // tick_ms + 1 of them
    return replace(cfg, duration_ms=(ticks - 1) * cfg.protocol.tick_ms)


def measure_drsync(cfg, command: str, *args: str) -> dict:
    """``drsync COMMAND --config <cfg> ARGS``, the config in a temporary file."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "scenario.json"
        path.write_text(json.dumps(scenario().config_to_dict(cfg)))
        result = measure(
            [sys.executable, "-m", "drsync", command, "--config", str(path),
             *args],
            env,
        )
    ticks = cfg.duration_ms // cfg.protocol.tick_ms + 1
    return {"ticks": ticks, **result}


def compare(fraction: int, threshold: float | None, seeds: str) -> dict:
    cfg = cut(fraction)
    if threshold is not None:
        cfg = replace(cfg, protocol=replace(cfg.protocol, threshold=threshold))
    with tempfile.TemporaryDirectory() as out:
        result = measure_drsync(cfg, "compare", "--seeds", seeds, "--out", out)
    return {"ticks": result["ticks"], "threshold": cfg.protocol.threshold, **result}


def simulate(fraction: int) -> dict:
    cfg = cut(fraction)
    cfg = replace(
        cfg, mode=scenario().MODE_RELIABLE, channel=replace(cfg.channel, loss_rate=0.95)
    )
    return measure_drsync(cfg, "simulate")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    run = sub.add_parser("run", help="measure any command")
    run.add_argument("command", nargs=argparse.REMAINDER)
    cmp_ = sub.add_parser("compare", help="measure a two-seed compare")
    cmp_.add_argument("--fraction", type=int, required=True, help="of MAX_TICKS")
    cmp_.add_argument("--threshold", type=float)
    cmp_.add_argument("--seeds", default="1,2")
    sim = sub.add_parser("simulate", help="measure the costliest simulate")
    sim.add_argument("--fraction", type=int, required=True, help="of MAX_TICKS")
    args = parser.parse_args(argv)
    if args.what == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("run needs a command")
        result = measure(command)
    elif args.fraction < 1:
        parser.error("--fraction must be >= 1")
    elif args.what == "compare":
        result = compare(args.fraction, args.threshold, args.seeds)
    else:
        result = simulate(args.fraction)
    print(json.dumps(result))
    return 0 if result["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
