"""Run a command in a child process and print its wall time and peak RSS.

    python3 tools/worst_case.py run -- COMMAND [ARG ...]
    python3 tools/worst_case.py compare --fraction 16 [--threshold T] [--seeds S]
    python3 tools/worst_case.py simulate --fraction 16
    python3 tools/worst_case.py fit --fraction 16

``run`` starts ``COMMAND`` with its stdout sent to ``/dev/null`` and waits
for it with ``os.wait4``, whose resource usage holds the child's own peak
resident set (``ru_maxrss``).  It prints one JSON line: the command, its
exit status, ``wall_s``, ``peak_rss_mib`` and ``floor_rss_mib``.  The
child's peak starts at this script's own peak resident set, since the child
shares its memory until it runs the command; ``floor_rss_mib`` is the peak
of ``true`` started the same way, so a ``peak_rss_mib`` near it tells
little about the command.

``compare`` and ``simulate`` run ``comparison_scenario()`` cut to
``1/FRACTION`` of ``scenario.MAX_TICKS`` ticks, each the same way.

``compare`` runs ``drsync compare`` over two seeds (``--seeds``, 1,2 by
default) with an output tree in a temporary directory; ``--threshold``
replaces the protocol's threshold (1e12 sends only tick 0, so a seed whose
one packet is lost has no error to compare).

``simulate`` runs ``drsync simulate`` under ``reliable_ordered`` at a
``loss_rate`` of 0.95, the costliest accepted run: a packet is sent 11
times on average.

``fit`` runs ``drsync fit`` at its default 2,000 epochs on
``generate_labeled_sessions(qon.MAX_FIT_STEPS // 2000 // FRACTION, 1)``,
which a child process writes to a temporary CSV, so that this script
imports neither drsync nor numpy and its floor stays that of ``run``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIT_EPOCHS = 2000  # drsync fit's default
# Writes the sessions of fit's worst case at ``argv[2]`` and prints how many.
WRITE_SESSIONS = (
    "import sys; from drsync import qon; "
    f"n = qon.MAX_FIT_STEPS // {FIT_EPOCHS} // int(sys.argv[1]); "
    "qon.write_sessions_csv(qon.generate_labeled_sessions(n, 1), sys.argv[2]); "
    "print(n)"
)


def spawn(command: list[str], env: dict[str, str]) -> tuple[int, float]:
    """Run ``command``, its stdout sent to ``/dev/null``, to its end; its
    wait status and peak resident set in MiB."""
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    pid = os.posix_spawnp(command[0], command, env, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    return status, round(usage.ru_maxrss / 1024, 1)  # ru_maxrss is KiB


def measure(command: list[str], env: dict[str, str] | None = None) -> dict:
    """Run ``command`` to its end; its exit status, wall time and peak RSS,
    and the peak RSS of ``true`` started the same way."""
    env = os.environ if env is None else env
    start = time.perf_counter()
    status, peak = spawn(command, env)
    wall = time.perf_counter() - start
    return {
        "command": command,
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": round(wall, 3),
        "peak_rss_mib": peak,
        "floor_rss_mib": spawn(["true"], env)[1],
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


def drsync_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def measure_drsync(cfg, command: str, *args: str) -> dict:
    """``drsync COMMAND --config <cfg> ARGS``, the config in a temporary file."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "scenario.json"
        path.write_text(json.dumps(scenario().config_to_dict(cfg)))
        result = measure(
            [sys.executable, "-m", "drsync", command, "--config", str(path),
             *args],
            drsync_env(),
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


def fit(fraction: int) -> dict:
    """``drsync fit`` on ``1/fraction`` of the sessions ``MAX_FIT_STEPS``
    allows at the default epochs."""
    env = drsync_env()
    with tempfile.TemporaryDirectory() as work:
        data = str(Path(work) / "sessions.csv")
        written = subprocess.run(
            [sys.executable, "-c", WRITE_SESSIONS, str(fraction), data],
            env=env, check=True, capture_output=True, text=True,
        )
        sessions = int(written.stdout)
        result = measure([sys.executable, "-m", "drsync", "fit", "--data", data], env)
    return {"sessions": sessions, "epochs": FIT_EPOCHS, **result}


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
    fit_ = sub.add_parser("fit", help="measure fit at MAX_FIT_STEPS")
    fit_.add_argument(
        "--fraction", type=int, required=True, help="of MAX_FIT_STEPS' sessions"
    )
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
    elif args.what == "simulate":
        result = simulate(args.fraction)
    else:
        result = fit(args.fraction)
    print(json.dumps(result))
    return 0 if result["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
