"""Run a command in a child process and print its wall time and peak RSS.

    python3 tools/worst_case.py run -- COMMAND [ARG ...]
    python3 tools/worst_case.py compare --fraction 16 [--threshold T] [--loss L]
        [--seeds S]
    python3 tools/worst_case.py simulate --fraction 16
    python3 tools/worst_case.py generate --fraction 16
    python3 tools/worst_case.py analyze --fraction 16 [--form {plain,quoted,piped}]
    python3 tools/worst_case.py fit --fraction 16

``run`` starts ``COMMAND`` with its stdout sent to ``/dev/null`` and waits
for it with ``os.wait4``, whose resource usage holds the child's own peak
resident set (``ru_maxrss``).  It prints one JSON line: the command, its
exit status, ``wall_s``, ``peak_rss_mib`` and ``floor_rss_mib``.  The
child's peak starts at this script's own peak resident set, since the child
shares its memory until it runs the command; ``floor_rss_mib`` is the peak
of ``true`` started the same way, so a ``peak_rss_mib`` near it tells
little about the command.  This script imports neither drsync nor numpy:
whatever a subcommand needs from drsync, a child process reads or writes,
so that every subcommand's floor is that of ``run``.

``compare`` and ``simulate`` run ``comparison_scenario()``, cut to the
ticks given below, each the same way.

``compare`` runs ``drsync compare`` over ``--seeds`` (1,2 by default) with
an output tree in a temporary directory.  Each seed has ``MAX_TICKS //
FRACTION // len(seeds) - COMPARE_SEED_TICKS`` ticks, so ``--fraction 1`` is
a compare at its bound for any seed count.  ``--threshold`` replaces the
protocol's threshold (1e12 sends only tick 0, so a seed whose one packet is
lost has no error to compare), and ``--loss`` the channel's ``loss_rate``.

``simulate`` cuts the scenario to ``1/FRACTION`` of ``scenario.MAX_TICKS``
ticks and runs ``drsync simulate`` under ``reliable_ordered`` at threshold
0, which sends on nearly every tick, and at the largest ``loss_rate`` whose
expected transmissions ``scenario.MAX_TRANSMISSIONS`` accepts (1.0 where
every loss is accepted): the costliest accepted run.

``generate`` runs ``drsync generate`` of the mmorpg preset at 10 clients and
seed 1 for ``workload.MAX_CLIENT_TICKS // FRACTION`` client ticks, into a
temporary file; ``analyze`` runs ``drsync analyze`` of that trace, which a
child process generates first.  ``--form`` gives the form in which it reads
the trace: ``plain``, the file as written (the default); ``quoted``, the
file with its ``conn_id`` cells quoted, which numpy's parser reads as csv
does; or ``piped``, the file as written, read from ``--trace /dev/stdin``,
the child's stdin the read end of a pipe that this script fills.

``fit`` runs ``drsync fit`` at its default 2,000 epochs on
``generate_labeled_sessions(qon.MAX_FIT_STEPS // 2000 // FRACTION, 1)``,
which a child process writes to a temporary CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIT_EPOCHS = 2000  # drsync fit's default
# Prints MAX_TICKS, COMPARE_SEED_TICKS and the config file of
# comparison_scenario().
SCENARIO = (
    "import json; from drsync import scenario as s; "
    "print(json.dumps([s.MAX_TICKS, s.COMPARE_SEED_TICKS, "
    "s.config_to_dict(s.comparison_scenario())]))"
)
TRACE_CLIENTS = 10
# Prints MAX_CLIENT_TICKS and the mmorpg preset's tick.
TRACE_FIGURES = (
    "from drsync import workload as w; "
    "print([w.MAX_CLIENT_TICKS, w.preset('mmorpg').tick_period_ms])"
)
# Prints the largest loss_rate whose expected transmissions MAX_TRANSMISSIONS
# accepts for the sends of the config file at argv[1].
LARGEST_LOSS = """
import sys
from drsync import scenario as s
cfg = s.config_from_json(sys.argv[1])
sends = len(s._shared_stages(cfg, lambda stage: None).sent)
ok = lambda p: s.expected_transmissions(cfg.mode, p, sends) <= s.MAX_TRANSMISSIONS
lo, hi = 0.0, 1.0
for _ in range(60):
    lo, hi = ((lo + hi) / 2, hi) if ok((lo + hi) / 2) else (lo, (lo + hi) / 2)
print(repr(1.0 if ok(1.0) else lo))
"""
# Quotes the conn_id cell of each data row of the trace at argv[1].
QUOTE_NAMES = """
import os, sys
with open(sys.argv[1]) as src, open(sys.argv[1] + ".q", "w") as out:
    out.write(next(src))
    for line in src:
        t, name, rest = line.split(",", 2)
        out.write(f'{t},"{name}",{rest}')
os.replace(sys.argv[1] + ".q", sys.argv[1])
"""
# Writes the sessions of fit's worst case at ``argv[2]`` and prints how many.
WRITE_SESSIONS = (
    "import sys; from drsync import qon; "
    f"n = qon.MAX_FIT_STEPS // {FIT_EPOCHS} // int(sys.argv[1]); "
    "qon.write_sessions_csv(qon.generate_labeled_sessions(n, 1), sys.argv[2]); "
    "print(n)"
)


def spawn(
    command: list[str], env: dict[str, str], stdin: str | None = None
) -> tuple[int, float]:
    """Run ``command``, its stdout sent to ``/dev/null``, to its end; its
    wait status and peak resident set in MiB.  With ``stdin``, a file's
    path, the child's stdin is the read end of a pipe that this process
    fills with the file's bytes."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    if stdin is not None:
        # Both ends close on exec; the child keeps the copy made its stdin.
        read_end, write_end = os.pipe()
        actions.append((os.POSIX_SPAWN_DUP2, read_end, 0))
    pid = os.posix_spawnp(command[0], command, env, file_actions=actions)
    if stdin is not None:
        os.close(read_end)
        try:
            with open(write_end, "wb") as pipe, open(stdin, "rb") as src:
                shutil.copyfileobj(src, pipe)
        except BrokenPipeError:  # the child stopped reading; its status says why
            pass
    _, status, usage = os.wait4(pid, 0)
    return status, round(usage.ru_maxrss / 1024, 1)  # ru_maxrss is KiB


def measure(
    command: list[str], env: dict[str, str] | None = None, stdin: str | None = None
) -> dict:
    """Run ``command`` to its end, its stdin piped from the file ``stdin``
    if given; its exit status, wall time and peak RSS, and the peak RSS of
    ``true`` started the same way."""
    env = os.environ if env is None else env
    start = time.perf_counter()
    status, peak = spawn(command, env, stdin)
    wall = time.perf_counter() - start
    return {
        "command": command,
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": round(wall, 3),
        "peak_rss_mib": peak,
        "floor_rss_mib": spawn(["true"], env)[1],
    }


def drsync_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def child_output(code: str, *args: str) -> str:
    """What the Python ``code``, run with drsync importable, prints."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=drsync_env(), check=True, capture_output=True, text=True,
    ).stdout


def drsync(*args: str) -> list[str]:
    return [sys.executable, "-m", "drsync", *args]


def cut(cfg: dict, ticks: int) -> dict:
    """``cfg`` at ``ticks`` ticks (``duration_ms // tick_ms + 1`` of them)."""
    if ticks < 1:
        sys.exit(f"error: a run needs at least 1 tick, got {ticks}")
    cfg["duration_ms"] = (ticks - 1) * cfg["protocol"]["tick_ms"]
    return cfg


def measure_drsync(cfg: dict, command: str, *args: str) -> dict:
    """``drsync COMMAND --config <cfg> ARGS``, the config in a temporary file."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "scenario.json"
        path.write_text(json.dumps(cfg))
        result = measure(drsync(command, "--config", str(path), *args), drsync_env())
    ticks = cfg["duration_ms"] // cfg["protocol"]["tick_ms"] + 1
    return {"ticks": ticks, **result}


def compare(
    fraction: int, threshold: float | None, loss: float | None, seeds: str
) -> dict:
    """``drsync compare`` at ``1/fraction`` of its bound, shared by the seeds."""
    max_ticks, seed_ticks, cfg = json.loads(child_output(SCENARIO))
    cfg = cut(cfg, max_ticks // fraction // len(seeds.split(",")) - seed_ticks)
    if threshold is not None:
        cfg["protocol"]["threshold"] = threshold
    if loss is not None:
        cfg["channel"]["loss_rate"] = loss
    with tempfile.TemporaryDirectory() as out:
        result = measure_drsync(cfg, "compare", "--seeds", seeds, "--out", out)
    threshold, loss = cfg["protocol"]["threshold"], cfg["channel"]["loss_rate"]
    return {"ticks": result["ticks"], "threshold": threshold, "loss": loss, **result}


def simulate(fraction: int) -> dict:
    max_ticks, _, cfg = json.loads(child_output(SCENARIO))
    cfg = cut(cfg, max_ticks // fraction)
    cfg["transport"]["mode"] = "reliable_ordered"
    cfg["protocol"]["threshold"] = 0.0
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "scenario.json"
        path.write_text(json.dumps(cfg))
        cfg["channel"]["loss_rate"] = float(child_output(LARGEST_LOSS, str(path)))
    result = measure_drsync(cfg, "simulate")
    return {"loss": cfg["channel"]["loss_rate"], **result}


def trace(what: str, fraction: int, form: str = "plain") -> dict:
    """``drsync generate`` of the mmorpg preset at ``1/fraction`` of
    ``MAX_CLIENT_TICKS``, or ``drsync analyze`` of what it writes, in the
    ``form`` that the module's docstring describes."""
    max_client_ticks, tick_ms = json.loads(child_output(TRACE_FIGURES))
    duration_ms = max_client_ticks // fraction // TRACE_CLIENTS * tick_ms
    env = drsync_env()
    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work) / "trace.csv")
        generate = drsync(
            "generate", "--preset", "mmorpg", "--clients", str(TRACE_CLIENTS),
            "--duration-ms", str(duration_ms), "--seed", "1", "--out", path,
        )
        if what == "analyze":
            subprocess.run(generate, env=env, check=True)
            if form == "quoted":
                child_output(QUOTE_NAMES, path)
            if form == "piped":
                command = drsync("analyze", "--trace", "/dev/stdin")
                result = measure(command, env, stdin=path)
            else:
                result = measure(drsync("analyze", "--trace", path), env)
        else:
            result = measure(generate, env)
        trace_bytes = os.path.getsize(path) if os.path.exists(path) else None
    client_ticks = duration_ms // tick_ms * TRACE_CLIENTS
    figures = {"client_ticks": client_ticks, "trace_bytes": trace_bytes}
    return {**figures, "form": form, **result}


def fit(fraction: int) -> dict:
    """``drsync fit`` on ``1/fraction`` of the sessions ``MAX_FIT_STEPS``
    allows at the default epochs."""
    with tempfile.TemporaryDirectory() as work:
        data = str(Path(work) / "sessions.csv")
        sessions = int(child_output(WRITE_SESSIONS, str(fraction), data))
        result = measure(drsync("fit", "--data", data), drsync_env())
    return {"sessions": sessions, "epochs": FIT_EPOCHS, **result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    run = sub.add_parser("run", help="measure any command")
    run.add_argument("command", nargs=argparse.REMAINDER)
    cmp_ = sub.add_parser("compare", help="measure a compare near its bound")
    cmp_.add_argument(
        "--fraction", type=int, required=True, help="of the compare's bound"
    )
    cmp_.add_argument("--threshold", type=float)
    cmp_.add_argument("--loss", type=float, help="the channel's loss_rate")
    cmp_.add_argument("--seeds", default="1,2")
    sim = sub.add_parser("simulate", help="measure the costliest simulate")
    sim.add_argument("--fraction", type=int, required=True, help="of MAX_TICKS")
    for what in ("generate", "analyze"):
        trace_ = sub.add_parser(what, help=f"measure {what} of an mmorpg trace")
        trace_.add_argument(
            "--fraction", type=int, required=True, help="of MAX_CLIENT_TICKS"
        )
        if what == "analyze":
            trace_.add_argument(
                "--form",
                choices=("plain", "quoted", "piped"),
                default="plain",
                help="the trace as written, its conn_id cells quoted, or piped",
            )
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
        result = compare(args.fraction, args.threshold, args.loss, args.seeds)
    elif args.what == "simulate":
        result = simulate(args.fraction)
    elif args.what in ("generate", "analyze"):
        result = trace(args.what, args.fraction, getattr(args, "form", "plain"))
    else:
        result = fit(args.fraction)
    print(json.dumps(result))
    return 0 if result["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
