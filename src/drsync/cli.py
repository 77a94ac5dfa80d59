"""Command-line front end.

Exit codes: 0 on success, 1 for validation or usage problems (bad flags, or
a malformed config, profile, weights or CSV file), 2 for I/O failures.  Set
``DRSYNC_LOG`` to ``info`` or ``debug`` for progress logging on stderr; it
defaults to ``off``.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import replace

from . import __version__, spec
from .analysis import bucket_counts, compute_stats, detect_period
from .core import Stopwatch
from .qon import (
    DECISION_THRESHOLD,
    DEFAULT_WEIGHTS,
    Action,
    assess,
    fit_weights,
    read_metrics_csv,
    read_sessions_csv,
    weights_from_json,
    weights_to_dict,
)
from .rng import check_seed
from .scenario import (
    ConfigError,
    compare_payload,
    config_from_json,
    run_compare,
    run_simulation,
    write_run_outputs,
)
from .workload import (
    DIRECTION_TEXTS,
    generate_trace,
    preset,
    profile_from_json,
    read_trace_csv,
    write_trace_csv,
)

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are validation errors, same exit code as bad configs.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _configure_logging() -> None:
    level_name = os.environ.get("DRSYNC_LOG", "off").lower()
    levels = {"off": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(
            f"warning: DRSYNC_LOG must be one of {sorted(levels)}, "
            f"got {level_name!r}; using 'off'",
            file=sys.stderr,
        )
        level_name = "off"
    logging.basicConfig(
        level=levels[level_name],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text!r}")
    return value


def _cmd_simulate(args) -> int:
    cfg = config_from_json(args.config)
    if args.seed is not None:
        check_seed(args.seed, "--seed")
        cfg = replace(cfg, seed=args.seed)
    result = run_simulation(cfg)
    if args.out is not None:
        write_run_outputs(result, args.out)
    spec.write_json(result.summary, sys.stdout)
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"--seeds expects comma-separated integers, got {text!r}")


def _cmd_compare(args) -> int:
    cfg = config_from_json(args.config)
    seeds = _parse_seeds(args.seeds)
    rows = run_compare(cfg, seeds, out_dir=args.out)
    spec.write_json(compare_payload(rows), sys.stdout)
    return 0


def _cmd_generate(args) -> int:
    if args.profile is not None:
        profile = profile_from_json(args.profile)
    else:
        profile = preset(args.preset)
    watch = Stopwatch()
    trace = generate_trace(
        profile, n_clients=args.clients, duration_ms=args.duration_ms, seed=args.seed,
        lap=watch.lap,
    )
    write_trace_csv(trace, args.out)
    watch.lap("write")
    log.info("wrote %d packets to %s", len(trace), args.out)
    log.debug("generate seed=%d stage seconds: %s", args.seed, watch)
    return 0


# What analyze reports of each direction: TraceStats fields and properties.
_DIRECTION_STATS = (
    "packets", "total_bytes", "header_byte_fraction", "ack_byte_fraction",
    "ack_packet_fraction", "mean_client_bandwidth_bps", "n_clients", "duration_ms",
)


def _cmd_analyze(args) -> int:
    watch = Stopwatch()
    trace = read_trace_csv(args.trace)
    watch.lap("read")
    report: dict = {"directions": {}}
    for direction in [args.direction] if args.direction else DIRECTION_TEXTS:
        if trace.in_direction(direction).any():
            stats = compute_stats(trace, direction, duration_ms=args.duration_ms)
            report["directions"][direction] = {
                key: getattr(stats, key) for key in _DIRECTION_STATS
            }
    if not report["directions"]:
        raise ValueError("trace has no packets in the requested direction(s)")
    watch.lap("stats")
    series = bucket_counts(
        trace, bucket_ms=args.bucket_ms, duration_ms=args.duration_ms
    )
    watch.lap("bucket")
    try:
        estimate = detect_period(series.counts)
    except ValueError:
        estimate = None  # series too short or flat for a verdict
    watch.lap("period")
    report["period"] = (
        None
        if estimate is None
        else {
            "lag_buckets": estimate.lag_buckets,
            "lag_ms": estimate.lag_buckets * args.bucket_ms,
            "strength": estimate.strength,
            "bucket_ms": args.bucket_ms,
        }
    )
    spec.write_json(report, sys.stdout)
    log.debug("analyze stage seconds: %s", watch)
    return 0


def _cmd_predict(args) -> int:
    watch = Stopwatch()
    weights = DEFAULT_WEIGHTS
    if args.weights is not None:
        weights = weights_from_json(args.weights)
    rows = read_metrics_csv(args.metrics)
    watch.lap("read")
    # Every row is scored before any is written, so a bad row leaves no output.
    results = []
    for n, (metrics, recoverable) in enumerate(rows, 1):
        # Unknown recovery state gets the conservative path: a message works
        # whether or not the connection came back.
        try:
            results.append(
                assess(weights, metrics, bool(recoverable), threshold=args.threshold)
            )
        except ValueError as exc:
            raise ValueError(f"{args.metrics} data row {n}: {exc}") from None
    watch.lap("score")
    actions = list(Action)
    spec.write_csv(
        sys.stdout if args.out is None else args.out,
        ("risk_score", "premature_flag", "action"),
        [
            [r.score for r in results],
            spec.flags([r.premature_flag for r in results]),
            spec.Table(
                [actions.index(r.action) for r in results], [a.value for a in actions]
            ),
        ],
    )
    watch.lap("write")
    log.debug("predict stage seconds: %s", watch)
    return 0


def _cmd_fit(args) -> int:
    watch = Stopwatch()
    labeled = read_sessions_csv(args.data)
    watch.lap("read")
    weights = fit_weights(
        labeled, learn_rate=args.learn_rate, epochs=args.epochs, lap=watch.lap
    )
    spec.write_json(
        weights_to_dict(weights), sys.stdout if args.out is None else args.out
    )
    watch.lap("write")
    log.debug("fit stage seconds: %s", watch)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="drsync", description=__doc__)
    parser.add_argument("--version", action="version", version=f"drsync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario end to end")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--seed", type=int, help="override the config's seed")
    sim.add_argument("--out", help="directory for run output files")
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="run both transports per seed")
    cmp_.add_argument("--config", required=True, help="scenario JSON file")
    cmp_.add_argument(
        "--seeds", required=True, help="comma-separated run seeds (at least 2)"
    )
    cmp_.add_argument("--out", help="directory for per-run output trees")
    cmp_.set_defaults(func=_cmd_compare)

    gen = sub.add_parser("generate", help="generate a synthetic traffic trace")
    src = gen.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="built-in profile name (mmorpg, fps)")
    src.add_argument("--profile", help="workload profile JSON file")
    gen.add_argument("--clients", type=int, required=True)
    gen.add_argument("--duration-ms", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="trace CSV path")
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="summarize a traffic trace")
    ana.add_argument("--trace", required=True, help="trace CSV path")
    ana.add_argument("--direction", choices=DIRECTION_TEXTS)
    ana.add_argument("--bucket-ms", type=int, default=100)
    ana.add_argument(
        "--duration-ms", type=int, help="override the duration inferred from the trace"
    )
    ana.set_defaults(func=_cmd_analyze)

    pred = sub.add_parser("predict", help="score sessions for quit risk")
    pred.add_argument("--metrics", required=True, help="session metrics CSV")
    pred.add_argument("--weights", help="predictor weights JSON (default: built-in)")
    pred.add_argument(
        "--threshold", type=_probability, default=DECISION_THRESHOLD,
        help="risk score at which to act, in [0, 1]",
    )
    pred.add_argument("--out", help="write CSV here instead of stdout")
    pred.set_defaults(func=_cmd_predict)

    fit = sub.add_parser("fit", help="fit predictor weights to labeled sessions")
    fit.add_argument("--data", required=True, help="labeled sessions CSV")
    fit.add_argument("--learn-rate", type=float, default=1.0)
    fit.add_argument("--epochs", type=int, default=2000)
    fit.add_argument("--out", help="write weights JSON here instead of stdout")
    fit.set_defaults(func=_cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: invalid {exc.what}", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
