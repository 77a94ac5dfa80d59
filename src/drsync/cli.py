"""Command-line front end.

Exit codes: 0 on success, 1 for validation or usage problems (bad flags, or
a malformed config, profile, weights or CSV file), 2 for I/O failures.  Set
``DRSYNC_LOG`` to ``info`` or ``debug`` for progress logging on stderr; it
defaults to ``off``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import __version__, spec
from .analysis import bucket_counts, compute_stats, detect_period
from .qon import (
    DECISION_THRESHOLD,
    DEFAULT_WEIGHTS,
    assess,
    fit_weights,
    read_metrics_csv,
    read_sessions_csv,
    weights_from_json,
    weights_to_dict,
    weights_to_json,
)
from .scenario import (
    ConfigError,
    compare_payload,
    config_from_json,
    run_compare,
    run_simulation,
    write_run_outputs,
)
from .workload import (
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
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    result = run_simulation(cfg)
    if args.out is not None:
        write_run_outputs(result, args.out)
    json.dump(result.summary, sys.stdout, indent=2, sort_keys=True)
    print()
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
    json.dump(compare_payload(rows), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_generate(args) -> int:
    if args.profile is not None:
        profile = profile_from_json(args.profile)
    else:
        profile = preset(args.preset)
    trace = generate_trace(
        profile, n_clients=args.clients, duration_ms=args.duration_ms, seed=args.seed
    )
    write_trace_csv(trace, args.out)
    log.info("wrote %d packets to %s", len(trace), args.out)
    return 0


def _direction_stats(trace, direction, duration_ms) -> dict:
    stats = compute_stats(trace, direction, duration_ms=duration_ms)
    return {
        "packets": stats.packets,
        "total_bytes": stats.total_bytes,
        "header_byte_fraction": stats.header_byte_fraction,
        "ack_byte_fraction": stats.ack_byte_fraction,
        "ack_packet_fraction": stats.ack_packet_fraction,
        "mean_client_bandwidth_bps": stats.mean_client_bandwidth_bps,
        "n_clients": stats.n_clients,
        "duration_ms": stats.duration_ms,
    }


def _cmd_analyze(args) -> int:
    trace = read_trace_csv(args.trace)
    directions = [args.direction] if args.direction else ["c2s", "s2c"]
    report: dict = {"directions": {}}
    for direction in directions:
        if any(rec.direction.value == direction for rec in trace):
            report["directions"][direction] = _direction_stats(
                trace, direction, args.duration_ms
            )
    if not report["directions"]:
        raise ValueError("trace has no packets in the requested direction(s)")
    series = bucket_counts(
        trace, bucket_ms=args.bucket_ms, duration_ms=args.duration_ms
    )
    try:
        estimate = detect_period(series.counts)
    except ValueError:
        estimate = None  # series too short or flat for a verdict
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
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_predict(args) -> int:
    weights = DEFAULT_WEIGHTS
    if args.weights is not None:
        weights = weights_from_json(args.weights)
    rows = read_metrics_csv(args.metrics)
    # Unknown recovery state gets the conservative path: a message works
    # whether or not the connection came back.
    results = (
        assess(weights, metrics, bool(recoverable), threshold=args.threshold)
        for metrics, recoverable in rows
    )
    spec.write_csv(
        sys.stdout if args.out is None else args.out,
        ("risk_score", "premature_flag", "action"),
        ((r.score, spec.FLAG_TEXT[r.premature_flag], r.action.value) for r in results),
    )
    return 0


def _cmd_fit(args) -> int:
    labeled = read_sessions_csv(args.data)
    weights = fit_weights(labeled, learn_rate=args.learn_rate, epochs=args.epochs)
    if args.out is None:
        json.dump(weights_to_dict(weights), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        weights_to_json(weights, args.out)
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
    ana.add_argument("--direction", choices=["c2s", "s2c"])
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
