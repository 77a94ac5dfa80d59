"""The benchmark's workloads: inputs built from a seed, one timed op, digests.

Each op runs one or more of drsync's batch paths through the same library
functions the CLI calls, in this process:

* ``simulate``: ``run_simulation`` (summary JSON on stdout, no output tree);
* ``compare``: ``run_compare`` with an output tree;
* ``generate``: ``generate_trace`` then ``write_trace_csv``;
* ``analyze``: ``read_trace_csv``, ``compute_stats`` per direction,
  ``bucket_counts`` and ``detect_period``, assembled into the report JSON
  the CLI prints;
* ``fit``: ``read_sessions_csv``, ``fit_weights`` and ``weights_to_json``.

The same op code serves the untraced and the traced run.  With tracing on,
spans wrap every call into a drsync module, and after the timed part each
simulation is replayed stage by stage through public functions.  The replay
must reproduce ``run_simulation`` exactly, or the op fails.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from drsync import scenario
from drsync.analysis import (
    bucket_counts,
    compute_stats,
    detect_period,
    interarrival_stats,
)
from drsync.core import sample_trajectory
from drsync.netsim import ChannelConfig, ReliableOrdered, reliable_run, unreliable_run
from drsync.protocol import (
    ReceiverState,
    SenderState,
    compute_export_error,
    receiver_apply,
    render_position,
    sender_tick,
)
from drsync.qon import (
    assess,
    fit_weights,
    generate_labeled_sessions,
    read_sessions_csv,
    weights_to_json,
    write_sessions_csv,
)
from drsync.rng import TAG_CHANNEL, mix64
from drsync.scenario import (
    MODE_RELIABLE,
    MODE_UNRELIABLE,
    ChannelSpec,
    RunResult,
    ScenarioConfig,
    TrajectoryGenConfig,
    TrajectorySource,
    comparison_scenario,
    generate_trajectory,
    run_compare,
    run_simulation,
)
from drsync.workload import generate_trace, preset, read_trace_csv, write_trace_csv

from tracer import Tracer

# Stage spans of the simulator replay; their sum against the run_simulation
# span gives scenario.self_s (validation, session metrics, risk, summary).
REPLAY_STAGES = (
    "scenario.trajectory",
    "core.sample",
    "protocol.sender",
    "netsim.transport",
    "protocol.receiver",
    "protocol.export_error",
)


class ReplayMismatch(RuntimeError):
    """The stage-by-stage replay disagreed with run_simulation."""


@dataclass
class OpResult:
    paths: dict[str, float]  # CLI path -> seconds, e.g. {"compare_s": 1.2}
    work: int  # simulated ticks or trace records
    digests: dict[str, str]  # output name -> SHA-256 hex
    # Seconds of a path spent in numpy's vector loops (``detect_period``),
    # which the host's drift does not slow the way it slows the interpreter.
    array_s: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """The timed op: its paths, without digests, replay or probes."""
        return sum(self.paths.values())

    def scaled_s(self, scale: float, paths=None) -> float:
        """Seconds of ``paths`` (default all) at the calibration job's reference speed.

        Interpreter time is multiplied by ``scale``; array time is kept as is.
        """
        total = 0.0
        for path in self.paths if paths is None else paths:
            array = self.array_s.get(path, 0.0)
            total += (self.paths[path] - array) * scale + array
        return total


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): sha256(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def json_bytes(payload: dict) -> bytes:
    """The bytes the CLI prints for a JSON result."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


# --- simulator replay --------------------------------------------------------


def replay_simulation(cfg: ScenarioConfig, mode: str, tr: Tracer):
    """Re-run ``run_simulation``'s stages one at a time, each in its own span.

    Sampling and the sender run as two passes over the tick grid instead of
    one interleaved loop; the sender only sees the sampled positions, so the
    result is the same.
    """
    gen = cfg.trajectory.generator
    if gen is None:
        raise ValueError("the replay needs a generated trajectory")
    with tr.span("scenario.trajectory"):
        script = generate_trajectory(gen, cfg.duration_ms, cfg.seed)
    seed = cfg.channel.seed
    chan = ChannelConfig(
        base_latency_ms=cfg.channel.base_latency_ms,
        jitter_max_ms=cfg.channel.jitter_max_ms,
        loss_rate=cfg.channel.loss_rate,
        seed=mix64(cfg.seed, TAG_CHANNEL) if seed is None else seed,
    )
    tick = cfg.protocol.tick_ms
    ticks = [k * tick for k in range(cfg.duration_ms // tick + 1)]

    with tr.span("core.sample"):
        true_series = [(t, sample_trajectory(script, t)) for t in ticks]
    with tr.span("protocol.sender"):
        sender = SenderState(entity_id=cfg.entity_id)
        sends = []
        dr_by_seq = {}
        for t, pos in true_series:
            dr = sender_tick(sender, cfg.protocol, pos, t)
            if dr is not None:
                sends.append((dr.seq, t))
                dr_by_seq[dr.seq] = dr
    with tr.span("netsim.transport"):
        if mode == MODE_RELIABLE:
            events = reliable_run(chan, ReliableOrdered(rto_ms=cfg.rto_ms), sends)
        else:
            events = unreliable_run(chan, cfg.dejitter, sends)
    with tr.span("protocol.receiver"):
        deliveries = sorted(
            (ev for ev in events if ev.deliver_ms is not None),
            key=lambda ev: (ev.deliver_ms, ev.seq),
        )
        receiver = ReceiverState()
        rendered = []
        di = 0
        for t in ticks:
            while di < len(deliveries) and deliveries[di].deliver_ms <= t:
                receiver_apply(receiver, dr_by_seq[deliveries[di].seq])
                di += 1
            rendered.append((t, render_position(receiver, t)))
    with tr.span("protocol.export_error"):
        report = compute_export_error(true_series, rendered, entity_id=cfg.entity_id)
    return script, sends, events, receiver, report


def check_replay(result: RunResult, tr: Tracer) -> None:
    """Replay one run, check it against the original and count its work."""
    # The original run's objects are still alive; frozen, the collector skips
    # them, so the replay's stages pay the same collection cost as the run.
    gc.freeze()
    try:
        script, sends, events, receiver, report = replay_simulation(
            result.config, result.mode, tr
        )
    finally:
        gc.unfreeze()
    transmissions = sum(ev.retransmissions + 1 for ev in events)
    delivered = [ev for ev in events if ev.deliver_ms is not None]
    late = sum(1 for ev in events if ev.late)
    dropped_late = sum(
        1 for ev in events if ev.arrive_ms is not None and ev.deliver_ms is None
    )
    s = result.summary
    mismatched = [
        name
        for name, ok in (
            ("export-error series", report == result.report),
            ("sends", sends == result.sends),
            ("delivery events", events == result.events),
            ("ticks", len(report.series) == s["ticks"]),
            ("transmissions", transmissions == s["transmissions"]),
            ("delivered", len(delivered) == s["delivered"]),
            ("late", late == s["late_count"]),
            ("dropped_late", dropped_late == s["dropped_late"]),
            ("warmup_ticks", report.warmup_ticks == s["export_error"]["warmup_ticks"]),
        )
        if not ok
    ]
    if mismatched:
        raise ReplayMismatch(
            f"replay of seed {result.config.seed} {result.mode} differs from "
            f"run_simulation in: {', '.join(mismatched)}"
        )
    tr.count("core.samples", len(report.series))
    tr.count("scenario.waypoints", len(script.waypoints))
    tr.count("protocol.sends", len(sends))
    tr.count("protocol.applied", receiver.applied)
    tr.count("protocol.stale_dropped", receiver.stale_dropped)
    tr.count("protocol.warmup_ticks", report.warmup_ticks)
    tr.count("netsim.transmissions", transmissions)
    tr.count("netsim.retransmissions", transmissions - len(events))
    tr.count("netsim.delivered", len(delivered))
    tr.count("netsim.late", late)
    tr.count("netsim.dropped_late", dropped_late)
    tr.count(
        "netsim.hold_ms", sum(ev.deliver_ms - ev.arrive_ms for ev in delivered)
    )


@contextlib.contextmanager
def spans_inside_scenario(tr: Tracer, captured: list[RunResult]):
    """Wrap the scenario module's run_simulation and write_run_outputs.

    ``run_compare`` looks both up in its module when it calls them, so for
    the duration of the block its inner calls get spans and every RunResult
    is kept for the replay.
    """
    if not tr.enabled:
        yield
        return
    run_original = scenario.run_simulation
    write_original = scenario.write_run_outputs

    def run_traced(*args, **kwargs):
        with tr.span("scenario.run_simulation"):
            result = run_original(*args, **kwargs)
        captured.append(result)
        return result

    def write_traced(*args, **kwargs):
        with tr.span("scenario.write_outputs"):
            write_original(*args, **kwargs)

    scenario.run_simulation = run_traced
    scenario.write_run_outputs = write_traced
    try:
        yield
    finally:
        scenario.run_simulation = run_original
        scenario.write_run_outputs = write_original


# --- simulation workloads -----------------------------------------------------


def _ticks(cfg: ScenarioConfig) -> int:
    return cfg.duration_ms // cfg.protocol.tick_ms + 1


@dataclass(frozen=True)
class SimSlowClean:
    """One long ``simulate`` of a slow walker on a lossless channel."""

    duration_ms: int = 30 * 60_000
    name = "sim-slow-clean"
    paths = rate_paths = ("simulate_s",)
    rate = "sim_ticks_per_s"

    def build(self, seed: int, work_dir: Path) -> ScenarioConfig:
        return replace(
            comparison_scenario(),
            seed=seed,
            duration_ms=self.duration_ms,
            trajectory=TrajectorySource(generator=TrajectoryGenConfig()),
            channel=ChannelSpec(base_latency_ms=100, jitter_max_ms=40, loss_rate=0.0),
        )

    def op(self, cfg: ScenarioConfig, out_dir: Path, tr: Tracer) -> OpResult:
        started = time.perf_counter()
        with tr.span("scenario.run_simulation"):
            result = run_simulation(cfg)
        wall = time.perf_counter() - started
        if tr.enabled:
            check_replay(result, tr)
        if result.summary["ticks"] != _ticks(cfg):
            raise ValueError(f"summary reports {result.summary['ticks']} ticks")
        return OpResult(
            paths={"simulate_s": wall},
            work=result.summary["ticks"],
            digests={"summary.json": sha256(json_bytes(result.summary))},
        )


@dataclass(frozen=True)
class SimFastLossy:
    """``compare`` of both transports on the paper's fast, lossy scenario."""

    duration_ms: int = 180_000
    n_seeds: int = 4
    name = "sim-fast-lossy"
    paths = rate_paths = ("compare_s",)
    rate = "sim_ticks_per_s"

    def build(self, seed: int, work_dir: Path):
        cfg = replace(comparison_scenario(), duration_ms=self.duration_ms)
        return cfg, [seed * self.n_seeds + i for i in range(self.n_seeds)]

    def op(self, inputs, out_dir: Path, tr: Tracer) -> OpResult:
        cfg, seeds = inputs
        captured: list[RunResult] = []
        started = time.perf_counter()
        with tr.span("scenario.run_compare"), spans_inside_scenario(tr, captured):
            run_compare(cfg, seeds, out_dir=out_dir)
        wall = time.perf_counter() - started
        digests = tree_digests(out_dir)
        expected = {"comparison.csv", "comparison.json"} | {
            f"seed_{s}/{mode}/{name}"
            for s in seeds
            for mode in (MODE_UNRELIABLE, MODE_RELIABLE)
            for name in (
                "summary.json",
                "export_error.csv",
                "deliveries.csv",
                "resolved_config.json",
            )
        }
        if set(digests) != expected:
            raise ValueError(f"unexpected compare tree: {sorted(digests)}")
        if tr.enabled:
            for result in captured:
                check_replay(result, tr)
            tr.count(
                "scenario.output_bytes",
                sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
            )
        return OpResult(
            paths={"compare_s": wall},
            work=2 * len(seeds) * _ticks(cfg),
            digests=digests,
        )


# --- trace workloads ----------------------------------------------------------


def analyze_report(trace, bucket_ms: int, tr: Tracer) -> tuple[dict, float]:
    """The report ``drsync analyze --bucket-ms`` prints, built as the CLI does.

    Also returns the seconds ``detect_period`` took.
    """
    report: dict = {"directions": {}}
    with tr.span("analysis.stats"):
        for direction in ("c2s", "s2c"):
            if any(rec.direction.value == direction for rec in trace):
                stats = compute_stats(trace, direction, duration_ms=None)
                report["directions"][direction] = {
                    "packets": stats.packets,
                    "total_bytes": stats.total_bytes,
                    "header_byte_fraction": stats.header_byte_fraction,
                    "ack_byte_fraction": stats.ack_byte_fraction,
                    "ack_packet_fraction": stats.ack_packet_fraction,
                    "mean_client_bandwidth_bps": stats.mean_client_bandwidth_bps,
                    "n_clients": stats.n_clients,
                    "duration_ms": stats.duration_ms,
                }
    if not report["directions"]:
        raise ValueError("trace has no packets in the requested direction(s)")
    with tr.span("analysis.bucket"):
        series = bucket_counts(trace, bucket_ms=bucket_ms, duration_ms=None)
    with tr.span("analysis.period"):
        started = time.perf_counter()
        try:
            estimate = detect_period(series.counts)
        except ValueError:
            estimate = None
        period_s = time.perf_counter() - started
    report["period"] = (
        None
        if estimate is None
        else {
            "lag_buckets": estimate.lag_buckets,
            "lag_ms": estimate.lag_buckets * bucket_ms,
            "strength": estimate.strength,
            "bucket_ms": bucket_ms,
        }
    )
    tr.count("analysis.buckets", len(series.counts))
    return report, period_s


def generate_and_analyze(
    profile_name: str,
    n_clients: int,
    duration_ms: int,
    bucket_ms: int,
    seed: int,
    out_dir: Path,
    tr: Tracer,
):
    """Run the ``generate`` then the ``analyze`` path over one trace file.

    Returns the path times, the record count, the digests, the array time
    of ``analyze`` and the trace as read back, for the traced run's probes.
    """
    csv_path = out_dir / "trace.csv"
    started = time.perf_counter()
    with tr.span("workload.generate"):
        trace = generate_trace(preset(profile_name), n_clients, duration_ms, seed)
    with tr.span("workload.write_csv"):
        write_trace_csv(trace, str(csv_path))
    generated = time.perf_counter()
    records = len(trace)
    del trace  # the CLI runs analyze in a new process
    with tr.span("workload.read_csv"):
        trace = read_trace_csv(str(csv_path))
    report, period_s = analyze_report(trace, bucket_ms, tr)
    analyzed = time.perf_counter()

    if sum(d["packets"] for d in report["directions"].values()) != records:
        raise ValueError("analyze counted a different number of packets")
    tr.count("workload.records", records)
    tr.count("workload.csv_bytes", csv_path.stat().st_size)
    paths = {"generate_s": generated - started, "analyze_s": analyzed - generated}
    digests = {
        "trace.csv": sha256(csv_path.read_bytes()),
        "analyze.json": sha256(json_bytes(report)),
    }
    return paths, records, digests, {"analyze_s": period_s}, trace


def interarrival_probe(trace, tr: Tracer) -> None:
    """Traced-run probe of ``interarrival_stats``, which no batch path calls."""
    if tr.enabled:
        with tr.span("analysis.interarrival"):
            for direction in ("c2s", "s2c"):
                interarrival_stats(trace, trace[0].conn_id, direction)


@dataclass(frozen=True)
class TraceMmorpg:
    """``generate`` then ``analyze`` of a long many-client MMORPG trace."""

    n_clients: int = 5
    duration_ms: int = 600_000
    bucket_ms: int = 100
    name = "trace-mmorpg"
    paths = rate_paths = ("generate_s", "analyze_s")
    rate = "trace_records_per_s"

    def build(self, seed: int, work_dir: Path) -> int:
        return seed

    def op(self, seed: int, out_dir: Path, tr: Tracer) -> OpResult:
        paths, records, digests, array_s, trace = generate_and_analyze(
            "mmorpg", self.n_clients, self.duration_ms, self.bucket_ms, seed, out_dir, tr
        )
        interarrival_probe(trace, tr)
        return OpResult(paths=paths, work=records, digests=digests, array_s=array_s)


@dataclass(frozen=True)
class AnalystFine:
    """FPS trace analyzed at 2 ms buckets, then ``fit`` on labeled sessions."""

    n_clients: int = 2
    duration_ms: int = 150_000
    bucket_ms: int = 2
    n_sessions: int = 20_000
    name = "analyst-fine"
    paths = ("generate_s", "analyze_s", "fit_s")
    rate_paths = ("generate_s", "analyze_s")
    rate = "trace_records_per_s"

    def build(self, seed: int, work_dir: Path):
        work_dir.mkdir(parents=True, exist_ok=True)
        sessions = work_dir / "sessions.csv"
        write_sessions_csv(generate_labeled_sessions(self.n_sessions, seed), str(sessions))
        return seed, sessions

    def op(self, inputs, out_dir: Path, tr: Tracer) -> OpResult:
        seed, sessions = inputs
        weights_path = out_dir / "weights.json"
        paths, records, digests, array_s, trace = generate_and_analyze(
            "fps", self.n_clients, self.duration_ms, self.bucket_ms, seed, out_dir, tr
        )
        fit_started = time.perf_counter()
        with tr.span("qon.read_sessions"):
            labeled = read_sessions_csv(str(sessions))
        with tr.span("qon.fit"):
            weights = fit_weights(labeled)
        weights_to_json(weights, str(weights_path))
        ended = time.perf_counter()

        if not all(math.isfinite(v) for v in json.loads(weights_path.read_text()).values()):
            raise ValueError("fit produced non-finite weights")
        paths["fit_s"] = ended - fit_started
        digests["weights.json"] = sha256(weights_path.read_bytes())
        interarrival_probe(trace, tr)
        if tr.enabled:
            # Scores every session as ``predict`` would; no batch path calls it.
            with tr.span("qon.assess"):
                for metrics, _ in labeled:
                    assess(weights, metrics, connectivity_recoverable=True)
            tr.count("qon.sessions", len(labeled))
        return OpResult(paths=paths, work=records, digests=digests, array_s=array_s)


WORKLOADS = {
    w.name: w for w in (SimFastLossy(), SimSlowClean(), TraceMmorpg(), AnalystFine())
}
