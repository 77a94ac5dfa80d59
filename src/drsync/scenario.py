"""End-to-end scenario runner: trajectory -> sender -> channel -> receiver.

A scenario couples one scripted (or generated) trajectory with a protocol
configuration, an impaired channel, and a transport discipline, then measures
the export error the receiver would show on screen.  Runs are fully
deterministic: the scenario seed derives independent substreams for the
trajectory and the channel, every output file is byte-stable, and anything
non-reproducible (wall-clock timing) stays out of the files.

``run_compare`` executes the same scenario under both transports for each of
several seeds.  Because channel impairments are derived per ``(seed, seq,
attempt)``, both transports face identical loss and jitter on every first
transmission, making the per-seed comparison a genuinely paired experiment.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import spec
from .core import MAX_TIME_MS, TimeMs, TrajectoryScript, Vec3, sample_positions
from .netsim import (
    ChannelConfig,
    DejitterConfig,
    DeliveryEvent,
    LatePolicy,
    ReliableOrdered,
    reliable_run,
    unreliable_run,
    write_delivery_csv,
)
from .protocol import (
    ExportErrorReport,
    ProtocolConfig,
    export_error_report,
    receiver_run,
    sender_run,
    write_export_error_csv,
)
from .qon import DEFAULT_WEIGHTS, RiskAssessment, SessionMetrics, assess
from .rng import TAG_CHANNEL, TAG_TRAJECTORY, mix64, substream
from .spec import INVALID, ConfigError

log = logging.getLogger(__name__)

MODE_RELIABLE = "reliable_ordered"
MODE_UNRELIABLE = "unreliable_dr"

# Wire size of one state snapshot: 40 bytes of headers plus seq(4),
# timestamp(8), position(3*8) and velocity(3*8).
DR_PACKET_BYTES = 100

# A connection counts as recoverable when most packets still get through.
RECOVERABLE_LOSS_LIMIT = 0.5

# The most ticks a run may have.  A compare, which holds two runs at once,
# stays under about 1 GiB at this cap (extrapolated from 1/16 of it).
MAX_TICKS = 500_000
# The most waypoints a generated trajectory may have; generating that many
# takes about 2 s and 210 MiB (measured on a 2-vCPU Xeon guest).
MAX_WAYPOINTS = 500_000


@dataclass(frozen=True)
class TrajectoryGenConfig:
    """Random-waypoint generator: wander inside a cubic box at bounded speed."""

    box_size: float = spec.field(spec.Real(gt=0), 1000.0)
    speed_min: float = spec.field(spec.Real(gt=0), 1.0)
    speed_max: float = spec.field(spec.Real(gt=0), 10.0)
    waypoint_interval_min_ms: int = spec.field(spec.Int(ge=1), 2000)
    waypoint_interval_max_ms: int = spec.field(spec.Int(ge=1), 5000)

    __post_init__ = spec.check

    @staticmethod
    def _relations(v: dict) -> list[str]:
        problems = []
        for lo, hi in (
            ("speed_min", "speed_max"),
            ("waypoint_interval_min_ms", "waypoint_interval_max_ms"),
        ):
            if v[hi] < v[lo]:
                problems.append(f"{hi}: must be >= {lo} ({v[lo]}), got {v[hi]}")
        return problems


@dataclass(frozen=True)
class TrajectorySource:
    """Where ground truth comes from: a CSV file, or the built-in generator."""

    file: str | None = spec.field(spec.Str(), None)
    generator: TrajectoryGenConfig | None = spec.field(
        spec.Nested(TrajectoryGenConfig), None
    )

    __post_init__ = spec.check

    @staticmethod
    def _relations(v: dict) -> list[str]:
        if (v["file"] is None) == (v["generator"] is None):
            return ["file: exactly one of 'file' or 'generator' must be given"]
        return []


@dataclass(frozen=True)
class ChannelSpec:
    """Channel parameters; seed defaults to a substream of the scenario seed."""

    base_latency_ms: int = spec.like(ChannelConfig, "base_latency_ms")
    jitter_max_ms: int = spec.like(ChannelConfig, "jitter_max_ms")
    loss_rate: float = spec.like(ChannelConfig, "loss_rate")
    seed: int | None = spec.like(ChannelConfig, "seed", None)

    __post_init__ = spec.check


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = spec.field(spec.Int(ge=0))
    duration_ms: int = spec.field(spec.Int())
    trajectory: TrajectorySource = spec.field(spec.Nested(TrajectorySource))
    protocol: ProtocolConfig = spec.field(spec.Nested(ProtocolConfig))
    channel: ChannelSpec = spec.field(spec.Nested(ChannelSpec))
    mode: str = spec.field(
        spec.Choice((MODE_RELIABLE, MODE_UNRELIABLE)),
        MODE_UNRELIABLE,
        key="transport.mode",
    )
    rto_ms: int = spec.like(ReliableOrdered, "rto_ms", 400, key="transport.rto_ms")
    dejitter: DejitterConfig = spec.field(spec.Nested(DejitterConfig), DejitterConfig())
    entity_id: str = spec.field(spec.Str(), "player-0")

    __post_init__ = spec.check

    @staticmethod
    def _relations(v: dict) -> list[str]:
        duration, tick = v["duration_ms"], v["protocol"].tick_ms
        if INVALID in (duration, tick):
            return []
        if duration < tick:
            return [
                f"duration_ms: must cover at least one tick ({tick} ms), got {duration}"
            ]
        if duration > MAX_TIME_MS:
            return [f"duration_ms: must be <= {MAX_TIME_MS}, got {duration}"]
        if duration // tick >= MAX_TICKS:
            return [
                f"duration_ms: must be < {MAX_TICKS * tick} ({MAX_TICKS} ticks), "
                f"got {duration}"
            ]
        src = v["trajectory"]
        if isinstance(src, TrajectorySource) and src.generator is not None:
            interval = src.generator.waypoint_interval_min_ms
            if duration // interval >= MAX_WAYPOINTS:
                return [
                    f"duration_ms: must be < {MAX_WAYPOINTS * interval} "
                    f"({MAX_WAYPOINTS} waypoints at the generator's "
                    f"waypoint_interval_min_ms), got {duration}"
                ]
        return []


def generate_trajectory(
    gen: TrajectoryGenConfig, duration_ms: int, seed: int
) -> TrajectoryScript:
    """Seeded random-waypoint walk covering at least ``duration_ms``."""
    rng = substream(seed, TAG_TRAJECTORY)
    box = gen.box_size

    def clamp(v: float) -> float:
        return min(box, max(0.0, v))

    pos = Vec3(
        rng.uniform(0.0, box), rng.uniform(0.0, box), rng.uniform(0.0, box)
    )
    waypoints: list[tuple[TimeMs, Vec3]] = [(0, pos)]
    t = 0
    while t < duration_ms:
        dt = rng.randint(gen.waypoint_interval_min_ms, gen.waypoint_interval_max_ms)
        speed = rng.uniform(gen.speed_min, gen.speed_max)
        # Uniform random direction; resample the rare near-zero draw.
        while True:
            dx, dy, dz = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
            norm = math.sqrt(dx * dx + dy * dy + dz * dz)
            if norm > 1e-9:
                break
        step = speed * dt / 1000.0
        pos = Vec3(
            clamp(pos.x + dx / norm * step),
            clamp(pos.y + dy / norm * step),
            clamp(pos.z + dz / norm * step),
        )
        t += dt
        waypoints.append((t, pos))
    return TrajectoryScript(waypoints)


def _load_trajectory(cfg: ScenarioConfig) -> TrajectoryScript:
    src = cfg.trajectory
    if src.file is not None:
        script = TrajectoryScript.from_csv(src.file)
        if script.start_ms > 0 or script.end_ms < cfg.duration_ms:
            raise ConfigError(
                [
                    f"trajectory.file: script covers [{script.start_ms}, "
                    f"{script.end_ms}] ms but the run needs [0, {cfg.duration_ms}]"
                ]
            )
        return script
    return generate_trajectory(src.generator, cfg.duration_ms, cfg.seed)


def _resolve_channel(cfg: ScenarioConfig) -> ChannelConfig:
    seed = cfg.channel.seed
    if seed is None:
        seed = mix64(cfg.seed, TAG_CHANNEL)
    return ChannelConfig(**{**asdict(cfg.channel), "seed": seed})


@dataclass
class RunResult:
    """Everything a simulation run produced, plus the JSON-ready summary.

    ``timings`` maps each stage of the run (``trajectory``, ``sample``,
    ``sender``, ``transport``, ``receiver``, ``export_error``, ``summary``)
    to its wall-clock seconds.  It is the one field that differs between
    reruns, and no output file holds it.
    """

    config: ScenarioConfig  # its ``mode`` is the transport that ran
    mode: str
    report: ExportErrorReport
    events: list[DeliveryEvent]
    sends: list[tuple[int, TimeMs]]
    summary: dict
    timings: dict[str, float]


def run_simulation(cfg: ScenarioConfig, mode: str | None = None) -> RunResult:
    """Run one scenario end to end and return its result bundle.

    ``mode`` overrides ``cfg.mode`` (used by :func:`run_compare` to run both
    transports over one config); the config's own check judges it.

    The stages work on arrays over the whole tick grid.  They give the same
    sends, events and report as a loop over the scalar stage functions
    (``sample_trajectory``, ``sender_tick``, ``receiver_apply``,
    ``render_position`` and ``compute_export_error``), which the tests hold
    them to.
    """
    cfg = cfg if mode is None else replace(cfg, mode=mode)
    timings: dict[str, float] = {}
    lap_start = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal lap_start
        now = time.perf_counter()
        timings[stage] = now - lap_start
        lap_start = now

    script = _load_trajectory(cfg)
    lap("trajectory")
    # An overflow (huge coordinates) is reported by the export error's check.
    with np.errstate(over="ignore", invalid="ignore"):
        tick = cfg.protocol.tick_ms
        ticks = np.arange(cfg.duration_ms // tick + 1, dtype=np.int64) * tick
        positions = sample_positions(script, ticks)
        lap("sample")
        sent, velocities = sender_run(cfg.protocol, ticks, positions)
        sends = list(enumerate(ticks[sent].tolist(), start=1))
        lap("sender")
        chan = _resolve_channel(cfg)
        if cfg.mode == MODE_RELIABLE:
            events = reliable_run(chan, ReliableOrdered(rto_ms=cfg.rto_ms), sends)
        else:
            events = unreliable_run(chan, cfg.dejitter, sends)
        lap("transport")
        warmup, rendered = receiver_run(ticks, events, sent, positions, velocities)
        lap("receiver")
        report = export_error_report(
            ticks, positions, warmup, rendered, entity_id=cfg.entity_id
        )
        lap("export_error")
    session, counts = _session_metrics(cfg, chan, events)
    risk = assess(
        DEFAULT_WEIGHTS,
        session,
        connectivity_recoverable=session.loss_rate < RECOVERABLE_LOSS_LIMIT,
    )
    summary = _summary_dict(cfg, report, counts, sends, session, risk)
    lap("summary")
    log.info(
        "run %s seed=%d: %d ticks, %d sends, mean error %s (%.2fs)",
        cfg.mode, cfg.seed, len(ticks), len(sends), summary["export_error"]["mean"],
        sum(timings.values()),
    )
    log.debug(
        "run %s seed=%d stage seconds: %s", cfg.mode, cfg.seed,
        " ".join(f"{stage}={s:.6f}" for stage, s in timings.items()),
    )
    return RunResult(cfg, cfg.mode, report, events, sends, summary, timings)


def _session_metrics(
    cfg: ScenarioConfig, chan: ChannelConfig, events: list[DeliveryEvent]
) -> tuple[SessionMetrics, dict]:
    """Session metrics and the summary's delivery counters, in one pass.

    The metrics are what a session monitor would compute.  Observed RTT is
    twice the base latency plus the mean one-way jitter of packets that
    arrived; jitter spread is the population stddev.
    """
    jitters: list[int] = []
    transmissions = lost = delivered = late = dropped_late = 0
    for ev in events:
        transmissions += ev.retransmissions + 1
        lost += ev.retransmissions
        late += ev.late
        if ev.deliver_ms is not None:
            delivered += 1
        if ev.arrive_ms is None:
            lost += 1
            continue
        if ev.deliver_ms is None:
            dropped_late += 1
        attempt_send = ev.send_ms + ev.retransmissions * cfg.rto_ms
        jitters.append(ev.arrive_ms - attempt_send - chan.base_latency_ms)
    if jitters:
        mean_j = math.fsum(jitters) / len(jitters)
        var_j = math.fsum((j - mean_j) ** 2 for j in jitters) / len(jitters)
    else:
        log.warning(
            "run %s seed=%d: no packet arrived, so rtt_mean_ms is twice the base "
            "latency, not a measurement", cfg.mode, cfg.seed,
        )
        mean_j, var_j = 0.0, 0.0
    session = SessionMetrics(
        rtt_mean_ms=2.0 * chan.base_latency_ms + mean_j,
        rtt_jitter_ms=math.sqrt(var_j),
        loss_rate=lost / transmissions if transmissions else 0.0,
        elapsed_min=cfg.duration_ms / 60_000.0,
    )
    counts = {
        "transmissions": transmissions,
        "delivered": delivered,
        "lost_transmissions": lost,
        "late_count": late,
        "dropped_late": dropped_late,
        "dr_bytes_total": transmissions * DR_PACKET_BYTES,
    }
    return session, counts


def _summary_dict(
    cfg: ScenarioConfig,
    report: ExportErrorReport,
    counts: dict,
    sends: list,
    session: SessionMetrics,
    risk: RiskAssessment,
) -> dict:
    return {
        "transport": cfg.mode,
        "seed": cfg.seed,
        "ticks": len(report.series),
        "sends": len(sends),
        **counts,
        "export_error": {
            "mean": report.mean,
            "max": report.max,
            "p95": report.p95,
            "samples": report.samples_count,
            "warmup_ticks": report.warmup_ticks,
        },
        "session_metrics": session._asdict(),
        "risk": {
            "score": risk.score,
            "premature_flag": risk.premature_flag,
            "action": risk.action.value,
        },
    }


def write_run_outputs(result: RunResult, out_dir: str | Path) -> None:
    """Write summary.json, export_error.csv, deliveries.csv, resolved_config.json.

    Every file is byte-deterministic for a given config and seed; the summary
    is recomputable from the CSVs plus the resolved config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_export_error_csv(result.report, str(out / "export_error.csv"))
    write_delivery_csv(result.events, str(out / "deliveries.csv"))
    spec.write_json(config_to_dict(result.config), str(out / "resolved_config.json"))
    spec.write_json(result.summary, str(out / "summary.json"))


@dataclass(frozen=True)
class CompareRow:
    """Paired per-seed export-error aggregates for the two transports."""

    seed: int
    mean_unreliable: float
    mean_reliable: float
    mean_diff: float  # reliable minus unreliable; positive favors unreliable
    max_unreliable: float
    max_reliable: float
    p95_unreliable: float
    p95_reliable: float


def run_compare(
    cfg: ScenarioConfig, seeds: list[int], out_dir: str | Path | None = None
) -> list[CompareRow]:
    """Run both transports per seed and pair up their export errors.

    Channel seeds are always derived from the run seed here so each seed is
    one self-contained paired trial; an explicit ``channel.seed`` in the
    config is ignored.  Needs at least two seeds to say anything about
    variability across trials.
    """
    if len(seeds) < 2:
        raise ValueError(
            f"comparison needs at least 2 seeds to be meaningful, got {len(seeds)}"
        )
    if len(set(seeds)) != len(seeds):
        raise ValueError("comparison seeds must be distinct")

    rows: list[CompareRow] = []
    for seed in seeds:
        variant = replace(
            cfg, seed=seed, channel=replace(cfg.channel, seed=None)
        )
        results = {}
        for mode in (MODE_UNRELIABLE, MODE_RELIABLE):
            result = run_simulation(variant, mode=mode)
            if result.report.mean is None:
                raise ValueError(
                    f"seed {seed} mode {mode}: no post-warm-up ticks to compare"
                )
            results[mode] = result
            if out_dir is not None:
                write_run_outputs(result, Path(out_dir) / f"seed_{seed}" / mode)
        unrel = results[MODE_UNRELIABLE].report
        rel = results[MODE_RELIABLE].report
        rows.append(
            CompareRow(
                seed=seed,
                mean_unreliable=unrel.mean,
                mean_reliable=rel.mean,
                mean_diff=rel.mean - unrel.mean,
                max_unreliable=unrel.max,
                max_reliable=rel.max,
                p95_unreliable=unrel.p95,
                p95_reliable=rel.p95,
            )
        )
    if out_dir is not None:
        _write_compare_outputs(rows, Path(out_dir))
    return rows


_COMPARE_FIELDS = [f.name for f in fields(CompareRow)]


def compare_payload(rows: list[CompareRow]) -> dict:
    """The ``comparison.json`` document, which ``drsync compare`` also prints."""
    return {
        "seeds": [row.seed for row in rows],
        "unreliable_mean_lower_count": sum(
            1 for row in rows if row.mean_unreliable < row.mean_reliable
        ),
        "rows": [asdict(row) for row in rows],
    }


def _write_compare_outputs(rows: list[CompareRow], out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    spec.write_csv(str(out / "comparison.csv"), _COMPARE_FIELDS, map(astuple, rows))
    spec.write_json(compare_payload(rows), str(out / "comparison.json"))


def comparison_scenario() -> ScenarioConfig:
    """Canonical head-to-head scenario: fast maneuvering on a lossy link.

    Waypoints flip every 80..200 ms at 40..100 u/s, so the sender emits a
    snapshot nearly every tick and fresh state matters far more than
    complete state.  A retransmit-and-reorder transport stalls the whole
    stream behind each lost packet for rto_ms while the extrapolation goes
    stale; the thin transport just waits one tick for the next update, and
    its fixed playout tax is small next to the stalls.
    """
    return ScenarioConfig(
        seed=1,
        duration_ms=60_000,
        trajectory=TrajectorySource(
            generator=TrajectoryGenConfig(
                box_size=800.0,
                speed_min=40.0,
                speed_max=100.0,
                waypoint_interval_min_ms=80,
                waypoint_interval_max_ms=200,
            )
        ),
        protocol=ProtocolConfig(threshold=1.0, tick_ms=50),
        channel=ChannelSpec(base_latency_ms=100, jitter_max_ms=40, loss_rate=0.1),
        mode=MODE_UNRELIABLE,
        rto_ms=400,
        dejitter=DejitterConfig(playout_delay_ms=80, late_policy=LatePolicy.DELIVER_LATE),
    )


def config_from_dict(data: dict) -> ScenarioConfig:
    """Parse and validate a scenario config dict; unknown keys are errors.

    Collects every problem before failing so one round trip fixes them all.
    """
    return spec.parse(ScenarioConfig, data)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical dict form of a scenario config (round-trips through the parser)."""
    return spec.dump(cfg)


def config_from_json(path: str) -> ScenarioConfig:
    return config_from_dict(spec.load_json(path))
