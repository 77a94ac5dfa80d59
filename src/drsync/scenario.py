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
The stages that do not depend on the transport (trajectory, sampling,
sender, the resolved channel and its first-attempt draws) are therefore
built once per seed and given to both runs.  Every seed is built first,
reading a trajectory file once for all of them, and every first attempt is
drawn in one :func:`~drsync.netsim.draw` call.  The output cells that runs
share (the tick grid, the entity, the seqs and a seed's send times) are
formatted once per compare.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import shutil
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import spec
from .core import (
    MAX_TIME_MS,
    Stopwatch,
    TimeMs,
    TrajectoryScript,
    sample_positions,
)
from .netsim import (
    MAX_RETRANSMISSIONS,
    ChannelConfig,
    DejitterConfig,
    Deliveries,
    DeliveryEvent,
    LatePolicy,
    ReliableOrdered,
    draw,
    reliable,
    unreliable,
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
from .qon import DEFAULT_WEIGHTS, SessionMetrics, assess
from .rng import SEED, TAG_CHANNEL, TAG_TRAJECTORY, check_seed, mix64, substream
from .spec import INVALID, ConfigError

log = logging.getLogger(__name__)

MODE_RELIABLE = "reliable_ordered"
MODE_UNRELIABLE = "unreliable_dr"

# Wire size of one state snapshot: 40 bytes of headers plus seq(4),
# timestamp(8), position(3*8) and velocity(3*8).
DR_PACKET_BYTES = 100

# A connection counts as recoverable when most packets still get through.
RECOVERABLE_LOSS_LIMIT = 0.5

# The most ticks a run may have.  At this cap the costliest simulate that
# MAX_TRANSMISSIONS accepts (reliable_ordered, threshold 0, loss_rate 0.864)
# took 6.3 s and peaked at 164 MiB (tools/worst_case.py simulate --fraction
# 1, median of 3 runs on a 2-vCPU Xeon guest).
MAX_TICKS = 500_000
# A compare's seeds may hold at most MAX_TICKS ticks, each seed counted
# COMPARE_SEED_TICKS ticks over its own for building and writing it: on
# comparison_scenario() with its output tree a seed cost 5-16 ms, most of it
# making its 8 files and 3 folders, and a tick 8-12 us (a 2-vCPU Xeon guest).
# At the bound two seeds of 249,000 ticks took 5.1 s (4.1-5.8 s) at 157 MiB,
# and 454 seeds of 101 ticks 5.1 s (3.6-6.1 s) at 38 MiB (medians of 6 runs
# of tools/worst_case.py compare --fraction 1).
COMPARE_SEED_TICKS = 1_000
# The most transmissions a run, or a compare's runs together, may expect to
# draw: under reliable_ordered each send is sent again while it is lost, up
# to MAX_RETRANSMISSIONS times.  The transport takes about 2 us a
# transmission.  A simulate at the cap at loss 0.95 and threshold 1 expects
# 3,152,266 and stays within it; at threshold 0, loss 1.0 expected
# 7,695,072 and took 14.9-15.4 s.
MAX_TRANSMISSIONS = 3_200_000
# The most waypoints a generated trajectory may have; generating that many
# takes 1.1-1.4 s and 133 MiB (3 child processes on a 2-vCPU Xeon guest).
MAX_WAYPOINTS = 500_000


@dataclass(frozen=True)
class TrajectoryGenConfig:
    """Random-waypoint generator: wander inside a cubic box at bounded speed."""

    box_size: float = spec.field(spec.Real(gt=0), 1000.0)
    speed_min: float = spec.field(spec.Real(gt=0), 1.0)
    speed_max: float = spec.field(spec.Real(gt=0), 10.0)
    # No waypoint may lie past MAX_TIME_MS, so no interval is longer.
    waypoint_interval_min_ms: int = spec.field(spec.Int(ge=1, le=MAX_TIME_MS), 2000)
    waypoint_interval_max_ms: int = spec.field(spec.Int(ge=1, le=MAX_TIME_MS), 5000)

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
    seed: int = spec.field(SEED)
    duration_ms: int = spec.field(spec.Int(le=MAX_TIME_MS))
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
        if duration // tick >= MAX_TICKS:
            return [
                f"duration_ms: must be < {MAX_TICKS * tick} ({MAX_TICKS} ticks), "
                f"got {duration}"
            ]
        src = v["trajectory"]
        if isinstance(src, TrajectorySource) and src.generator is not None:
            lo = src.generator.waypoint_interval_min_ms
            hi = src.generator.waypoint_interval_max_ms
            if duration // lo >= MAX_WAYPOINTS:
                return [
                    f"duration_ms: must be < {MAX_WAYPOINTS * lo} "
                    f"({MAX_WAYPOINTS} waypoints at the generator's "
                    f"waypoint_interval_min_ms), got {duration}"
                ]
            # k steps reach any time in [k * lo, k * hi], so the last step
            # starts at duration_ms - 1 at the latest, or at k * hi for the
            # most steps k that fit below duration_ms.
            last = min(duration - 1, (duration - 1) // lo * hi) + hi
            if last > MAX_TIME_MS:
                return [
                    "trajectory.generator.waypoint_interval_max_ms: must keep "
                    f"the last waypoint <= {MAX_TIME_MS} (it may reach {last} "
                    f"at this duration_ms), got {hi}"
                ]
        return []


def generate_trajectory(
    gen: TrajectoryGenConfig, duration_ms: int, seed: int
) -> TrajectoryScript:
    """Seeded random-waypoint walk covering at least ``duration_ms``.

    The walk draws from ``substream(seed, TAG_TRAJECTORY)``: a start
    uniform in the box, then per waypoint an interval by ``randint``, a
    speed by ``uniform`` and a direction from three ``gauss`` draws,
    resampled in the rare case that they are all near zero.  Those methods
    are written out here over the generator's ``random`` and
    ``getrandbits``, in CPython's operations and order: ``uniform(a, b)``
    is ``a + (b - a) * random()``; ``randint`` is ``getrandbits`` of the
    width's bit length, retried while too large; and ``gauss`` makes a
    Box–Muller pair and keeps its second value for the next call.
    """
    rng = substream(seed, TAG_TRAJECTORY)
    random, getrandbits = rng.random, rng.getrandbits
    box = gen.box_size
    x = 0.0 + (box - 0.0) * random()
    y = 0.0 + (box - 0.0) * random()
    z = 0.0 + (box - 0.0) * random()
    ts, xs, ys, zs = [0], [x], [y], [z]
    dt_min = gen.waypoint_interval_min_ms
    dt_width = gen.waypoint_interval_max_ms - dt_min + 1
    dt_bits = dt_width.bit_length()
    speed_min, speed_span = gen.speed_min, gen.speed_max - gen.speed_min
    tau, sqrt, log, cos, sin = math.tau, math.sqrt, math.log, math.cos, math.sin
    # gauss returns 0 + z * 1, which differs from z only in turning -0.0
    # into 0.0; the walk uses each draw squared or as a step added to a
    # coordinate that is never -0.0, so it cannot tell the two apart.
    spare = None  # gauss's kept second value
    t = 0
    while t < duration_ms:
        r = getrandbits(dt_bits)
        while r >= dt_width:
            r = getrandbits(dt_bits)
        dt = dt_min + r
        speed = speed_min + speed_span * random()
        while True:
            if spare is None:
                x2pi = random() * tau
                g2rad = sqrt(-2.0 * log(1.0 - random()))
                dx, dy = cos(x2pi) * g2rad, sin(x2pi) * g2rad
                x2pi = random() * tau
                g2rad = sqrt(-2.0 * log(1.0 - random()))
                dz, spare = cos(x2pi) * g2rad, sin(x2pi) * g2rad
            else:
                x2pi = random() * tau
                g2rad = sqrt(-2.0 * log(1.0 - random()))
                dx, dy, dz = spare, cos(x2pi) * g2rad, sin(x2pi) * g2rad
                spare = None
            norm = sqrt(dx * dx + dy * dy + dz * dz)
            if norm > 1e-9:
                break
        step = speed * dt / 1000.0
        # min(box, max(0.0, v)) as comparisons: builtin max(a, b) is b if
        # b > a else a, and min(a, b) is b if b < a else a, NaN included.
        x += dx / norm * step
        x = x if x > 0.0 else 0.0
        x = x if x < box else box
        y += dy / norm * step
        y = y if y > 0.0 else 0.0
        y = y if y < box else box
        z += dz / norm * step
        z = z if z > 0.0 else 0.0
        z = z if z < box else box
        t += dt
        ts.append(t)
        xs.append(x)
        ys.append(y)
        zs.append(z)
    return TrajectoryScript.from_columns(
        np.array(ts, dtype=np.int64), np.column_stack((xs, ys, zs))
    )


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


def expected_transmissions(mode: str, loss_rate: float, sends: int) -> float:
    """The transmissions that ``sends`` sends expect to draw under ``mode``:
    under reliable_ordered, each attempt is lost with ``loss_rate`` and sent
    again, up to MAX_RETRANSMISSIONS times."""
    if mode != MODE_RELIABLE:
        return float(sends)
    return sends * sum(loss_rate**k for k in range(MAX_RETRANSMISSIONS + 1))


def _check_transmissions(expected: float, what: str) -> None:
    if expected > MAX_TRANSMISSIONS:
        raise ValueError(
            f"{what} must keep its expected transmissions <= {MAX_TRANSMISSIONS}, "
            f"got {expected:.0f}"
        )


@dataclass(eq=False)  # its columns are arrays, which == compares elementwise
class RunResult:
    """Everything a simulation run produced, plus the JSON-ready summary.

    ``timings`` maps each stage the run ran to its wall-clock seconds:
    ``trajectory``, ``sample``, ``sender``, ``transport``, ``receiver``,
    ``export_error`` and ``summary``, or only the last four when the run was
    handed shared stages.  It is the one field that differs between reruns,
    and no output file holds it.  ``events`` and ``sends`` are lists built
    from ``deliveries`` when they are first read.
    """

    config: ScenarioConfig  # its ``mode`` is the transport that ran
    mode: str
    report: ExportErrorReport
    deliveries: Deliveries
    summary: dict
    timings: dict[str, float]

    @functools.cached_property
    def events(self) -> list[DeliveryEvent]:
        return self.deliveries.events()

    @functools.cached_property
    def sends(self) -> list[tuple[int, TimeMs]]:
        return list(enumerate(self.deliveries.send_ms.tolist(), start=1))


class _SharedStages(NamedTuple):
    """The stages of a run that do not depend on its transport mode."""

    config: ScenarioConfig  # the config they were built from
    ticks: np.ndarray
    positions: np.ndarray
    sent: np.ndarray
    velocities: np.ndarray  # each send's
    chan: ChannelConfig
    first: np.ndarray | None  # the first attempts' delays, once drawn


def _shared_stages(
    cfg: ScenarioConfig,
    lap: Callable[[str], None],
    script: TrajectoryScript | None = None,
) -> _SharedStages:
    """Build the mode-free stages, calling ``lap`` after trajectory, sample and sender.

    ``script`` is the trajectory already loaded from ``cfg``, if it was.
    ``first`` is left None, so a run given these stages draws its first
    attempts in its ``transport`` stage; :func:`run_compare` fills it in.
    """
    if script is None:
        script = _load_trajectory(cfg)
    lap("trajectory")
    # An overflow (huge coordinates) is reported by the export error's check.
    with np.errstate(over="ignore", invalid="ignore"):
        tick = cfg.protocol.tick_ms
        ticks = np.arange(cfg.duration_ms // tick + 1, dtype=np.int64) * tick
        positions, runs = sample_positions(script, ticks)
        lap("sample")
        sent, velocities = sender_run(cfg.protocol, positions, runs)
    lap("sender")
    chan = _resolve_channel(cfg)
    return _SharedStages(cfg, ticks, positions, sent, velocities, chan, None)


def run_simulation(
    cfg: ScenarioConfig,
    mode: str | None = None,
    *,
    _shared: _SharedStages | None = None,
) -> RunResult:
    """Run one scenario end to end and return its result bundle.

    ``mode`` overrides ``cfg.mode`` (used by :func:`run_compare` to run both
    transports over one config); the config's own check judges it.
    ``_shared`` holds stages already built from ``cfg`` under any mode; the
    run then skips them and leaves them out of its ``timings``, and raises
    ``ValueError`` if they were built from a config that differs in more
    than the mode.

    The stages work on arrays over the whole tick grid.  They give the same
    sends, events and report as a loop over the scalar stage functions
    (``sample_trajectory``, ``sender_tick``, ``receiver_apply``,
    ``render_position`` and ``compute_export_error``), which the tests hold
    them to.
    """
    cfg = cfg if mode is None else replace(cfg, mode=mode)
    watch = Stopwatch()
    lap, timings = watch.lap, watch.timings
    if _shared is None:
        _shared = _shared_stages(cfg, lap)
    elif replace(_shared.config, mode=cfg.mode) != cfg:
        raise ValueError("shared stages were built from another config")
    _, ticks, positions, sent, velocities, chan, first = _shared
    expected = expected_transmissions(cfg.mode, chan.loss_rate, len(sent))
    _check_transmissions(expected, f"{cfg.mode} run of {len(sent)} sends")
    if first is None:
        [first] = draw([(chan, np.arange(1, len(sent) + 1))], 0)
    if cfg.mode == MODE_RELIABLE:
        transport = ReliableOrdered(rto_ms=cfg.rto_ms)
        deliveries = reliable(chan, transport, ticks[sent], first)
    else:
        deliveries = unreliable(chan, cfg.dejitter, ticks[sent], first)
    lap("transport")
    with np.errstate(over="ignore", invalid="ignore"):
        warmup, rendered = receiver_run(
            ticks, deliveries.deliver_ms, sent, positions, velocities
        )
        lap("receiver")
        report = export_error_report(
            ticks, positions, warmup, rendered, entity_id=cfg.entity_id
        )
        lap("export_error")
    summary = _summary(cfg, chan, report, deliveries)
    lap("summary")
    log.info(
        "run %s seed=%d: %d ticks, %d sends, mean error %s (%.2fs)",
        cfg.mode, cfg.seed, len(ticks), len(sent), summary["export_error"]["mean"],
        sum(timings.values()),
    )
    log.debug("run %s seed=%d stage seconds: %s", cfg.mode, cfg.seed, watch)
    return RunResult(cfg, cfg.mode, report, deliveries, summary, timings)


def _summary(
    cfg: ScenarioConfig,
    chan: ChannelConfig,
    report: ExportErrorReport,
    deliveries: Deliveries,
) -> dict:
    """The run's counters, export error, session metrics and risk.

    The session metrics are what a session monitor would compute.  Observed
    RTT is twice the base latency plus the mean one-way jitter of packets
    that arrived; jitter spread is the population stddev.
    """
    send, arrive, deliver, late, retransmissions = deliveries
    arrived = arrive >= 0
    transmissions = len(send) + int(retransmissions.sum())
    # The attempt that arrived left retransmissions * rto_ms after the send;
    # only a reliable run retransmits, and its times' dtype holds that.
    jitter = arrive[arrived] - send[arrived] - chan.base_latency_ms
    if transmissions > len(send):
        jitter -= retransmissions[arrived].astype(jitter.dtype) * cfg.rto_ms
    jitters = jitter.tolist()
    lost = transmissions - len(jitters)
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
    risk = assess(
        DEFAULT_WEIGHTS,
        session,
        connectivity_recoverable=session.loss_rate < RECOVERABLE_LOSS_LIMIT,
    )
    return {
        "transport": cfg.mode,
        "seed": cfg.seed,
        "ticks": report.samples_count + report.warmup_ticks,
        "sends": len(send),
        "transmissions": transmissions,
        "delivered": int(np.count_nonzero(deliver >= 0)),
        "lost_transmissions": lost,
        "late_count": int(np.count_nonzero(late)),
        "dropped_late": int(np.count_nonzero(arrived & (deliver < 0))),
        "dr_bytes_total": transmissions * DR_PACKET_BYTES,
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


def write_run_outputs(
    result: RunResult, out_dir: str | Path, *, _shared: spec.SharedCells | None = None
) -> None:
    """Write summary.json, export_error.csv, deliveries.csv, resolved_config.json.

    Every file is byte-deterministic for a given config and seed; the summary
    is recomputable from the CSVs plus the resolved config.  ``_shared``
    holds cells that :func:`run_compare` formats once for all its runs; the
    files are the same without it.  The seconds spent are logged at
    ``DEBUG`` as the run's ``write`` stage.
    """
    watch = Stopwatch()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_export_error_csv(result.report, str(out / "export_error.csv"), _shared)
    write_delivery_csv(result.deliveries, str(out / "deliveries.csv"), _shared)
    spec.write_json(config_to_dict(result.config), str(out / "resolved_config.json"))
    spec.write_json(result.summary, str(out / "summary.json"))
    watch.lap("write")
    log.debug(
        "run %s seed=%d stage seconds: %s", result.mode, result.config.seed, watch
    )


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
    config is ignored.  Needs at least two distinct seeds to say anything
    about variability across trials, each within :data:`~drsync.rng.SEED`,
    and at most :data:`MAX_TICKS` ticks in all, each seed counted
    :data:`COMPARE_SEED_TICKS` over its run's ticks; they are checked before
    anything is built or written.  The runs' expected transmissions, summed
    over both transports, are checked against :data:`MAX_TRANSMISSIONS`
    once every seed is built, before any is drawn or written.

    Each seed's trajectory, sampled positions, sends, channel and
    first-attempt draws are built once and passed to both
    :func:`run_simulation` calls, whose results equal those of runs that
    build them alone.  Every seed is built first, a trajectory file read
    once for all of them; every first attempt is then drawn in one call, and
    each seed is run and written in turn, its stages let go once it is done.
    The runs' files are written with one :class:`~drsync.spec.SharedCells`,
    so the cells they share are formatted once.  The compare logs its own
    stage seconds at ``DEBUG`` in one line, as do each run and its files.  A
    call that raises removes each file and folder it made in ``out_dir``.
    """
    if len(seeds) < 2:
        raise ValueError(
            f"comparison needs at least 2 seeds to be meaningful, got {len(seeds)}"
        )
    for i, seed in enumerate(seeds):
        check_seed(seed, f"seeds[{i}]")
    if len(set(seeds)) != len(seeds):
        raise ValueError("comparison seeds must be distinct")
    ticks = cfg.duration_ms // cfg.protocol.tick_ms + 1
    work = len(seeds) * (ticks + COMPARE_SEED_TICKS)
    if work > MAX_TICKS:
        raise ValueError(
            f"comparison of {len(seeds)} seeds at {ticks} ticks each must keep "
            f"seeds * (ticks + {COMPARE_SEED_TICKS}) <= {MAX_TICKS}, got {work}"
        )

    watch = Stopwatch()
    # A file holds one trajectory for every seed; a walk is generated per seed.
    script = None if cfg.trajectory.file is None else _load_trajectory(cfg)
    stages = [
        _shared_stages(
            replace(cfg, seed=seed, channel=replace(cfg.channel, seed=None)),
            watch.lap,
            script,
        )
        for seed in seeds
    ]
    expected = sum(
        expected_transmissions(mode, s.chan.loss_rate, len(s.sent))
        for s in stages
        for mode in (MODE_UNRELIABLE, MODE_RELIABLE)
    )
    _check_transmissions(expected, f"comparison of {len(seeds)} seeds")
    firsts = draw([(s.chan, np.arange(1, len(s.sent) + 1)) for s in stages], 0)
    watch.lap("draws")
    rows: list[CompareRow] = []
    # Every run has one tick grid and one entity, every deliveries.csv counts
    # seq from 1, and a seed's two transports send from one sender.
    shared = spec.SharedCells(("t_ms", "entity_id", "seq", "send_ms"))
    out = None if out_dir is None else Path(out_dir)
    undo = contextlib.nullcontext() if out is None else _undone_on_failure(out, seeds)
    with undo:
        while stages:
            seed_stages = stages.pop(0)._replace(first=firsts.pop(0))
            rows.append(_compare_seed(seed_stages, out, shared))
        if out is not None:
            watch.lap("runs")
            del watch.timings["runs"]  # each run logs its own stages
            out.mkdir(parents=True, exist_ok=True)
            columns = [[getattr(row, name) for row in rows] for name in _COMPARE_FIELDS]
            spec.write_csv(str(out / "comparison.csv"), _COMPARE_FIELDS, columns)
            watch.lap("comparison_csv")
            spec.write_json(compare_payload(rows), str(out / "comparison.json"))
            watch.lap("comparison_json")
    log.debug("compare stage seconds: %s", watch)
    return rows


@contextlib.contextmanager
def _undone_on_failure(out: Path, seeds: list[int]) -> Iterator[None]:
    """If the block raises, remove each file and folder that a compare of
    ``seeds`` may write in ``out`` and that was not there before."""
    top = out  # or its outermost folder that is yet to be made
    while not top.parent.exists():
        top = top.parent
    paths = [top]
    if top.exists():  # top is out
        folders = [out / f"seed_{seed}" for seed in seeds]
        runs = [f / mode for f in folders for mode in (MODE_UNRELIABLE, MODE_RELIABLE)]
        paths = [out / "comparison.csv", out / "comparison.json", *folders, *runs]
        names = (  # what write_run_outputs writes in a run's folder
            "export_error.csv", "deliveries.csv", "resolved_config.json", "summary.json"
        )
        paths += [run / name for run in runs for name in names]
    before = {path for path in paths if path.exists()}
    try:
        yield
    except BaseException:
        # A new folder holds only new files.
        for path in set(paths) - before:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
        raise


def _compare_seed(
    stages: _SharedStages, out: Path | None, shared: spec.SharedCells
) -> CompareRow:
    """Run both transports over one seed's shared stages, write each run's
    files with the compare's ``shared`` cells, and pair their errors."""
    seed = stages.config.seed
    results = {}
    for mode in (MODE_UNRELIABLE, MODE_RELIABLE):
        result = run_simulation(stages.config, mode=mode, _shared=stages)
        if result.report.mean is None:
            raise ValueError(
                f"seed {seed} mode {mode}: no post-warm-up ticks to compare"
            )
        results[mode] = result
        if out is not None:
            write_run_outputs(result, out / f"seed_{seed}" / mode, _shared=shared)
    unrel = results[MODE_UNRELIABLE].report
    rel = results[MODE_RELIABLE].report
    return CompareRow(
        seed=seed,
        mean_unreliable=unrel.mean,
        mean_reliable=rel.mean,
        mean_diff=rel.mean - unrel.mean,
        max_unreliable=unrel.max,
        max_reliable=rel.max,
        p95_unreliable=unrel.p95,
        p95_reliable=rel.p95,
    )


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
