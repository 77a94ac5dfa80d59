import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsync import netsim, scenario, spec
from drsync.cli import main
from drsync.core import TrajectoryScript, Vec3
from drsync.netsim import DejitterConfig, LatePolicy
from drsync.protocol import ProtocolConfig
from drsync.rng import TAG_CHANNEL, TAG_TRAJECTORY, mix64, substream
from drsync.scenario import (
    MODE_RELIABLE,
    MODE_UNRELIABLE,
    ChannelSpec,
    ConfigError,
    ScenarioConfig,
    TrajectoryGenConfig,
    TrajectorySource,
    comparison_scenario,
    config_from_dict,
    config_from_json,
    config_to_dict,
    generate_trajectory,
    run_compare,
    run_simulation,
    write_run_outputs,
)


def quiet_config(**kw) -> ScenarioConfig:
    """Small lossless zero-latency scenario; fast and fully predictable."""
    defaults = dict(
        seed=3,
        duration_ms=5000,
        trajectory=TrajectorySource(
            generator=TrajectoryGenConfig(
                box_size=100.0,
                speed_min=2.0,
                speed_max=6.0,
                waypoint_interval_min_ms=400,
                waypoint_interval_max_ms=900,
            )
        ),
        protocol=ProtocolConfig(threshold=1.0, tick_ms=100),
        channel=ChannelSpec(base_latency_ms=0, jitter_max_ms=0, loss_rate=0.0),
        dejitter=DejitterConfig(playout_delay_ms=0),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def reference_trajectory(gen, duration_ms, seed):
    """The walk through ``random.Random``'s own methods, as
    :func:`generate_trajectory` draws it."""
    rng = substream(seed, TAG_TRAJECTORY)
    box = gen.box_size
    pos = Vec3(
        rng.uniform(0.0, box), rng.uniform(0.0, box), rng.uniform(0.0, box)
    )
    waypoints = [(0, pos)]
    t = 0
    while t < duration_ms:
        dt = rng.randint(gen.waypoint_interval_min_ms, gen.waypoint_interval_max_ms)
        speed = rng.uniform(gen.speed_min, gen.speed_max)
        while True:
            dx, dy, dz = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
            norm = math.sqrt(dx * dx + dy * dy + dz * dz)
            if norm > 1e-9:
                break
        step = speed * dt / 1000.0
        pos = Vec3(
            min(box, max(0.0, pos.x + dx / norm * step)),
            min(box, max(0.0, pos.y + dy / norm * step)),
            min(box, max(0.0, pos.z + dz / norm * step)),
        )
        t += dt
        waypoints.append((t, pos))
    return TrajectoryScript(waypoints)


@st.composite
def generators(draw):
    speeds = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2)))
    lo = draw(st.integers(1, 2**40))
    hi = draw(st.one_of(st.just(lo), st.integers(lo, lo + 2000), st.integers(lo, 2**41)))
    return TrajectoryGenConfig(
        box_size=draw(st.floats(1e-3, 1e6)),
        speed_min=speeds[0],
        speed_max=speeds[1],
        waypoint_interval_min_ms=lo,
        waypoint_interval_max_ms=hi,
    )


# Steps that overflow to +-inf clamp to the walls, and so does any step
# in a box of one subnormal.
HUGE_STEPS = TrajectoryGenConfig(speed_min=1e307, speed_max=1e308)
TINY_BOX = TrajectoryGenConfig(box_size=5e-324, speed_min=1e-3, speed_max=1e-3)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(gen=comparison_scenario().trajectory.generator, steps=200, seed=4)
@example(gen=TrajectoryGenConfig(waypoint_interval_max_ms=2000), steps=30, seed=1)
@example(gen=HUGE_STEPS, steps=40, seed=2)
@example(gen=TINY_BOX, steps=40, seed=3)
@given(gen=generators(), steps=st.integers(1, 60), seed=st.integers(0, 2**64))
def test_trajectory_draws_as_random_random(gen, steps, seed):
    duration_ms = steps * gen.waypoint_interval_min_ms
    script = generate_trajectory(gen, duration_ms, seed)
    assert repr(script.waypoints) == repr(
        reference_trajectory(gen, duration_ms, seed).waypoints
    )


@pytest.mark.parametrize(
    "gen", [TrajectoryGenConfig(), HUGE_STEPS, TINY_BOX], ids=["default", "huge", "tiny"]
)
def test_trajectory_clamps_as_builtin_min_max_over_many_seeds(gen):
    for seed in range(40):
        script = generate_trajectory(gen, 100_000, seed)
        reference = reference_trajectory(gen, 100_000, seed)
        assert np.array_equal(script._t, reference._t)
        assert script._p.tobytes() == reference._p.tobytes()
    if gen is HUGE_STEPS:  # the walk reaches both walls of every axis
        assert {0.0, gen.box_size} <= set(script._p.ravel().tolist())


class TestTrajectoryGenerator:
    def test_covers_duration_and_stays_in_box(self):
        gen = TrajectoryGenConfig(box_size=50.0)
        script = generate_trajectory(gen, duration_ms=20_000, seed=5)
        assert script.start_ms == 0
        assert script.end_ms >= 20_000
        for _, p in script.waypoints:
            assert 0.0 <= p.x <= 50.0
            assert 0.0 <= p.y <= 50.0
            assert 0.0 <= p.z <= 50.0

    def test_waypoint_spacing_honors_bounds(self):
        gen = TrajectoryGenConfig(waypoint_interval_min_ms=300, waypoint_interval_max_ms=700)
        script = generate_trajectory(gen, duration_ms=30_000, seed=8)
        times = [t for t, _ in script.waypoints]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(300 <= g <= 700 for g in gaps)

    def test_deterministic_per_seed(self):
        gen = TrajectoryGenConfig()
        a = generate_trajectory(gen, 10_000, seed=1)
        b = generate_trajectory(gen, 10_000, seed=1)
        c = generate_trajectory(gen, 10_000, seed=2)
        assert a.waypoints == b.waypoints
        assert a.waypoints != c.waypoints

    def test_speed_limits_respected(self):
        gen = TrajectoryGenConfig(box_size=1e9, speed_min=2.0, speed_max=4.0)
        script = generate_trajectory(gen, 30_000, seed=3)
        for (t0, p0), (t1, p1) in zip(script.waypoints, script.waypoints[1:]):
            dist = (
                (p1.x - p0.x) ** 2 + (p1.y - p0.y) ** 2 + (p1.z - p0.z) ** 2
            ) ** 0.5
            speed = dist / ((t1 - t0) / 1000.0)
            # Clamping at the walls can only slow the leg down.
            assert speed <= 4.0 + 1e-9


class TestRunSimulation:
    def test_perfect_channel_tracks_within_threshold(self):
        result = run_simulation(quiet_config())
        assert result.report.max is not None
        assert result.report.max <= 1.0 + 1e-9
        assert result.summary["late_count"] == 0
        assert result.summary["lost_transmissions"] == 0

    def test_deterministic_summary(self):
        a = run_simulation(quiet_config(seed=11))
        b = run_simulation(quiet_config(seed=11))
        assert a.summary == b.summary
        assert a.report.series == b.report.series
        assert run_simulation(quiet_config(seed=12)).summary != a.summary

    def test_tick_grid_and_send_accounting(self):
        result = run_simulation(quiet_config())
        assert result.summary["ticks"] == 51  # 5000 ms at 100 ms plus t=0
        assert result.summary["sends"] == len(result.sends)
        assert result.summary["transmissions"] >= result.summary["sends"]
        assert result.summary["dr_bytes_total"] == result.summary["transmissions"] * 100

    def test_explicit_channel_seed_pins_impairments(self):
        noisy = dict(
            channel=ChannelSpec(
                base_latency_ms=50, jitter_max_ms=30, loss_rate=0.2, seed=77
            ),
            dejitter=DejitterConfig(playout_delay_ms=30),
        )
        a = run_simulation(quiet_config(**noisy))
        b = run_simulation(quiet_config(**noisy))
        assert [e.arrive_ms for e in a.events] == [e.arrive_ms for e in b.events]

    def test_derived_channel_seed_follows_run_seed(self):
        noisy = lambda s: quiet_config(
            seed=s,
            channel=ChannelSpec(base_latency_ms=50, jitter_max_ms=30, loss_rate=0.2),
            dejitter=DejitterConfig(playout_delay_ms=30),
        )
        a = run_simulation(noisy(1))
        b = run_simulation(noisy(2))
        assert a.summary != b.summary

    def test_late_drop_policy_records_drops(self):
        cfg = quiet_config(
            channel=ChannelSpec(base_latency_ms=50, jitter_max_ms=60, loss_rate=0.0),
            dejitter=DejitterConfig(playout_delay_ms=5, late_policy=LatePolicy.DROP),
        )
        result = run_simulation(cfg)
        assert result.summary["dropped_late"] > 0
        dropped = [e for e in result.events if e.arrive_ms is not None and e.deliver_ms is None]
        assert len(dropped) == result.summary["dropped_late"]
        assert all(e.late for e in dropped)

    def test_session_metrics_on_clean_channel(self):
        cfg = quiet_config(
            channel=ChannelSpec(base_latency_ms=40, jitter_max_ms=0, loss_rate=0.0)
        )
        result = run_simulation(cfg)
        sm = result.summary["session_metrics"]
        assert sm["rtt_mean_ms"] == 80.0
        assert sm["rtt_jitter_ms"] == 0.0
        assert sm["loss_rate"] == 0.0
        assert sm["elapsed_min"] == 5000 / 60_000

    def test_warmup_plus_samples_covers_all_ticks(self):
        cfg = quiet_config(
            channel=ChannelSpec(base_latency_ms=250, jitter_max_ms=0, loss_rate=0.0)
        )
        result = run_simulation(cfg)
        report = result.report
        assert report.warmup_ticks > 0  # nothing delivered before 250 ms
        assert report.warmup_ticks + report.samples_count == len(report.series)

    def test_trajectory_file_must_cover_run(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t_ms,x,y,z\n0,0,0,0\n1000,5,0,0\n")
        cfg = quiet_config(
            duration_ms=2000, trajectory=TrajectorySource(file=str(path))
        )
        with pytest.raises(ConfigError, match="covers"):
            run_simulation(cfg)

    def test_trajectory_file_used_verbatim(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t_ms,x,y,z\n0,0,0,0\n10000,10,0,0\n")
        cfg = quiet_config(duration_ms=5000, trajectory=TrajectorySource(file=str(path)))
        result = run_simulation(cfg)
        # First snapshot is stationary, so drift touches the threshold once;
        # the second snapshot carries the true velocity and ends the chase.
        assert result.summary["sends"] == 2
        assert result.report.max == 1.0
        assert result.report.series[-1][1] == pytest.approx(0.0, abs=1e-9)

    def test_mode_override(self):
        cfg = quiet_config(
            channel=ChannelSpec(base_latency_ms=10, jitter_max_ms=0, loss_rate=0.0)
        )
        result = run_simulation(cfg, mode="reliable_ordered")
        assert result.mode == result.config.mode == "reliable_ordered"
        assert result.summary["transport"] == "reliable_ordered"

    def test_mode_override_is_judged_by_the_config(self):
        with pytest.raises(ConfigError, match="transport.mode: must be one of"):
            run_simulation(quiet_config(), mode="carrier_pigeon")


class TestRunOutputs:
    def test_files_are_complete_and_reloadable(self, tmp_path, read_delivery_csv):
        result = run_simulation(quiet_config())
        write_run_outputs(result, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == result.summary
        events = read_delivery_csv(str(tmp_path / "deliveries.csv"))
        assert events == result.events
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        assert config_from_dict(resolved) == result.config
        error_lines = (tmp_path / "export_error.csv").read_text().splitlines()
        assert error_lines[0] == "t_ms,entity_id,error"
        assert len(error_lines) == 1 + result.summary["ticks"]

    def test_rerun_is_byte_identical(self, tmp_path):
        result = run_simulation(quiet_config(seed=21))
        write_run_outputs(result, tmp_path / "a")
        write_run_outputs(run_simulation(quiet_config(seed=21)), tmp_path / "b")
        for name in ("summary.json", "export_error.csv", "deliveries.csv",
                     "resolved_config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRunCompare:
    def test_needs_two_distinct_seeds(self):
        cfg = comparison_scenario()
        with pytest.raises(ValueError):
            run_compare(cfg, [1])
        with pytest.raises(ValueError):
            run_compare(cfg, [1, 1])

    def test_seed_outside_the_rule_raises_before_any_run(self, monkeypatch):
        # mix64 masks a seed to 64 bits, so 2**64 + 1 would rerun seed 1.
        built = []
        monkeypatch.setattr(scenario, "_shared_stages", lambda *a: built.append(a))
        for seeds, bad in (([1, 2**64 + 1], 1), ([-1, 2], 0)):
            with pytest.raises(
                ValueError,
                match=rf"^seeds\[{bad}\]: must be in \[0, {2**64 - 1}\], got {seeds[bad]}$",
            ):
                run_compare(quiet_config(), seeds)
        assert built == []

    def test_rows_pair_both_transports(self, tmp_path):
        cfg = replace(comparison_scenario(), duration_ms=20_000)
        rows = run_compare(cfg, [4, 5], out_dir=tmp_path)
        assert [r.seed for r in rows] == [4, 5]
        for row in rows:
            assert row.mean_diff == row.mean_reliable - row.mean_unreliable
            u = json.loads(
                (tmp_path / f"seed_{row.seed}" / "unreliable_dr" / "summary.json").read_text()
            )
            r = json.loads(
                (tmp_path / f"seed_{row.seed}" / "reliable_ordered" / "summary.json").read_text()
            )
            assert u["export_error"]["mean"] == row.mean_unreliable
            assert r["export_error"]["mean"] == row.mean_reliable
        table = (tmp_path / "comparison.csv").read_text().splitlines()
        assert table[0].startswith("seed,mean_unreliable,mean_reliable,")
        assert len(table) == 3

    def test_a_failed_compare_removes_what_it_wrote(self, tmp_path):
        # Only tick 0 sends; seed 2 loses that packet under unreliable_dr
        # after seed 1 has written its tree.
        cfg = replace(
            comparison_scenario(),
            duration_ms=20_000,
            protocol=ProtocolConfig(threshold=1e12, tick_ms=50),
        )
        kept = tmp_path / "kept"
        (kept / "seed_1" / "unreliable_dr").mkdir(parents=True)
        (kept / "notes.txt").write_text("mine")
        before = sorted(kept.rglob("*"))
        for out in (tmp_path / "qout", tmp_path / "new" / "qout", kept):
            with pytest.raises(ValueError, match="seed 2 mode unreliable_dr: no post"):
                run_compare(cfg, [1, 2], out_dir=out)
        assert sorted(tmp_path.iterdir()) == [kept]
        assert sorted(kept.rglob("*")) == before
        assert (kept / "notes.txt").read_text() == "mine"

    def test_a_failed_compare_lists_no_folder_it_did_not_make(
        self, tmp_path, monkeypatch
    ):
        # The same failure as above, in an --out that holds an unrelated
        # subtree: the undo must neither list nor touch it.
        cfg = replace(
            comparison_scenario(),
            duration_ms=20_000,
            protocol=ProtocolConfig(threshold=1e12, tick_ms=50),
        )
        out = tmp_path / "out"
        (out / "mine" / "deep").mkdir(parents=True)
        (out / "mine" / "deep" / "notes.txt").write_text("mine")

        def listed(folder, *args, **kwargs):
            raise AssertionError(f"listed {folder}")

        for name in ("rglob", "glob", "iterdir"):
            monkeypatch.setattr(Path, name, listed)
        with pytest.raises(ValueError, match="seed 2 mode unreliable_dr: no post"):
            run_compare(cfg, [1, 2], out_dir=out)
        monkeypatch.undo()
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == [
            Path("mine"), Path("mine/deep"), Path("mine/deep/notes.txt")
        ]
        assert (out / "mine" / "deep" / "notes.txt").read_text() == "mine"

    @pytest.mark.parametrize("warmup", ["short", "long"])
    def test_tree_equals_what_simulate_writes(self, warmup, tmp_path, monkeypatch):
        # The runs share cells: one tick grid and entity, seq from 1, and a
        # seed's send times.  An entity that CSV quotes; seeds whose send
        # counts rise, then fall (69, 74, 70 and 46, 51, 49); a warm-up of
        # 3 or 4 ticks, or of 15 or 20 behind a long latency and playout.
        cfg = replace(comparison_scenario(), duration_ms=6_000, entity_id='p,"1"')
        if warmup == "long":
            cfg = replace(
                cfg,
                protocol=replace(cfg.protocol, threshold=3.0),
                channel=replace(cfg.channel, base_latency_ms=700),
                dejitter=replace(cfg.dejitter, playout_delay_ms=300),
            )
        seeds = [5, 8, 3]
        formatted = []
        cells = spec.cells

        def spy(column, end):
            formatted.append(spec._length(column))
            return cells(column, end)

        monkeypatch.setattr(spec, "cells", spy)
        run_compare(cfg, seeds, out_dir=tmp_path / "compare")
        monkeypatch.undo()
        sends = []
        for seed in seeds:
            for mode in (MODE_UNRELIABLE, MODE_RELIABLE):
                path = tmp_path / f"{seed}_{mode}.json"
                spec.write_json(config_to_dict(replace(cfg, mode=mode)), str(path))
                alone = tmp_path / f"{seed}_{mode}"
                args = ["simulate", "--config", str(path), "--seed", str(seed)]
                assert main([*args, "--out", str(alone)]) == 0
                run = tmp_path / "compare" / f"seed_{seed}" / mode
                names = sorted(p.name for p in alone.iterdir())
                assert sorted(p.name for p in run.iterdir()) == names
                for name in names:
                    assert (run / name).read_bytes() == (alone / name).read_bytes()
            summary = json.loads((alone / "summary.json").read_text())
            sends.append(summary["sends"])
            assert summary["export_error"]["warmup_ticks"] >= (
                15 if warmup == "long" else 3
            )
        assert sends[0] < sends[1] > sends[2] != sends[0]
        # Formatted once each: the grid and entity, seq at each new most
        # sends, and each seed's send times.
        ticks = 6_000 // 50 + 1
        assert formatted == [ticks, ticks, sends[0], sends[0], sends[1], sends[1],
                             sends[2]]

    def test_compare_ignores_pinned_channel_seed(self):
        # Per-seed pairing must rederive the channel from each run seed.
        cfg = replace(
            comparison_scenario(),
            duration_ms=10_000,
            channel=replace(comparison_scenario().channel, seed=123),
        )
        rows = run_compare(cfg, [7, 8])
        assert rows[0].mean_unreliable != rows[1].mean_unreliable


class TestSharedStages:
    """run_compare builds the mode-free stages once per seed; nothing changes."""

    def compare_results(self, cfg, seeds, monkeypatch):
        captured = []
        original = scenario.run_simulation

        def capture(*args, **kwargs):
            captured.append(original(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(scenario, "run_simulation", capture)
        run_compare(cfg, seeds)
        return captured

    @pytest.mark.parametrize("source", ["generated", "file"])
    def test_shared_runs_equal_runs_alone(self, source, tmp_path, monkeypatch):
        self.check_shared_runs(source, [4, 5], tmp_path, monkeypatch)

    @pytest.mark.parametrize("source", ["generated", "file"])
    def test_batched_draws_equal_runs_alone(self, source, tmp_path, monkeypatch):
        # About 70 sends a seed: below BATCH_MIN_KEYS, so lower it.
        monkeypatch.setattr(netsim, "BATCH_MIN_KEYS", 0)
        self.check_shared_runs(source, [4, 5, 6], tmp_path, monkeypatch)

    def test_one_draw_holds_every_first_attempt(self, monkeypatch):
        calls = []
        original = scenario.draw

        def spy(runs, attempt):
            calls.append((attempt, [(chan.seed, seqs.tolist()) for chan, seqs in runs]))
            return original(runs, attempt)

        monkeypatch.setattr(scenario, "draw", spy)
        cfg = replace(comparison_scenario(), duration_ms=6_000)
        results = self.compare_results(cfg, [4, 5, 6], monkeypatch)
        firsts = [
            (mix64(r.config.seed, TAG_CHANNEL), list(range(1, len(r.sends) + 1)))
            for r in results[::2]  # a seed's two runs send alike
        ]
        assert calls == [(0, firsts)]

    def test_a_trajectory_file_is_read_once(self, tmp_path, monkeypatch):
        reads = []
        from_csv = TrajectoryScript.from_csv

        def spy(path):
            reads.append(path)
            return from_csv(path)

        monkeypatch.setattr(TrajectoryScript, "from_csv", spy)
        self.check_shared_runs("file", [4, 5, 6], tmp_path, monkeypatch)
        assert reads == [str(tmp_path / "traj.csv")]

    def check_shared_runs(self, source, seeds, tmp_path, monkeypatch):
        cfg = replace(comparison_scenario(), duration_ms=6_000)
        if source == "file":
            script = generate_trajectory(
                cfg.trajectory.generator, cfg.duration_ms, seed=9
            )
            path = tmp_path / "traj.csv"
            path.write_text(
                "t_ms,x,y,z\n"
                + "".join(f"{t},{p.x!r},{p.y!r},{p.z!r}\n" for t, p in script.waypoints)
            )
            cfg = replace(cfg, trajectory=TrajectorySource(file=str(path)))
        results = self.compare_results(cfg, seeds, monkeypatch)
        assert [(r.config.seed, r.mode) for r in results] == [
            (seed, mode) for seed in seeds for mode in (MODE_UNRELIABLE, MODE_RELIABLE)
        ]
        monkeypatch.undo()
        for shared in results:
            variant = replace(
                cfg, seed=shared.config.seed, channel=replace(cfg.channel, seed=None)
            )
            alone = run_simulation(variant, mode=shared.mode)
            assert shared.config == alone.config
            assert shared.sends == alone.sends
            assert shared.events == alone.events
            assert shared.report == alone.report
            assert shared.summary == alone.summary
            assert list(alone.timings) == [
                "trajectory", "sample", "sender", "transport", "receiver",
                "export_error", "summary",
            ]
            assert list(shared.timings) == [
                "transport", "receiver", "export_error", "summary",
            ]

    def test_stages_from_another_config_are_refused(self):
        cfg = quiet_config()
        shared = scenario._shared_stages(cfg, lambda stage: None)
        run_simulation(cfg, mode=MODE_RELIABLE, _shared=shared)  # mode may differ
        for other in (
            replace(cfg, seed=4),
            replace(cfg, duration_ms=4000),
            replace(cfg, channel=replace(cfg.channel, seed=7)),
            replace(cfg, protocol=ProtocolConfig(threshold=2.0, tick_ms=100)),
        ):
            with pytest.raises(ValueError, match="built from another config"):
                run_simulation(other, _shared=shared)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = comparison_scenario()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_with_file_source(self):
        cfg = quiet_config(trajectory=TrajectorySource(file="somewhere.csv"))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_minimal_config_gets_defaults(self):
        cfg = config_from_dict(
            {
                "seed": 1,
                "duration_ms": 1000,
                "trajectory": {"generator": {}},
                "protocol": {"threshold": 1.0, "tick_ms": 100},
                "channel": {"base_latency_ms": 0, "jitter_max_ms": 0, "loss_rate": 0.0},
            }
        )
        assert cfg.mode == "unreliable_dr"
        assert cfg.rto_ms == 400
        assert cfg.dejitter.playout_delay_ms == 0
        assert cfg.entity_id == "player-0"
        assert cfg.trajectory.generator == TrajectoryGenConfig()

    def test_all_problems_reported_at_once(self):
        data = {
            "seed": -1,
            "duration_ms": 10,
            "trajectory": {"file": "", "generator": {}},
            "protocol": {"threshold": -2, "tick_ms": 100, "typo_ms": 1},
            "channel": {"base_latency_ms": 0, "jitter_max_ms": -5, "loss_rate": 2.0},
            "transport": {"mode": "carrier_pigeon"},
            "dejitter": {"late_policy": "queue_forever"},
        }
        with pytest.raises(ConfigError) as exc_info:
            config_from_dict(data)
        text = "\n".join(exc_info.value.problems)
        for fragment in (
            "seed",
            "duration_ms",
            "exactly one of",
            "typo_ms: unknown key",
            "threshold",
            "jitter_max_ms",
            "loss_rate",
            "transport.mode",
            "late_policy",
        ):
            assert fragment in text, fragment

    def test_reliable_mode_gives_up_at_certain_loss(self):
        data = config_to_dict(comparison_scenario())
        data["transport"]["mode"] = "reliable_ordered"
        data["channel"]["loss_rate"] = 1.0
        data["duration_ms"] = 2000
        result = run_simulation(config_from_dict(data))
        assert all(
            ev.arrive_ms is None and ev.retransmissions == 15 for ev in result.events
        )
        summary = result.summary
        assert summary["transmissions"] == 16 * summary["sends"] > 0
        assert summary["lost_transmissions"] == summary["transmissions"]
        assert summary["delivered"] == 0

    def test_each_value_is_judged_once(self, monkeypatch):
        # 18 leaf values and 5 sections: one problem() call each, and the
        # relations of each object run once.
        expected = comparison_scenario()
        data = config_to_dict(expected)
        calls = []
        for rule in (spec.Int, spec.Real, spec.Str, spec.Choice, spec.Nested,
                     spec.Pair, spec.Seq):
            judge = rule.problem
            monkeypatch.setattr(
                rule, "problem", lambda self, v, judge=judge: calls.append(v) or judge(self, v)
            )
        relations = []
        for cls in (ScenarioConfig, TrajectorySource, TrajectoryGenConfig):
            rel = cls._relations
            monkeypatch.setattr(
                cls, "_relations", staticmethod(lambda v, rel=rel: relations.append(1) or rel(v))
            )
        assert config_from_dict(data) == expected
        assert len(calls) == 23
        assert len(relations) == 3

    def test_json_file_parsing(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(comparison_scenario())))
        assert config_from_json(str(path)) == comparison_scenario()
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            config_from_json(str(path))

    def test_validate_config_checks_constructed_values(self):
        with pytest.raises(ConfigError):
            spec.check(quiet_config(seed=-1))
        with pytest.raises(ConfigError):
            spec.check(quiet_config(duration_ms=10))
        with pytest.raises(ConfigError):
            spec.check(quiet_config(mode="smoke_signals"))
        with pytest.raises(ConfigError) as exc_info:
            replace(comparison_scenario(), protocol={"threshold": 1.0, "tick_ms": 100})
        assert exc_info.value.problems == ["protocol: must be a ProtocolConfig, got dict"]

    def test_fuzzed_mutations_always_raise_config_error(self):
        # Whatever garbage lands in a field, the outcome is a ConfigError
        # with per-field messages, never a crash of a different shape.
        rng = random.Random(99)
        base = config_to_dict(comparison_scenario())
        junk = ["x", -3, 1.5, None, [], {}, True, float("nan")]

        def targets(d, prefix=()):
            for key, value in d.items():
                yield prefix + (key,)
                if isinstance(value, dict):
                    yield from targets(value, prefix + (key,))

        for path in targets(base):
            for _ in range(3):
                data = json.loads(json.dumps(base))
                node = data
                for key in path[:-1]:
                    node = node[key]
                choice = rng.choice(junk)
                node[path[-1]] = choice
                try:
                    cfg = config_from_dict(data)
                except ConfigError:
                    continue
                # Mutation happened to be valid; config must then be usable.
                spec.check(cfg)
