import json
import random
from dataclasses import replace

import pytest

from drsync.core import TrajectoryScript, Vec3
from drsync.netsim import DejitterConfig, LatePolicy, read_delivery_csv
from drsync.protocol import ProtocolConfig
from drsync.scenario import (
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
    validate_config,
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
        assert result.mode == "reliable_ordered"
        assert result.summary["transport"] == "reliable_ordered"


class TestRunOutputs:
    def test_files_are_complete_and_reloadable(self, tmp_path):
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

    def test_compare_ignores_pinned_channel_seed(self):
        # Per-seed pairing must rederive the channel from each run seed.
        cfg = replace(
            comparison_scenario(),
            duration_ms=10_000,
            channel=replace(comparison_scenario().channel, seed=123),
        )
        rows = run_compare(cfg, [7, 8])
        assert rows[0].mean_unreliable != rows[1].mean_unreliable


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

    def test_json_file_parsing(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(comparison_scenario())))
        assert config_from_json(str(path)) == comparison_scenario()
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            config_from_json(str(path))

    def test_validate_config_checks_constructed_values(self):
        with pytest.raises(ConfigError):
            validate_config(quiet_config(seed=-1))
        with pytest.raises(ConfigError):
            validate_config(quiet_config(duration_ms=10))
        with pytest.raises(ConfigError):
            validate_config(quiet_config(mode="smoke_signals"))

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
                validate_config(cfg)
