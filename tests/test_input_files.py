"""Every input file the CLI reads ends in exit 0, or in exit 1/2 with an error.

Regression tests for inputs that used to crash with a traceback or pass
silently, plus a hypothesis fuzz test that swaps one field or cell of each
input kind for junk and drives ``cli.main``.
"""

import contextlib
import copy
import csv
import io
import json
import re
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drsync import analysis, core, netsim, qon, scenario, spec, workload
from drsync.cli import main
from drsync.qon import (
    DEFAULT_WEIGHTS,
    PredictorWeights,
    generate_labeled_sessions,
    weights_to_dict,
    write_sessions_csv,
)
from drsync.scenario import (
    ConfigError,
    ScenarioConfig,
    TrajectoryGenConfig,
    TrajectorySource,
    comparison_scenario,
    config_from_dict,
    config_from_json,
    config_to_dict,
)
from drsync.workload import (
    WorkloadProfile,
    generate_trace,
    preset,
    profile_from_dict,
    profile_to_dict,
    write_trace_csv,
)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``main`` in process; return exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


METRICS_CSV = (
    "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,connectivity_recoverable\n"
    "40.0,2.0,0.0,30.0,true\n"
    "450.0,80.0,0.3,5.0,false\n"
)


TRAJECTORY_CSV = (
    "t_ms,x,y,z\n"
    "0,0.0,0.0,0.0\n"
    "700,5.0,1.0,0.0\n"
    "1400,9.0,-3.0,2.0\n"
    "2000,12.0,0.0,1.0\n"
)


def fps_profile() -> dict:
    return profile_to_dict(preset("fps"))


def simulate_trajectory_argv(trajectory_csv: Path) -> list[str]:
    """``simulate`` argv for a 2 s scenario whose truth is ``trajectory_csv``."""
    cfg = replace(
        comparison_scenario(),
        duration_ms=2000,
        trajectory=TrajectorySource(file=str(trajectory_csv)),
    )
    config = trajectory_csv.with_name(trajectory_csv.stem + "_config.json")
    config.write_text(json.dumps(config_to_dict(cfg)))
    return ["simulate", "--config", str(config)]


class TestProfileDefects:
    def test_non_object_section_is_a_config_error(self):
        data = fps_profile()
        data["burst"] = 5
        with pytest.raises(ConfigError, match="burst: must be an object"):
            profile_from_dict(data)

    def test_non_pair_range_is_a_config_error(self):
        data = fps_profile()
        data["server_scale_range"] = "ab"
        with pytest.raises(ConfigError, match="server_scale_range: must be a pair"):
            profile_from_dict(data)

    @pytest.mark.parametrize(
        "rate, scale", [(1e12, [1.0, 1.0]), (600.0, [1.0, 2.0]), (1001.0, [0.0, 0.5])]
    )
    def test_rate_above_the_per_tick_cap_is_rejected(self, rate, scale):
        # Generation sends int(rate * scale) packets per tick, so a huge rate
        # used to run for hours.
        data = fps_profile()
        data["burst"]["rate_multiplier"] = rate
        data["server_scale_range"] = scale
        with pytest.raises(ConfigError, match="burst.rate_multiplier: .* <= 1000"):
            profile_from_dict(data)
        data["burst"]["rate_multiplier"] = 1000.0 / max(1.0, scale[1])
        profile_from_dict(data)

    def test_fractional_integer_is_rejected_not_truncated(self):
        data = fps_profile()
        data["tick_period_ms"] = 1.7
        with pytest.raises(ConfigError, match="tick_period_ms: must be an integer"):
            profile_from_dict(data)


def test_nan_generator_field_is_rejected_at_construction():
    with pytest.raises(ConfigError, match="box_size: must be finite"):
        TrajectoryGenConfig(box_size=float("nan"))


class TestCliDefects:
    def test_fit_rejects_nan_session_metrics(self, tmp_path):
        path = tmp_path / "sessions.csv"
        write_sessions_csv(generate_labeled_sessions(20, 1), str(path))
        lines = path.read_text().splitlines()
        lines[2] = "nan" + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["fit", "--data", str(path), "--epochs", "10"])
        assert code == 1
        assert out == ""
        assert "row 3" in err and "rtt_mean_ms" in err

    def test_predict_rejects_nan_weights(self, tmp_path):
        weights = tmp_path / "w.json"
        nan_bias = {**weights_to_dict(DEFAULT_WEIGHTS), "bias": float("nan")}
        weights.write_text(json.dumps(nan_bias))
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRICS_CSV)
        code, out, err = run_cli(
            ["predict", "--metrics", str(metrics), "--weights", str(weights)]
        )
        assert code == 1
        assert out == ""
        assert "bias: must be finite" in err

    @pytest.mark.parametrize("threshold", ["nan", "1.5", "-0.1", "x"])
    def test_predict_threshold_must_lie_in_unit_interval(self, tmp_path, threshold):
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRICS_CSV)
        code, out, err = run_cli(
            ["predict", "--metrics", str(metrics), "--threshold", threshold]
        )
        assert code == 1
        assert out == ""
        assert "error: argument --threshold" in err

    def test_predict_names_the_row_whose_score_is_undefined(self, tmp_path):
        # Finite metrics and weights whose terms overflow to inf - inf.
        weights = tmp_path / "w.json"
        weights.write_text(
            json.dumps({"bias": 0, "w_latency": 1e10, "w_loss": 0, "w_jitter": -1e10})
        )
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRICS_CSV + "1e308,1e308,0.0,1.0,true\n")
        code, out, err = run_cli(
            ["predict", "--metrics", str(metrics), "--weights", str(weights)]
        )
        assert code == 1
        assert out == ""  # the good rows before it are not printed either
        assert err.startswith(f"error: {metrics} data row 3: risk score undefined")

    def test_oversized_trace_value_is_an_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack\n"
            "100,c0,c2s,10,40,false\n"
            f"200,c0,c2s,{2**32},40,false\n"
        )
        code, out, err = run_cli(["analyze", "--trace", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid input file\n")
        assert "row 3" in err and "payload_bytes" in err

    def test_trace_that_is_not_utf8_names_no_row(self, tmp_path):
        # The decoder reads ahead of csv's row count, so no row is named.
        path = tmp_path / "trace.csv"
        path.write_bytes(
            b"t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack\n"
            + b"".join(b"%d00,c0,c2s,10,40,false\n" % k for k in (1, 2, 3))
            + b"400,c\xff,c2s,10,40,false\n"
        )
        code, out, err = run_cli(["analyze", "--trace", str(path)])
        assert code == 1
        assert out == ""
        assert err == (
            f"error: invalid input file\n  - {path}: not UTF-8 text "
            "(invalid start byte)\n"
        )

    def test_config_that_is_not_utf8_is_an_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seed": "\xff"}')
        code, out, err = run_cli(["simulate", "--config", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: invalid config\n  - {path}: not UTF-8 text")

    @pytest.mark.parametrize("command", ["simulate", "predict", "generate"])
    @pytest.mark.parametrize("kind", ["lists", "objects", "digits"])
    def test_json_past_pythons_limits_is_an_error(self, tmp_path, command, kind):
        # Nesting deeper than Python recurses, or an integer longer than it
        # converts (4,300 digits), in the file that each command reads.
        path = tmp_path / "input.json"
        if command == "simulate":
            data = config_to_dict(replace(comparison_scenario(), duration_ms=2000))
            data["channel"]["base_latency_ms"] = "DIGITS"
            argv = ["simulate", "--config", str(path)]
        elif command == "predict":
            data = {**weights_to_dict(DEFAULT_WEIGHTS), "bias": "DIGITS"}
            metrics = tmp_path / "m.csv"
            metrics.write_text(METRICS_CSV)
            argv = ["predict", "--metrics", str(metrics), "--weights", str(path)]
        else:
            data = {**fps_profile(), "header_bytes": "DIGITS"}
            argv = ["generate", "--profile", str(path), "--clients", "1",
                    "--duration-ms", "1000", "--out", str(tmp_path / "t.csv")]
        path.write_text({
            "lists": "[" * 100_000,
            "objects": '{"a": ' * 100_000,
            "digits": json.dumps(data).replace('"DIGITS"', "7" * 5001),
        }[kind])
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: invalid config\n  - {path}: not valid JSON (")
        assert "Traceback" not in err

    def test_unsorted_trace_names_the_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack\n"
            "100,c0,c2s,10,40,false\n"
            "200,c0,c2s,10,40,false\n"
            "50,c0,c2s,10,40,false\n"
        )
        code, _, err = run_cli(["analyze", "--trace", str(path)])
        assert code == 1
        assert err.startswith("error: invalid input file\n")
        assert "row 4" in err and "sorted" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_waypoint_names_its_time(self, tmp_path, cell):
        path = tmp_path / "trajectory.csv"
        path.write_text(TRAJECTORY_CSV.replace("9.0", cell))
        code, out, err = run_cli(simulate_trajectory_argv(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid input file\n")
        assert "t_ms=1400" in err

    def test_overflowing_waypoint_is_an_error_not_infinity(self, tmp_path):
        # Every coordinate is finite, but the squared distance overflows.
        path = tmp_path / "trajectory.csv"
        path.write_text(TRAJECTORY_CSV.replace("9.0", "1e200"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(simulate_trajectory_argv(path))
        assert code == 1
        assert "Infinity" not in out
        assert err.startswith("error: export error at t_ms=")
        assert "trajectory coordinates are too large" in err
        # The array stages overflow quietly; the check above reports it.
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_diverging_fit_names_the_learn_rate(self, tmp_path):
        path = tmp_path / "sessions.csv"
        write_sessions_csv(generate_labeled_sessions(20, 3), str(path))
        code, out, err = run_cli(["fit", "--data", str(path), "--learn-rate", "1e308"])
        assert code == 1
        assert out == ""
        assert err == "error: fit diverged: learn_rate 1e+308 is too large\n"


class TestCaps:
    """At each cap the input is accepted; one past it ends in exit 1 with an
    ``error:`` line, before the run, trace or buckets are built."""

    def test_ticks_per_run(self, tmp_path):
        data = config_to_dict(comparison_scenario())  # 50 ms ticks
        data["duration_ms"] = (scenario.MAX_TICKS - 1) * 50  # ticks 0 .. cap - 1
        assert config_from_dict(data).duration_ms == data["duration_ms"]
        data["duration_ms"] += 50
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["simulate", "--config", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid config\n")
        cap_ms = scenario.MAX_TICKS * 50
        assert f"duration_ms: must be < {cap_ms} ({scenario.MAX_TICKS} ticks)" in err

    @pytest.mark.parametrize("small", [True, False], ids=["small", "real"])
    def test_client_ticks_per_trace(self, tmp_path, monkeypatch, small):
        cap = 40 if small else workload.MAX_CLIENT_TICKS
        monkeypatch.setattr(workload, "MAX_CLIENT_TICKS", cap)
        out = tmp_path / "trace.csv"
        argv = ["generate", "--preset", "fps", "--out", str(out), "--clients"]
        if small:  # cheap to build at the cap: 1 client, 40 ticks of 50 ms
            assert run_cli([*argv, "1", "--duration-ms", "2000"])[0] == 0
            assert len(out.read_text().splitlines()) > 40
            out.unlink()
        code, _, err = run_cli([*argv, str(cap + 1), "--duration-ms", "50"])
        assert code == 1
        assert err == f"error: clients * ticks must be <= {cap}, got {cap + 1}\n"
        assert not out.exists()

    def test_work_per_compare(self, tmp_path, monkeypatch):
        # 21 ticks a seed: two seeds are 2 * (21 + COMPARE_SEED_TICKS) of work.
        data = config_to_dict(comparison_scenario())
        data["duration_ms"] = 1000
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        work = 2 * (21 + scenario.COMPARE_SEED_TICKS)
        argv = ["compare", "--config", str(path), "--seeds", "1,2", "--out"]
        monkeypatch.setattr(scenario, "MAX_TICKS", work - 1)
        code, out, err = run_cli([*argv, str(tmp_path / "past")])
        assert (code, out) == (1, "")
        assert err == (
            "error: comparison of 2 seeds at 21 ticks each must keep "
            f"seeds * (ticks + {scenario.COMPARE_SEED_TICKS}) <= {work - 1}, "
            f"got {work}\n"
        )
        assert not (tmp_path / "past").exists()
        monkeypatch.setattr(scenario, "MAX_TICKS", work)
        code, _, err = run_cli([*argv, str(tmp_path / "at")])
        assert (code, err) == (0, "")
        assert (tmp_path / "at" / "comparison.json").exists()

    @pytest.mark.parametrize("mode", ["unreliable_dr", "reliable_ordered"])
    def test_transmissions_per_run(self, tmp_path, monkeypatch, mode):
        # A run of 21 ticks at loss 0 expects one transmission a send.
        data = config_to_dict(comparison_scenario())
        data["duration_ms"], data["transport"]["mode"] = 1000, mode
        data["channel"]["loss_rate"] = 0.0
        cfg = config_from_dict(data)
        sends = len(scenario.run_simulation(cfg).sends)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        argv = ["simulate", "--config", str(path), "--out"]
        monkeypatch.setattr(scenario, "MAX_TRANSMISSIONS", sends - 1)
        code, out, err = run_cli([*argv, str(tmp_path / "past")])
        assert (code, out) == (1, "")
        assert err == (
            f"error: {mode} run of {sends} sends must keep its expected "
            f"transmissions <= {sends - 1}, got {sends}\n"
        )
        assert not (tmp_path / "past").exists()
        monkeypatch.setattr(scenario, "MAX_TRANSMISSIONS", sends)
        assert run_cli([*argv, str(tmp_path / "at")])[0] == 0
        assert (tmp_path / "at" / "summary.json").exists()

    def test_transmissions_per_compare(self, tmp_path, monkeypatch):
        # At loss 0 each seed expects its sends once per transport.
        data = config_to_dict(comparison_scenario())
        data["duration_ms"], data["channel"]["loss_rate"] = 1000, 0.0
        cfg = config_from_dict(data)
        expected = sum(
            2 * len(scenario.run_simulation(replace(cfg, seed=seed)).sends)
            for seed in (1, 2)
        )
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        argv = ["compare", "--config", str(path), "--seeds", "1,2", "--out"]
        monkeypatch.setattr(scenario, "MAX_TRANSMISSIONS", expected - 1)
        code, out, err = run_cli([*argv, str(tmp_path / "past")])
        assert (code, out) == (1, "")
        assert err == (
            "error: comparison of 2 seeds must keep its expected transmissions "
            f"<= {expected - 1}, got {expected}\n"
        )
        assert not (tmp_path / "past").exists()
        monkeypatch.setattr(scenario, "MAX_TRANSMISSIONS", expected)
        code, _, err = run_cli([*argv, str(tmp_path / "at")])
        assert (code, err) == (0, "")
        assert (tmp_path / "at" / "comparison.json").exists()

    def test_expected_transmissions(self):
        expected = scenario.expected_transmissions
        assert expected("unreliable_dr", 0.5, 10) == 10.0
        assert expected("reliable_ordered", 0.5, 10) == 10 * (2 - 2**-15)
        assert expected("reliable_ordered", 1.0, 10) == 160.0
        # tools/worst_case.py simulate --fraction 1 before the bound existed:
        # 281,516 sends at loss 0.95 stay accepted.
        assert expected("reliable_ordered", 0.95, 281_516) <= scenario.MAX_TRANSMISSIONS

    def test_compare_work_bound_admits_the_known_compares(self):
        def work(seeds, ticks):
            return seeds * (ticks + scenario.COMPARE_SEED_TICKS)

        # The extremes that tools/worst_case.py compare --fraction 1 runs.
        assert work(2, 249_000) <= scenario.MAX_TICKS < work(2, 249_001)
        assert work(454, 101) <= scenario.MAX_TICKS < work(455, 101)
        ticks = comparison_scenario().duration_ms // 50 + 1
        assert work(10, ticks) <= scenario.MAX_TICKS  # README's example
        assert work(4, 3_601) <= scenario.MAX_TICKS  # sim-fast-lossy

    def test_waypoints_per_run(self, tmp_path):
        data = config_to_dict(comparison_scenario())  # waypoints every 80..200 ms
        data["protocol"]["tick_ms"] = 1000
        data["trajectory"]["generator"]["waypoint_interval_min_ms"] = 1
        data["duration_ms"] = scenario.MAX_WAYPOINTS - 1
        assert config_from_dict(data).duration_ms == data["duration_ms"]
        data["duration_ms"] += 1
        with pytest.raises(ConfigError, match="500000 waypoints"):
            config_from_dict(data)
        # 1,001 ticks, but about 8 * 10**12 waypoints.
        data = config_to_dict(comparison_scenario())
        data["protocol"]["tick_ms"] = 2**40
        data["duration_ms"] = 2**40 * 1000
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        started = time.monotonic()
        code, out, err = run_cli(["simulate", "--config", str(path)])
        assert time.monotonic() - started < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid config\n")
        cap_ms = scenario.MAX_WAYPOINTS * 80
        assert f"duration_ms: must be < {cap_ms} ({scenario.MAX_WAYPOINTS} waypoints" in err
        configs = Path(__file__).resolve().parent.parent / "configs"
        fast_maneuver = config_from_json(str(configs / "fast_maneuver.json"))
        assert fast_maneuver.trajectory.generator is not None
        default = comparison_scenario()
        assert config_from_dict(config_to_dict(default)) == default

    def test_times_per_run(self, tmp_path):
        # Past 2**53 ms a time is no longer exact as a float64.
        cap = core.MAX_TIME_MS
        data = config_to_dict(comparison_scenario())
        data["protocol"]["tick_ms"] = 2**50
        # Waypoints every 2**40 ms keep MAX_WAYPOINTS out of the way.
        data["trajectory"]["generator"]["waypoint_interval_min_ms"] = 2**40
        data["trajectory"]["generator"]["waypoint_interval_max_ms"] = 2**40
        data["duration_ms"] = cap  # 9 ticks
        assert config_from_dict(data).duration_ms == cap
        data["duration_ms"] += 1
        config = tmp_path / "long.json"
        config.write_text(json.dumps(data))
        code, out, err = run_cli(["simulate", "--config", str(config)])
        assert (code, out) == (1, "")
        assert f"duration_ms: must be <= {cap}, got {cap + 1}" in err
        path = tmp_path / "trajectory.csv"
        path.write_text(TRAJECTORY_CSV.replace("2000,", f"{cap + 1},"))
        code, out, err = run_cli(simulate_trajectory_argv(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: invalid input file\n  - {path}: waypoint times must be "
            f"<= {cap}, got {cap + 1}\n"
        )

    def test_peak_packets_per_trace(self, tmp_path):
        # 1 client x 4,000 ticks is far below MAX_CLIENT_TICKS, but at 1000
        # packets per tick per side it would be about 8 million rows.
        data = fps_profile()
        data["burst"]["rate_multiplier"] = 1000.0
        profile = tmp_path / "fps.json"
        profile.write_text(json.dumps(data))
        out = tmp_path / "trace.csv"
        started = time.monotonic()
        code, _, err = run_cli(
            ["generate", "--profile", str(profile), "--clients", "1",
             "--duration-ms", "200000", "--out", str(out)]
        )
        assert time.monotonic() - started < 1.0
        assert code == 1
        assert err == (
            "error: clients * ticks * 2001 peak packets per client tick must be "
            f"<= {workload.MAX_TRACE_PACKETS}, got {4000 * 2001}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("name", ["mmorpg", "fps"])
    def test_presets_at_the_client_tick_cap_fit_the_packet_cap(self, monkeypatch, name):
        # Both caps scaled down by one factor: 40 client ticks still pass.
        factor = workload.MAX_CLIENT_TICKS // 40
        monkeypatch.setattr(workload, "MAX_CLIENT_TICKS", 40)
        monkeypatch.setattr(
            workload, "MAX_TRACE_PACKETS", workload.MAX_TRACE_PACKETS // factor
        )
        profile = preset(name)
        assert len(generate_trace(profile, 1, 40 * profile.tick_period_ms, seed=1))

    @pytest.mark.parametrize("small", [True, False], ids=["small", "real"])
    def test_buckets_per_analysis(self, tmp_path, monkeypatch, small):
        cap = 64 if small else analysis.MAX_BUCKETS
        monkeypatch.setattr(analysis, "MAX_BUCKETS", cap)
        path = tmp_path / "trace.csv"

        def analyze(last_t_ms):
            path.write_text(
                "t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack\n"
                "0,c0,c2s,10,40,false\n"
                "1,c0,s2c,10,40,false\n"
                f"{last_t_ms},c0,c2s,10,40,false\n"
            )
            return run_cli(["analyze", "--trace", str(path), "--bucket-ms", "1"])

        assert analyze(cap - 1)[0] == 0  # about 1 s at the real cap
        code, out, err = analyze(cap)
        assert (code, out) == (1, "")
        assert err == f"error: {cap + 1} buckets of 1 ms exceed MAX_BUCKETS ({cap})\n"


class TestHugeIntegers:
    """An integer too large for a float, an int64 or the work a run may do
    ends within 1 s in exit 1 with an ``error:`` line that names its field
    or flag; the largest accepted value still runs."""

    def run_fast(self, argv):
        started = time.monotonic()
        code, out, err = run_cli(argv)
        assert time.monotonic() - started < 1.0
        return code, out, err

    def scenario_file(self, tmp_path, **channel) -> str:
        data = config_to_dict(replace(comparison_scenario(), duration_ms=2000))
        data["channel"].update(channel)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("simulate", "jitter_max_ms", 2**600),
            ("simulate", "base_latency_ms", 10**400),
            ("compare", "base_latency_ms", 10**400),
            ("simulate", "base_latency_ms", 2**1023),
        ],
    )
    def test_channel_delay_past_the_bound(self, tmp_path, command, name, value):
        argv = [command, "--config", self.scenario_file(tmp_path, **{name: value})]
        if command == "compare":
            argv += ["--seeds", "1,2"]
        code, out, err = self.run_fast(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid config\n")
        assert f"channel.{name}: must be in [0, {netsim.MAX_DELAY_MS}], got" in err

    @pytest.mark.parametrize("latency", [2**70, netsim.MAX_DELAY_MS])
    def test_channel_delay_at_the_bound_runs(self, tmp_path, latency):
        config = self.scenario_file(
            tmp_path, base_latency_ms=latency, jitter_max_ms=netsim.MAX_DELAY_MS
        )
        code, out, err = self.run_fast(["simulate", "--config", config])
        assert code == 0, err
        assert not NON_FINITE.search(out), out
        session = json.loads(out)["session_metrics"]
        assert session["rtt_mean_ms"] >= 2.0 * latency
        assert 0 < session["rtt_jitter_ms"] < session["rtt_mean_ms"]

    def walker_file(self, tmp_path, duration_ms, intervals) -> str:
        data = config_to_dict(comparison_scenario())
        data["duration_ms"], data["protocol"]["tick_ms"] = duration_ms, 2**45
        generator = data["trajectory"]["generator"]
        generator["waypoint_interval_min_ms"] = intervals[0]
        generator["waypoint_interval_max_ms"] = intervals[1]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_last_waypoint_past_the_time_bound(self, tmp_path):
        config = self.walker_file(tmp_path, 2**53, [2**50, 2**51])
        code, out, err = self.run_fast(["simulate", "--config", config])
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid config\n"
            "  - trajectory.generator.waypoint_interval_max_ms: must keep the "
            f"last waypoint <= {core.MAX_TIME_MS} (it may reach "
            f"{2**53 - 1 + 2**51} at this duration_ms), got {2**51}\n"
        )

    def test_last_waypoint_at_the_time_bound_runs(self, tmp_path):
        # A waypoint at 2**52, 1 ms short of duration_ms, and one at 2**53.
        config = self.walker_file(tmp_path, 2**52 + 1, [2**52, 2**52])
        code, _, err = self.run_fast(["simulate", "--config", config])
        assert code == 0, err
        gen = config_from_json(config).trajectory.generator
        assert scenario.generate_trajectory(gen, 2**52 + 1, 1).end_ms == core.MAX_TIME_MS
        config = self.walker_file(tmp_path, 2**52 + 1, [2**52, 2**52 + 1])
        code, _, err = self.run_fast(["simulate", "--config", config])
        assert code == 1
        assert f"(it may reach {2**53 + 1} at this duration_ms)" in err

    def generate(self, tmp_path, edit, duration_ms=100_000):
        data = profile_to_dict(preset("mmorpg"))
        edit(data)
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(data))
        out = tmp_path / "trace.csv"
        result = self.run_fast(
            ["generate", "--profile", str(profile), "--clients", "2",
             "--duration-ms", str(duration_ms), "--out", str(out)]
        )
        return (*result, out)

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("header_bytes", lambda d: d.update(header_bytes=2**40)),
            (
                "payload_size_dist.tail_range[1]",
                lambda d: d["payload_size_dist"].update(tail_range=[80, 2**70]),
            ),
            (
                "payload_size_dist.body[0][0]",
                lambda d: d["payload_size_dist"]["body"][0].__setitem__(0, 2**32),
            ),
        ],
    )
    def test_profile_size_past_the_bound(self, tmp_path, name, edit):
        code, out, err, trace = self.generate(tmp_path, edit)
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid config\n")
        assert f"  - {name}: must be in [0, {2**32 - 1}], got" in err
        assert not trace.exists()

    def test_profile_sizes_at_the_bound_generate(self, tmp_path):
        def edit(data):
            data["header_bytes"] = 2**32 - 1
            data["payload_size_dist"]["tail_range"] = [2**32 - 2, 2**32 - 1]
            data["payload_size_dist"]["body"][0][0] = 2**32 - 1

        code, _, err, trace = self.generate(tmp_path, edit)
        assert code == 0, err
        assert workload.read_trace_csv(str(trace)).header_bytes.max() == 2**32 - 1

    def test_duration_past_int64_is_rejected_before_generating(self, tmp_path):
        code, out, err, trace = self.generate(
            tmp_path, lambda d: d.update(tick_period_ms=2**70), duration_ms=10**24
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: duration_ms must be in [tick_period_ms ({2**70}), 2**63), "
            f"got {10**24}\n"
        )
        assert not trace.exists()

    @pytest.fixture
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(generate_trace(preset("mmorpg"), 2, 20_000, seed=1), str(path))
        return str(path)

    @pytest.mark.parametrize(
        "flag, value", [("--bucket-ms", 2**63), ("--duration-ms", 10**320)]
    )
    def test_analyze_window_past_int64(self, trace_path, flag, value):
        code, out, err = self.run_fast(
            ["analyze", "--trace", trace_path, flag, str(value)]
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be in ")

    def test_analyze_bucket_at_the_bound(self, trace_path):
        code, out, err = self.run_fast(
            ["analyze", "--trace", trace_path, "--bucket-ms", str(2**63 - 1)]
        )
        assert code == 0, err
        assert json.loads(out)["period"] is None

    def test_fit_epochs_past_the_cap(self, tmp_path):
        path = tmp_path / "sessions.csv"
        write_sessions_csv(generate_labeled_sessions(50, 3), str(path))
        code, out, err = self.run_fast(
            ["fit", "--data", str(path), "--epochs", "100000000000"]
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: epochs must be in [1, MAX_EPOCHS ({qon.MAX_EPOCHS})], "
            "got 100000000000\n"
        )
        code, out, err = run_cli(
            ["fit", "--data", str(path), "--epochs", str(qon.MAX_EPOCHS)]
        )
        assert code == 0, err

    def test_fit_steps_past_the_cap(self, tmp_path):
        # At MAX_EPOCHS, one session more than the cap allows.
        sessions = qon.MAX_FIT_STEPS // qon.MAX_EPOCHS + 1
        path = tmp_path / "sessions.csv"
        write_sessions_csv(generate_labeled_sessions(sessions, 3), str(path))
        code, out, err = self.run_fast(
            ["fit", "--data", str(path), "--epochs", str(qon.MAX_EPOCHS)]
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: sessions * epochs must be <= MAX_FIT_STEPS ({qon.MAX_FIT_STEPS}), "
            f"got {sessions} * {qon.MAX_EPOCHS} = {sessions * qon.MAX_EPOCHS}\n"
        )


def test_int_upper_bound_is_reported_like_a_real_one():
    assert spec.Int(le=5).problem(6) == "must be <= 5, got 6"
    assert spec.Int(ge=0, le=5).problem(6) == "must be in [0, 5], got 6"
    assert spec.Int(le=5).problem(5) is None


def test_flag_reads_exactly_the_flag_texts():
    assert [spec.flag(text) for text in spec.FLAG_TEXTS] == [False, True]
    for cell in ("True", "TRUE", " true", "1", "", "yes"):
        with pytest.raises(ValueError) as exc_info:
            spec.flag(cell)
        assert str(exc_info.value) == f"must be true or false, got {cell!r}"


# --- fuzzing every input file through the CLI ----------------------------

JUNK_JSON = [
    "x", -3, 1.7, None, [], {}, True, float("nan"), float("inf"), 1e308, -1e308,
    2**64, 2**600, 2**1100,
]
JUNK_CELLS = [
    "x", "-3", "1.7", "", "[]", "{}", "true", "NaN", "inf", "1e308", str(2**64)
]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _json_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, prefix + (key,))


def _set(data, path, value):
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _build_inputs(root: Path) -> dict:
    """Base input of each kind, and the CLI call that reads it from ``path``."""
    cfg = replace(comparison_scenario(), duration_ms=2000)
    sessions = root / "sessions.csv"
    write_sessions_csv(generate_labeled_sessions(20, 3), str(sessions))
    trace = root / "trace.csv"
    write_trace_csv(generate_trace(preset("mmorpg"), 2, 3000, seed=1), str(trace))
    metrics = root / "metrics.csv"
    metrics.write_text(METRICS_CSV)
    return {
        "config": (config_to_dict(cfg), lambda p: ["simulate", "--config", p]),
        "profile": (
            fps_profile(),
            lambda p: ["generate", "--profile", p, "--clients", "1",
                       "--duration-ms", "1000", "--out", str(root / "out.csv")],
        ),
        "weights": (
            weights_to_dict(DEFAULT_WEIGHTS),
            lambda p: ["predict", "--metrics", str(metrics), "--weights", p],
        ),
        "metrics": (metrics.read_text(), lambda p: ["predict", "--metrics", p]),
        "sessions": (
            sessions.read_text(),
            lambda p: ["fit", "--data", p, "--epochs", "20"],
        ),
        "trace": (trace.read_text(), lambda p: ["analyze", "--trace", p]),
        "trajectory": (TRAJECTORY_CSV, lambda p: simulate_trajectory_argv(Path(p))),
    }


JSON_KINDS = ["config", "profile", "weights"]
CSV_KINDS = ["metrics", "sessions", "trace", "trajectory"]
FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, _build_inputs(root)


def _assert_clean_outcome(argv: list[str]) -> None:
    code, out, err = run_cli(argv)  # an exception escaping main fails the test
    assert code in (0, 1, 2)
    if code == 0:
        assert not NON_FINITE.search(out), out
    else:
        assert "error:" in err


@FUZZ
@given(data=st.data())
def test_fuzzed_json_inputs_never_escape_main(inputs, data):
    root, kinds = inputs
    kind = data.draw(st.sampled_from(JSON_KINDS))
    base, argv = kinds[kind]
    path = data.draw(st.sampled_from(list(_json_paths(base))))
    mutated = _set(base, path, data.draw(st.sampled_from(JUNK_JSON)))
    file = root / f"{kind}.json"
    file.write_text(json.dumps(mutated))
    _assert_clean_outcome(argv(str(file)))


@FUZZ
@given(data=st.data())
def test_fuzzed_csv_inputs_never_escape_main(inputs, data):
    root, kinds = inputs
    kind = data.draw(st.sampled_from(CSV_KINDS))
    text, argv = kinds[kind]
    rows = [line.split(",") for line in text.splitlines()]
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.integers(0, len(rows[r]) - 1))
    rows[r][c] = data.draw(st.sampled_from(JUNK_CELLS))
    file = root / f"{kind}_fuzzed.csv"
    file.write_text("".join(",".join(row) + "\n" for row in rows))
    _assert_clean_outcome(argv(str(file)))


# --- parse judges through the constructor ----------------------------------


def _field_at(obj, path):
    """The declared field of ``obj`` holding JSON ``path``: ``(field, rule,
    key)``, or None when ``path`` names a section of dotted keys."""
    for f, rule, key in spec._specs(obj):
        if list(path[: len(key)]) == key:
            return f, rule, key
    return None


def _is_leaf(obj, path) -> bool:
    """Whether ``path`` lies in a field that is not a section."""
    found = _field_at(obj, path)
    if found is None:
        return False
    f, rule, key = found
    if isinstance(rule, spec.Nested):
        return len(path) > len(key) and _is_leaf(getattr(obj, f.name), path[len(key):])
    return True


def _built_with(obj, path, raw):
    """``obj`` rebuilt through its constructors with the JSON value at leaf
    ``path`` replaced by ``raw``: its field gets the rule's ``load`` of the
    field's new JSON value, and each section up the way is rebuilt."""
    f, rule, key = _field_at(obj, path)
    rest = path[len(key):]
    if isinstance(rule, spec.Nested):
        try:
            section = _built_with(getattr(obj, f.name), rest, raw)
        except ConfigError as exc:
            raise ConfigError([f"{'.'.join(key)}.{p}" for p in exc.problems])
        return replace(obj, **{f.name: section})
    value = _set(rule.dump(getattr(obj, f.name)), rest, raw) if rest else raw
    return replace(obj, **{f.name: rule.load(value, "", [])})


@pytest.mark.parametrize(
    "cls, obj",
    [
        (ScenarioConfig, replace(comparison_scenario(), duration_ms=2000)),
        (WorkloadProfile, preset("mmorpg")),
        (PredictorWeights, DEFAULT_WEIGHTS),
    ],
    ids=["config", "profile", "weights"],
)
def test_parse_judges_as_the_constructor_does(cls, obj):
    # For every leaf field and junk value, parsing reports exactly what
    # building the object from the loaded value reports: one judge.
    base = spec.dump(obj)
    paths = [path for path in _json_paths(base) if _is_leaf(obj, path)]
    assert paths
    for path in paths:
        for junk in JUNK_JSON:
            try:
                parsed = spec.parse(cls, _set(base, path, junk))
            except ConfigError as exc:
                parsed = exc.problems
            try:
                built = _built_with(obj, path, junk)
            except ConfigError as exc:
                built = exc.problems
            assert parsed == built, (path, junk)


# --- the trace reader's numpy blocks agree with its row reader --------------

TRACE_HEADER = "t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack"
# The rows that write_csv formats and a Trace converts at a time.
BLOCK = workload._ITER_ROWS
# The characters that the block reader reads at a time.
CHUNK = min(spec._CHUNK_CHARS, csv.field_size_limit())
# Cells that only Python's int reads, that numpy reads but int does not
# ("\x1c7" and "\u01fe", which numpy can take for 462), or that are
# padded, quoted, out of range or hold other control or number syntax.
NUMBER_CELLS = [
    *JUNK_CELLS, "1_000", "١٢", "\u01fe", str(2**63), str(2**63 - 1), str(2**32),
    " 12", "+5", "-0", "\x0c7 ", "\x1c7", "7\x1f", '"9"', '"\n9"', "0" * 20 + "3",
    "5\x00", "\x0b5", "0x5", "5#",
]
# One cell past csv's field limit, which numpy's parser does not have.
LONG_CELLS = ["0" * 2**17 + "7", '"' + "a," * 2**16 + 'a"']
STRING_CELLS = {
    # "\udcff" is written as the byte 0xff, which no reader decodes.
    1: [*JUNK_CELLS, '"a,b"', '"a""b"', '"a\nb"', '"a\r\nb"', 'a"b', '"a"b', " c0", "",
        "\udcff"],
    # Near misses of the fixed-width direction and flag fields: one character
    # more than a valid text, a trailing NUL (which such a field drops) or
    # nothing at all.
    2: [*JUNK_CELLS, " c2s", "c2s ", '"s2c"', "C2S", "c2s\x00", "c2sx", "s2c ", ""],
    5: [*JUNK_CELLS, " false", "false ", '"true"', "True", "truee", "TRUE", "",
        "true\x00"],
}
# Line ends that csv and numpy take for one, and characters that
# str.splitlines would take for one but the file's line reader does not.
LINE_ENDS = [
    "\r\n", "\r", "\n\n", "\n\r\n", "\n \n", "\n\t\n", ",\n",
    "\x0b", "\x0c", "\x1c", "\x85",
]


def trace_text(rows: int, edits) -> str:
    """A sorted trace CSV of ``rows`` data rows with ``edits`` made.

    An edit ``(row, col, cell)`` puts ``cell`` in column ``col`` of data row
    ``row`` (counted from 1); ``(row, None, end)`` ends that row's line
    with ``end`` instead of ``\\n``.
    """
    cells = [
        [str(k // 3), f"c{k % 3}", ("c2s", "s2c")[k % 2], str(k % 50), "40",
         ("false", "true")[k % 4 == 0]]
        for k in range(rows)
    ]
    return edited_text(TRACE_HEADER, cells, edits)


def edited_text(header: str, cells, edits) -> str:
    """A CSV text of ``header`` and the rows of ``cells``, with ``edits``
    made as :func:`trace_text` makes them."""
    ends = ["\n"] * len(cells)
    for row, col, text in edits:
        if col is None:
            ends[row - 1] = text
        else:
            cells[row - 1][col] = text
    return header + "\n" + "".join(
        ",".join(row) + end for row, end in zip(cells, ends)
    )


def edge_row(text: str) -> int:
    """The data row whose line holds the first chunk's last character."""
    return text.split("\n", 1)[1].count("\n", 0, CHUNK - 1) + 1


def edge_name(shift: int = 0) -> str:
    """A ``conn_id`` that makes data row 1's line, ``\\n`` included, end
    ``shift`` characters past the first chunk's edge."""
    line = len(trace_text(1, [])) - len(TRACE_HEADER) - 1
    return "c" * (CHUNK - line + 2 + shift)


TRACE_EDGE = edge_row(trace_text(2 * BLOCK, []))


@st.composite
def trace_files(draw):
    rows = draw(st.one_of(
        st.integers(0, 12),
        st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, TRACE_EDGE, TRACE_EDGE + 1]),
    ))
    edits = []
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.one_of(
            st.integers(1, rows),
            st.sampled_from([1, rows, min(rows, BLOCK), min(rows, TRACE_EDGE)]),
        ))
        col = draw(st.sampled_from([0, 1, 2, 3, 4, 5, None]))
        if col is None:
            text = draw(st.sampled_from(LINE_ENDS))
        else:
            text = draw(st.sampled_from(STRING_CELLS.get(col, NUMBER_CELLS)))
        edits.append((row, col, text))
    return rows, edits


def read_outcome(read, path):
    """The columns and names a reader gives, or its error text."""
    try:
        trace = read(str(path))
    except spec.InputFileError as exc:
        return str(exc)
    columns = ("t_ms", "conn", "direction", "payload_bytes", "header_bytes", "is_ack")
    return [
        (getattr(trace, c).dtype, getattr(trace, c).tolist()) for c in columns
    ], trace.conn_ids


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(case=(BLOCK + 1, [(BLOCK, 3, "x")]))
@example(case=(BLOCK + 1, [(BLOCK + 1, 4, "1_000")]))
@example(case=(9000, [(9000, 0, str(2**63))]))
@example(case=(2 * BLOCK, [(BLOCK + 1, 0, "0")]))  # goes back across a block edge
@example(case=(3, [(2, 2, " c2s"), (3, 5, " false")]))
@example(case=(BLOCK + 1, [(BLOCK + 1, 2, "c2sx")]))
@example(case=(BLOCK + 1, [(BLOCK + 1, 5, "truee")]))
@example(case=(3, [(2, 2, "c2s\x00"), (3, 5, "")]))
@example(case=(3, [(1, 1, '"a,b"'), (2, 1, '"a""b"'), (3, 1, '"a\nb"')]))
@example(case=(3, [(1, 0, "١٢"), (2, None, "\r\n"), (3, None, "\n \n")]))
@example(case=(3, [(2, 3, "\u01fe")]))
# More digits than int reads, which numpy reads.
@example(case=(3, [(2, 3, "0" * 5000 + "7"), (3, 0, "0" * 4300 + "1")]))
@example(case=(3, [(3, 1, "\udcff")]))
@example(case=(3, [(2, 4, "\x1c7")]))
@example(case=(2, [(1, 3, LONG_CELLS[0])]))
@example(case=(2, [(2, 1, LONG_CELLS[1])]))
@example(case=(BLOCK + 1, [(BLOCK + 1, 3, "5\x00")]))
@example(case=(3, [(1, None, "\x0c")]))
# The first chunk ends right after a line; within a "\r\n", after another
# line end or after none; right after a lone "\r"; among blank lines; and
# inside a line longer than a chunk whose cells stay within csv's limit.
# A file ends on a chunk's edge, or without a line end.
@example(case=(3, [(1, 1, edge_name())]))
@example(case=(3, [(1, 1, edge_name(-1)), (1, None, "\n\r\n")]))
@example(case=(3, [(1, 1, edge_name()), (1, None, "\r\n")]))
@example(case=(3, [(1, 1, edge_name()), (1, None, "\r")]))
@example(case=(3, [(1, 1, edge_name(-1)), (1, None, "\n\n\n")]))
@example(case=(3, [(1, 1, edge_name(-1)), (1, None, "\r\n\r\n\r\n")]))
@example(case=(3, [(1, 1, edge_name(5))]))
@example(case=(1, [(1, 1, edge_name())]))
@example(case=(1, [(1, 1, edge_name(1)), (1, None, "")]))
@example(case=(TRACE_EDGE + 1, [(TRACE_EDGE + 1, None, "")]))
@example(case=(3, [(2, None, "\r"), (3, None, "")]))
# splitlines would end a line at "\v" and "\f", where the file's lines go on.
@example(case=(3, [(2, 3, "5\x0b"), (3, 1, "c\x0c1")]))
@example(case=(3, [(1, 4, "\x0b40"), (2, None, "\x0b\n")]))
@given(case=trace_files())
def test_block_reader_reads_a_trace_as_the_row_reader(tmp_path_factory, case):
    # The fast reader must give the row reader's trace or its error text.
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    path.write_bytes(trace_text(*case).encode("utf-8", "surrogateescape"))
    expected = read_outcome(lambda p: by_rows(workload.read_trace_csv, p), path)
    assert read_outcome(workload.read_trace_csv, path) == expected


def test_block_reader_reads_a_plain_trace_without_the_row_reader(
    tmp_path, monkeypatch
):
    # CRLF line ends, and the traces that generate writes, stay on numpy's
    # path across more than two blocks, which reads each file once.
    paths = [tmp_path / "crlf.csv"]
    paths[0].write_text(
        trace_text(2 * BLOCK + 1, []).replace("\n", "\r\n"), newline=""
    )
    for name in ("mmorpg", "fps"):
        paths.append(tmp_path / f"{name}.csv")
        write_trace_csv(generate_trace(preset(name), 4, 90_000, seed=1), str(paths[-1]))
    expected = [read_outcome(lambda p: by_rows(workload.read_trace_csv, p), path) for path in paths]
    assert all(len(columns[0][1]) > 2 * BLOCK for columns, _ in expected)

    def no_rows(*args):
        raise AssertionError("the row reader ran")

    opened = []

    def logged_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(spec, "_read_blocks", no_rows)
    monkeypatch.setattr(spec, "open", logged_open, raising=False)
    assert [read_outcome(workload.read_trace_csv, path) for path in paths] == expected
    assert opened == [str(path) for path in paths]


def test_block_reader_reads_many_chunks_without_the_row_reader(tmp_path, monkeypatch):
    # A generated trace, with LF and with CRLF line ends, is read a chunk at
    # a time in blocks of whole lines, and never by the row reader.
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_trace_csv(generate_trace(preset("mmorpg"), 4, 200_000, seed=4), str(lf))
    text = lf.read_text()
    crlf.write_text(text.replace("\n", "\r\n"), newline="")
    assert len(text) > 5 * CHUNK
    expected = read_outcome(lambda p: by_rows(workload.read_trace_csv, p), lf)
    assert read_outcome(lambda p: by_rows(workload.read_trace_csv, p), crlf) == expected
    read_columns, blocks = spec.read_columns, []

    def counted(path, layouts, convert, finish):
        def convert_counted(block):
            blocks.append(len(block))
            return convert(block)

        return read_columns(path, layouts, convert_counted, finish)

    def no_rows(*args):
        raise AssertionError("the row reader ran")

    monkeypatch.setattr(spec, "read_columns", counted)
    monkeypatch.setattr(spec, "_read_blocks", no_rows)
    for path in (lf, crlf):
        blocks.clear()
        assert read_outcome(workload.read_trace_csv, path) == expected
        chars = len(path.read_bytes().split(b"\n", 1)[1])  # ASCII text
        # Every block holds whole lines of one chunk, so there are at least
        # chars / CHUNK of them.
        assert len(blocks) >= chars / CHUNK and min(blocks) > 0
        assert sum(blocks) == len(expected[0][0][1])


def test_block_reader_leaves_quoted_names_to_the_row_reader(tmp_path, monkeypatch):
    edits = [(1, 1, '"a,b"'), (2, None, "\r\n"), (BLOCK + 1, 1, '"x""y"')]
    path = tmp_path / "trace.csv"
    path.write_text(trace_text(2 * BLOCK + 1, edits), newline="")
    expected = read_outcome(lambda p: by_rows(workload.read_trace_csv, p), path)
    assert expected[1] == ("a,b", "c1", "c2", "c0", 'x"y')
    read_rows, calls = spec._read_blocks, []

    def spy(path, *args):
        calls.append(path)
        return read_rows(path, *args)

    monkeypatch.setattr(spec, "_read_blocks", spy)
    assert read_outcome(workload.read_trace_csv, path) == expected
    assert calls == [str(path)]


# --- the sessions reader's numpy blocks agree with its row reader -----------

SESSIONS_HEADER = "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,quit_premature"
# Cells that float() reads and numpy's parser may not ("1_0", " 1.5"), that
# are out of range or overflow to infinity, or that are quoted or not
# numbers at all.
FLOAT_CELLS = [
    *JUNK_CELLS, "5e-324", "1e400", "-1e400", "1E5", "1e+05", ".5", "5.", "+1.5",
    " 1.5", "1.5 ", "1_0", "nan", "-nan", "inf", "-inf", "Infinity", "-1", "-0.0",
    "True", '"1.5"', '"0.5', "0x1p-2", "1.5\x0c", "\x0b0.25", "0" * 30 + "1",
]
FLAG_CELLS = [
    *JUNK_CELLS, "false", " true", "true ", '"true"', "True", "TRUE", "truee",
    "falsee", "fals", "1", "",
]


def sessions_text(rows: int, edits, header: str = SESSIONS_HEADER) -> str:
    """A sessions CSV of ``rows`` data rows with ``edits`` made, as
    :func:`trace_text` makes them; with another ``header``, a metrics CSV
    of its columns."""
    cells = [
        [repr(k * 0.37 % 400), repr(k % 7 / 3), repr(k % 10 / 10), repr(float(k % 6)),
         ("false", "true")[k % 3 == 0]][: header.count(",") + 1]
        for k in range(rows)
    ]
    return edited_text(header, cells, edits)


# The headers of a metrics CSV: the metrics alone, or with a flag column.
METRICS_HEADERS = [
    SESSIONS_HEADER.removesuffix(",quit_premature"),
    SESSIONS_HEADER.replace("quit_premature", "connectivity_recoverable"),
]
SESSIONS_EDGE = edge_row(sessions_text(BLOCK, []))
METRICS_EDGE = edge_row(sessions_text(BLOCK, [], METRICS_HEADERS[0]))


@st.composite
def session_files(draw, width=5):
    rows = draw(st.one_of(
        st.integers(0, 12),
        st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, SESSIONS_EDGE, METRICS_EDGE]),
    ))
    edits = []
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        row = draw(st.one_of(
            st.integers(1, rows),
            st.sampled_from([1, rows, min(rows, BLOCK), min(rows, SESSIONS_EDGE)]),
        ))
        col = draw(st.sampled_from([*range(width), None]))
        if col is None:
            text = draw(st.sampled_from(LINE_ENDS))
        elif col == 4:
            text = draw(st.sampled_from(FLAG_CELLS))
        else:
            text = draw(st.one_of(
                st.floats().map(repr),
                st.floats(0.0, 1.0).map(repr),
                st.sampled_from(FLOAT_CELLS),
            ))
        edits.append((row, col, text))
    return rows, edits


def by_rows(read, path):
    """``read(path)`` with numpy's parser declining every file, so that the
    row reader reads it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spec, "_parse_blocks", decline)
        return read(path)


def decline(*args):
    raise ValueError("declined")


def sessions_outcome(read, path):
    """Each session's metrics as the hex of their bits, with their types, and
    its flag; or the reader's error text."""
    try:
        sessions = read(str(path))
    except spec.InputFileError as exc:
        return str(exc)
    return [
        (type(m), [(type(v), float.hex(v)) for v in m], type(quit), quit)
        for m, quit in sessions
    ]


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(case=(3, [(1, 0, "5e-324"), (2, 1, "1e308"), (3, 3, "-0.0")]))
@example(case=(3, [(1, 0, "1E5"), (2, 1, "1e+05"), (3, 2, ".5"), (3, 3, "5.")]))
@example(case=(3, [(1, 2, "+1.5"), (2, 0, " 1.5"), (3, 1, "1_0")]))
@example(case=(3, [(2, 2, "1.5")]))
@example(case=(3, [(1, 0, "-1")]))
@example(case=(3, [(2, 1, "1e400")]))
@example(case=(3, [(3, 3, "inf")]))
@example(case=(3, [(2, 0, "nan")]))
@example(case=(3, [(3, 4, "TRUE")]))
@example(case=(3, [(1, 4, "True"), (2, 2, "True")]))
@example(case=(3, [(1, 0, '"1.5"'), (2, 4, '"true"')]))
@example(case=(3, [(1, None, "\r\n"), (2, None, "\n\n"), (3, None, "\r\n")]))
@example(case=(3, [(2, None, "\n \n")]))
@example(case=(BLOCK + 1, [(BLOCK + 1, 2, "2.0")]))
@example(case=(BLOCK + 1, [(BLOCK + 1, 4, "truee")]))
@example(case=(BLOCK + 1, [(BLOCK, 1, "-5"), (BLOCK + 1, None, "\r\n")]))
@example(  # a lone "\r" and an empty cell at the first chunk's edge
    case=(SESSIONS_EDGE, [(SESSIONS_EDGE - 1, None, "\r"), (SESSIONS_EDGE, 3, "")])
)
@given(case=session_files())
def test_block_reader_reads_sessions_as_the_row_reader(tmp_path_factory, case):
    # The fast reader must give the row reader's sessions, bit for bit, or
    # its error text.
    path = tmp_path_factory.getbasetemp() / "sessions.csv"
    path.write_text(sessions_text(*case), newline="")
    expected = sessions_outcome(lambda p: by_rows(qon.read_sessions_csv, p), path)
    assert sessions_outcome(qon.read_sessions_csv, path) == expected


def test_block_reader_reads_plain_sessions_without_the_row_reader(
    tmp_path, monkeypatch
):
    # CRLF line ends, blank lines, and the sessions that the writer writes,
    # stay on numpy's path across more than two blocks.
    paths = [tmp_path / "crlf.csv", tmp_path / "written.csv"]
    paths[0].write_text(
        sessions_text(2 * BLOCK + 1, [(BLOCK, None, "\n\n")]).replace("\n", "\r\n"),
        newline="",
    )
    write_sessions_csv(generate_labeled_sessions(2 * BLOCK + 1, 5), str(paths[1]))
    expected = [sessions_outcome(lambda p: by_rows(qon.read_sessions_csv, p), path)
                for path in paths]
    assert all(len(sessions) == 2 * BLOCK + 1 for sessions in expected)

    def no_rows(*args):
        raise AssertionError("the row reader ran")

    monkeypatch.setattr(spec, "_read_blocks", no_rows)
    assert [sessions_outcome(qon.read_sessions_csv, path) for path in paths] == expected


# --- the metrics and trajectory readers' numpy blocks agree with their rows --


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(case=(3, [(1, 0, "5e-324"), (2, 1, "1e308"), (3, 3, "-0.0")]))
@example(case=(3, [(1, 2, "+1.5"), (2, 0, " 1.5"), (3, 1, "1_0")]))
@example(case=(3, [(2, 1, "1e400"), (3, 3, "inf"), (1, 0, '"1.5"')]))
@example(case=(3, [(2, 0, "nan"), (1, None, "\r\n"), (2, None, "\n \n")]))
@example(case=(BLOCK + 1, [(BLOCK + 1, 2, "2.0")]))
@example(case=(BLOCK + 1, [(BLOCK, 1, "-5"), (BLOCK + 1, None, "\r\n")]))
@example(  # a lone "\r" and an empty cell at the first chunk's edge
    case=(SESSIONS_EDGE, [(SESSIONS_EDGE - 1, None, "\r"), (SESSIONS_EDGE, 3, "")])
)
@example(
    case=(METRICS_EDGE, [(METRICS_EDGE - 1, None, "\r"), (METRICS_EDGE, 3, "")])
)
@given(case=session_files(width=4))
@pytest.mark.parametrize("header", METRICS_HEADERS)
def test_block_reader_reads_metrics_as_the_row_reader(tmp_path_factory, header, case):
    # predict's reader gives the row reader's metrics and flags, bit for bit,
    # or its error text, under either header; a flag column's cells are as
    # the sessions file writes them.
    path = tmp_path_factory.getbasetemp() / "metrics.csv"
    path.write_text(sessions_text(*case, header), newline="")
    expected = sessions_outcome(lambda p: by_rows(qon.read_metrics_csv, p), path)
    assert sessions_outcome(qon.read_metrics_csv, path) == expected


def test_block_reader_reads_plain_metrics_without_the_row_reader(
    tmp_path, monkeypatch
):
    # Written metrics, with and without a flag column and with LF and CRLF
    # line ends, stay on numpy's path across many chunks.
    sessions = generate_labeled_sessions(2 * BLOCK + 1, 5)
    metrics, flags = spec.transpose(sessions, 2)
    columns = spec.transpose(metrics, 4)
    paths = []
    for header, extra in zip(METRICS_HEADERS, ([], [spec.flags(flags)])):
        paths.append(tmp_path / f"{len(paths)}.csv")
        spec.write_csv(str(paths[-1]), header.split(","), [*columns, *extra])
        paths.append(tmp_path / f"{len(paths)}.csv")
        paths[-1].write_text(paths[-2].read_text().replace("\n", "\r\n"), newline="")
    assert len(paths[0].read_text()) > 5 * CHUNK
    expected = [sessions_outcome(lambda p: by_rows(qon.read_metrics_csv, p), path)
                for path in paths]
    assert [len(rows) for rows in expected] == [2 * BLOCK + 1] * 4

    def no_rows(*args):
        raise AssertionError("the row reader ran")

    monkeypatch.setattr(spec, "_read_blocks", no_rows)
    assert [sessions_outcome(qon.read_metrics_csv, path) for path in paths] == expected


WAYPOINTS_HEADER = "t_ms,x,y,z"


def waypoints_text(rows: int, edits) -> str:
    """A trajectory CSV of ``rows`` waypoints with ``edits`` made, as
    :func:`trace_text` makes them."""
    cells = [
        [str(k * 100), repr(k * 0.37 % 400), repr(-k / 3), repr(float(k % 6))]
        for k in range(rows)
    ]
    return edited_text(WAYPOINTS_HEADER, cells, edits)


def edge_time(shift: int = 0) -> str:
    """A ``t_ms`` cell, 0 padded with zeros, that makes data row 1's line,
    ``\\n`` included, end ``shift`` characters past the first chunk's edge."""
    line = len(waypoints_text(1, [])) - len(WAYPOINTS_HEADER) - 1
    return "0" * (CHUNK - line + 1 + shift)


WAYPOINTS_EDGE = edge_row(waypoints_text(BLOCK, []))


@st.composite
def waypoint_files(draw):
    rows = draw(st.one_of(
        st.integers(0, 12),
        st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, WAYPOINTS_EDGE]),
    ))
    edits = []
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.one_of(
            st.integers(1, rows),
            st.sampled_from([1, rows, min(rows, BLOCK), min(rows, WAYPOINTS_EDGE)]),
        ))
        col = draw(st.sampled_from([0, 1, 2, 3, None]))
        if col is None:
            text = draw(st.sampled_from(LINE_ENDS))
        elif col == 0:
            text = draw(st.sampled_from(NUMBER_CELLS))
        else:
            text = draw(st.one_of(st.floats().map(repr), st.sampled_from(FLOAT_CELLS)))
        edits.append((row, col, text))
    return rows, edits


def waypoints_outcome(read, path):
    """A script's times and the hex of its coordinates' bits, with their
    types; or the reader's error text."""
    try:
        script = read(str(path))
    except spec.InputFileError as exc:
        return str(exc)
    points = [float.hex(v) for v in script._p.ravel().tolist()]
    return script._t.dtype, script._t.tolist(), script._p.dtype, script._p.shape, points


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(case=(BLOCK + 1, [(BLOCK + 1, 0, "0")]))  # goes back across a block edge
@example(case=(BLOCK + 1, [(BLOCK + 1, 3, "nan")]))
@example(case=(3, [(3, 0, str(2**53 + 1))]))
@example(case=(3, [(3, 0, str(2**63))]))
@example(case=(3, [(1, 0, "-0"), (2, 0, "+100"), (3, 0, "1_000")]))
@example(case=(3, [(1, 1, "-0.0"), (2, 2, "5e-324"), (3, 3, "1_0")]))
@example(case=(3, [(2, 1, "1e400"), (3, 2, '"1.5"'), (1, 0, "١٢")]))
@example(case=(3, [(1, 0, "\x1c0"), (2, 3, "1.5\x0c")]))
@example(case=(1, []))
# The first chunk ends right after a line; within a "\r\n", after another
# line end or after none; right after a lone "\r"; and inside a line
# longer than a chunk.  A file ends on a chunk's edge, or without a line end.
@example(case=(3, [(1, 0, edge_time())]))
@example(case=(3, [(1, 0, edge_time(-1)), (1, None, "\n\r\n")]))
@example(case=(3, [(1, 0, edge_time()), (1, None, "\r\n")]))
@example(case=(3, [(1, 0, edge_time()), (1, None, "\r")]))
@example(case=(3, [(1, 0, edge_time(5))]))
@example(case=(2, [(1, 0, edge_time(1)), (2, None, "")]))
@example(case=(WAYPOINTS_EDGE + 1, [(WAYPOINTS_EDGE + 1, None, "")]))
@example(  # a lone "\r" and an empty cell at the first chunk's edge
    case=(WAYPOINTS_EDGE, [(WAYPOINTS_EDGE - 1, None, "\r"), (WAYPOINTS_EDGE, 3, "")])
)
@given(case=waypoint_files())
def test_block_reader_reads_waypoints_as_the_row_reader(tmp_path_factory, case):
    # from_csv gives the row reader's script, bit for bit, or its error text.
    path = tmp_path_factory.getbasetemp() / "waypoints.csv"
    path.write_text(waypoints_text(*case), newline="")
    read = core.TrajectoryScript.from_csv
    expected = waypoints_outcome(lambda p: by_rows(read, p), path)
    assert waypoints_outcome(read, path) == expected


def test_block_reader_reads_plain_waypoints_without_the_row_reader(
    tmp_path, monkeypatch
):
    # A generated walk, written with LF and with CRLF line ends, stays on
    # numpy's path across many chunks.
    gen = scenario.TrajectoryGenConfig()
    script = scenario.generate_trajectory(gen, 3_000 * (2 * BLOCK + 1), seed=3)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    spec.write_csv(str(lf), WAYPOINTS_HEADER.split(","), [script._t, *script._p.T])
    crlf.write_text(lf.read_text().replace("\n", "\r\n"), newline="")
    assert len(lf.read_text()) > 5 * CHUNK
    read = core.TrajectoryScript.from_csv
    expected = waypoints_outcome(lambda p: by_rows(read, p), lf)
    assert expected[1] == script._t.tolist()

    def no_rows(*args):
        raise AssertionError("the row reader ran")

    monkeypatch.setattr(spec, "_read_blocks", no_rows)
    assert waypoints_outcome(read, lf) == waypoints_outcome(read, crlf) == expected


# --- where numpy's parser gives way, the row reader's texts and memory ------


@pytest.mark.parametrize("quote", ["", '"'])
@pytest.mark.parametrize(
    "times, problem",
    [
        ((0, 100, 2**63), f"must be <= {core.MAX_TIME_MS}, got {2**63}"),
        ((0, 2**64, 5), f"must be strictly increasing, got {2**64} then 5"),
        ((-(2**63) - 1, 0, 5), f"must be >= 0, got {-(2**63) - 1}"),
    ],
)
def test_a_waypoint_time_past_int64_is_judged_by_value(tmp_path, quote, times, problem):
    # A time that no int64 holds is reported by its value, as any time out
    # of range is, and not as an overflow; a quoted cell changes nothing.
    path = tmp_path / "trajectory.csv"
    rows = "".join(f"{t},{quote}1.5{quote},0,0\n" for t in times)
    path.write_text(WAYPOINTS_HEADER + "\n" + rows)
    with pytest.raises(spec.InputFileError) as exc_info:
        core.TrajectoryScript.from_csv(str(path))
    assert exc_info.value.problems == [f"{path}: waypoint times {problem}"]


@pytest.mark.parametrize(
    "edits, problem",
    [
        ([(1, 1, '"c0"'), (5, 0, "0")], "row 6: t_ms 0 precedes the previous row's 1"),
        (
            [(1, 1, '"c0"'), (BLOCK + 1, 0, "7")],
            f"row {BLOCK + 2}: t_ms 7 precedes the previous row's {(BLOCK - 1) // 3}",
        ),
    ],
)
def test_an_unsorted_quoted_trace_names_the_row(tmp_path, edits, problem):
    path = tmp_path / "trace.csv"
    path.write_text(trace_text(2 * BLOCK, edits))
    with pytest.raises(spec.InputFileError) as exc_info:
        workload.read_trace_csv(str(path))
    assert exc_info.value.problems == [
        f"{path} {problem}; a trace must be sorted by time"
    ]


def test_a_trace_declined_after_some_blocks_names_connections_from_its_start(
    tmp_path,
):
    # numpy's parser reads the first chunks, then meets a quote; the row
    # reader reads the file again, and numbers the connections in order of
    # their first row, as csv reads them.
    rows = 3 * BLOCK
    edits = [(k + 1, 1, f"n{(7 * k) % 11}") for k in range(rows)]
    edits += [(2 * BLOCK + 5, 1, '"q,1"'), (2 * BLOCK + 9, 1, "n99")]
    path = tmp_path / "trace.csv"
    path.write_text(trace_text(rows, edits))
    assert path.read_text().index('"') > 2 * CHUNK
    with open(path, newline="") as fh:
        names = [row[1] for row in csv.reader(fh)][1:]
    firsts = list(dict.fromkeys(names))
    trace = workload.read_trace_csv(str(path))
    assert trace.conn_ids == tuple(firsts)
    assert trace.conn.tolist() == [firsts.index(name) for name in names]
    assert firsts[:3] == ["n0", "n7", "n3"] and "q,1" in firsts


def traced_peak(read, path) -> int:
    """The most bytes that ``read(path)`` held at once, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        read(str(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["trace", "waypoints"])
def test_a_quoted_file_is_read_in_the_memory_of_a_plain_one(tmp_path, kind):
    # The row reader that a quoted cell sends a file to holds columns, as
    # numpy's parser does, and not a tuple per row.  Each trace row holds a
    # payload that is not one of Python's cached small ints.
    rows = 50_000
    if kind == "trace":
        read, outcome, header = workload.read_trace_csv, read_outcome, TRACE_HEADER
        cells = [
            [str(k // 3), f"c{k % 3}", ("c2s", "s2c")[k % 2], str(300 + k % 50),
             "40", ("false", "true")[k % 4 == 0]]
            for k in range(rows)
        ]
    else:
        read, outcome = core.TrajectoryScript.from_csv, waypoints_outcome
        header = WAYPOINTS_HEADER
        cells = [[str(k * 10), str(k % 7), str(-(k % 5)), "1.5"] for k in range(rows)]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text(edited_text(header, copy.deepcopy(cells), []))
    for row in cells:
        row[1] = f'"{row[1]}"'
    quoted.write_text(edited_text(header, cells, []))
    assert outcome(read, quoted) == outcome(read, plain)
    assert traced_peak(read, quoted) <= 1.5 * traced_peak(read, plain)
