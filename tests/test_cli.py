"""End-to-end checks of the console entry point, run in process."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from drsync import scenario, workload
from drsync.cli import main
from drsync.netsim import DejitterConfig
from drsync.protocol import ProtocolConfig
from drsync.qon import generate_labeled_sessions, write_sessions_csv
from drsync.scenario import (
    ChannelSpec,
    ScenarioConfig,
    TrajectoryGenConfig,
    TrajectorySource,
    comparison_scenario,
    config_to_dict,
)
from drsync.workload import read_trace_csv

ROOT = Path(__file__).resolve().parent.parent
FAST_MANEUVER = ROOT / "configs" / "fast_maneuver.json"


@pytest.fixture
def config_path(tmp_path):
    cfg = ScenarioConfig(
        seed=5,
        duration_ms=5000,
        trajectory=TrajectorySource(generator=TrajectoryGenConfig(box_size=100.0)),
        protocol=ProtocolConfig(threshold=1.0, tick_ms=100),
        channel=ChannelSpec(base_latency_ms=20, jitter_max_ms=10, loss_rate=0.1),
        dejitter=DejitterConfig(playout_delay_ms=10),
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


def run_logged(level, argv):
    """Run ``drsync`` in a child process at log level ``level``; its stdout
    and stderr."""
    env = {**os.environ, "DRSYNC_LOG": level, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "drsync", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def worst_case(*args):
    """``tools/worst_case.py ARGS`` in a child process with a 15 s timeout;
    its result, whose command must have exited 0."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "worst_case.py"), *args],
        capture_output=True, text=True, timeout=15, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit"] == 0
    return result


class TestParsing:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "drsync" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, config_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--config", config_path, "--frobnicate"])
        assert exc_info.value.code == 1

    def test_bogus_log_level_warns_and_continues(self, capsys, monkeypatch):
        monkeypatch.setenv("DRSYNC_LOG", "shouty")
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "DRSYNC_LOG" in capsys.readouterr().err


# Seeds are integers in [0, 2**64); a seed past either end is refused.
GOOD_SEEDS, BAD_SEEDS = [0, 2**64 - 1], [-1, 2**64]


def out_of_range(seed):
    return f"must be in [0, {2**64 - 1}], got {seed}"


class TestSeedRange:
    """Every config and command takes a seed in [0, 2**64); one outside ends
    with exit 1 and an error that names its field or flag."""

    def config_with(self, config_path, tmp_path, key, seed):
        data = json.loads(Path(config_path).read_text())
        (data["channel"] if key == "channel.seed" else data)["seed"] = seed
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("key", ["seed", "channel.seed"])
    @pytest.mark.parametrize("seed", GOOD_SEEDS + BAD_SEEDS)
    def test_config_seed(self, capsys, config_path, tmp_path, key, seed):
        path = self.config_with(config_path, tmp_path, key, seed)
        code = main(["simulate", "--config", path])
        captured = capsys.readouterr()
        if seed in GOOD_SEEDS:
            assert code == 0
            summary = json.loads(captured.out)
            assert summary["seed"] == (seed if key == "seed" else 5)
        else:
            assert (code, captured.out) == (1, "")
            assert captured.err == (
                f"error: invalid config\n  - {key}: {out_of_range(seed)}\n"
            )

    @pytest.mark.parametrize("seed", GOOD_SEEDS + BAD_SEEDS)
    def test_simulate_seed_flag(self, capsys, config_path, seed):
        code = main(["simulate", "--config", config_path, "--seed", str(seed)])
        captured = capsys.readouterr()
        if seed in GOOD_SEEDS:
            assert code == 0
            assert json.loads(captured.out)["seed"] == seed
        else:
            assert (code, captured.out) == (1, "")
            assert captured.err == f"error: --seed: {out_of_range(seed)}\n"

    @pytest.mark.parametrize("seed", GOOD_SEEDS + BAD_SEEDS)
    def test_compare_seeds(self, capsys, config_path, tmp_path, seed):
        out = tmp_path / "runs"
        code = main(
            ["compare", "--config", config_path, "--seeds", f"1,{seed}",
             "--out", str(out)]
        )
        captured = capsys.readouterr()
        if seed in GOOD_SEEDS:
            assert code == 0
            assert json.loads(captured.out)["seeds"] == [1, seed]
            assert (out / f"seed_{seed}" / "reliable_ordered" / "summary.json").exists()
        else:
            assert (code, captured.out) == (1, "")
            assert captured.err == f"error: seeds[1]: {out_of_range(seed)}\n"
            assert not out.exists()

    @pytest.mark.parametrize("seed", GOOD_SEEDS + BAD_SEEDS)
    def test_generate_seed_flag(self, capsys, tmp_path, seed):
        out = tmp_path / "trace.csv"
        code = main(
            ["generate", "--preset", "fps", "--clients", "2", "--duration-ms",
             "1000", "--seed", str(seed), "--out", str(out)]
        )
        captured = capsys.readouterr()
        if seed in GOOD_SEEDS:
            assert code == 0
            assert len(read_trace_csv(str(out))) > 0
        else:
            assert code == 1
            assert captured.err == f"error: seed: {out_of_range(seed)}\n"
            assert not out.exists()


class TestSimulate:
    def test_happy_path_writes_outputs(self, capsys, config_path, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--config", config_path, "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["transport"] == "unreliable_dr"
        assert summary["seed"] == 5
        for name in ("summary.json", "export_error.csv", "deliveries.csv",
                     "resolved_config.json"):
            assert (out / name).exists()
        assert json.loads((out / "summary.json").read_text()) == summary

    def test_seed_flag_overrides_config(self, capsys, config_path):
        assert main(["simulate", "--config", config_path, "--seed", "99"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_lists_every_problem(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "seed": -1,
                    "duration_ms": 10,
                    "trajectory": {"generator": {}},
                    "protocol": {"threshold": 1.0, "tick_ms": 100},
                    "channel": {
                        "base_latency_ms": 0,
                        "jitter_max_ms": 0,
                        "loss_rate": 5.0,
                    },
                }
            )
        )
        code = main(["simulate", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid config" in err
        assert err.count("  - ") == 3

    def test_reliable_near_total_loss_finishes(self, capsys, tmp_path):
        # Without a retransmission cap this run would take hours.
        data = json.loads(FAST_MANEUVER.read_text())
        data["transport"]["mode"] = "reliable_ordered"
        data["channel"]["loss_rate"] = 0.999999
        path = tmp_path / "lossy.json"
        path.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["transmissions"] == 16 * summary["sends"]

    @pytest.mark.parametrize("level", ["off", "info", "debug"])
    def test_dead_link_warns_on_stderr(self, tmp_path, level):
        # Nothing arrives, so the summary's RTT is twice the base latency, not
        # a measurement.  The summary keeps it; a warning on stderr says so.
        data = json.loads(FAST_MANEUVER.read_text())
        data["channel"]["loss_rate"] = 1.0
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(data))
        env = {**os.environ, "DRSYNC_LOG": level, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "drsync", "simulate", "--config", str(path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0
        # The stdout pinned before the warning was added.
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "bee6ad3204f5a3059a81be1504406576c74a9ea43302812685688612036cb4f7"
        )
        assert proc.stderr.startswith(
            "WARNING drsync.scenario: run unreliable_dr seed=1: no packet arrived, "
            "so rtt_mean_ms is twice the base latency, not a measurement\n"
        )

    def test_stage_timings_only_on_stderr_at_debug(self, config_path, tmp_path):
        # The timings are wall-clock, so they must stay out of stdout and the
        # output tree, which are byte-identical across reruns.
        def simulate(level):
            out = tmp_path / level
            env = {**os.environ, "DRSYNC_LOG": level, "PYTHONPATH": str(ROOT / "src")}
            proc = subprocess.run(
                [sys.executable, "-m", "drsync", "simulate", "--config", config_path,
                 "--out", str(out)],
                capture_output=True, text=True, env=env, check=False,
            )
            assert proc.returncode == 0
            tree = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            return proc.stdout, tree, proc.stderr

        off_out, off_tree, off_err = simulate("off")
        debug_out, debug_tree, debug_err = simulate("debug")
        assert (debug_out, debug_tree) == (off_out, off_tree)
        assert off_err == ""
        stages = ("trajectory", "sample", "sender", "transport", "receiver",
                  "export_error", "summary")
        timing_line = re.compile(
            r"DEBUG drsync\.scenario: run unreliable_dr seed=5 stage seconds: "
            + " ".join(rf"{stage}=\d+\.\d{{6}}" for stage in stages) + "\n"
        )
        assert len(timing_line.findall(debug_err)) == 1
        write_line = re.compile(
            r"DEBUG drsync\.scenario: run unreliable_dr seed=5 stage seconds: "
            r"write=\d+\.\d{6}\n"
        )
        assert len(write_line.findall(debug_err)) == 1

    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{oops")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_costliest_simulate_at_a_sixteenth_of_the_cap(self, tmp_path):
        # reliable_ordered at loss 0.95 sends a packet 11 times on average.
        # In a child process on a 2-vCPU Xeon guest this took 1.1 s (2.8 s
        # when each retransmission reseeded its own generator).
        cfg = comparison_scenario()
        ticks = scenario.MAX_TICKS // 16
        cfg = replace(
            cfg,
            duration_ms=(ticks - 1) * cfg.protocol.tick_ms,
            mode=scenario.MODE_RELIABLE,
            channel=replace(cfg.channel, loss_rate=0.95),
        )
        (tmp_path / "worst.json").write_text(json.dumps(config_to_dict(cfg)))
        proc = subprocess.run(
            [sys.executable, "-m", "drsync", "simulate", "--config", "worst.json"],
            capture_output=True, text=True, cwd=tmp_path, timeout=15, check=False,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["ticks"] == ticks
        assert summary["transmissions"] > 10 * summary["sends"]


class TestCompare:
    @pytest.mark.parametrize("what", ["compare", "simulate"])
    def test_the_tool_spawns_from_a_bare_interpreter(self, what):
        # The tool imports neither drsync nor numpy, so the floor under a
        # compare's or a simulate's peak is that of any other command.
        result = worst_case(what, "--fraction", "16")
        bare = worst_case("run", "--", "true")
        if what == "compare":  # a sixteenth of the bound over two seeds
            ticks = scenario.MAX_TICKS // 16 // 2 - scenario.COMPARE_SEED_TICKS
        else:  # every loss is accepted at a sixteenth of the cap
            ticks = scenario.MAX_TICKS // 16
            assert result["loss"] == 1.0
        assert result["ticks"] == ticks
        assert abs(result["floor_rss_mib"] - bare["floor_rss_mib"]) <= 2
        assert result["floor_rss_mib"] < result["peak_rss_mib"]

    def test_compare_at_a_sixteenth_of_the_cap(self, tmp_path):
        # In a child process on a 2-vCPU Xeon guest this took 0.4-0.5 s and
        # peaked at 39 MiB (tools/worst_case.py compare --fraction 16).
        cfg = comparison_scenario()
        ticks = scenario.MAX_TICKS // 16 // 2 - scenario.COMPARE_SEED_TICKS
        cfg = replace(cfg, duration_ms=(ticks - 1) * cfg.protocol.tick_ms)
        (tmp_path / "cmp.json").write_text(json.dumps(config_to_dict(cfg)))
        proc = subprocess.run(
            [sys.executable, "-m", "drsync", "compare", "--config", "cmp.json",
             "--seeds", "1,2", "--out", "runs"],
            capture_output=True, text=True, cwd=tmp_path, timeout=15, check=False,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert [row["seed"] for row in json.loads(proc.stdout)["rows"]] == [1, 2]
        summary = tmp_path / "runs" / "seed_2" / "unreliable_dr" / "summary.json"
        assert json.loads(summary.read_text())["ticks"] == ticks

    def test_happy_path(self, capsys, tmp_path):
        cfg = replace(comparison_scenario(), duration_ms=20_000)
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        code = main(
            ["compare", "--config", str(path), "--seeds", "1,2",
             "--out", str(tmp_path / "runs")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["seed"] for row in payload["rows"]] == [1, 2]
        assert 0 <= payload["unreliable_mean_lower_count"] <= 2
        assert (tmp_path / "runs" / "comparison.csv").exists()
        assert (tmp_path / "runs" / "seed_1" / "reliable_ordered" / "summary.json").exists()

    def test_stage_timings_only_on_stderr_at_debug(self, config_path, tmp_path):
        def compare(level):
            out = tmp_path / level
            stdout, stderr = run_logged(
                level,
                ["compare", "--config", config_path, "--seeds", "3,1,2",
                 "--out", str(out)],
            )
            tree = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            return stdout, tree, stderr

        off_out, off_tree, off_err = compare("off")
        debug_out, debug_tree, debug_err = compare("debug")
        assert (debug_out, debug_tree) == (off_out, off_tree)
        assert len(off_tree) == 2 + 3 * 2 * 4
        assert off_err == ""
        compare_line = re.compile(
            r"DEBUG drsync\.scenario: compare stage seconds: "
            r"trajectory=\d+\.\d{6} sample=\d+\.\d{6} sender=\d+\.\d{6} "
            r"draws=\d+\.\d{6} write=\d+\.\d{6} comparison_csv=\d+\.\d{6} "
            r"comparison_json=\d+\.\d{6}\n"
        )
        assert len(compare_line.findall(debug_err)) == 1
        assert debug_err.count("compare stage seconds:") == 1
        writes = re.findall(
            r"DEBUG drsync\.scenario: run (\w+) seed=(\d) stage seconds: "
            r"write=\d+\.\d{6}\n",
            debug_err,
        )
        modes = ("unreliable_dr", "reliable_ordered")
        assert writes == [(mode, seed) for seed in "312" for mode in modes]

    def test_single_seed_rejected(self, capsys, config_path):
        assert main(["compare", "--config", config_path, "--seeds", "1"]) == 1
        assert "seeds" in capsys.readouterr().err

    def test_non_integer_seeds_rejected(self, capsys, config_path):
        assert main(["compare", "--config", config_path, "--seeds", "1,x"]) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_no_post_warm_up_ticks_is_an_error(self, capsys, tmp_path):
        # Nothing arrives, so no tick leaves warm-up.
        cfg = comparison_scenario()
        cfg = replace(cfg, channel=replace(cfg.channel, loss_rate=1.0))
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert main(["compare", "--config", str(path), "--seeds", "1,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: seed 1 mode unreliable_dr: no post-warm-up ticks to compare\n"
        )


class TestGenerateAnalyze:
    @pytest.mark.parametrize(
        "what",
        ["generate", "analyze", "analyze --form quoted", "analyze --form piped"],
    )
    def test_at_a_sixteenth_of_the_cap(self, what):
        # The mmorpg preset at 10 clients and seed 1: 424,170 rows.  On a
        # 2-vCPU Xeon guest generate took 0.5 s and analyze 0.4 s in the
        # tool's child, which peaked at 61 and 54 MiB; analyze of the trace
        # with quoted names, which numpy's parser reads too, 0.5 s and 54
        # MiB, and of the trace piped to its stdin, 0.5 s and 55 MiB.
        result = worst_case(*what.split(), "--fraction", "16")
        assert result["client_ticks"] == workload.MAX_CLIENT_TICKS // 16
        assert result["command"][3] == what.split()[0]
        assert result["form"] == (what.split()[2:] or ["plain"])[0]
        assert (result["command"][-1] == "/dev/stdin") == what.endswith("piped")
        assert 0 < result["floor_rss_mib"] < result["peak_rss_mib"]

    def test_generate_then_analyze(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code = main(
            ["generate", "--preset", "mmorpg", "--clients", "5",
             "--duration-ms", "30000", "--seed", "7", "--out", str(trace_path)]
        )
        assert code == 0
        trace = read_trace_csv(str(trace_path))
        assert len(trace) > 0
        capsys.readouterr()

        assert main(["analyze", "--trace", str(trace_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["directions"]) == {"c2s", "s2c"}
        stats = report["directions"]["c2s"]
        assert stats["packets"] > 0
        assert stats["n_clients"] == 5
        assert "period" in report

    def test_stage_timings_only_on_stderr_at_debug(self, tmp_path):
        def generate(level):
            out = tmp_path / f"{level}.csv"
            stdout, stderr = run_logged(
                level,
                ["generate", "--preset", "mmorpg", "--clients", "2",
                 "--duration-ms", "20000", "--seed", "3", "--out", str(out)],
            )
            return stdout, out.read_bytes(), stderr

        off_out, off_trace, off_err = generate("off")
        debug_out, debug_trace, debug_err = generate("debug")
        assert (debug_out, debug_trace) == (off_out, off_trace)
        assert off_err == ""
        timing_line = re.compile(
            r"DEBUG drsync\.cli: generate seed=3 stage seconds: "
            r"draw=\d+\.\d{6} sort=\d+\.\d{6} write=\d+\.\d{6}\n"
        )
        assert len(timing_line.findall(debug_err)) == 1

    def test_analyze_stage_timings_only_on_stderr_at_debug(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        assert main(
            ["generate", "--preset", "fps", "--clients", "2",
             "--duration-ms", "20000", "--seed", "3", "--out", str(trace_path)]
        ) == 0
        runs = {
            level: run_logged(level, ["analyze", "--trace", str(trace_path),
                                      "--bucket-ms", "2"])
            for level in ("off", "debug")
        }
        assert runs["off"] == (runs["debug"][0], "")
        assert json.loads(runs["off"][0])["period"] is not None
        timing_line = re.compile(
            r"DEBUG drsync\.cli: analyze stage seconds: read=\d+\.\d{6} "
            r"stats=\d+\.\d{6} bucket=\d+\.\d{6} period=\d+\.\d{6}\n"
        )
        assert len(timing_line.findall(runs["debug"][1])) == 1

    def test_generate_zero_clients_writes_header_only(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code = main(
            ["generate", "--preset", "fps", "--clients", "0",
             "--duration-ms", "1000", "--out", str(trace_path)]
        )
        assert code == 0
        header = "t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack\n"
        assert trace_path.read_text() == header
        assert len(read_trace_csv(str(trace_path))) == 0

    @pytest.mark.parametrize(
        "source, clients, duration_ms",
        [
            (["--preset", "mmorpg"], "0", "100000000000000"),
            # Events every ms, but only 1,000 ticks.
            (["--profile", "event_every_ms.json"], "1", "1000000000000"),
        ],
    )
    def test_generate_costs_ticks_not_events(
        self, tmp_path, source, clients, duration_ms
    ):
        (tmp_path / "event_every_ms.json").write_text(
            json.dumps(
                {
                    "tick_period_ms": 10**9,
                    "payload_size_dist": {"body": [[20, 1.0]]},
                    "global_event": {"period_ms": 1, "participation": 0.5},
                }
            )
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "drsync", "generate", *source, "--clients",
             clients, "--duration-ms", duration_ms, "--out", "trace.csv"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=2,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert rows[0] == "t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack"
        assert (len(rows) == 1) == (clients == "0")

    def test_analyze_detects_tick_period(self, capsys, tmp_path):
        trace_path = tmp_path / "steady.csv"
        profile = tmp_path / "profile.json"
        profile.write_text(
            json.dumps(
                {
                    "tick_period_ms": 300,
                    "payload_size_dist": {
                        "body": [[20, 1.0]],
                        "tail_prob": 0.0,
                        "tail_range": [0, 0],
                    },
                    "burst": {"p_enter": 0.0, "p_exit": 0.0, "rate_multiplier": 1.0},
                    "header_bytes": 28,
                    "ack_every_n": 1_000_000,
                    "global_event": {"period_ms": 0, "participation": 0.0},
                    "server_scale_range": [1.0, 1.0],
                    "server_epoch_ms": 10000,
                }
            )
        )
        assert main(
            ["generate", "--profile", str(profile), "--clients", "2",
             "--duration-ms", "60000", "--out", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["analyze", "--trace", str(trace_path), "--direction", "c2s",
             "--bucket-ms", "100"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["directions"]) == ["c2s"]
        assert report["period"] is not None
        assert report["period"]["lag_ms"] == 300

    def test_analyze_series_too_short_for_a_period(self, capsys, tmp_path):
        # 20 s in buckets of 5 s: 4 buckets, under the 8 a verdict needs.
        trace_path = tmp_path / "short.csv"
        assert main(
            ["generate", "--preset", "mmorpg", "--clients", "2",
             "--duration-ms", "20000", "--out", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["analyze", "--trace", str(trace_path), "--bucket-ms", "5000"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["directions"]) == {"c2s", "s2c"}
        assert report["period"] is None

    def test_generate_unknown_preset(self, capsys, tmp_path):
        code = main(
            ["generate", "--preset", "mud", "--clients", "1",
             "--duration-ms", "1000", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 1
        assert "available" in capsys.readouterr().err

    def test_generate_rejects_both_sources(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(
                ["generate", "--preset", "fps", "--profile", "p.json",
                 "--clients", "1", "--duration-ms", "1000",
                 "--out", str(tmp_path / "t.csv")]
            )
        assert exc_info.value.code == 1

    def test_analyze_missing_trace_is_io_error(self, tmp_path):
        assert main(["analyze", "--trace", str(tmp_path / "gone.csv")]) == 2

    @pytest.mark.parametrize("blocks", [0, 2])
    def test_analyze_reads_whole_blocks_without_warnings(
        self, capsys, tmp_path, monkeypatch, blocks
    ):
        # numpy warns when a block finds no rows: here the last read does.
        rows = blocks * workload._ITER_ROWS
        header = "t_ms,conn_id,direction,payload_bytes,header_bytes,is_ack\n"
        path = tmp_path / "trace.csv"
        path.write_text(header + "".join(
            f"{k},c0,{('c2s', 's2c')[k % 2]},10,40,false\n" for k in range(rows)
        ))

        def no_rows(*args):
            raise AssertionError("the row reader ran")

        monkeypatch.setattr(workload.spec, "_read_rows", no_rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            code = main(["analyze", "--trace", str(path)])
            assert warnings.filters == filters  # the reader's filters are gone
        out, err = capsys.readouterr()
        assert caught == []
        if rows:
            assert (code, err) == (0, "")
            assert json.loads(out)["directions"]["c2s"]["packets"] == rows // 2
        else:  # the one line is the error for an empty trace
            assert (code, out) == (1, "")
            assert err == "error: trace has no packets in the requested direction(s)\n"


class TestPredictFit:
    METRICS = (
        "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,connectivity_recoverable\n"
        "40.0,2.0,0.0,30.0,true\n"
        "450.0,80.0,0.3,5.0,true\n"
        "450.0,80.0,0.3,5.0,false\n"
    )

    def test_predict_with_default_weights(self, capsys, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(self.METRICS)
        assert main(["predict", "--metrics", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "risk_score,premature_flag,action"
        assert len(lines) == 4
        clean = lines[1].split(",")
        bad_recoverable = lines[2].split(",")
        bad_gone = lines[3].split(",")
        assert float(clean[0]) < 0.5
        assert clean[1:] == ["false", "none"]
        assert float(bad_recoverable[0]) > 0.5
        assert bad_recoverable[1:] == ["true", "reactivate_auto"]
        assert bad_gone[1:] == ["true", "notify_message"]

    def test_predict_to_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(self.METRICS)
        out = tmp_path / "risk.csv"
        assert main(["predict", "--metrics", str(path), "--out", str(out)]) == 0
        assert out.read_text().startswith("risk_score,premature_flag,action\n")

    def test_predict_threshold_flag(self, capsys, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(
            "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min\n450.0,80.0,0.3,5.0\n"
        )
        assert main(["predict", "--metrics", str(path), "--threshold", "0.999"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1:] == ["false", "none"]

    def test_fit_then_predict_round_trip(self, capsys, tmp_path):
        sessions = generate_labeled_sessions(n=300, seed=12)
        data_path = tmp_path / "sessions.csv"
        write_sessions_csv(sessions, str(data_path))

        weights_path = tmp_path / "weights.json"
        code = main(
            ["fit", "--data", str(data_path), "--epochs", "300",
             "--out", str(weights_path)]
        )
        assert code == 0
        fitted = json.loads(weights_path.read_text())
        assert set(fitted) == {"bias", "w_latency", "w_loss", "w_jitter"}
        assert fitted["w_loss"] > 0

        metrics_path = tmp_path / "metrics.csv"
        metrics_path.write_text(self.METRICS)
        assert main(
            ["predict", "--metrics", str(metrics_path),
             "--weights", str(weights_path)]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4

    def test_fit_at_a_sixteenth_of_the_cap(self):
        # 15,625 sessions at the default 2,000 epochs.  On a 2-vCPU Xeon
        # guest the tool took 1.3 s, of which the fit's child 0.5-0.7 s.
        result = worst_case("fit", "--fraction", "16")
        assert (result["sessions"], result["epochs"]) == (15_625, 2000)
        assert 0 < result["floor_rss_mib"] < result["peak_rss_mib"]

    def test_fit_to_stdout(self, capsys, tmp_path):
        sessions = generate_labeled_sessions(n=200, seed=13)
        data_path = tmp_path / "sessions.csv"
        write_sessions_csv(sessions, str(data_path))
        assert main(["fit", "--data", str(data_path), "--epochs", "200"]) == 0
        fitted = json.loads(capsys.readouterr().out)
        assert set(fitted) == {"bias", "w_latency", "w_loss", "w_jitter"}

    @staticmethod
    def check_timings_only_on_stderr_at_debug(tmp_path, argv, stages):
        """Run ``argv`` to stdout and to ``--out`` at log levels off and
        debug: the outputs agree byte for byte, and only debug's stderr has
        one line of the command's ``stages``."""
        runs = {}
        for level in ("off", "debug"):
            out = tmp_path / f"{level}.out"
            runs[level] = (
                run_logged(level, argv),
                run_logged(level, [*argv, "--out", str(out)]),
                out.read_bytes(),
            )
        (off_stdout, off_err), (off_out, off_out_err), off_file = runs["off"]
        (debug_stdout, debug_err), (debug_out, debug_out_err), debug_file = runs["debug"]
        assert (debug_stdout, debug_out, debug_file) == (off_stdout, off_out, off_file)
        assert off_file.decode() == off_stdout and off_out == ""
        assert off_err == off_out_err == ""
        timing_line = re.compile(
            rf"DEBUG drsync\.cli: {argv[0]} stage seconds: "
            + " ".join(rf"{stage}=\d+\.\d{{6}}" for stage in stages) + "\n"
        )
        for err in (debug_err, debug_out_err):
            assert len(timing_line.findall(err)) == 1

    def test_fit_stage_timings_only_on_stderr_at_debug(self, tmp_path):
        data_path = tmp_path / "sessions.csv"
        write_sessions_csv(generate_labeled_sessions(n=200, seed=13), str(data_path))
        self.check_timings_only_on_stderr_at_debug(
            tmp_path, ["fit", "--data", str(data_path), "--epochs", "50"],
            ("read", "design", "descent", "write"),
        )

    def test_predict_stage_timings_only_on_stderr_at_debug(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(self.METRICS)
        self.check_timings_only_on_stderr_at_debug(
            tmp_path, ["predict", "--metrics", str(path)], ("read", "score", "write")
        )

    def test_fit_rejects_one_class_data(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,quit_premature\n"
            "40.0,2.0,0.0,30.0,false\n"
            "50.0,3.0,0.0,25.0,false\n"
        )
        assert main(["fit", "--data", str(path)]) == 1
        assert "degenerate" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
class TestPipedInput:
    """An input file that is a pipe is opened and read once, as a file is:
    by numpy's parser, until it declines a chunk, and from there by the row
    reader."""

    SESSIONS = (
        "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,quit_premature\n"
        "40.0,2.0,0.0,30.0,false\n"
        "450.0,80.0,0.3,5.0,true\n"
    )

    def drsync(self, *argv, stdin=None):
        """``drsync`` in a child process, its stdin fed ``stdin``."""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return subprocess.run(
            [sys.executable, "-m", "drsync", *argv],
            input=stdin, capture_output=True, text=True, env=env, check=False,
        )

    def test_analyze_reads_a_trace_from_a_pipe(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = workload.generate_trace(workload.preset("mmorpg"), 2, 5_000, seed=1)
        workload.write_trace_csv(trace, str(path))
        from_file = self.drsync("analyze", "--trace", str(path))
        piped = self.drsync("analyze", "--trace", "/dev/stdin", stdin=path.read_text())
        assert (piped.returncode, piped.stderr) == (0, "")
        assert piped.stdout == from_file.stdout

    def test_fit_names_the_bad_row_of_a_pipe(self, tmp_path):
        bad = self.SESSIONS + "1.0,2.0,0.3,-4.0,true\n"
        proc = self.drsync("fit", "--data", "/dev/stdin", "--out",
                           str(tmp_path / "w.json"), stdin=bad)
        assert proc.returncode == 1
        problem = "/dev/stdin row 4: elapsed_min must be in [0, inf), got -4.0"
        assert problem in proc.stderr

    def test_fit_reads_a_quoted_cell_from_a_pipe(self, tmp_path):
        # numpy's parser reads the pipe, the quoted cell too, as it reads
        # the file.
        text = self.SESSIONS + '"1.0",2.0,0.3,4.0,true\n'
        path, piped, written = (tmp_path / n for n in ("s.csv", "p.json", "f.json"))
        path.write_text(text)
        fit = ("fit", "--epochs", "50", "--out")
        assert self.drsync(*fit, str(written), "--data", str(path)).returncode == 0
        proc = self.drsync(*fit, str(piped), "--data", "/dev/stdin", stdin=text)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert piped.read_text() == written.read_text()

    @pytest.mark.parametrize("flag", ["", ",connectivity_recoverable"])
    def test_predict_names_the_bad_row_of_a_pipe(self, flag):
        cell = ",true" if flag else ""
        metrics = (
            f"rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min{flag}\n"
            f"40.0,2.0,0.0,30.0{cell}\n450.0,80.0,1.5,5.0{cell}\n"
        )
        proc = self.drsync("predict", "--metrics", "/dev/stdin", stdin=metrics)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: invalid input file\n"
            "  - /dev/stdin row 3: loss_rate must be in [0, 1], got 1.5\n"
        )

    @pytest.mark.parametrize("piped", [False, True])
    def test_an_empty_input_is_named_empty(self, tmp_path, piped):
        # An empty file has no header, and no row to name.
        path = tmp_path / "trace.csv"
        path.write_text("")
        name = "/dev/stdin" if piped else str(path)
        proc = self.drsync("analyze", "--trace", name, stdin="")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"error: invalid input file\n  - {name}: the file is empty\n"
        )

    def test_predict_reads_metrics_from_a_pipe(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(TestPredictFit.METRICS)
        from_file = self.drsync("predict", "--metrics", str(path))
        piped = self.drsync(
            "predict", "--metrics", "/dev/stdin", stdin=path.read_text()
        )
        assert (piped.returncode, piped.stderr) == (0, "")
        assert piped.stdout == from_file.stdout
