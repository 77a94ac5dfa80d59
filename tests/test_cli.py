"""End-to-end checks of the console entry point, run in process."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

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

FAST_MANEUVER = Path(__file__).resolve().parent.parent / "configs" / "fast_maneuver.json"


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

    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{oops")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err


class TestCompare:
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

    def test_single_seed_rejected(self, capsys, config_path):
        assert main(["compare", "--config", config_path, "--seeds", "1"]) == 1
        assert "seeds" in capsys.readouterr().err

    def test_non_integer_seeds_rejected(self, capsys, config_path):
        assert main(["compare", "--config", config_path, "--seeds", "1,x"]) == 1
        assert "--seeds" in capsys.readouterr().err


class TestGenerateAnalyze:
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

    def test_fit_to_stdout(self, capsys, tmp_path):
        sessions = generate_labeled_sessions(n=200, seed=13)
        data_path = tmp_path / "sessions.csv"
        write_sessions_csv(sessions, str(data_path))
        assert main(["fit", "--data", str(data_path), "--epochs", "200"]) == 0
        fitted = json.loads(capsys.readouterr().out)
        assert set(fitted) == {"bias", "w_latency", "w_loss", "w_jitter"}

    def test_fit_rejects_one_class_data(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,quit_premature\n"
            "40.0,2.0,0.0,30.0,false\n"
            "50.0,3.0,0.0,25.0,false\n"
        )
        assert main(["fit", "--data", str(path)]) == 1
        assert "degenerate" in capsys.readouterr().err
