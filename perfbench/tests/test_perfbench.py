"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench/tests``."""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from drsync.cli import main as cli_main  # noqa: E402
from drsync.scenario import (  # noqa: E402
    MODE_RELIABLE,
    MODE_UNRELIABLE,
    comparison_scenario,
    run_simulation,
)
from drsync.workload import generate_trace, preset, read_trace_csv, write_trace_csv  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("mode", [MODE_UNRELIABLE, MODE_RELIABLE])
def test_replay_matches_run_simulation(mode):
    cfg = replace(comparison_scenario(), seed=3, duration_ms=8000)
    result = run_simulation(cfg, mode=mode)
    tr = Tracer()
    tr.new_run()
    workloads.check_replay(result, tr)

    assert set(tr.totals(tr.run_id)) == set(workloads.REPLAY_STAGES)
    counts = tr.counts[tr.run_id]
    assert counts["protocol.sends"] == result.summary["sends"]
    assert counts["netsim.transmissions"] == result.summary["transmissions"]
    if mode == MODE_RELIABLE:
        assert counts["netsim.retransmissions"] > 0


def test_replay_mismatch_is_reported():
    result = run_simulation(replace(comparison_scenario(), duration_ms=4000))
    result.sends = result.sends[:-1]
    with pytest.raises(workloads.ReplayMismatch, match="sends"):
        workloads.check_replay(result, Tracer())


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.E2E_UNITS
    assert declared_layer == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for name in [*declared_e2e, *declared_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_tampered_reference_digest_gives_a_failed_op(tmp_path):
    workload = workloads.SimSlowClean(duration_ms=5000)
    cfg = workload.build(1, tmp_path / "inputs")
    good = run.OpRunner(workload, cfg, tmp_path / "out", None).run(Tracer(False)).digests
    tampered = {name: "0" * 64 for name in good}

    runner = run.OpRunner(workload, cfg, tmp_path / "out", tampered)
    result = runner.run(Tracer(False))
    assert result is not None
    assert (runner.attempted, runner.failed) == (1, 1)
    runner.expected = good
    runner.run(Tracer(False))
    assert (runner.attempted, runner.failed) == (2, 1)


def test_calibrated_loop_scales_every_op(tmp_path):
    workload = workloads.SimSlowClean(duration_ms=5000)
    runner = run.OpRunner(workload, workload.build(1, tmp_path), tmp_path / "out", None)
    calibrator = run.Calibrator(tmp_path / "calibration")
    (ops,) = run.timed_loop(runner, [Tracer(False)], 0.0, calibrator)
    assert len(ops) == run.MIN_OPS
    assert all(scale > 0 and scale != 1.0 for _, _, scale in ops)
    assert list((tmp_path / "calibration").iterdir()) == []


def test_raising_op_gives_a_failed_op(tmp_path):
    workload = workloads.SimFastLossy(duration_ms=2000, n_seeds=1)  # compare needs 2
    runner = run.OpRunner(workload, workload.build(1, tmp_path), tmp_path / "out", None)
    assert runner.run(Tracer(False)) is None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_analyze_report_is_what_the_cli_prints(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    write_trace_csv(generate_trace(preset("mmorpg"), 2, 30_000, 4), str(path))
    assert cli_main(["analyze", "--trace", str(path), "--bucket-ms", "50"]) == 0
    printed = capsys.readouterr().out.encode()
    report, period_s = workloads.analyze_report(read_trace_csv(str(path)), 50, Tracer(False))
    assert period_s > 0
    assert workloads.json_bytes(report) == printed


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, first, second = tr.spans
    assert first.parent == second.parent == 0
    expected = (outer.end - outer.start) - sum(s.end - s.start for s in (first, second))
    assert tr.self_times()[0] == pytest.approx(expected)


def test_refuses_to_run_without_the_drsync_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-mmorpg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
