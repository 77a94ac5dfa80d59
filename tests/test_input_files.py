"""Every input file the CLI reads ends in exit 0, or in exit 1/2 with an error.

Regression tests for inputs that used to crash with a traceback or pass
silently, plus a hypothesis fuzz test that swaps one field or cell of each
input kind for junk and drives ``cli.main``.
"""

import contextlib
import copy
import io
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drsync.cli import main
from drsync.qon import (
    DEFAULT_WEIGHTS,
    generate_labeled_sessions,
    weights_to_dict,
    write_sessions_csv,
)
from drsync.scenario import (
    ConfigError,
    TrajectoryGenConfig,
    comparison_scenario,
    config_to_dict,
)
from drsync.workload import (
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


def fps_profile() -> dict:
    return profile_to_dict(preset("fps"))


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


# --- fuzzing every input file through the CLI ----------------------------

JUNK_JSON = ["x", -3, 1.7, None, [], {}, True, float("nan"), float("inf")]
JUNK_CELLS = ["x", "-3", "1.7", "", "[]", "{}", "true", "NaN", "inf"]
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
    }


JSON_KINDS = ["config", "profile", "weights"]
CSV_KINDS = ["metrics", "sessions", "trace"]
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
