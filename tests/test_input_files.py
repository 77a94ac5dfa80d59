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
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drsync import analysis, core, scenario, spec, workload
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


# --- fuzzing every input file through the CLI ----------------------------

JUNK_JSON = [
    "x", -3, 1.7, None, [], {}, True, float("nan"), float("inf"), 1e308, -1e308
]
JUNK_CELLS = ["x", "-3", "1.7", "", "[]", "{}", "true", "NaN", "inf", "1e308"]
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
