import dataclasses
import gc
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drsync import qon
from drsync.qon import (
    Action,
    CALIBRATION_PARAMS,
    ChurnModelParams,
    DEFAULT_WEIGHTS,
    PredictorWeights,
    SessionMetrics,
    assess,
    calibrate_default_weights,
    decide_action,
    fit_weights,
    generate_labeled_sessions,
    ground_truth_quit,
    log_loss,
    log_loss_gradient,
    quit_probability,
    read_metrics_csv,
    read_sessions_csv,
    risk_score,
    weights_from_json,
    weights_to_json,
    write_sessions_csv,
)
from drsync.rng import SEED
from drsync.spec import ConfigError


def metrics(rtt=50.0, jitter=5.0, loss=0.01, elapsed=5.0):
    return SessionMetrics(
        rtt_mean_ms=rtt, rtt_jitter_ms=jitter, loss_rate=loss, elapsed_min=elapsed
    )


ZERO_W = PredictorWeights(bias=0.0, w_latency=0.0, w_loss=0.0, w_jitter=0.0)


class TestSessionMetrics:
    def test_readers_check_each_metric_column(self, tmp_path):
        # SessionMetrics checks nothing itself; the CSV rows are checked
        # where they are read, and the error names the file, row and column.
        header = "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min"
        good = ["50.0", "5.0", "0.01", "5.0"]
        readers = {
            "sessions": (read_sessions_csv, ",quit_premature", ",true"),
            "metrics": (read_metrics_csv, "", ""),
        }
        for name, (read, extra_head, extra_cell) in readers.items():
            for col, column in enumerate(header.split(",")):
                for cell in ("-1", "nan", "inf"):
                    row = list(good)
                    row[col] = cell
                    path = tmp_path / f"{name}.csv"
                    path.write_text(
                        f"{header}{extra_head}\n{','.join(good)}{extra_cell}\n"
                        f"{','.join(row)}{extra_cell}\n"
                    )
                    with pytest.raises(ConfigError) as exc_info:
                        read(str(path))
                    (problem,) = exc_info.value.problems
                    assert problem.startswith(f"{path} row 3: {column} must be in ")


def by_rows(read):
    """``read`` with numpy's parser declining every chunk, so that the row
    reader reads the file from its header."""

    def read_rows(path):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qon.spec, "_parse_chunk", decline)
            return read(path)

    return read_rows


def decline(*args):
    raise ValueError("declined")


# Each metric's range as the readers' messages write it.
METRIC_RANGES = {
    "rtt_mean_ms": "[0, inf)",
    "rtt_jitter_ms": "[0, inf)",
    "loss_rate": "[0, 1]",
    "elapsed_min": "[0, inf)",
}


def bad_cell(column, kind):
    """A cell of ``kind`` out of ``column``'s range, and how the message
    writes its value.  Above a top of inf there is only inf: 1e400 reads so."""
    above = ("1.0000000000000002",) * 2 if column == "loss_rate" else ("1e400", "inf")
    return {
        "below 0": ("-1", "-1.0"),
        "above the top": above,
        "nan": ("nan", "nan"),
        "inf": ("inf", "inf"),
    }[kind]


@pytest.mark.parametrize("kind", ["below 0", "above the top", "nan", "inf"])
@pytest.mark.parametrize("column", list(METRIC_RANGES))
def test_every_reader_states_each_metric_bound_alike(tmp_path, column, kind):
    cell, written = bad_cell(column, kind)
    header = "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min"
    row = dict(zip(header.split(","), ["50.0", "5.0", "0.01", "5.0"]), **{column: cell})
    message = f"{column} must be in {METRIC_RANGES[column]}, got {written}"
    readers = {
        "fit's block reader": (read_sessions_csv, ",quit_premature", ",true"),
        "fit's row reader": (by_rows(read_sessions_csv), ",quit_premature", ",false"),
        "predict's reader": (read_metrics_csv, "", ""),
    }
    for read, extra_head, extra_cell in readers.values():
        path = tmp_path / "metrics.csv"
        path.write_text(f"{header}{extra_head}\n{','.join(row.values())}{extra_cell}\n")
        with pytest.raises(ConfigError) as exc_info:
            read(str(path))
        assert exc_info.value.problems == [f"{path} row 2: {message}"]
    # The block reader's own check refuses the value too.
    dtype = list(zip(qon._SESSION_FIELDS, qon._FIELD_TYPES))
    block = np.array([(50.0, 5.0, 0.01, 5.0, "true")], dtype)
    block[column] = float(cell)
    with pytest.raises(ValueError, match="a metric is out of range"):
        qon._metric_columns(block)


def test_each_metric_bound_is_inclusive(tmp_path):
    top = sys.float_info.max
    path = tmp_path / "sessions.csv"
    path.write_text(
        "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,quit_premature\n"
        f"0,0,0,0,true\n{top!r},{top!r},1,{top!r},false\n"
    )
    want = [
        (SessionMetrics(0.0, 0.0, 0.0, 0.0), True),
        (SessionMetrics(top, top, 1.0, top), False),
    ]
    assert read_sessions_csv(str(path)) == by_rows(read_sessions_csv)(str(path)) == want


class TestQuitModel:
    def test_hand_value(self):
        params = ChurnModelParams(q0=0.01, a=0.5, b=0.05)
        q = quit_probability(params, metrics(rtt=300.0, loss=0.1))
        # 0.01 + 0.5*0.1 + 0.05*(300-100)/100
        assert q == pytest.approx(0.16, abs=1e-12)

    def test_below_knee_latency_is_free(self):
        params = ChurnModelParams(q0=0.02, a=0.0, b=1.0)
        assert quit_probability(params, metrics(rtt=100.0, loss=0.0)) == 0.02
        assert quit_probability(params, metrics(rtt=40.0, loss=0.0)) == 0.02

    def test_clamped_to_unit_interval(self):
        params = ChurnModelParams(q0=0.5, a=10.0, b=0.0)
        assert quit_probability(params, metrics(loss=0.9)) == 1.0
        floor = ChurnModelParams(q0=-0.5, a=0.0, b=0.0)
        assert quit_probability(floor, metrics(loss=0.0, rtt=0.0)) == 0.0

    def test_ground_truth_quit_is_seeded(self):
        params = CALIBRATION_PARAMS
        m = metrics(rtt=300.0, loss=0.2)
        draws_a = [ground_truth_quit(params, m, random.Random(5)) for _ in range(3)]
        draws_b = [ground_truth_quit(params, m, random.Random(5)) for _ in range(3)]
        assert draws_a == draws_b


class TestRiskScore:
    def test_zero_weights_score_half(self):
        assert risk_score(ZERO_W, metrics()) == 0.5

    def test_single_feature_hand_value(self):
        w = PredictorWeights(bias=0.0, w_latency=1.0, w_loss=0.0, w_jitter=0.0)
        # rtt 500 normalizes to feature 1.0.
        score = risk_score(w, metrics(rtt=500.0))
        assert score == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-15)

    def test_extreme_inputs_do_not_overflow(self):
        hot = PredictorWeights(bias=1000.0, w_latency=0.0, w_loss=0.0, w_jitter=0.0)
        cold = PredictorWeights(bias=-1000.0, w_latency=0.0, w_loss=0.0, w_jitter=0.0)
        assert risk_score(hot, metrics()) == 1.0
        assert risk_score(cold, metrics()) == 0.0

    def test_monotone_in_each_feature(self):
        base = metrics(rtt=100.0, jitter=10.0, loss=0.05)
        s0 = risk_score(DEFAULT_WEIGHTS, base)
        assert risk_score(DEFAULT_WEIGHTS, metrics(rtt=200.0, jitter=10.0, loss=0.05)) > s0
        assert risk_score(DEFAULT_WEIGHTS, metrics(rtt=100.0, jitter=50.0, loss=0.05)) > s0
        assert risk_score(DEFAULT_WEIGHTS, metrics(rtt=100.0, jitter=10.0, loss=0.2)) > s0


class TestActions:
    def test_below_threshold_does_nothing(self):
        assert decide_action(0.49, 0.5, True) is Action.NONE
        assert decide_action(0.49, 0.5, False) is Action.NONE

    def test_at_or_above_threshold_intervenes(self):
        assert decide_action(0.5, 0.5, True) is Action.REACTIVATE_AUTO
        assert decide_action(0.9, 0.5, False) is Action.NOTIFY_MESSAGE

    def test_assess_bundles_flag_and_action(self):
        result = assess(ZERO_W, metrics(), connectivity_recoverable=True)
        assert result.score == 0.5
        assert result.premature_flag is True  # score meets the 0.5 default
        assert result.action is Action.REACTIVATE_AUTO

    def test_assess_custom_threshold(self):
        result = assess(ZERO_W, metrics(), connectivity_recoverable=True, threshold=0.6)
        assert result.premature_flag is False
        assert result.action is Action.NONE


class TestFitting:
    def test_log_loss_of_uninformative_weights(self):
        data = generate_labeled_sessions(50, seed=1)
        assert log_loss(ZERO_W, data) == pytest.approx(math.log(2), abs=1e-12)

    def test_empty_dataset_is_refused(self):
        with pytest.raises(
            ValueError, match="^cannot evaluate log-loss on an empty dataset$"
        ):
            log_loss(ZERO_W, [])
        with pytest.raises(
            ValueError, match="^cannot evaluate gradient on an empty dataset$"
        ):
            log_loss_gradient(ZERO_W, [])

    def test_gradient_at_zero_hand_value(self):
        m = metrics(rtt=250.0, jitter=40.0, loss=0.2)
        grad = log_loss_gradient(ZERO_W, [(m, True)])
        # p - y = -0.5 for every coordinate of the single example.
        assert grad.bias == -0.5
        assert grad.w_latency == -0.5 * 0.5  # rtt 250 / 500
        assert grad.w_loss == -0.5 * 0.2
        assert grad.w_jitter == -0.5 * 0.4

    def test_gradient_matches_central_differences(self):
        data = generate_labeled_sessions(60, seed=3)
        w = PredictorWeights(bias=0.3, w_latency=-0.7, w_loss=2.0, w_jitter=0.1)
        grad = log_loss_gradient(w, data)
        h = 1e-6
        for field in ("bias", "w_latency", "w_loss", "w_jitter"):
            up = PredictorWeights(**{**w.__dict__, field: getattr(w, field) + h})
            dn = PredictorWeights(**{**w.__dict__, field: getattr(w, field) - h})
            numeric = (log_loss(up, data) - log_loss(dn, data)) / (2 * h)
            assert getattr(grad, field) == pytest.approx(numeric, rel=1e-5, abs=1e-9)

    def test_fit_learns_the_right_signs(self):
        data = generate_labeled_sessions(400, seed=7)
        w = fit_weights(data, epochs=500)
        assert w.w_loss > 0
        assert w.w_latency > 0

    def test_flipped_labels_flip_the_weights(self):
        data = generate_labeled_sessions(200, seed=8)
        flipped = [(m, not quit) for m, quit in data]
        w = fit_weights(data, epochs=300)
        w_flip = fit_weights(flipped, epochs=300)
        for field in ("bias", "w_latency", "w_loss", "w_jitter"):
            assert getattr(w_flip, field) == pytest.approx(-getattr(w, field), abs=1e-9)

    def test_fit_is_deterministic(self):
        data = generate_labeled_sessions(200, seed=9)
        assert fit_weights(data, epochs=200) == fit_weights(data, epochs=200)

    def test_fit_work_is_capped(self, monkeypatch):
        data = generate_labeled_sessions(50, seed=2)
        monkeypatch.setattr(qon, "MAX_FIT_STEPS", 50 * 200)
        fit_weights(data, epochs=200)  # at the cap
        with pytest.raises(
            ValueError, match=r"MAX_FIT_STEPS \(10000\), got 50 \* 201 = 10050$"
        ):
            fit_weights(data, epochs=201)
        with pytest.raises(ValueError, match="MAX_FIT_STEPS"):
            fit_weights(data + data[:1], epochs=200)

    def test_fit_rejects_degenerate_data(self):
        with pytest.raises(ValueError):
            fit_weights([])
        one_class = [(metrics(), True), (metrics(rtt=300.0), True)]
        with pytest.raises(ValueError, match="degenerate"):
            fit_weights(one_class)
        data = generate_labeled_sessions(20, seed=1)
        with pytest.raises(ValueError):
            fit_weights(data, learn_rate=0.0)
        with pytest.raises(ValueError):
            fit_weights(data, epochs=0)

    def test_held_out_accuracy(self):
        data = generate_labeled_sessions(1000, seed=777)
        train, test = data[:700], data[700:]
        w = fit_weights(train)
        hits = sum(
            (risk_score(w, m) >= 0.5) == quit for m, quit in test
        )
        assert hits / len(test) >= 0.75


    def test_fit_laps_its_stages(self):
        laps = []
        fit_weights(generate_labeled_sessions(20, seed=1), epochs=5, lap=laps.append)
        assert laps == ["design", "descent"]


# The descent as it was before it wrote into reused buffers, word for word:
# every epoch allocates its arrays.  It is the oracle for the bits.
def list_design_matrix(labeled):
    x = np.array(
        [(1.0, *qon._features(m)) for m, _ in labeled], dtype=float
    )  # bias column first
    y = np.array([1.0 if quit else 0.0 for _, quit in labeled], dtype=float)
    return x, y


def allocating_gradient(x, y, v):
    p = 1.0 / (1.0 + np.exp(-(x @ v)))
    return x.T @ (p - y) / len(y)


def allocating_fit(labeled, learn_rate, epochs):
    x, y = list_design_matrix(labeled)
    v = np.zeros(4, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            v -= learn_rate * allocating_gradient(x, y, v)
    if not np.isfinite(v).all():
        raise ValueError(f"fit diverged: learn_rate {learn_rate!r} is too large")
    return qon._pack(v)


@st.composite
def labeled_datasets(draw):
    """2 to 500 sessions with both labels, from a drawn seed and scales."""
    n = draw(st.one_of(st.integers(2, 500), st.sampled_from([2, 3, 500])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rtt_max = draw(st.sampled_from([1.0, 120.0, 400.0, 5000.0, 1e6]))
    jitter_max = draw(st.sampled_from([0.0, 30.0, 100.0, 1e4]))
    quit_share = draw(st.floats(0.0, 1.0))
    sessions = [
        (
            SessionMetrics(
                rng.uniform(0.0, rtt_max),
                rng.uniform(0.0, jitter_max),
                rng.random(),
                float(rng.randint(1, 5)),
            ),
            rng.random() < quit_share,
        )
        for _ in range(n)
    ]
    sessions[0] = (sessions[0][0], True)
    sessions[1] = (sessions[1][0], False)
    return sessions


def weights_bits(w):
    return [float.hex(getattr(w, f)) for f in ("bias", "w_latency", "w_loss", "w_jitter")]


def fit_outcome(fit, labeled, learn_rate, epochs):
    try:
        return weights_bits(fit(labeled, learn_rate=learn_rate, epochs=epochs))
    except ValueError as exc:
        return str(exc)


class TestDescentOracle:
    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @example(
        labeled=[(metrics(rtt=1e4), True), (metrics(loss=-0.0), False)],
        learn_rate=1e308,
        epochs=3,
    )
    @example(
        labeled=generate_labeled_sessions(500, seed=4), learn_rate=1.0, epochs=60
    )
    @given(
        labeled=labeled_datasets(),
        learn_rate=st.one_of(
            st.floats(1e-3, 10.0), st.floats(1e-3, 1e308), st.sampled_from([1e308])
        ),
        epochs=st.integers(1, 60),
    )
    def test_descent_gives_the_allocating_descents_bits(
        self, labeled, learn_rate, epochs
    ):
        expected = fit_outcome(allocating_fit, labeled, learn_rate, epochs)
        assert fit_outcome(fit_weights, labeled, learn_rate, epochs) == expected

        x, y = qon._design_matrix(labeled)
        list_x, list_y = list_design_matrix(labeled)
        assert x.flags.c_contiguous and x.shape == list_x.shape
        assert (x.tobytes(), y.tobytes()) == (list_x.tobytes(), list_y.tobytes())
        v = np.array([0.5, -1.0, 2.0, 0.25])
        with np.errstate(over="ignore"):
            gradient = log_loss_gradient(qon._pack(v), labeled)
            expected = qon._pack(allocating_gradient(list_x, list_y, v))
        assert weights_bits(gradient) == weights_bits(expected)

    def test_the_examples_diverge_and_converge(self):
        # The oracle above sees both outcomes.
        diverging = [(metrics(rtt=1e4), True), (metrics(loss=-0.0), False)]
        with pytest.raises(ValueError, match="^fit diverged"):
            fit_weights(diverging, learn_rate=1e308, epochs=3)
        fit_weights(generate_labeled_sessions(500, seed=4), epochs=60)


def test_gradient_sums_a_matmul_per_chunk_in_order(monkeypatch):
    monkeypatch.setattr(qon, "_GRADIENT_ROWS", 7)
    labeled = generate_labeled_sessions(500, seed=4)
    x, y = list_design_matrix(labeled)
    v = np.array([0.5, -1.0, 2.0, 0.25])
    r = 1.0 / (1.0 + np.exp(-(x @ v))) - y
    expected = x[:7].T @ r[:7]
    for start in range(7, len(y), 7):
        expected = expected + x[start:start + 7].T @ r[start:start + 7]
    gradient = log_loss_gradient(qon._pack(v), labeled)
    assert weights_bits(gradient) == weights_bits(qon._pack(expected / len(y)))


def test_fit_weights_do_not_follow_blas_threads():
    # x.T @ r over 140,000 rows spans five chunks of qon._GRADIENT_ROWS.  As
    # one matmul, the bias read 0x1.10a8415bbfeaap-4 under one OpenBLAS
    # thread and 0x1.10a8415bbfeb0p-4 under two (a 2-vCPU Xeon guest).
    code = (
        "from drsync import qon; "
        "print(qon.fit_weights(qon.generate_labeled_sessions(140_000, 1), epochs=3))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    weights = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        weights.append(proc.stdout)
    assert weights[0] == weights[1]


class TestDefaultWeights:
    def test_committed_weights_match_calibration(self):
        assert calibrate_default_weights() == DEFAULT_WEIGHTS

    def test_clean_session_scores_low(self):
        assert risk_score(DEFAULT_WEIGHTS, metrics(rtt=40.0, jitter=5.0, loss=0.0)) < 0.3

    def test_impaired_session_scores_high(self):
        bad = metrics(rtt=350.0, jitter=80.0, loss=0.25)
        assert risk_score(DEFAULT_WEIGHTS, bad) > 0.7


def reference_sessions(n: int, seed: int) -> list:
    """``generate_labeled_sessions`` over the scalar model: three
    ``rng.uniform`` draws, one :func:`ground_truth_quit` a minute of the
    premature window, then the metrics rebuilt with the quit minute."""
    rng = random.Random(seed)
    sessions = []
    for _ in range(n):
        if rng.random() < 0.5:
            m = metrics(rng.uniform(20.0, 120.0), rng.uniform(0.0, 30.0),
                        rng.uniform(0.0, 0.05), 0.0)
        else:
            m = metrics(rng.uniform(150.0, 400.0), rng.uniform(20.0, 100.0),
                        rng.uniform(0.05, 0.4), 0.0)
        quit_early, elapsed = False, qon.PREMATURE_WINDOW_MIN
        for minute in range(1, qon.PREMATURE_WINDOW_MIN + 1):
            if ground_truth_quit(qon.CALIBRATION_PARAMS, m, rng):
                quit_early, elapsed = True, minute
                break
        sessions.append((m._replace(elapsed_min=float(elapsed)), quit_early))
    return sessions


def assert_sessions_are_the_references(n, seed):
    got, expected = generate_labeled_sessions(n, seed), reference_sessions(n, seed)
    assert got == expected
    assert repr(got) == repr(expected)


class TestSessionGeneration:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(n=400, seed=0)
    @example(n=400, seed=2**64 - 1)
    @example(n=400, seed=qon.CALIBRATION_SEED)
    @given(n=st.integers(0, 400), seed=st.integers(SEED.ge, SEED.le))
    def test_sessions_are_the_scalar_models(self, n, seed):
        assert_sessions_are_the_references(n, seed)

    @pytest.mark.parametrize("q0", [2.0, -1.0])
    def test_sessions_are_the_scalar_models_at_either_clamp(self, q0):
        # The committed params keep q inside [0, 1]; these push every
        # session's q past 1 (everyone quits in minute 1) or below 0.
        params = dataclasses.replace(CALIBRATION_PARAMS, q0=q0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qon, "CALIBRATION_PARAMS", params)
            assert_sessions_are_the_references(400, 3)
            quits = {quit for _, quit in generate_labeled_sessions(400, 3)}
        assert quits == {q0 > 1.0}

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_a_seed_outside_the_seed_rule_is_refused(self, seed):
        # random.Random seeds on abs(seed), so -5 would alias seed 5.
        with pytest.raises(ValueError, match="^seed: must be"):
            generate_labeled_sessions(50, seed)

    def test_deterministic_and_balanced(self):
        a = generate_labeled_sessions(500, seed=4)
        b = generate_labeled_sessions(500, seed=4)
        assert a == b
        quit_fraction = sum(quit for _, quit in a) / len(a)
        assert 0.3 <= quit_fraction <= 0.7

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            generate_labeled_sessions(-1, 1)

    def test_elapsed_reflects_quit_minute(self):
        for m, quit in generate_labeled_sessions(300, seed=5):
            if quit:
                assert 1.0 <= m.elapsed_min <= 5.0
            else:
                assert m.elapsed_min == 5.0


class TestSerialization:
    def test_sessions_csv_round_trip(self, tmp_path):
        data = generate_labeled_sessions(100, seed=6)
        path = tmp_path / "sessions.csv"
        write_sessions_csv(data, str(path))
        assert read_sessions_csv(str(path)) == data

    @pytest.mark.parametrize("collecting", [True, False])
    def test_sessions_read_restores_the_collector(self, tmp_path, collecting):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_sessions_csv(generate_labeled_sessions(10, seed=6), str(good))
        bad.write_text(good.read_text() + "1.0,2.0,0.3,4.0,maybe\n")
        paused = []
        real_read = qon.spec.read_columns

        def read(*args):
            paused.append(not gc.isenabled())
            return real_read(*args)

        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qon.spec, "read_columns", read)
                assert len(read_sessions_csv(str(good))) == 10
                assert gc.isenabled() == collecting
                with pytest.raises(ValueError, match="row 12"):
                    read_sessions_csv(str(bad))
                assert gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert paused == [True, True]

    def test_metrics_csv_with_optional_column(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(
            "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,connectivity_recoverable\n"
            "50.0,5.0,0.01,5.0,true\n"
            "300.0,60.0,0.2,2.0,false\n"
        )
        rows = read_metrics_csv(str(path))
        assert rows[0][0].rtt_mean_ms == 50.0
        assert rows[0][1] is True
        assert rows[1][1] is False

    def test_metrics_csv_without_optional_column(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(
            "rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min\n" "50.0,5.0,0.01,5.0\n"
        )
        rows = read_metrics_csv(str(path))
        assert rows[0][1] is None

    def test_weights_json_round_trip(self, tmp_path):
        path = tmp_path / "w.json"
        weights_to_json(DEFAULT_WEIGHTS, str(path))
        assert weights_from_json(str(path)) == DEFAULT_WEIGHTS

    def test_weights_json_strict_keys(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"bias": 0.0, "w_latency": 1.0, "w_loss": 1.0}')
        with pytest.raises(ValueError, match="missing"):
            weights_from_json(str(path))
        path.write_text(
            '{"bias": 0, "w_latency": 1, "w_loss": 1, "w_jitter": 0, "extra": 2}'
        )
        with pytest.raises(ValueError, match="unknown"):
            weights_from_json(str(path))
