"""Network-quality churn: ground-truth quit model, risk predictor, actions.

Ground truth: a session's per-minute quit probability grows linearly with
loss rate and with round-trip latency beyond a knee, clamped to [0, 1].  A
player "quits prematurely" when that happens within the first few minutes of
a session.

Predictor: a logistic score over normalized session metrics (RTT scaled by
500 ms, jitter by 100 ms, loss as-is), fitted by deterministic full-batch
gradient descent on mean log-loss.  The default weights were produced by
:func:`calibrate_default_weights` (fixed dataset seed and hyperparameters)
and are committed as constants; the calibration function stays here so the
numbers can be regenerated and audited.  The fit works on columns: numpy
parses the sessions CSV a block at a time, and each epoch of the descent
writes into the same two buffers, one operation of the gradient's formula
at a time, so the weights keep their bits.

Actions: when the score crosses the decision threshold, a session on a
recoverable connection is reconnected automatically; otherwise the player
gets a heads-up message about their network.
"""

from __future__ import annotations

import enum
import functools
import gc
import itertools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spec
from .rng import check_seed

# Feature normalization constants shared by scoring and fitting.
RTT_SCALE_MS = 500.0
JITTER_SCALE_MS = 100.0

DECISION_THRESHOLD = 0.5
PREMATURE_WINDOW_MIN = 5
LATENCY_KNEE_MS = 100.0
# The most epochs fit_weights runs: 50 times the default.  The default 2,000
# epochs on 20,000 sessions take about 0.4 s.
MAX_EPOCHS = 100_000
# The most sessions times epochs fit_weights runs: 12.5 times 20,000
# sessions at the default 2,000 epochs.  On 2 vCPUs of a Xeon the descent
# took 10-13 ns a session-epoch from 20,000 to 1,000,000 sessions, and the
# design matrix 0.45 us a session.  At the cap, `drsync fit` took 6.5-6.8 s
# on 250,000 sessions at 2,000 epochs and 6.4 s on 5,000 at MAX_EPOCHS.
MAX_FIT_STEPS = 500_000_000


class SessionMetrics(NamedTuple):
    """Connection quality observed over one session; the CSV readers check
    what they read (:func:`_metrics_row`), the rest is computed in range."""

    rtt_mean_ms: float
    rtt_jitter_ms: float
    loss_rate: float
    elapsed_min: float


@dataclass(frozen=True)
class ChurnModelParams:
    """Ground-truth quit model: q = clamp(q0 + a*loss + b*max(0, rtt-knee)/100),
    with the knee at :data:`LATENCY_KNEE_MS`."""

    q0: float
    a: float
    b: float


def quit_probability(params: ChurnModelParams, m: SessionMetrics) -> float:
    """Per-minute probability that this session's player quits."""
    # max(0.0, v) and min(1.0, v) as the comparisons the builtins make.
    over = m.rtt_mean_ms - LATENCY_KNEE_MS
    over = over if over > 0.0 else 0.0
    q = params.q0 + params.a * m.loss_rate + params.b * over / 100.0
    q = q if q > 0.0 else 0.0
    return q if q < 1.0 else 1.0


def ground_truth_quit(
    params: ChurnModelParams, m: SessionMetrics, rng: random.Random
) -> bool:
    """Draw one per-minute quit decision."""
    return rng.random() < quit_probability(params, m)


@dataclass(frozen=True)
class PredictorWeights:
    bias: float = spec.field(spec.Real())
    w_latency: float = spec.field(spec.Real())
    w_loss: float = spec.field(spec.Real())
    w_jitter: float = spec.field(spec.Real())

    __post_init__ = spec.check


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _features(m: SessionMetrics) -> tuple[float, float, float]:
    return (
        m.rtt_mean_ms / RTT_SCALE_MS,
        m.loss_rate,
        m.rtt_jitter_ms / JITTER_SCALE_MS,
    )


def risk_score(w: PredictorWeights, m: SessionMetrics) -> float:
    """Premature-quit risk in [0, 1].

    Raises ``ValueError`` when the weighted sum is undefined: finite but
    huge terms of both signs overflow to ``inf - inf``.
    """
    f_lat, f_loss, f_jit = _features(m)
    z = w.bias + w.w_latency * f_lat + w.w_loss * f_loss + w.w_jitter * f_jit
    if math.isnan(z):
        raise ValueError("risk score undefined: weighted metrics sum to inf - inf")
    return _sigmoid(z)


class Action(enum.Enum):
    NONE = "none"
    REACTIVATE_AUTO = "reactivate_auto"
    NOTIFY_MESSAGE = "notify_message"


def decide_action(
    score: float, threshold: float, connectivity_recoverable: bool
) -> Action:
    """Map a risk score to an intervention.

    Below the threshold nothing happens; above it, a recoverable connection
    is reconnected automatically, an unrecoverable one earns the player a
    network-quality notice.
    """
    if score < threshold:
        return Action.NONE
    if connectivity_recoverable:
        return Action.REACTIVATE_AUTO
    return Action.NOTIFY_MESSAGE


@dataclass(frozen=True)
class RiskAssessment:
    score: float
    premature_flag: bool
    action: Action


def assess(
    w: PredictorWeights,
    m: SessionMetrics,
    connectivity_recoverable: bool,
    threshold: float = DECISION_THRESHOLD,
) -> RiskAssessment:
    """Score a session and decide what, if anything, to do about it."""
    score = risk_score(w, m)
    flagged = score >= threshold
    action = decide_action(score, threshold, connectivity_recoverable)
    return RiskAssessment(score=score, premature_flag=flagged, action=action)


LabeledSession = tuple[SessionMetrics, bool]


def _design_matrix(labeled: list[LabeledSession]) -> tuple[np.ndarray, np.ndarray]:
    """The C-ordered ``(n, 4)`` features, bias column first, and the labels.

    The metrics go through one ``np.fromiter``, and the RTT and jitter
    columns are divided by their scales as :func:`_features` divides each.
    """
    n = len(labeled)
    metrics = np.fromiter(
        itertools.chain.from_iterable(m for m, _ in labeled), float, 4 * n
    ).reshape(n, 4)
    x = np.empty((n, 4))
    x[:, 0] = 1.0
    np.divide(metrics[:, 0], RTT_SCALE_MS, out=x[:, 1])
    x[:, 2] = metrics[:, 2]
    np.divide(metrics[:, 1], JITTER_SCALE_MS, out=x[:, 3])
    y = np.fromiter((1.0 if quit else 0.0 for _, quit in labeled), float, n)
    return x, y


def _unpack(w: PredictorWeights) -> np.ndarray:
    return np.array([w.bias, w.w_latency, w.w_loss, w.w_jitter], dtype=float)


def _pack(v: np.ndarray) -> PredictorWeights:
    return PredictorWeights(*map(float, v))


def log_loss(w: PredictorWeights, labeled: list[LabeledSession]) -> float:
    """Mean logistic log-loss of the weights on a labeled dataset."""
    if not labeled:
        raise ValueError("cannot evaluate log-loss on an empty dataset")
    x, y = _design_matrix(labeled)
    z = x @ _unpack(w)
    # log(1 + e^z) - y*z, computed without overflow
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def log_loss_gradient(
    w: PredictorWeights, labeled: list[LabeledSession]
) -> PredictorWeights:
    """Exact gradient of :func:`log_loss` with respect to each weight."""
    if not labeled:
        raise ValueError("cannot evaluate gradient on an empty dataset")
    x, y = _design_matrix(labeled)
    g = np.empty(4)
    _gradient(x, y, _unpack(w), np.empty(len(y)), g)
    return _pack(g)


# The most rows of one matmul in the gradient's ``x.T @ r``.  OpenBLAS may
# split a longer product among its threads, which changes the sum's order:
# on a 2-vCPU Xeon the bits followed OPENBLAS_NUM_THREADS from 131,072 rows
# up, and never up to 100,000 rows.
_GRADIENT_ROWS = 2**15


def _gradient(
    x: np.ndarray, y: np.ndarray, v: np.ndarray, r: np.ndarray, g: np.ndarray
) -> None:
    """Write the gradient of the mean log-loss at ``v`` into ``g``.

    ``r`` is scratch, an ``n``-vector.  Each step is one operation of
    ``x.T @ (1.0 / (1.0 + np.exp(-(x @ v))) - y) / n``, in that order, so
    the bits do not depend on the buffers; ``x.T`` stays a view, which
    keeps ``matmul`` on the same BLAS kernel.  ``x.T @ r`` is the sum, in
    order, of one matmul per ``_GRADIENT_ROWS`` rows, so that its bits do
    not depend on BLAS's thread count; up to that many rows it is one call.
    """
    np.matmul(x, v, out=r)
    np.negative(r, out=r)
    np.exp(r, out=r)
    np.add(1.0, r, out=r)
    np.divide(1.0, r, out=r)
    np.subtract(r, y, out=r)
    np.matmul(x[:_GRADIENT_ROWS].T, r[:_GRADIENT_ROWS], out=g)
    for start in range(_GRADIENT_ROWS, len(y), _GRADIENT_ROWS):
        rows = slice(start, start + _GRADIENT_ROWS)
        np.add(g, x[rows].T @ r[rows], out=g)
    np.divide(g, len(y), out=g)


def fit_weights(
    labeled: list[LabeledSession],
    learn_rate: float = 1.0,
    epochs: int = 2000,
    lap: Callable[[str], None] = lambda stage: None,
) -> PredictorWeights:
    """Fit predictor weights by full-batch gradient descent from zero init.

    Deterministic: same data and hyperparameters give identical weights.
    Refuses degenerate datasets (empty, or only one label present) because
    the loss would push weights to infinity or the fit would be vacuous, and
    raises when the descent diverges (the learn rate is too large).  Each
    epoch writes into the same two buffers.  ``lap`` is called with
    ``"design"`` once the design matrix is built, and with ``"descent"``
    after the last epoch.
    """
    if not labeled:
        raise ValueError("cannot fit weights on an empty dataset")
    labels = {quit for _, quit in labeled}
    if len(labels) < 2:
        raise ValueError(
            "degenerate dataset: both quitting and staying sessions are required"
        )
    if not 0 < learn_rate < math.inf:
        raise ValueError(f"learn_rate must be finite and > 0, got {learn_rate}")
    if not 1 <= epochs <= MAX_EPOCHS:
        raise ValueError(
            f"epochs must be in [1, MAX_EPOCHS ({MAX_EPOCHS})], got {epochs}"
        )
    if len(labeled) * epochs > MAX_FIT_STEPS:
        raise ValueError(
            f"sessions * epochs must be <= MAX_FIT_STEPS ({MAX_FIT_STEPS}), "
            f"got {len(labeled)} * {epochs} = {len(labeled) * epochs}"
        )

    x, y = _design_matrix(labeled)
    lap("design")
    v = np.zeros(4, dtype=float)
    r, g = np.empty(len(y)), np.empty(4)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            _gradient(x, y, v, r, g)
            np.multiply(learn_rate, g, out=g)
            np.subtract(v, g, out=v)
    lap("descent")
    if not np.isfinite(v).all():
        raise ValueError(f"fit diverged: learn_rate {learn_rate!r} is too large")
    return _pack(v)


# Parameters behind the committed default weights (see calibrate_default_weights).
CALIBRATION_PARAMS = ChurnModelParams(q0=0.005, a=1.2, b=0.12)
CALIBRATION_SEED = 20260815
CALIBRATION_SESSIONS = 1000


def generate_labeled_sessions(n: int, seed: int) -> list[LabeledSession]:
    """Synthesize labeled sessions from the :data:`CALIBRATION_PARAMS` quit model.

    Half the population gets clean connections, half impaired ones, so both
    labels are well represented.  A session is labeled True when the
    per-minute quit draw fires within the premature window; ``seed`` must
    keep :data:`drsync.rng.SEED`.  The loop writes out ``rng.uniform`` and
    :func:`ground_truth_quit`, taking :func:`quit_probability` once a session.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_seed(seed)
    q0, a, b = CALIBRATION_PARAMS.q0, CALIBRATION_PARAMS.a, CALIBRATION_PARAMS.b
    minutes = [float(minute) for minute in range(1, PREMATURE_WINDOW_MIN + 1)]
    draw = random.Random(seed).random
    sessions: list[LabeledSession] = []
    for _ in range(n):
        if draw() < 0.5:
            rtt = 20.0 + (120.0 - 20.0) * draw()
            jitter = 0.0 + (30.0 - 0.0) * draw()
            loss = 0.0 + (0.05 - 0.0) * draw()
        else:
            rtt = 150.0 + (400.0 - 150.0) * draw()
            jitter = 20.0 + (100.0 - 20.0) * draw()
            loss = 0.05 + (0.4 - 0.05) * draw()
        over = rtt - LATENCY_KNEE_MS
        over = over if over > 0.0 else 0.0
        q = q0 + a * loss + b * over / 100.0
        q = q if q > 0.0 else 0.0
        q = q if q < 1.0 else 1.0
        for minute in minutes:
            if draw() < q:
                sessions.append((_new_metrics((rtt, jitter, loss, minute)), True))
                break
        else:  # no quit: minute is the window's last
            sessions.append((_new_metrics((rtt, jitter, loss, minute)), False))
    return sessions


def calibrate_default_weights() -> PredictorWeights:
    """Regenerate the committed default weights from first principles."""
    data = generate_labeled_sessions(CALIBRATION_SESSIONS, CALIBRATION_SEED)
    return fit_weights(data)


# Output of calibrate_default_weights(); regenerated and checked by the tests.
DEFAULT_WEIGHTS = PredictorWeights(
    bias=-2.537998745485682,
    w_latency=5.600347509421786,
    w_loss=9.133972976533196,
    w_jitter=0.5122179951169554,
)


_METRICS_FIELDS = ("rtt_mean_ms", "rtt_jitter_ms", "loss_rate", "elapsed_min")
# Each metric's top: a metric read from a CSV must be finite and in [0, top].
_METRIC_TOPS = (math.inf, math.inf, 1.0, math.inf)
_SESSION_FIELDS = (*_METRICS_FIELDS, "quit_premature")


def write_sessions_csv(sessions: list[LabeledSession], path: str) -> None:
    """Write ``rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,quit_premature``."""
    metrics, quit_early = spec.transpose(sessions, 2)
    columns = spec.transpose(metrics, len(_METRICS_FIELDS))
    spec.write_csv(path, _SESSION_FIELDS, [*columns, spec.flags(quit_early)])


def _metrics_row(row: list[str]) -> tuple:
    """The metrics of one CSV row, each checked against :data:`_METRIC_TOPS`
    (the comparisons reject NaN), and its flag's text, checked."""
    metrics = tuple(map(float, row[:4]))
    for name, top, v in zip(_METRICS_FIELDS, _METRIC_TOPS, metrics):
        if not (0.0 <= v <= top and v < math.inf):
            span = "[0, inf)" if top == math.inf else f"[0, {top:g}]"
            raise ValueError(f"{name} must be in {span}, got {v}")
    if row[4:]:
        spec.flag(row[4])
    return (*metrics, *row[4:])


# A metrics or sessions CSV row's fields as numpy parses them, in order.
_FIELD_TYPES = [np.float64] * 4 + [spec.text_field(spec.FLAG_TEXTS)]
# Builds a SessionMetrics from a tuple without NamedTuple._make's length
# check, which cost more than the rest of a block's conversion.
_new_metrics = functools.partial(tuple.__new__, SessionMetrics)


def _metric_columns(block: np.ndarray) -> list[np.ndarray]:
    """The columns of one parsed block, each checked as :func:`_metrics_row`
    checks a row; a failed check raises ``ValueError``."""
    columns = [block[name] for name in block.dtype.names]
    for v, top in zip(columns, _METRIC_TOPS):
        if not ((0.0 <= v) & (v <= top) & (v < math.inf)).all():
            raise ValueError("a metric is out of range")
    return columns[:4] + [spec.codes(c, spec.FLAG_TEXTS) for c in columns[4:]]


def _sessions(*columns: np.ndarray) -> list[tuple[SessionMetrics, bool | None]]:
    """Each row's metrics and its flag, or None if it has none."""
    metrics = map(_new_metrics, zip(*(c.tolist() for c in columns[:4])))
    flags = columns[4].tolist() if columns[4:] else itertools.repeat(None)
    return list(zip(metrics, flags))


def _read_metrics(path: str, headers: tuple) -> list:
    """The rows of a file with one of ``headers``, as :func:`_sessions`
    gives them.  The rows make three tuples each, none of which can be part
    of a cycle, so the cyclic collector is paused while they are read and
    built: it took an eighth of the read at 20,000 sessions and a fifth at
    250,000."""
    layouts = {h: (np.dtype([*zip(h, _FIELD_TYPES)]), _metrics_row) for h in headers}
    collecting = gc.isenabled()
    gc.disable()
    try:
        return spec.read_columns(path, layouts, _metric_columns, _sessions)
    finally:
        if collecting:
            gc.enable()


def read_sessions_csv(path: str) -> list[LabeledSession]:
    """Inverse of :func:`write_sessions_csv`."""
    return _read_metrics(path, (_SESSION_FIELDS,))


def read_metrics_csv(path: str) -> list[tuple[SessionMetrics, bool | None]]:
    """Read unlabeled metrics; an optional ``connectivity_recoverable`` column rides along."""
    recoverable = (*_METRICS_FIELDS, "connectivity_recoverable")
    return _read_metrics(path, (_METRICS_FIELDS, recoverable))


def weights_to_dict(w: PredictorWeights) -> dict:
    return spec.dump(w)


def weights_to_json(w: PredictorWeights, path: str) -> None:
    spec.write_json(weights_to_dict(w), path)


def weights_from_json(path: str) -> PredictorWeights:
    return spec.parse(PredictorWeights, spec.load_json(path))
