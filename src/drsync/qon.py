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
numbers can be regenerated and audited.

Actions: when the score crosses the decision threshold, a session on a
recoverable connection is reconnected automatically; otherwise the player
gets a heads-up message about their network.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

import numpy as np

from . import spec

# Feature normalization constants shared by scoring and fitting.
RTT_SCALE_MS = 500.0
JITTER_SCALE_MS = 100.0

DECISION_THRESHOLD = 0.5
PREMATURE_WINDOW_MIN = 5
LATENCY_KNEE_MS = 100.0


@dataclass(frozen=True)
class SessionMetrics:
    """Connection quality observed over one session."""

    rtt_mean_ms: float
    rtt_jitter_ms: float
    loss_rate: float
    elapsed_min: float

    def __post_init__(self) -> None:
        # Plain checks, not spec rules: one is built per session row.  The
        # chained comparisons also reject NaN.
        if not 0.0 <= self.rtt_mean_ms < math.inf:
            raise ValueError(f"rtt_mean_ms must be in [0, inf), got {self.rtt_mean_ms}")
        if not 0.0 <= self.rtt_jitter_ms < math.inf:
            raise ValueError(
                f"rtt_jitter_ms must be in [0, inf), got {self.rtt_jitter_ms}"
            )
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        if not 0.0 <= self.elapsed_min < math.inf:
            raise ValueError(f"elapsed_min must be in [0, inf), got {self.elapsed_min}")


@dataclass(frozen=True)
class ChurnModelParams:
    """Ground-truth quit model: q = clamp(q0 + a*loss + b*max(0, rtt-knee)/100)."""

    q0: float
    a: float
    b: float
    latency_knee_ms: float = LATENCY_KNEE_MS
    premature_window_min: int = PREMATURE_WINDOW_MIN


def quit_probability(params: ChurnModelParams, m: SessionMetrics) -> float:
    """Per-minute probability that this session's player quits."""
    q = (
        params.q0
        + params.a * m.loss_rate
        + params.b * max(0.0, m.rtt_mean_ms - params.latency_knee_ms) / 100.0
    )
    return min(1.0, max(0.0, q))


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
    """Premature-quit risk in (0, 1)."""
    f_lat, f_loss, f_jit = _features(m)
    z = w.bias + w.w_latency * f_lat + w.w_loss * f_loss + w.w_jitter * f_jit
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
    x = np.array(
        [(1.0, *_features(m)) for m, _ in labeled], dtype=float
    )  # bias column first
    y = np.array([1.0 if quit else 0.0 for _, quit in labeled], dtype=float)
    return x, y


def _unpack(w: PredictorWeights) -> np.ndarray:
    return np.array([w.bias, w.w_latency, w.w_loss, w.w_jitter], dtype=float)


def _pack(v: np.ndarray) -> PredictorWeights:
    return PredictorWeights(
        bias=float(v[0]), w_latency=float(v[1]), w_loss=float(v[2]), w_jitter=float(v[3])
    )


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
    z = x @ _unpack(w)
    p = 1.0 / (1.0 + np.exp(-z))
    grad = x.T @ (p - y) / len(labeled)
    return _pack(grad)


def fit_weights(
    labeled: list[LabeledSession],
    learn_rate: float = 1.0,
    epochs: int = 2000,
) -> PredictorWeights:
    """Fit predictor weights by full-batch gradient descent from zero init.

    Deterministic: same data and hyperparameters give identical weights.
    Refuses degenerate datasets (empty, or only one label present) because
    the loss would push weights to infinity or the fit would be vacuous.
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
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")

    x, y = _design_matrix(labeled)
    v = np.zeros(4, dtype=float)
    n = len(labeled)
    for _ in range(epochs):
        z = x @ v
        p = 1.0 / (1.0 + np.exp(-z))
        v -= learn_rate * (x.T @ (p - y) / n)
    return _pack(v)


# Parameters behind the committed default weights (see calibrate_default_weights).
CALIBRATION_PARAMS = ChurnModelParams(q0=0.005, a=1.2, b=0.12)
CALIBRATION_SEED = 20260815
CALIBRATION_SESSIONS = 1000


def generate_labeled_sessions(
    n: int, seed: int, params: ChurnModelParams = CALIBRATION_PARAMS
) -> list[LabeledSession]:
    """Synthesize labeled sessions from the ground-truth quit model.

    Half the population gets clean connections, half impaired ones, so both
    labels are well represented.  A session is labeled True when the
    per-minute quit draw fires within the premature window.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = random.Random(seed)
    sessions: list[LabeledSession] = []
    for _ in range(n):
        if rng.random() < 0.5:
            m = SessionMetrics(
                rtt_mean_ms=rng.uniform(20.0, 120.0),
                rtt_jitter_ms=rng.uniform(0.0, 30.0),
                loss_rate=rng.uniform(0.0, 0.05),
                elapsed_min=0.0,
            )
        else:
            m = SessionMetrics(
                rtt_mean_ms=rng.uniform(150.0, 400.0),
                rtt_jitter_ms=rng.uniform(20.0, 100.0),
                loss_rate=rng.uniform(0.05, 0.4),
                elapsed_min=0.0,
            )
        quit_early = False
        elapsed = params.premature_window_min
        for minute in range(1, params.premature_window_min + 1):
            if ground_truth_quit(params, m, rng):
                quit_early = True
                elapsed = minute
                break
        sessions.append(
            (
                SessionMetrics(
                    rtt_mean_ms=m.rtt_mean_ms,
                    rtt_jitter_ms=m.rtt_jitter_ms,
                    loss_rate=m.loss_rate,
                    elapsed_min=float(elapsed),
                ),
                quit_early,
            )
        )
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
_SESSION_FIELDS = (*_METRICS_FIELDS, "quit_premature")


def write_sessions_csv(sessions: list[LabeledSession], path: str) -> None:
    """Write ``rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,quit_premature``."""
    flag = spec.FLAG_TEXT
    rows = (
        (m.rtt_mean_ms, m.rtt_jitter_ms, m.loss_rate, m.elapsed_min, flag[quit_early])
        for m, quit_early in sessions
    )
    spec.write_csv(path, _SESSION_FIELDS, rows)


def _metrics(row: list[str]) -> SessionMetrics:
    return SessionMetrics(float(row[0]), float(row[1]), float(row[2]), float(row[3]))


def read_sessions_csv(path: str) -> list[LabeledSession]:
    """Inverse of :func:`write_sessions_csv`."""
    return spec.read_csv(
        path, {_SESSION_FIELDS: lambda row: (_metrics(row), spec.flag(row[4]))}
    )


def read_metrics_csv(path: str) -> list[tuple[SessionMetrics, bool | None]]:
    """Read unlabeled metrics; an optional ``connectivity_recoverable`` column rides along."""
    return spec.read_csv(
        path,
        {
            _METRICS_FIELDS: lambda row: (_metrics(row), None),
            (*_METRICS_FIELDS, "connectivity_recoverable"): lambda row: (
                _metrics(row),
                spec.flag(row[4]),
            ),
        },
    )


def weights_to_dict(w: PredictorWeights) -> dict:
    return spec.dump(w)


def weights_to_json(w: PredictorWeights, path: str) -> None:
    spec.write_json(weights_to_dict(w), path)


def weights_from_json(path: str) -> PredictorWeights:
    return spec.parse(PredictorWeights, spec.load_json(path))
