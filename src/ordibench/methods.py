"""Loss families for ordinal heads: target encodings, loss values, and
analytic gradients with respect to the raw head outputs.

Nine families are implemented. Five of them score a categorical
distribution over the labels (cross-entropy, two soft-target variants, a
mean-variance penalty, a unimodality penalty), two reduce the problem to
binary threshold classifiers (independent or with a shared consistency
score), one regresses a normalized scalar, and the remaining soft-target
variant adds an expectation anchor. Every loss returns LossEval(value,
grad) where grad matches the head output elementwise; gradients are what
the trainer backpropagates, so each formula here is paired with a
finite-difference check in the test suite.

Every loss takes either one head-output row or an (n, head) batch of rows
(with one label index or age per row). There is one implementation: a
single row runs the same array code as a batch, on its last axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LabelSet

__all__ = [
    "FAMILIES",
    "DISTRIBUTION_FAMILIES",
    "THRESHOLD_FAMILIES",
    "MethodConfig",
    "LossEval",
    "TargetDistribution",
    "softmax",
    "log_softmax",
    "sigmoid",
    "ce_loss",
    "l1_regression_loss",
    "ebc_encode",
    "ebc_loss",
    "coral_scores",
    "one_hot_target",
    "dldl_target",
    "sord_target",
    "soft_ce_loss",
    "dldlv2_loss",
    "meanvar_loss",
    "unimodal_penalty",
    "unimodal_loss",
    "expectation",
    "variance",
    "loss_eval",
]

FAMILIES = (
    "cross-entropy",
    "regression",
    "or-cnn",
    "coral",
    "dldl",
    "dldl-v2",
    "sord",
    "mean-variance",
    "unimodal",
)
# Families whose head parameterizes a softmax over the K labels.
DISTRIBUTION_FAMILIES = ("cross-entropy", "dldl", "dldl-v2", "sord", "mean-variance", "unimodal")
# Families whose head parameterizes K-1 binary threshold scores.
THRESHOLD_FAMILIES = ("or-cnn", "coral")


@dataclass(frozen=True)
class MethodConfig:
    """One compared method: a loss family plus its hyperparameters.

    The defaults below are the settings used throughout the bundled
    experiments; they are deliberate choices of this toolkit, not tuned
    per dataset.
    """

    family: str
    sigma: float = 1.0          # dldl / dldl-v2 target width, in label units
    alpha: float = 1.0          # sord decay rate, in label units
    lambda_expect: float = 1.0  # dldl-v2 expectation anchor weight
    lambda_mean: float = 0.2    # mean-variance squared-mean weight
    lambda_var: float = 0.05    # mean-variance variance weight
    lambda_uni: float = 1.0     # unimodality hinge weight
    name: Optional[str] = None  # display name; defaults to the family

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown method family {self.family!r}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        for attr in ("lambda_expect", "lambda_mean", "lambda_var", "lambda_uni"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")

    @property
    def display_name(self) -> str:
        return self.name if self.name else self.family

    def head_size(self, n_labels: int) -> int:
        """Width of the model head this family expects for K labels."""
        if n_labels < 1:
            raise ValueError("n_labels must be >= 1")
        if self.family in DISTRIBUTION_FAMILIES:
            return n_labels
        if self.family in THRESHOLD_FAMILIES:
            if n_labels < 2:
                raise ValueError(f"{self.family} needs at least 2 labels")
            return n_labels - 1
        return 1

    def to_dict(self) -> dict:
        out: dict = {"family": self.family}
        if self.name:
            out["name"] = self.name
        defaults = MethodConfig(family=self.family)
        for attr in ("sigma", "alpha", "lambda_expect", "lambda_mean", "lambda_var", "lambda_uni"):
            if getattr(self, attr) != getattr(defaults, attr):
                out[attr] = getattr(self, attr)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "MethodConfig":
        allowed = {
            "family", "sigma", "alpha", "lambda_expect",
            "lambda_mean", "lambda_var", "lambda_uni", "name",
        }
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(f"unknown method option(s): {sorted(unknown)}")
        if "family" not in payload:
            raise ValueError("method entry needs a 'family'")
        return cls(**payload)


def _unwrap(x):
    """A float for a single row's 0-d result, the (n,) array for a batch."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass
class LossEval:
    """A loss value and its gradient with respect to the head outputs.

    For one row, value is a float and grad has the head's shape; for an
    (n, head) batch, value is an (n,) array of per-row losses and grad is
    (n, head).
    """

    value: float | np.ndarray
    grad: np.ndarray

    def __post_init__(self) -> None:
        self.value = _unwrap(self.value)


@dataclass(frozen=True)
class TargetDistribution:
    """A normalized soft label over the label set."""

    probs: np.ndarray
    origin: str
    param: Optional[float] = None

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) < 1:
            raise ValueError("target must be a 1-d probability vector")
        if np.any(p < 0):
            raise ValueError("target has negative mass")
        s = p.sum()
        if not np.isfinite(s) or s <= 0:
            raise ValueError("target mass must be positive and finite")
        p = p / s
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)


def _as_logits(logits) -> np.ndarray:
    """One head-output row (head,) or a batch of rows (n, head), all finite."""
    z = np.asarray(logits, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] < 1:
        raise ValueError("logits must be a non-empty 1-d row or a 2-d batch of rows")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    return z


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of matching rows (b may be one row shared by all of a).

    A stacked matmul of (1, K) by (K, 1) runs the same BLAS dot per row as a
    1-d `a @ b`, so a batch gets bitwise the values of its rows one by one.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _one_hot(t: np.ndarray, n_labels: int) -> np.ndarray:
    return (np.arange(n_labels) == t[..., None]).astype(float)


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax of a logit row, or of each row of a batch."""
    z = _as_logits(logits)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits) -> np.ndarray:
    z = _as_logits(logits)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1)
    return m + np.log(np.exp(z - m[..., None]).sum(axis=-1))


def sigmoid(x):
    """Elementwise logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_index(index, n: int) -> np.ndarray:
    """Label index (or array of indices) as integers, each within [0, n)."""
    idx = np.asarray(index).astype(np.int64)
    if np.any((idx < 0) | (idx >= n)):
        raise IndexError(f"label index {index} out of range for {n} labels")
    return idx


def ce_loss(logits, true_index) -> LossEval:
    """Categorical cross-entropy on softmax probabilities.

    This is soft_ce_loss against a one-hot target; the target's dot product
    with the logits picks out the true label's logit exactly.
    """
    z = _as_logits(logits)
    return soft_ce_loss(z, _one_hot(_check_index(true_index, z.shape[-1]), z.shape[-1]))


def l1_regression_loss(output, target) -> LossEval:
    """Absolute error of a scalar head against a (normalized) target age.

    The gradient is the sign of the residual; at zero residual the
    subgradient 0 is returned.
    """
    diff = np.asarray(output, dtype=float) - np.asarray(target, dtype=float)
    return LossEval(np.abs(diff), np.sign(diff)[..., None])


def ebc_encode(true_index, n_labels: int) -> np.ndarray:
    """Extended binary targets: entry k answers "is the label above rank k?"."""
    if n_labels < 2:
        raise ValueError("threshold encoding needs at least 2 labels")
    t = _check_index(true_index, n_labels)
    return (t[..., None] > np.arange(n_labels - 1)).astype(float)


def _bce_with_logits(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    # max(z,0) - z*t + log1p(exp(-|z|)) is exact and never overflows
    return np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))


def ebc_loss(head_logits, targets) -> LossEval:
    """Sum of binary cross-entropies over the K-1 threshold subproblems."""
    z = _as_logits(head_logits)
    t = np.asarray(targets, dtype=float)
    if t.shape != z.shape:
        raise ValueError(f"targets shape {t.shape} != logits shape {z.shape}")
    if np.any((t < 0) | (t > 1)):
        raise ValueError("threshold targets must lie in [0, 1]")
    return LossEval(_bce_with_logits(z, t).sum(axis=-1), sigmoid(z) - t)


def coral_scores(shared_score: float, biases) -> np.ndarray:
    """Threshold probabilities from one shared score and per-threshold biases.

    Because every threshold shares the same score, the resulting
    probabilities are ordered exactly like the biases, which makes the
    decoded rank consistent by construction.
    """
    b = np.asarray(biases, dtype=float)
    if b.ndim != 1 or len(b) < 1:
        raise ValueError("biases must be a non-empty 1-d vector")
    return sigmoid(float(shared_score) + b)


def one_hot_target(true_index: int, n_labels: int) -> TargetDistribution:
    return TargetDistribution(probs=_one_hot(_check_index(true_index, n_labels), n_labels),
                              origin="one-hot")


def _target_weights(origin: str, t: np.ndarray, y: np.ndarray, width: float) -> np.ndarray:
    """Unnormalized soft-label weights around label index t, peak 1 per row.

    origin "normal" is a discretized normal of standard deviation width;
    "double-exponential" decays at rate width with label distance.
    """
    dist = y - y[t][..., None]
    if origin == "normal":
        expo = -(dist ** 2) / (2.0 * width * width)
    else:
        expo = -width * np.abs(dist)
    return np.exp(expo - expo.max(axis=-1, keepdims=True))


def dldl_target(true_index: int, label_set: LabelSet, sigma: float) -> TargetDistribution:
    """Discretized normal target centred on the true label (width sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    y = label_set.as_array()
    w = _target_weights("normal", _check_index(true_index, len(y)), y, sigma)
    return TargetDistribution(probs=w, origin="normal", param=float(sigma))


def sord_target(true_index: int, label_set: LabelSet, alpha: float) -> TargetDistribution:
    """Double-exponential target decaying with label distance (rate alpha)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    y = label_set.as_array()
    w = _target_weights("double-exponential", _check_index(true_index, len(y)), y, alpha)
    return TargetDistribution(probs=w, origin="double-exponential", param=float(alpha))


def _target_probs(target) -> np.ndarray:
    return np.asarray(getattr(target, "probs", target), dtype=float)


def soft_ce_loss(logits, target) -> LossEval:
    """Cross-entropy against a soft target distribution (one per row)."""
    z = _as_logits(logits)
    q = _target_probs(target)
    if q.shape != z.shape:
        raise ValueError(f"target shape {q.shape} != logits shape {z.shape}")
    return LossEval(_logsumexp(z) - _rowdot(q, z), softmax(z) - q)


def _moments(probs, label_set: LabelSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and variance of the label under each posterior row, and label - mean."""
    p = np.asarray(probs, dtype=float)
    y = label_set.as_array()
    if p.shape[-1:] != y.shape:
        raise ValueError(f"posterior length {p.shape} != label count {y.shape}")
    e = _rowdot(p, y)
    dev = y - e[..., None]
    return e, _rowdot(p, dev ** 2), dev


def expectation(probs, label_set: LabelSet):
    """Mean label value under a posterior (per row for a batch)."""
    return _unwrap(_moments(probs, label_set)[0])


def variance(probs, label_set: LabelSet):
    return _unwrap(_moments(probs, label_set)[1])


def dldlv2_loss(logits, target, label_set: LabelSet, true_age,
                lambda_expect: float = 1.0) -> LossEval:
    """Soft cross-entropy plus an absolute anchor on the expected label.

    The anchor term |E[label] - age| couples the whole distribution to the
    scalar prediction it implies; its subgradient at a zero residual is 0.
    """
    z = _as_logits(logits)
    base = soft_ce_loss(z, target)
    p = softmax(z)
    e, _, dev = _moments(p, label_set)
    diff = e - np.asarray(true_age, dtype=float)
    value = base.value + lambda_expect * np.abs(diff)
    grad = base.grad + (lambda_expect * np.sign(diff))[..., None] * p * dev
    return LossEval(value, grad)


def meanvar_loss(logits, true_index, label_set: LabelSet,
                 lambda_mean: float = 0.2, lambda_var: float = 0.05) -> LossEval:
    """Cross-entropy plus squared-mean and variance penalties.

    value = ce + (lambda_mean / 2) (E[label] - y)^2 + lambda_var Var[label].
    Both penalty gradients flow analytically through the softmax.
    """
    z = _as_logits(logits)
    t = _check_index(true_index, z.shape[-1])
    base = ce_loss(z, t)
    p = softmax(z)
    e, var, dev = _moments(p, label_set)
    miss = e - label_set.as_array()[t]
    value = base.value + 0.5 * lambda_mean * miss ** 2 + lambda_var * var
    d_e = p * dev                            # gradient of E[label] wrt logits
    d_var = p * (dev ** 2 - var[..., None])  # gradient of Var[label] wrt logits
    grad = base.grad + ((lambda_mean * miss)[..., None] * d_e + lambda_var * d_var)
    return LossEval(value, grad)


def _unimodal_hinges(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unimodality violation around mode t per row, and its gradient wrt p.

    Mass must not fall before the mode nor rise after it; each adjacent pair
    stepping the wrong way contributes its gap.
    """
    rise = p[..., 1:] - p[..., :-1]
    wrong_way = np.where(np.arange(p.shape[-1] - 1) < t[..., None], -1.0, 1.0)
    gap = wrong_way * rise
    active = np.where(gap > 0, wrong_way, 0.0)
    g = np.zeros_like(p)
    g[..., :-1] -= active
    g[..., 1:] += active
    return np.maximum(gap, 0.0).sum(axis=-1), g


def unimodal_penalty(probs, mode_index):
    """Total hinge violation of unimodality around the given mode.

    Mass must be non-decreasing up to the mode and non-increasing after it;
    every adjacent pair violating that contributes its gap.
    """
    p = np.asarray(probs, dtype=float)
    return _unwrap(_unimodal_hinges(p, _check_index(mode_index, p.shape[-1]))[0])


def unimodal_loss(logits, true_index, lambda_uni: float = 1.0) -> LossEval:
    """Cross-entropy plus a hinge penalty on non-unimodal posteriors.

    The penalty is piecewise linear in the probabilities, so the returned
    gradient is a subgradient; at points where a hinge is exactly zero the
    inactive branch is used.
    """
    z = _as_logits(logits)
    t = _check_index(true_index, z.shape[-1])
    base = ce_loss(z, t)
    p = softmax(z)
    penalty, g = _unimodal_hinges(p, t)
    value = base.value + lambda_uni * penalty
    # softmax Jacobian applied to d(penalty)/d(probs)
    grad = base.grad + lambda_uni * p * (g - _rowdot(p, g)[..., None])
    return LossEval(value, grad)


def _regression_outputs(head_out) -> np.ndarray:
    """The scalar output of a regression head: 0-d for one row, (n,) for a batch."""
    out = np.asarray(head_out, dtype=float)
    if out.ndim < 2:
        out = out.reshape(-1)
    if out.ndim > 2 or out.shape[-1] != 1:
        raise ValueError("regression head must produce exactly 1 output")
    return out[..., 0]


def loss_eval(config: MethodConfig, head_out, ages, label_set: LabelSet) -> LossEval:
    """Loss of one head-output row and its age, or of an (n, head) batch.

    A single row (with a scalar age) gives a float value and a (head,)
    gradient; a batch (with an (n,) age array) gives per-row values (n,) and
    gradients (n, head). For regression the target is the age normalized to
    [0, 1] over the label range; for every other family the integer label
    index is used.
    """
    family = config.family
    ages = np.asarray(ages, dtype=float)
    if family == "regression":
        return l1_regression_loss(_regression_outputs(head_out), label_set.normalize(ages))

    t = label_set.indices_of(ages)
    if family == "cross-entropy":
        return ce_loss(head_out, t)
    if family in THRESHOLD_FAMILIES:
        return ebc_loss(head_out, ebc_encode(t, len(label_set)))
    if family == "mean-variance":
        return meanvar_loss(head_out, t, label_set, config.lambda_mean, config.lambda_var)
    if family == "unimodal":
        return unimodal_loss(head_out, t, config.lambda_uni)
    if family in ("dldl", "dldl-v2", "sord"):
        origin, width = (("double-exponential", config.alpha) if family == "sord"
                         else ("normal", config.sigma))
        w = _target_weights(origin, t, label_set.as_array(), width)
        q = w / w.sum(axis=-1, keepdims=True)
        if family == "dldl-v2":
            return dldlv2_loss(head_out, q, label_set, ages, config.lambda_expect)
        return soft_ce_loss(head_out, q)
    raise ValueError(f"unknown method family {family!r}")
