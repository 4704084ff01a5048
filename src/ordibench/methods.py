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

loss_eval is the one public way to compute a loss, and the one family
dispatch: the trainer, the demos and the gradient check all call it. It
takes one head-output row or a (..., head) batch of rows, such as the
(n, head) rows of one model or the (G, n, head) rows of G models, and every
shape runs the same array code, on the last axis. Each family's
formula is a private kernel (_soft_ce, _ebc, _l1, _dldlv2, _meanvar,
_unimodal) that checks no input. loss_eval takes the targets encode_targets
built, not ages: a run encodes and validates its train fold's targets once,
and each minibatch indexes their rows. The soft targets of dldl, dldl-v2 and
sord come from soft_targets alone: encode_targets builds them and the
acceptance gate checks them, so the targets that are tested are the targets
that are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LabelSet, ValidationError

__all__ = [
    "FAMILIES",
    "DISTRIBUTION_FAMILIES",
    "THRESHOLD_FAMILIES",
    "SHARED_SCORE_FAMILIES",
    "MethodConfig",
    "LossEval",
    "Targets",
    "softmax",
    "sigmoid",
    "ebc_encode",
    "soft_targets",
    "expectation",
    "variance",
    "encode_targets",
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
# Families whose head has one weight column: a single score that each of its
# head_size biases shifts, so the logits stay ordered like the biases. Their
# biases start at the train fold's threshold logits.
SHARED_SCORE_FAMILIES = ("coral",)


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
            raise ValidationError(f"unknown method family {self.family!r}")
        for attr in ("sigma", "alpha", "lambda_expect", "lambda_mean", "lambda_var", "lambda_uni"):
            if not math.isfinite(getattr(self, attr)):
                raise ValidationError(f"{attr} must be finite")
        if self.sigma <= 0:
            raise ValidationError("sigma must be positive")
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")
        for attr in ("lambda_expect", "lambda_mean", "lambda_var", "lambda_uni"):
            if getattr(self, attr) < 0:
                raise ValidationError(f"{attr} must be non-negative")

    @property
    def display_name(self) -> str:
        return self.name if self.name else self.family

    def head_size(self, n_labels: int) -> int:
        """Outputs (biases) of the model head this family expects for K
        labels; the head of a SHARED_SCORE_FAMILIES family has one weight
        column whatever its size, every other head one per output."""
        if n_labels < 1:
            raise ValueError("n_labels must be >= 1")
        if self.family in DISTRIBUTION_FAMILIES:
            return n_labels
        if self.family in THRESHOLD_FAMILIES:
            if n_labels < 2:
                raise ValueError(f"{self.family} needs at least 2 labels")
            return n_labels - 1
        return 1


def _unwrap(x):
    """A float for a single row's 0-d result, the (n,) array for a batch."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass
class LossEval:
    """A loss value and its gradient with respect to the head outputs.

    For one row, value is a float and grad has the head's shape; for a
    (..., head) batch, value is a (...) array of per-row losses and grad is
    (..., head).
    """

    value: float | np.ndarray
    grad: np.ndarray

    def __post_init__(self) -> None:
        self.value = _unwrap(self.value)


def _as_logits(logits) -> np.ndarray:
    """One head-output row (head,) or a batch of rows (..., head), all finite."""
    z = np.asarray(logits, dtype=float)
    if z.ndim < 1 or z.shape[-1] < 1:
        raise ValueError("logits must be a non-empty row or a batch of rows")
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


def _soft_ce(z: np.ndarray, q: np.ndarray) -> tuple[LossEval, np.ndarray]:
    """Cross-entropy of finite logit rows against target rows, and the softmax.

    The log-sum-exp and the softmax share one exp; each takes the values
    that softmax() and a separate log-sum-exp would give.
    """
    m = z.max(axis=-1)
    e = np.exp(z - m[..., None])
    s = e.sum(axis=-1)
    p = e / s[..., None]
    return LossEval(m + np.log(s) - _rowdot(q, z), p - q), p


def sigmoid(x):
    """Elementwise logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) below: never overflows
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_index(index, n: int) -> np.ndarray:
    """Label index (or array of indices) as integers, each within [0, n)."""
    idx = np.asarray(index).astype(np.int64)
    if np.any((idx < 0) | (idx >= n)):
        raise IndexError(f"label index {index} out of range for {n} labels")
    return idx


def _l1(output, target) -> LossEval:
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


def _ebc(z: np.ndarray, t: np.ndarray) -> LossEval:
    return LossEval(_bce_with_logits(z, t).sum(axis=-1), sigmoid(z) - t)


def soft_targets(config: MethodConfig, true_index, label_set: LabelSet) -> np.ndarray:
    """Soft label distribution of the dldl, dldl-v2 and sord families.

    dldl and dldl-v2 use a discretized normal of standard deviation sigma
    around the true label (Gao et al., IJCAI 2018); sord decays as
    exp(-alpha |label distance|) (Diaz & Marathe, CVPR 2019). One label
    index gives a (K,) row, n indices an (n, K) batch; every row sums to one.
    """
    if config.family not in ("dldl", "dldl-v2", "sord"):
        raise ValueError(f"family {config.family!r} has no soft targets")
    y = label_set.as_array()
    dist = y - y[_check_index(true_index, len(y))][..., None]
    if config.family == "sord":
        expo = -config.alpha * np.abs(dist)
    else:
        expo = -(dist ** 2) / (2.0 * config.sigma * config.sigma)
    w = np.exp(expo - expo.max(axis=-1, keepdims=True))  # peak 1 per row
    return w / w.sum(axis=-1, keepdims=True)


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


def _dldlv2(z, q, label_set, true_age, lambda_expect) -> LossEval:
    """Soft cross-entropy plus lambda_expect |E[label] - age|; the anchor's
    subgradient at a zero residual is 0."""
    base, p = _soft_ce(z, q)
    e, _, dev = _moments(p, label_set)
    diff = e - true_age
    value = base.value + lambda_expect * np.abs(diff)
    grad = base.grad + (lambda_expect * np.sign(diff))[..., None] * p * dev
    return LossEval(value, grad)


def _meanvar(z, one_hot, t, label_set, lambda_mean, lambda_var) -> LossEval:
    """ce + (lambda_mean / 2) (E[label] - y)^2 + lambda_var Var[label]."""
    base, p = _soft_ce(z, one_hot)
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


def _unimodal(z, one_hot, t, lambda_uni) -> LossEval:
    """ce + lambda_uni times the hinge penalty; the penalty is piecewise
    linear, so the gradient is a subgradient (inactive branch at a kink)."""
    base, p = _soft_ce(z, one_hot)
    penalty, g = _unimodal_hinges(p, t)
    value = base.value + lambda_uni * penalty
    # softmax Jacobian applied to d(penalty)/d(probs)
    grad = base.grad + lambda_uni * p * (g - _rowdot(p, g)[..., None])
    return LossEval(value, grad)


def _regression_outputs(head_out) -> np.ndarray:
    """The scalar output of a regression head: 0-d for one row, (...) for a
    (..., 1) batch."""
    out = np.asarray(head_out, dtype=float)
    if out.ndim < 2:
        out = out.reshape(-1)
    if out.shape[-1] != 1:
        raise ValueError("regression head must produce exactly 1 output")
    return out[..., 0]


@dataclass(frozen=True)
class Targets:
    """The training targets of one loss family for n ages, or for one age.

    index holds each age's label index (None for regression, whose loss
    needs no label). row is what the loss compares a head-output row with:
    a one-hot or soft distribution over the K labels, the K-1 threshold
    answers, or the age normalised to [0, 1]. Indexing with row positions
    selects those rows.
    """

    index: Optional[np.ndarray]
    row: np.ndarray

    def __getitem__(self, rows) -> "Targets":
        return Targets(None if self.index is None else self.index[rows], self.row[rows])


def encode_targets(config: MethodConfig, ages, label_set: LabelSet) -> Targets:
    """Encode ages (an (n,) array, or one age) into the targets of config's loss.

    Every family but regression needs each age, truncated to whole years,
    in the label set, and raises ValidationError otherwise. The row is
    one-hot for cross-entropy, mean-variance and unimodal, soft_targets for
    dldl, dldl-v2 and sord, ebc_encode for the threshold families, and the
    age normalised over the label range for regression.
    """
    ages = np.asarray(ages, dtype=float)
    if config.family == "regression":
        return Targets(None, np.asarray(label_set.normalize(ages)))
    t = label_set.indices_of(ages)
    if config.family in THRESHOLD_FAMILIES:
        row = ebc_encode(t, len(label_set))
    elif config.family in ("dldl", "dldl-v2", "sord"):
        row = soft_targets(config, t, label_set)
    else:
        row = _one_hot(t, len(label_set))
    return Targets(t, row)


def loss_eval(config: MethodConfig, head_out, targets: Targets, label_set: LabelSet) -> LossEval:
    """Loss of one head-output row, or of a (..., head) batch, against its targets.

    The targets come from encode_targets, for one age or for the ages of the
    batch's rows (stacked to the batch's leading shape), and are not checked
    again. A single row gives a float value and a (head,) gradient; a batch
    gives per-row values (...) and gradients (..., head), each bitwise what
    the row alone gives. dldl-v2 anchors its expectation on the label at the target
    index, which is the age itself for whole-year ages.
    """
    family = config.family
    if family == "regression":
        return _l1(_regression_outputs(head_out), targets.row)
    z = _as_logits(head_out)
    if family in ("cross-entropy", "dldl", "sord"):
        return _soft_ce(z, targets.row)[0]
    if family in THRESHOLD_FAMILIES:
        return _ebc(z, targets.row)
    if family == "mean-variance":
        return _meanvar(z, targets.row, targets.index, label_set,
                        config.lambda_mean, config.lambda_var)
    if family == "unimodal":
        return _unimodal(z, targets.row, targets.index, config.lambda_uni)
    if family == "dldl-v2":
        return _dldlv2(z, targets.row, label_set, label_set.as_array()[targets.index],
                       config.lambda_expect)
    raise ValueError(f"unknown method family {family!r}")
