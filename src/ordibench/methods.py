"""Loss families for ordinal heads: target encodings, loss values, and
analytic gradients with respect to the raw head outputs.

FAMILIES holds one Family record per family, and head_size,
encode_targets, soft_targets, loss_eval, the decoder and the trainer read a
family from there alone. Every loss returns LossEval(value, grad) where
grad matches the head output elementwise; gradients are what the trainer
backpropagates, so each formula here is paired with a finite-difference
check in the test suite.

loss_eval is the one public way to compute a loss. It takes one head-output
row or a (..., head) batch of rows, such as the (n, head) rows of one model
or the (G, n, head) rows of G models, and every shape runs the same array
code, on the last axis. Each kernel (_ce, _ebc, _l1, _dldlv2, _meanvar,
_unimodal) takes (config, z, targets, label_set) and checks no input; the
targets are those encode_targets built, once per train fold, and each
minibatch indexes their rows. The soft targets come from soft_targets
alone, so the targets the acceptance gate checks are the ones trained on.

A loss computes in the dtype of the head outputs it gets: float32 outputs,
as the trainer's float32 stacks give, get float32 values and gradients,
and float64 outputs float64 ones; any other input widens to float64. The
target rows and label values follow the outputs' dtype. The decoders in
prediction widen every input to float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .data import LabelSet, ValidationError

__all__ = [
    "FAMILIES",
    "Family",
    "MethodConfig",
    "LossEval",
    "Targets",
    "softmax",
    "sigmoid",
    "ebc_encode",
    "soft_targets",
    "encode_targets",
    "loss_eval",
]


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
        hyper = [f for f in fields(self) if f.name not in ("family", "name")]
        for f in hyper:
            if not math.isfinite(getattr(self, f.name)):
                raise ValidationError(f"{f.name} must be finite")
            # a Python float, so a float32 loss stays float32 (numpy 2 widens
            # a float32 array times an np.float64 to float64)
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        for attr in ("sigma", "alpha"):
            if getattr(self, attr) <= 0:
                raise ValidationError(f"{attr} must be positive")
        for attr in ("lambda_expect", "lambda_mean", "lambda_var", "lambda_uni"):
            if getattr(self, attr) < 0:
                raise ValidationError(f"{attr} must be non-negative")
        reads = FAMILIES[self.family].params
        for f in hyper:  # a value the loss never reads would tune nothing
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ValidationError(f"family {self.family!r} does not read {f.name}")

    @property
    def display_name(self) -> str:
        return self.name if self.name else self.family

    def head_size(self, n_labels: int) -> int:
        """Outputs (biases) of this family's head for K labels: K for "labels",
        1 for "scalar", K - 1 for the threshold heads. A "shared" head has one
        weight column whatever its size, every other head one per output."""
        if n_labels < 1:
            raise ValueError("n_labels must be >= 1")
        head = FAMILIES[self.family].head
        if head in ("labels", "scalar"):
            return n_labels if head == "labels" else 1
        if n_labels < 2:
            raise ValueError(f"{self.family} needs at least 2 labels")
        return n_labels - 1


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


def _float_array(x) -> np.ndarray:
    """x as an array of its own dtype when that is float32 or float64, else
    widened to float64."""
    a = np.asarray(x)
    return a if a.dtype in (np.float32, np.float64) else a.astype(float)


def _as_logits(logits) -> np.ndarray:
    """One head-output row (head,) or a batch of rows (..., head)."""
    z = _float_array(logits)
    if z.ndim < 1 or z.shape[-1] < 1:
        raise ValueError("logits must be a non-empty row or a batch of rows")
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
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
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


def _ce(config, z, targets, label_set) -> LossEval:
    """Cross-entropy against the one-hot or soft target rows."""
    return _soft_ce(z, targets.row)[0]


def sigmoid(x):
    """Elementwise logistic function, stable for large |x|."""
    x = _float_array(x)
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) below: never overflows
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_index(index, n: int) -> np.ndarray:
    """Label index (or array of indices) as integers, each within [0, n)."""
    idx = np.asarray(index).astype(np.int64)
    if np.any((idx < 0) | (idx >= n)):
        raise IndexError(f"label index {index} out of range for {n} labels")
    return idx


def _l1(config, z, targets, label_set) -> LossEval:
    """Absolute error of a scalar head against the (normalized) target age;
    the gradient is the sign of the residual, 0 at a zero residual."""
    diff = z - targets.row
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


def _ebc(config, z, targets, label_set) -> LossEval:
    return LossEval(_bce_with_logits(z, targets.row).sum(axis=-1), sigmoid(z) - targets.row)


def soft_targets(config: MethodConfig, true_index, label_set: LabelSet) -> np.ndarray:
    """Soft label distribution of the dldl, dldl-v2 and sord families.

    dldl and dldl-v2 use a discretized normal of standard deviation sigma
    around the true label (Gao et al., IJCAI 2018); sord decays as
    exp(-alpha |label distance|) (Diaz & Marathe, CVPR 2019). One label
    index gives a (K,) row, n indices an (n, K) batch; every row sums to one.
    """
    log_weight = FAMILIES[config.family].soft
    if log_weight is None:
        raise ValueError(f"family {config.family!r} has no soft targets")
    y = label_set.as_array()
    expo = log_weight(config, y - y[_check_index(true_index, len(y))][..., None])
    w = np.exp(expo - expo.max(axis=-1, keepdims=True))  # peak 1 per row
    return w / w.sum(axis=-1, keepdims=True)


def _moments(probs, label_set: LabelSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and variance of the label under each posterior row, and label - mean."""
    p = _float_array(probs)
    y = label_set.as_array(p.dtype)
    if p.shape[-1:] != y.shape:
        raise ValueError(f"posterior length {p.shape} != label count {y.shape}")
    e = _rowdot(p, y)
    dev = y - e[..., None]
    return e, _rowdot(p, dev ** 2), dev


def _dldlv2(config, z, targets, label_set) -> LossEval:
    """Soft cross-entropy plus lambda_expect |E[label] - age|, with the label at
    the target index as the age; the anchor's subgradient at 0 is 0."""
    base, p = _soft_ce(z, targets.row)
    e, _, dev = _moments(p, label_set)
    diff = e - label_set.as_array(z.dtype)[targets.index]
    value = base.value + config.lambda_expect * np.abs(diff)
    grad = base.grad + (config.lambda_expect * np.sign(diff))[..., None] * p * dev
    return LossEval(value, grad)


def _meanvar(config, z, targets, label_set) -> LossEval:
    """ce + (lambda_mean / 2) (E[label] - y)^2 + lambda_var Var[label]."""
    base, p = _soft_ce(z, targets.row)
    e, var, dev = _moments(p, label_set)
    miss = e - label_set.as_array(z.dtype)[targets.index]
    value = base.value + 0.5 * config.lambda_mean * miss ** 2 + config.lambda_var * var
    d_e = p * dev                            # gradient of E[label] wrt logits
    d_var = p * (dev ** 2 - var[..., None])  # gradient of Var[label] wrt logits
    grad = base.grad + ((config.lambda_mean * miss)[..., None] * d_e + config.lambda_var * d_var)
    return LossEval(value, grad)


def _unimodal_hinges(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unimodality violation around mode t per row, and its gradient wrt p.

    Mass must not fall before the mode nor rise after it; each adjacent pair
    stepping the wrong way contributes its gap.
    """
    rise = p[..., 1:] - p[..., :-1]
    one = p.dtype.type(1.0)
    wrong_way = np.where(np.arange(p.shape[-1] - 1) < t[..., None], -one, one)
    gap = wrong_way * rise
    active = np.where(gap > 0, wrong_way, 0.0)
    g = np.zeros_like(p)
    g[..., :-1] -= active
    g[..., 1:] += active
    return np.maximum(gap, 0.0).sum(axis=-1), g


def _unimodal(config, z, targets, label_set) -> LossEval:
    """ce + lambda_uni times the hinge penalty; the penalty is piecewise
    linear, so the gradient is a subgradient (inactive branch at a kink)."""
    base, p = _soft_ce(z, targets.row)
    penalty, g = _unimodal_hinges(p, targets.index)
    value = base.value + config.lambda_uni * penalty
    # softmax Jacobian applied to d(penalty)/d(probs)
    grad = base.grad + config.lambda_uni * p * (g - _rowdot(p, g)[..., None])
    return LossEval(value, grad)


def _regression_outputs(head_out) -> np.ndarray:
    """The scalar output of a regression head: 0-d for one row, (...) for a
    (..., 1) batch."""
    out = _float_array(head_out)
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


@dataclass(frozen=True)
class Family:
    """One loss family: its head ("labels": K softmax logits, "thresholds":
    K - 1 threshold logits, "shared": the same on one weight column, or
    "scalar": one normalised age), which decides its targets and decoder;
    the MethodConfig fields its loss reads; its loss kernel; and, for a
    soft-target family, the log-weight of its targets at a label distance."""

    head: str
    params: tuple[str, ...]
    loss: Callable[..., LossEval]  # (config, z, targets, label_set)
    soft: Optional[Callable[[MethodConfig, np.ndarray], np.ndarray]] = None


def _gaussian(config, dist):
    return -(dist ** 2) / (2.0 * config.sigma * config.sigma)


def _laplace(config, dist):
    return -config.alpha * np.abs(dist)


FAMILIES: dict[str, Family] = {
    "cross-entropy": Family("labels", (), _ce),
    "regression": Family("scalar", (), _l1),
    "or-cnn": Family("thresholds", (), _ebc),
    "coral": Family("shared", (), _ebc),
    "dldl": Family("labels", ("sigma",), _ce, _gaussian),
    "dldl-v2": Family("labels", ("sigma", "lambda_expect"), _dldlv2, _gaussian),
    "sord": Family("labels", ("alpha",), _ce, _laplace),
    "mean-variance": Family("labels", ("lambda_mean", "lambda_var"), _meanvar),
    "unimodal": Family("labels", ("lambda_uni",), _unimodal),
}


def encode_targets(config: MethodConfig, ages, label_set: LabelSet) -> Targets:
    """Encode ages (an (n,) array, or one age) into the targets of config's loss.

    Every head but "scalar" needs each age, truncated to whole years, in the
    label set, and raises ValidationError otherwise. The row is soft_targets
    for a family with soft targets, one-hot for the other "labels" heads,
    ebc_encode for the threshold heads, and the age normalised over the
    label range for "scalar".
    """
    family = FAMILIES[config.family]
    ages = np.asarray(ages, dtype=float)
    if family.head == "scalar":
        return Targets(None, np.asarray(label_set.normalize(ages)))
    t = label_set.indices_of(ages)
    if family.head != "labels":
        row = ebc_encode(t, len(label_set))
    elif family.soft:
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
    the row alone gives. The loss computes in the dtype of head_out, float32
    or float64 (anything else widens to float64), and casts target rows of
    another dtype to it; the trainer hands it rows already in its dtype.
    Raises ValueError, for every family, when an output is not finite, as
    decode_output does.
    """
    family = FAMILIES[config.family]
    z = _float_array(head_out)
    if not np.isfinite(z).all():
        raise ValueError("head outputs must be finite")
    if targets.row.dtype != z.dtype:
        targets = Targets(targets.index, targets.row.astype(z.dtype))
    z = _regression_outputs(z) if family.head == "scalar" else _as_logits(z)
    return family.loss(config, z, targets, label_set)
