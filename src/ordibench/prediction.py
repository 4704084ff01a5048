"""Decision layer: turn head outputs into a single predicted age.

For distribution heads the decoder is the minimizer of the expected
absolute error under the posterior, which is a weighted median of the
labels. A brute-force scan over all candidate labels is kept alongside as
an independent oracle; the two must agree everywhere.

Every decoder takes one head-output row or an (n, head) batch; a batch
decodes to a Prediction whose fields are (n,) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LabelSet
from .methods import THRESHOLD_FAMILIES, MethodConfig, _regression_outputs, sigmoid, softmax

__all__ = [
    "Prediction",
    "bayes_mae_predict",
    "brute_force_bayes",
    "ebc_decode",
    "regression_decode",
    "decode_output",
]

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Prediction:
    """A predicted age in years; label_index is None for continuous outputs.

    Decoding one row gives a float age and an int index; decoding a batch
    gives (n,) arrays.
    """

    age: float | np.ndarray
    label_index: Optional[int | np.ndarray]

    def __post_init__(self) -> None:
        if np.ndim(self.age) == 0:
            object.__setattr__(self, "age", float(self.age))
            if self.label_index is not None:
                object.__setattr__(self, "label_index", int(self.label_index))


def _as_posterior(probs, n_labels: int) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != n_labels:
        raise ValueError(f"posterior length {p.shape} does not match {n_labels} labels")
    if np.any(p < -1e-12):
        raise ValueError("posterior has negative mass")
    mass = np.ravel(p.sum(axis=-1))
    off = np.abs(mass - 1.0) > _SUM_TOL
    if np.any(off):
        raise ValueError(f"posterior mass {mass[off][0]!r} is not normalized")
    return np.clip(p, 0.0, None)


def bayes_mae_predict(probs, label_set: LabelSet) -> Prediction:
    """Label minimizing the expected absolute error under the posterior.

    This is the lower weighted median: the smallest label whose cumulative
    mass reaches one half, found as the number of labels whose cumulative
    mass stays below it. Ties at exactly one half resolve to the smaller
    label.
    """
    p = _as_posterior(probs, len(label_set))
    below = (np.cumsum(p, axis=-1) < 0.5).sum(axis=-1)
    idx = np.minimum(below, len(label_set) - 1)
    return Prediction(age=label_set.as_array()[idx], label_index=idx)


def brute_force_bayes(probs, label_set: LabelSet) -> Prediction:
    """Oracle twin of bayes_mae_predict: scan every candidate label.

    Evaluates the expected absolute error of predicting each label and takes
    the smallest argmin. Quadratic in K, kept for verification.
    """
    p = _as_posterior(probs, len(label_set))
    y = label_set.as_array()
    risks = np.abs(y[:, None] - y[None, :]) @ p
    idx = int(np.argmin(risks))  # first minimum = smallest label
    return Prediction(age=float(label_set.values[idx]), label_index=idx)


def ebc_decode(threshold_probs, label_set: LabelSet) -> Prediction:
    """Rank decoding for threshold heads: count thresholds voting "above"."""
    q = np.asarray(threshold_probs, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != len(label_set) - 1:
        raise ValueError(
            f"expected {len(label_set) - 1} threshold probabilities, got shape {q.shape}"
        )
    if np.any((q < -1e-12) | (q > 1 + 1e-12)):
        raise ValueError("threshold probabilities must lie in [0, 1]")
    idx = (q > 0.5).sum(axis=-1)
    return Prediction(age=label_set.as_array()[idx], label_index=idx)


def regression_decode(raw_output, label_set: LabelSet) -> Prediction:
    """Map a normalized scalar (or array of them) back to years, clamped to the label range."""
    age = np.clip(label_set.denormalize(raw_output), label_set.min_label, label_set.max_label)
    return Prediction(age=age, label_index=None)


def decode_output(config: MethodConfig, head_out, label_set: LabelSet) -> Prediction:
    """Decode one raw head-output row, or each row of an (n, head) batch."""
    if config.family == "regression":
        return regression_decode(_regression_outputs(head_out), label_set)
    if config.family in THRESHOLD_FAMILIES:
        # sigmoid(z) > 0.5, not z > 0: the two differ for 0 < z < ~1e-16
        return ebc_decode(sigmoid(head_out), label_set)
    return bayes_mae_predict(softmax(head_out), label_set)
