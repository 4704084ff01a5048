"""Decision layer: turn head outputs into predicted ages.

For distribution heads the decoder is the minimizer of the expected
absolute error under the posterior, which is a weighted median of the
labels; the tests check it against a brute-force scan over every label.

Every decoder takes one head-output row or a (..., head) batch, such as the
(G, n, head) outputs of G models, and returns the ages it decodes: an
np.float64 for one row, a (...) array for a batch, each row bitwise what it
decodes to alone. Every decoder raises ValueError on a NaN or infinite
input: no age is decoded from a broken model.
"""

from __future__ import annotations

import numpy as np

from .data import LabelSet
from .methods import FAMILIES, MethodConfig, _regression_outputs, sigmoid, softmax

__all__ = [
    "bayes_mae_predict",
    "ebc_decode",
    "regression_decode",
    "decode_output",
]

_SUM_TOL = 1e-9


def _as_posterior(probs, n_labels: int) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim < 1 or p.shape[-1] != n_labels:
        raise ValueError(f"posterior length {p.shape} does not match {n_labels} labels")
    if not np.isfinite(p).all():
        raise ValueError("posterior must be finite")
    if np.any(p < -1e-12):
        raise ValueError("posterior has negative mass")
    mass = np.ravel(p.sum(axis=-1))
    off = np.abs(mass - 1.0) > _SUM_TOL
    if np.any(off):
        raise ValueError(f"posterior mass {mass[off][0]!r} is not normalized")
    return np.clip(p, 0.0, None)


def bayes_mae_predict(probs, label_set: LabelSet) -> np.ndarray | float:
    """Label minimizing the expected absolute error under the posterior.

    This is the lower weighted median: the smallest label whose cumulative
    mass reaches one half, found as the number of labels whose cumulative
    mass stays below it. Ties at exactly one half resolve to the smaller
    label.
    """
    p = _as_posterior(probs, len(label_set))
    below = (np.cumsum(p, axis=-1) < 0.5).sum(axis=-1)
    idx = np.minimum(below, len(label_set) - 1)
    return label_set.as_array()[idx]


def ebc_decode(threshold_probs, label_set: LabelSet) -> np.ndarray | float:
    """Rank decoding for threshold heads: count thresholds voting "above"."""
    q = np.asarray(threshold_probs, dtype=float)
    if q.ndim < 1 or q.shape[-1] != len(label_set) - 1:
        raise ValueError(
            f"expected {len(label_set) - 1} threshold probabilities, got shape {q.shape}"
        )
    if not np.all((q >= -1e-12) & (q <= 1 + 1e-12)):  # a NaN fails both
        raise ValueError("threshold probabilities must lie in [0, 1]")
    idx = (q > 0.5).sum(axis=-1)
    return label_set.as_array()[idx]


def regression_decode(raw_output, label_set: LabelSet) -> np.ndarray | float:
    """Map a normalized scalar (or array of them) back to years, clamped to the label range."""
    raw = np.asarray(raw_output, dtype=float)
    if not np.isfinite(raw).all():
        raise ValueError("regression output must be finite")
    return np.clip(label_set.denormalize(raw), label_set.min_label, label_set.max_label)


def decode_output(config: MethodConfig, head_out, label_set: LabelSet) -> np.ndarray | float:
    """Decode one raw head-output row, or each row of a (..., head) batch,
    by the decoder of its family's head.

    Raises ValueError, for every family, when an output is not finite.
    """
    out = np.asarray(head_out, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError("head outputs must be finite")
    head = FAMILIES[config.family].head
    if head == "labels":
        return bayes_mae_predict(softmax(out), label_set)
    if head == "scalar":
        return regression_decode(_regression_outputs(out), label_set)
    # sigmoid(z) > 0.5, not z > 0: the two differ for 0 < z < ~1e-16
    return ebc_decode(sigmoid(out), label_set)
