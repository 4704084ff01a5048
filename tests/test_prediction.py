"""Decoders: posterior weighted median, threshold counting, clamped regression."""

import numpy as np
import pytest

from ordibench.data import LabelSet
from ordibench.methods import FAMILIES, THRESHOLD_FAMILIES, MethodConfig
from ordibench.prediction import (
    bayes_mae_predict,
    brute_force_bayes,
    decode_output,
    ebc_decode,
    regression_decode,
)
from ordibench.util import rng_from_seed

LS3 = LabelSet((0, 1, 2))


def test_bayes_hand_case():
    pred = bayes_mae_predict([0.2, 0.5, 0.3], LS3)
    assert pred.age == 1.0 and pred.label_index == 1


def test_bayes_delta():
    for j, ls in ((0, LS3), (2, LS3)):
        p = np.zeros(3)
        p[j] = 1.0
        pred = bayes_mae_predict(p, ls)
        assert pred.age == float(ls.values[j])


def test_bayes_symmetric_tie_takes_lower_median():
    pred = bayes_mae_predict([0.5, 0.5], LabelSet((10, 20)))
    assert pred.age == 10.0


def test_brute_force_uniform_five():
    pred = brute_force_bayes([0.2] * 5, LabelSet((0, 1, 2, 3, 4)))
    assert pred.age == 2.0


def test_decoders_agree_on_random_posteriors():
    rng = rng_from_seed(17)
    for trial in range(2000):
        k = int(rng.integers(2, 81))
        lo = int(rng.integers(0, 40))
        ls = LabelSet(tuple(range(lo, lo + k)))
        style = trial % 3
        if style == 0:
            p = rng.dirichlet(np.full(k, 0.3))
        elif style == 1:
            p = rng.dirichlet(np.full(k, 4.0))
        else:
            z = rng.normal(size=k) * 3
            p = np.exp(z - z.max())
            p /= p.sum()
        a = bayes_mae_predict(p, ls)
        b = brute_force_bayes(p, ls)
        assert a.label_index == b.label_index, (trial, k)


def test_posterior_validation():
    with pytest.raises(ValueError):
        bayes_mae_predict([0.5, 0.6], LS3)
    with pytest.raises(ValueError):
        bayes_mae_predict([0.7, 0.4, -0.1], LS3)
    with pytest.raises(ValueError):
        bayes_mae_predict([1.0], LS3)


def test_ebc_decode_counting():
    ls = LabelSet((0, 1, 2, 3))
    assert ebc_decode([0.9, 0.8, 0.3], ls).label_index == 2
    assert ebc_decode([0.9, 0.8, 0.3], ls).age == 2.0
    assert ebc_decode([0.0, 0.0, 0.0], ls).age == 0.0
    assert ebc_decode([1.0, 1.0, 1.0], ls).age == 3.0


def test_regression_decode_midpoint_and_clamps():
    wide = LabelSet(tuple(range(0, 101)))
    assert regression_decode(0.5, wide).age == 50.0
    assert regression_decode(-0.2, wide).age == 0.0
    narrow = LabelSet(tuple(range(20, 61)))
    assert regression_decode(1.3, narrow).age == 60.0
    assert regression_decode(-5.0, narrow).age == 20.0


def test_decode_output_dispatch():
    ls = LabelSet((0, 1, 2, 3))
    # distribution family: argmin expected absolute error over softmax
    z = np.array([0.0, 3.0, 0.0, 0.0])
    assert decode_output(MethodConfig(family="cross-entropy"), z, ls).age == 1.0
    # threshold family: sigmoid then count
    big = np.array([9.0, 9.0, -9.0])
    assert decode_output(MethodConfig(family="or-cnn"), big, ls).age == 2.0
    assert decode_output(MethodConfig(family="coral"), big, ls).age == 2.0
    # regression family: denormalize the scalar
    assert decode_output(MethodConfig(family="regression"), np.array([0.0]), ls).age == 0.0
    assert decode_output(MethodConfig(family="regression"), np.array([1.0]), ls).age == 3.0


def test_decode_output_rejects_wrong_width():
    ls = LabelSet((0, 1, 2, 3))
    with pytest.raises(ValueError):
        decode_output(MethodConfig(family="cross-entropy"), np.zeros(3), ls)
    with pytest.raises(ValueError):
        decode_output(MethodConfig(family="or-cnn"), np.zeros(4), ls)


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_decode_equals_rows_exactly(family):
    cfg = MethodConfig(family=family)
    rng = rng_from_seed(29)
    for _ in range(40):
        k = int(rng.integers(2, 81))
        lo = int(rng.integers(0, 40))
        ls = LabelSet(tuple(range(lo, lo + k)))
        n = int(rng.integers(1, 40))
        out = rng.normal(size=(n, cfg.head_size(k))) * 3.0
        if family in THRESHOLD_FAMILIES:
            # logits where sigmoid(z) > 0.5 and z > 0 disagree, or sit on the edge
            mask = rng.random(out.shape) < 0.3
            out[mask] = rng.choice([0.0, 1e-300, -1e-300], size=int(mask.sum()))
        elif family == "regression":
            out = rng.uniform(-0.5, 1.5, size=(n, 1))
        batch = decode_output(cfg, out, ls)
        rows = [decode_output(cfg, out[i], ls) for i in range(n)]
        assert batch.age.shape == (n,)
        assert batch.age.tolist() == [r.age for r in rows]
        if family == "regression":
            assert batch.label_index is None
            assert all(r.label_index is None for r in rows)
        else:
            assert batch.label_index.tolist() == [r.label_index for r in rows]
            assert all(type(r.label_index) is int and type(r.age) is float for r in rows)


def test_threshold_decode_counts_sigmoid_above_half_not_positive_logits():
    ls = LabelSet((0, 1, 2, 3))
    tiny = np.array([[1e-300, 1e-300, 1e-300], [0.0, 0.0, 0.0], [1.0, 1e-17, -1e-300]])
    pred = decode_output(MethodConfig(family="or-cnn"), tiny, ls)
    assert pred.label_index.tolist() == [0, 0, 1]


def test_batched_bayes_matches_brute_force_rows():
    rng = rng_from_seed(41)
    ls = LabelSet(tuple(range(10, 45)))
    p = rng.dirichlet(np.full(35, 0.5), size=200)
    batch = bayes_mae_predict(p, ls)
    assert batch.label_index.tolist() == [brute_force_bayes(row, ls).label_index for row in p]


def test_batched_posterior_validation_names_a_bad_row():
    p = np.array([[0.2, 0.5, 0.3], [0.2, 0.5, 0.4]])
    with pytest.raises(ValueError, match="not normalized"):
        bayes_mae_predict(p, LS3)
