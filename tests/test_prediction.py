"""Decoders: posterior weighted median, threshold counting, clamped regression."""

import numpy as np
import pytest
from oracles import brute_force_bayes

from ordibench.data import LabelSet
from ordibench.methods import FAMILIES, MethodConfig
from ordibench.prediction import (
    bayes_mae_predict,
    decode_output,
    ebc_decode,
    regression_decode,
)
from ordibench.util import rng_from_seed

LS3 = LabelSet((0, 1, 2))


def random_label_set(rng) -> LabelSet:
    """A run of 2-80 consecutive labels, or, as a CSV's inferred labels can
    be, 2-65 sorted distinct labels drawn from 16-80 with gaps between them."""
    if rng.random() < 0.5:
        lo = int(rng.integers(0, 40))
        return LabelSet(tuple(range(lo, lo + int(rng.integers(2, 81)))))
    k = int(rng.integers(2, 66))
    return LabelSet(tuple(sorted(rng.choice(np.arange(16, 81), size=k, replace=False).tolist())))


def test_bayes_hand_case():
    assert bayes_mae_predict([0.2, 0.5, 0.3], LS3) == 1.0


def test_bayes_delta():
    for j, ls in ((0, LS3), (2, LS3)):
        p = np.zeros(3)
        p[j] = 1.0
        assert bayes_mae_predict(p, ls) == float(ls.values[j])


def test_bayes_symmetric_tie_takes_lower_median():
    assert bayes_mae_predict([0.5, 0.5], LabelSet((10, 20))) == 10.0


def test_brute_force_uniform_five():
    assert brute_force_bayes([0.2] * 5, LabelSet((0, 1, 2, 3, 4))) == 2.0


def test_decoders_agree_on_random_posteriors():
    rng = rng_from_seed(17)
    for trial in range(2000):
        ls = random_label_set(rng)
        k = len(ls)
        style = trial % 3
        if style == 0:
            p = rng.dirichlet(np.full(k, 0.3))
        elif style == 1:
            p = rng.dirichlet(np.full(k, 4.0))
        else:
            z = rng.normal(size=k) * 3
            p = np.exp(z - z.max())
            p /= p.sum()
        assert bayes_mae_predict(p, ls) == brute_force_bayes(p, ls), (trial, ls.values)


def test_posterior_validation():
    with pytest.raises(ValueError):
        bayes_mae_predict([0.5, 0.6], LS3)
    with pytest.raises(ValueError):
        bayes_mae_predict([0.7, 0.4, -0.1], LS3)
    with pytest.raises(ValueError):
        bayes_mae_predict([1.0], LS3)


def test_ebc_decode_counting():
    ls = LabelSet((0, 1, 2, 3))
    assert ebc_decode([0.9, 0.8, 0.3], ls) == 2.0
    assert ebc_decode([0.9, 0.8, 0.3], LabelSet((16, 30, 31, 80))) == 31.0
    assert ebc_decode([0.0, 0.0, 0.0], ls) == 0.0
    assert ebc_decode([1.0, 1.0, 1.0], ls) == 3.0


def test_regression_decode_midpoint_and_clamps():
    wide = LabelSet(tuple(range(0, 101)))
    assert regression_decode(0.5, wide) == 50.0
    assert regression_decode(-0.2, wide) == 0.0
    narrow = LabelSet(tuple(range(20, 61)))
    assert regression_decode(1.3, narrow) == 60.0
    assert regression_decode(-5.0, narrow) == 20.0


def test_decode_output_dispatch():
    ls = LabelSet((0, 1, 2, 3))
    # distribution family: argmin expected absolute error over softmax
    z = np.array([0.0, 3.0, 0.0, 0.0])
    assert decode_output(MethodConfig(family="cross-entropy"), z, ls) == 1.0
    # threshold family: sigmoid then count
    big = np.array([9.0, 9.0, -9.0])
    assert decode_output(MethodConfig(family="or-cnn"), big, ls) == 2.0
    assert decode_output(MethodConfig(family="coral"), big, ls) == 2.0
    # regression family: denormalize the scalar
    assert decode_output(MethodConfig(family="regression"), np.array([0.0]), ls) == 0.0
    assert decode_output(MethodConfig(family="regression"), np.array([1.0]), ls) == 3.0


NAN = float("nan")


@pytest.mark.parametrize("decode, arg", [
    (bayes_mae_predict, [NAN, 0.5, 0.5]),
    (brute_force_bayes, [NAN, 0.5, 0.5]),
    (ebc_decode, [NAN, 0.9]),
    (regression_decode, NAN),
    (regression_decode, [0.5, NAN]),
], ids=["bayes", "brute_force", "ebc", "regression", "regression_batch"])
def test_every_decoder_refuses_a_nan(decode, arg):
    """A NaN passes every < and > range test, so each decoder tests for it."""
    with pytest.raises(ValueError):
        decode(arg, LS3)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("bad", [NAN, np.inf, -np.inf])
def test_decode_output_refuses_non_finite_outputs_for_every_family(family, bad):
    cfg = MethodConfig(family=family)
    out = np.ones((2, 3, cfg.head_size(len(LS3))))
    out[1, 2, -1] = bad
    for head_out in (out, out[1, 2]):  # a batch, and the row alone
        with pytest.raises(ValueError, match="head outputs must be finite"):
            decode_output(cfg, head_out, LS3)


def test_decode_output_rejects_wrong_width():
    ls = LabelSet((0, 1, 2, 3))
    with pytest.raises(ValueError):
        decode_output(MethodConfig(family="cross-entropy"), np.zeros(3), ls)
    with pytest.raises(ValueError):
        decode_output(MethodConfig(family="or-cnn"), np.zeros(4), ls)


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_decode_equals_rows_exactly(family):
    cfg = MethodConfig(family=family)
    head = FAMILIES[family].head
    rng = rng_from_seed(29)
    for _ in range(40):
        ls = random_label_set(rng)
        k = len(ls)
        n = int(rng.integers(1, 40))
        out = rng.normal(size=(n, cfg.head_size(k))) * 3.0
        if head in ("thresholds", "shared"):
            # logits where sigmoid(z) > 0.5 and z > 0 disagree, or sit on the edge
            mask = rng.random(out.shape) < 0.3
            out[mask] = rng.choice([0.0, 1e-300, -1e-300], size=int(mask.sum()))
        elif head == "scalar":
            out = rng.uniform(-0.5, 1.5, size=(n, 1))
        batch = decode_output(cfg, out, ls)
        rows = [decode_output(cfg, out[i], ls) for i in range(n)]
        assert batch.shape == (n,)
        assert batch.tobytes() == np.array(rows).tobytes()  # bitwise
        assert all(isinstance(age, float) for age in rows)
        if head != "scalar":
            assert set(batch.tolist()) <= set(ls.values)


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_decode_is_bitwise_its_slices(family):
    """An (S, n, head) call, as the trainer makes for S models of one method,
    decodes to bitwise the ages of S (n, head) calls."""
    cfg = MethodConfig(family=family)
    rng = rng_from_seed(31)
    for _ in range(20):
        k = int(rng.integers(2, 81))
        ls = LabelSet(tuple(range(20, 20 + k)))
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 40)), cfg.head_size(k))
        out = rng.normal(size=shape) * 3.0
        if FAMILIES[family].head == "scalar":
            out = rng.uniform(-0.5, 1.5, size=shape)
        stacked = decode_output(cfg, out, ls)
        assert stacked.shape == shape[:2]
        for i in range(shape[0]):
            assert np.array_equal(stacked[i], decode_output(cfg, out[i], ls))


def test_threshold_decode_counts_sigmoid_above_half_not_positive_logits():
    ls = LabelSet((0, 1, 2, 3))
    tiny = np.array([[1e-300, 1e-300, 1e-300], [0.0, 0.0, 0.0], [1.0, 1e-17, -1e-300]])
    assert decode_output(MethodConfig(family="or-cnn"), tiny, ls).tolist() == [0.0, 0.0, 1.0]


def test_batched_bayes_matches_brute_force_rows():
    rng = rng_from_seed(41)
    ls = LabelSet(tuple(range(10, 45)))
    p = rng.dirichlet(np.full(35, 0.5), size=200)
    assert bayes_mae_predict(p, ls).tolist() == [brute_force_bayes(row, ls) for row in p]


def test_batched_posterior_validation_names_a_bad_row():
    p = np.array([[0.2, 0.5, 0.3], [0.2, 0.5, 0.4]])
    with pytest.raises(ValueError, match="not normalized"):
        bayes_mae_predict(p, LS3)
