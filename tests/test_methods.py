"""Loss families, target encodings, and their analytic gradients."""

import math

import numpy as np
import pytest

from gradcheck import fd_grad, rel_err
from ordibench.data import LabelSet, ValidationError
from ordibench.methods import (
    DISTRIBUTION_FAMILIES,
    FAMILIES,
    THRESHOLD_FAMILIES,
    MethodConfig,
    ce_loss,
    coral_scores,
    dldl_target,
    dldlv2_loss,
    ebc_encode,
    ebc_loss,
    expectation,
    l1_regression_loss,
    log_softmax,
    loss_eval,
    meanvar_loss,
    one_hot_target,
    sigmoid,
    softmax,
    soft_ce_loss,
    sord_target,
    unimodal_loss,
    unimodal_penalty,
    variance,
)
from ordibench.util import rng_from_seed

LS10 = LabelSet(tuple(range(0, 10)))
LS3 = LabelSet((0, 1, 2))


# ---------------------------------------------------------------- softmax

def test_softmax_uniform_and_hand_value():
    np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3)
    np.testing.assert_allclose(softmax([math.log(2), 0.0]), [2 / 3, 1 / 3])


def test_softmax_extreme_logits_stay_finite():
    p = softmax([1000.0, 0.0, -1000.0])
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)
    lp = log_softmax([1000.0, 0.0, -1000.0])
    assert np.all(np.isfinite(lp[:1]))


def test_sigmoid_matches_closed_form():
    x = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
    np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)


# ------------------------------------------------------------ plain losses

def test_ce_uniform_case():
    out = ce_loss(np.zeros(4), 1)
    assert out.value == pytest.approx(math.log(4))
    np.testing.assert_allclose(out.grad, [0.25, -0.75, 0.25, 0.25])


def test_ce_perfect_prediction_limit():
    z = np.array([0.0, 40.0, 0.0])
    assert ce_loss(z, 1).value == pytest.approx(0.0, abs=1e-12)


def test_ce_rejects_bad_index():
    with pytest.raises(IndexError):
        ce_loss(np.zeros(3), 3)


def test_l1_regression_hand_cases():
    assert l1_regression_loss(5.0, 5.0).value == 0.0
    up = l1_regression_loss(7.0, 5.0)
    assert up.value == 2.0 and up.grad[0] == 1.0
    down = l1_regression_loss(3.0, 5.0)
    assert down.value == 2.0 and down.grad[0] == -1.0


def test_ebc_encode_patterns():
    np.testing.assert_array_equal(ebc_encode(0, 4), [0, 0, 0])
    np.testing.assert_array_equal(ebc_encode(3, 4), [1, 1, 1])
    np.testing.assert_array_equal(ebc_encode(2, 4), [1, 1, 0])


def test_ebc_loss_zero_logits():
    out = ebc_loss(np.zeros(3), ebc_encode(2, 4))
    assert out.value == pytest.approx(3 * math.log(2))


def test_ebc_loss_saturates_to_zero():
    t = ebc_encode(2, 4).astype(float)
    z = np.where(t > 0.5, 50.0, -50.0)
    assert ebc_loss(z, t).value == pytest.approx(0.0, abs=1e-12)


def test_coral_scores_monotone():
    p = coral_scores(0.3, np.array([3.0, 1.0, -1.0]))
    assert np.all(np.diff(p) < 0)
    flat = coral_scores(0.3, np.zeros(3))
    assert np.allclose(flat, flat[0])
    assert np.allclose(coral_scores(80.0, np.array([1.0, -1.0])), 1.0)


# --------------------------------------------------------- soft targets

def test_dldl_target_normalized_and_centered():
    q = dldl_target(4, LS10, sigma=2.0)
    assert abs(q.probs.sum() - 1.0) < 1e-12
    assert int(q.probs.argmax()) == 4


def test_dldl_target_tiny_sigma_is_one_hot():
    q = dldl_target(3, LS10, sigma=1e-6)
    np.testing.assert_allclose(q.probs, one_hot_target(3, 10).probs, atol=1e-12)


def test_dldl_target_symmetry():
    q = dldl_target(4, LabelSet(tuple(range(0, 9))), sigma=1.5).probs
    np.testing.assert_allclose(q, q[::-1], atol=1e-15)


def test_sord_hand_value():
    q = sord_target(1, LS3, alpha=math.log(2)).probs
    np.testing.assert_allclose(q, [0.25, 0.5, 0.25], atol=1e-15)


def test_sord_huge_alpha_is_one_hot():
    q = sord_target(5, LS10, alpha=1e4)
    np.testing.assert_allclose(q.probs, one_hot_target(5, 10).probs, atol=1e-12)


def test_sord_symmetry():
    q = sord_target(2, LabelSet((0, 1, 2, 3, 4)), alpha=0.7).probs
    np.testing.assert_allclose(q, q[::-1], atol=1e-15)


def test_soft_targets_random_sweep():
    rng = rng_from_seed(31)
    for _ in range(200):
        k = int(rng.integers(2, 30))
        ls = LabelSet(tuple(range(k)))
        t = int(rng.integers(0, k))
        sig = float(rng.uniform(0.2, 6.0))
        alp = float(rng.uniform(0.1, 4.0))
        for q in (dldl_target(t, ls, sig).probs, sord_target(t, ls, alp).probs):
            assert abs(q.sum() - 1.0) < 1e-12
            assert int(q.argmax()) == t
            assert np.all(np.diff(q[: t + 1]) >= -1e-15)
            assert np.all(np.diff(q[t:]) <= 1e-15)


# ----------------------------------------------------- composite losses

def test_soft_ce_fixed_point():
    z = np.array([0.4, -0.2, 1.1, 0.0])
    q = softmax(z)
    out = soft_ce_loss(z, q)
    entropy = -float(q @ np.log(q))
    assert out.value == pytest.approx(entropy)
    np.testing.assert_allclose(out.grad, 0.0, atol=1e-15)


def test_soft_ce_one_hot_reduces_to_ce():
    z = np.array([0.3, -0.7, 0.2])
    a = soft_ce_loss(z, one_hot_target(1, 3))
    b = ce_loss(z, 1)
    assert a.value == pytest.approx(b.value)
    np.testing.assert_allclose(a.grad, b.grad, atol=1e-15)


def test_dldlv2_lambda_zero_reduces_to_soft_ce():
    z = np.array([0.1, 0.5, -0.3])
    q = dldl_target(1, LS3, sigma=1.0)
    a = dldlv2_loss(z, q, LS3, true_age=1.0, lambda_expect=0.0)
    b = soft_ce_loss(z, q)
    assert a.value == pytest.approx(b.value)
    np.testing.assert_allclose(a.grad, b.grad, atol=1e-15)


def test_dldlv2_concentrated_anchor_vanishes():
    z = np.array([-40.0, 40.0, -40.0])
    q = dldl_target(1, LS3, sigma=0.5)
    with_anchor = dldlv2_loss(z, q, LS3, true_age=1.0, lambda_expect=5.0)
    without = dldlv2_loss(z, q, LS3, true_age=1.0, lambda_expect=0.0)
    assert with_anchor.value == pytest.approx(without.value, abs=1e-12)


def test_meanvar_uniform_hand_value():
    out = meanvar_loss(np.zeros(3), 1, LS3, lambda_mean=0.2, lambda_var=0.05)
    assert out.value == pytest.approx(math.log(3) + 0.05 * (2 / 3))


def test_meanvar_one_hot_posterior():
    z = np.array([-60.0, 60.0, -60.0])
    out = meanvar_loss(z, 1, LS3)
    assert out.value == pytest.approx(0.0, abs=1e-10)


def test_unimodal_penalty_hand_cases():
    assert unimodal_penalty([0.5, 0.0, 0.5], 1) == pytest.approx(1.0)
    assert unimodal_penalty([0.1, 0.6, 0.3], 1) == 0.0
    assert unimodal_penalty([0.6, 0.1, 0.3], 0) == pytest.approx(0.2)


def test_unimodal_loss_feasible_equals_ce():
    z = np.array([0.0, 2.0, 0.0])  # softmax is unimodal at 1
    a = unimodal_loss(z, 1, lambda_uni=3.0)
    b = ce_loss(z, 1)
    assert a.value == pytest.approx(b.value)
    np.testing.assert_allclose(a.grad, b.grad, atol=1e-15)


def test_expectation_and_variance_hand_values():
    assert expectation([0, 1, 0], LS3) == pytest.approx(1.0)
    assert variance([0, 1, 0], LS3) == pytest.approx(0.0)
    assert expectation([0.5, 0, 0.5], LS3) == pytest.approx(1.0)
    assert variance([0.5, 0, 0.5], LS3) == pytest.approx(1.0)
    assert expectation([1 / 3] * 3, LS3) == pytest.approx(1.0)
    assert variance([1 / 3] * 3, LS3) == pytest.approx(2 / 3)


# -------------------------------------------------------- finite differences

def _random_point(rng, family):
    k = int(rng.integers(3, 26))
    ls = LabelSet(tuple(range(k)))
    age = float(rng.integers(0, k))
    cfg = MethodConfig(family=family)
    m = cfg.head_size(k)
    z = rng.normal(size=m) * 2.0
    return cfg, ls, age, z


def _kink_adjacent(cfg, ls, age, z):
    if cfg.family == "regression":
        return abs(float(z[0]) - ls.normalize(age)) < 1e-4
    if cfg.family == "dldl-v2":
        p = softmax(z)
        return abs(expectation(p, ls) - age) < 1e-4
    if cfg.family == "unimodal":
        p = softmax(z)
        return bool(np.any(np.abs(np.diff(p)) < 1e-5))
    return False


@pytest.mark.parametrize("family", FAMILIES)
def test_gradients_match_finite_differences(family):
    rng = rng_from_seed(101)
    checked = 0
    while checked < 60:
        cfg, ls, age, z = _random_point(rng, family)
        if _kink_adjacent(cfg, ls, age, z):
            continue
        out = loss_eval(cfg, z, age, ls)
        fd = fd_grad(lambda v: loss_eval(cfg, v, age, ls).value, z)
        assert rel_err(out.grad, fd) <= 1e-5, (family, checked)
        checked += 1


# ------------------------------------------------------------- batches

def _random_batch(rng, cfg):
    k = int(rng.integers(2, 81))
    lo = int(rng.integers(0, 30))
    # label sets with gaps, so indices come from the labels, not from age - lo
    labels = lo + np.sort(rng.choice(2 * k, size=k, replace=False))
    ls = LabelSet(tuple(int(v) for v in labels))
    n = int(rng.integers(1, 40))
    z = rng.normal(size=(n, cfg.head_size(k))) * 3.0
    ages = rng.choice(labels, size=n).astype(float)
    return ls, z, ages


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_loss_equals_stacked_rows(family):
    cfg = MethodConfig(family=family)
    rng = rng_from_seed(202)
    for _ in range(30):
        ls, z, ages = _random_batch(rng, cfg)
        batch = loss_eval(cfg, z, ages, ls)
        rows = [loss_eval(cfg, z[i], ages[i], ls) for i in range(len(z))]
        assert batch.value.shape == (len(z),) and batch.grad.shape == z.shape
        assert all(isinstance(r.value, float) for r in rows)
        np.testing.assert_allclose(batch.value, [r.value for r in rows], rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.grad, np.stack([r.grad for r in rows]),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "regression"])
def test_batched_loss_rejects_age_outside_label_set(family):
    cfg = MethodConfig(family=family)
    ls = LabelSet((20, 21, 23))
    z = np.zeros((3, cfg.head_size(3)))
    with pytest.raises(ValidationError):
        loss_eval(cfg, z, np.array([20.0, 22.0, 23.0]), ls)
    with pytest.raises(ValidationError):
        loss_eval(cfg, z[0], 24.0, ls)


def test_unimodal_penalty_batch_matches_rows():
    rng = rng_from_seed(7)
    p = rng.dirichlet(np.ones(12), size=9)
    modes = rng.integers(0, 12, size=9)
    np.testing.assert_allclose(unimodal_penalty(p, modes),
                               [unimodal_penalty(p[i], modes[i]) for i in range(9)],
                               rtol=0, atol=1e-15)


# ------------------------------------------------------------ configs

def test_config_head_sizes():
    k = 12
    assert MethodConfig(family="cross-entropy").head_size(k) == 12
    assert MethodConfig(family="dldl").head_size(k) == 12
    assert MethodConfig(family="or-cnn").head_size(k) == 11
    assert MethodConfig(family="coral").head_size(k) == 11
    assert MethodConfig(family="regression").head_size(k) == 1


def test_config_families_partition():
    assert set(THRESHOLD_FAMILIES) | set(DISTRIBUTION_FAMILIES) | {"regression"} == set(FAMILIES)
    assert not set(THRESHOLD_FAMILIES) & set(DISTRIBUTION_FAMILIES)


def test_config_round_trip_and_unknown_keys():
    cfg = MethodConfig(family="dldl", sigma=2.5, name="wide")
    back = MethodConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert MethodConfig.from_dict({"family": "sord"}).alpha == 1.0
    with pytest.raises(Exception):
        MethodConfig.from_dict({"family": "sord", "bogus": 1})
    with pytest.raises(Exception):
        MethodConfig(family="not-a-family")


def test_display_name_defaults_to_family():
    assert MethodConfig(family="sord").display_name == "sord"
    assert MethodConfig(family="sord", name="s2").display_name == "s2"
