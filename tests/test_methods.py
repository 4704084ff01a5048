"""Loss families, target encodings, and their analytic gradients."""

import math

import numpy as np
import pytest

from gradcheck import fd_grad, rel_err
from oracles import reference_sigmoid
from ordibench.data import LabelSet, ValidationError
from ordibench.methods import (
    FAMILIES,
    MethodConfig,
    Targets,
    ebc_encode,
    encode_targets,
    expectation,
    loss_eval,
    sigmoid,
    soft_targets,
    softmax,
    variance,
)
from ordibench import methods
from ordibench.util import rng_from_seed

LS10 = LabelSet(tuple(range(0, 10)))
LS3 = LabelSet((0, 1, 2))
LS4 = LabelSet((0, 1, 2, 3))
CE = MethodConfig(family="cross-entropy")
CORAL = MethodConfig(family="coral")


def loss_at(cfg, z, age, ls):
    """loss_eval of head output z against the targets encode_targets builds for age."""
    return loss_eval(cfg, np.asarray(z, dtype=float), encode_targets(cfg, age, ls), ls)


# ---------------------------------------------------------------- softmax

def test_softmax_uniform_and_hand_value():
    np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3)
    np.testing.assert_allclose(softmax([math.log(2), 0.0]), [2 / 3, 1 / 3])


def test_softmax_extreme_logits_stay_finite():
    p = softmax([1000.0, 0.0, -1000.0])
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)


def test_sigmoid_matches_closed_form():
    x = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
    np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)


def test_sigmoid_is_bitwise_the_two_branch_form():
    """One exp of -|x| gives exactly the values of exp(-x) for x >= 0 and
    exp(x) below, at every scale, at the extremes and at signed zeros."""
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(scale=s, size=(32, 40)).ravel()
                        for s in (1e-18, 1e-9, 1e-3, 1.0, 30.0, 800.0)])
    extremes = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0,
                         709.8, -709.8, 36.8, -36.8, 5e-324, -5e-324, np.nan])
    for batch in (x, x.reshape(-1, 40), extremes):
        np.testing.assert_array_equal(sigmoid(batch), reference_sigmoid(batch))
    assert np.isnan(sigmoid(np.nan))
    assert sigmoid(np.array(2.0)).shape == ()


# ------------------------------------------------------------ plain losses

def test_ce_uniform_case():
    out = loss_at(CE, np.zeros(4), 1, LS4)
    assert out.value == pytest.approx(math.log(4))
    np.testing.assert_allclose(out.grad, [0.25, -0.75, 0.25, 0.25])


def test_ce_perfect_prediction_limit():
    z = np.array([0.0, 40.0, 0.0])
    assert loss_at(CE, z, 1, LS3).value == pytest.approx(0.0, abs=1e-12)


def test_target_encoders_reject_bad_index():
    with pytest.raises(IndexError):
        ebc_encode(3, 3)
    with pytest.raises(IndexError):
        soft_targets(dldl(1.0), 3, LS3)


def test_l1_regression_hand_cases():
    reg = MethodConfig(family="regression")
    ls = LabelSet(tuple(range(0, 9)))  # age 4 normalises to 0.5 exactly
    assert loss_at(reg, 0.5, 4, ls).value == 0.0
    up = loss_at(reg, 0.75, 4, ls)
    assert up.value == 0.25 and up.grad[0] == 1.0
    down = loss_at(reg, 0.25, 4, ls)
    assert down.value == 0.25 and down.grad[0] == -1.0


def test_ebc_encode_patterns():
    np.testing.assert_array_equal(ebc_encode(0, 4), [0, 0, 0])
    np.testing.assert_array_equal(ebc_encode(3, 4), [1, 1, 1])
    np.testing.assert_array_equal(ebc_encode(2, 4), [1, 1, 0])


def test_ebc_loss_zero_logits():
    out = loss_at(CORAL, np.zeros(3), 2, LS4)
    assert out.value == pytest.approx(3 * math.log(2))


def test_ebc_loss_saturates_to_zero():
    t = ebc_encode(2, 4).astype(float)
    z = np.where(t > 0.5, 50.0, -50.0)
    assert loss_at(CORAL, z, 2, LS4).value == pytest.approx(0.0, abs=1e-12)


# --------------------------------------------------------- soft targets

def dldl(sigma):
    return MethodConfig(family="dldl", sigma=sigma)


def sord(alpha):
    return MethodConfig(family="sord", alpha=alpha)


def test_dldl_target_normalized_and_centered():
    q = soft_targets(dldl(2.0), 4, LS10)
    assert abs(q.sum() - 1.0) < 1e-12
    assert int(q.argmax()) == 4


def test_dldl_target_tiny_sigma_is_one_hot():
    q = soft_targets(dldl(1e-6), 3, LS10)
    np.testing.assert_allclose(q, np.eye(10)[3], atol=1e-12)


def test_dldl_target_symmetry():
    q = soft_targets(dldl(1.5), 4, LabelSet(tuple(range(0, 9))))
    np.testing.assert_allclose(q, q[::-1], atol=1e-15)


def test_sord_hand_value():
    q = soft_targets(sord(math.log(2)), 1, LS3)
    np.testing.assert_allclose(q, [0.25, 0.5, 0.25], atol=1e-15)


def test_sord_huge_alpha_is_one_hot():
    q = soft_targets(sord(1e4), 5, LS10)
    np.testing.assert_allclose(q, np.eye(10)[5], atol=1e-12)


def test_sord_symmetry():
    q = soft_targets(sord(0.7), 2, LabelSet((0, 1, 2, 3, 4)))
    np.testing.assert_allclose(q, q[::-1], atol=1e-15)


def test_soft_targets_random_sweep():
    rng = rng_from_seed(31)
    for _ in range(200):
        k = int(rng.integers(2, 30))
        ls = LabelSet(tuple(range(k)))
        t = int(rng.integers(0, k))
        sig = float(rng.uniform(0.2, 6.0))
        alp = float(rng.uniform(0.1, 4.0))
        for q in (soft_targets(dldl(sig), t, ls), soft_targets(sord(alp), t, ls)):
            assert abs(q.sum() - 1.0) < 1e-12
            assert int(q.argmax()) == t
            assert np.all(np.diff(q[: t + 1]) >= -1e-15)
            assert np.all(np.diff(q[t:]) <= 1e-15)


def test_soft_targets_batch_rows_and_dldl_v2():
    ls = LabelSet((20, 21, 23, 30))
    t = np.array([0, 3, 2, 2])
    for cfg in (dldl(1.3), sord(0.6), MethodConfig(family="dldl-v2", sigma=1.3)):
        batch = soft_targets(cfg, t, ls)
        assert batch.shape == (4, 4)
        np.testing.assert_array_equal(batch, [soft_targets(cfg, i, ls) for i in t])
    np.testing.assert_array_equal(soft_targets(MethodConfig(family="dldl-v2", sigma=1.3), t, ls),
                                  soft_targets(dldl(1.3), t, ls))
    with pytest.raises(IndexError):
        soft_targets(dldl(1.0), 4, ls)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f not in ("dldl", "dldl-v2", "sord")])
def test_soft_targets_reject_other_families(family):
    with pytest.raises(ValueError, match="no soft targets"):
        soft_targets(MethodConfig(family=family), 0, LS3)


@pytest.mark.parametrize("family, params", [
    ("dldl", {"sigma": 1.7}),
    ("dldl-v2", {"sigma": 1.7, "lambda_expect": 0.8}),
    ("sord", {"alpha": 0.4}),
], ids=["dldl", "dldl-v2", "sord"])
def test_loss_eval_trains_on_soft_targets(family, params):
    """The soft-target families' loss is exactly their loss on soft_targets;
    dldl-v2 anchors on the label at the target index, which is the age."""
    cfg = MethodConfig(family=family, **params)
    rng = rng_from_seed(303)
    for _ in range(20):
        ls, z, ages = _random_batch(rng, cfg)
        t = ls.indices_of(ages)
        q = soft_targets(cfg, t, ls)
        if family == "dldl-v2":
            assert np.array_equal(ls.as_array()[t], ages)
            want = methods._dldlv2(cfg, z, Targets(t, q), ls)
        else:
            want = methods._soft_ce(z, q)[0]
        got = loss_eval(cfg, z, encode_targets(cfg, ages, ls), ls)
        np.testing.assert_array_equal(got.value, want.value)
        np.testing.assert_array_equal(got.grad, want.grad)


# ----------------------------------------------------- composite losses

def test_soft_ce_fixed_point():
    z = np.array([0.4, -0.2, 1.1, 0.0])
    q = softmax(z)
    out = loss_eval(dldl(1.0), z, Targets(np.int64(2), q), LS4)
    entropy = -float(q @ np.log(q))
    assert out.value == pytest.approx(entropy)
    np.testing.assert_allclose(out.grad, 0.0, atol=1e-15)


def test_soft_ce_one_hot_reduces_to_ce():
    z = np.array([0.3, -0.7, 0.2])
    a = loss_eval(dldl(1.0), z, Targets(np.int64(1), np.eye(3)[1]), LS3)
    b = loss_at(CE, z, 1, LS3)
    assert a.value == pytest.approx(b.value)
    np.testing.assert_allclose(a.grad, b.grad, atol=1e-15)


def test_dldlv2_lambda_zero_reduces_to_soft_ce():
    z = np.array([0.1, 0.5, -0.3])
    a = loss_at(MethodConfig(family="dldl-v2", sigma=1.0, lambda_expect=0.0), z, 1, LS3)
    b = loss_at(dldl(1.0), z, 1, LS3)
    assert a.value == pytest.approx(b.value)
    np.testing.assert_allclose(a.grad, b.grad, atol=1e-15)


def test_dldlv2_concentrated_anchor_vanishes():
    z = np.array([-40.0, 40.0, -40.0])
    with_anchor = loss_at(MethodConfig(family="dldl-v2", sigma=0.5, lambda_expect=5.0), z, 1, LS3)
    without = loss_at(MethodConfig(family="dldl-v2", sigma=0.5, lambda_expect=0.0), z, 1, LS3)
    assert with_anchor.value == pytest.approx(without.value, abs=1e-12)


def test_meanvar_uniform_hand_value():
    cfg = MethodConfig(family="mean-variance", lambda_mean=0.2, lambda_var=0.05)
    out = loss_at(cfg, np.zeros(3), 1, LS3)
    assert out.value == pytest.approx(math.log(3) + 0.05 * (2 / 3))


def test_meanvar_one_hot_posterior():
    z = np.array([-60.0, 60.0, -60.0])
    out = loss_at(MethodConfig(family="mean-variance"), z, 1, LS3)
    assert out.value == pytest.approx(0.0, abs=1e-10)


def hinge_penalty(probs, mode):
    """The unimodal loss with lambda_uni = 1 less the cross-entropy, at logits log(probs)."""
    z = np.log(probs)
    return (loss_at(MethodConfig(family="unimodal"), z, mode, LS3).value
            - loss_at(CE, z, mode, LS3).value)


def test_unimodal_penalty_hand_cases():
    assert hinge_penalty([0.5, 1e-30, 0.5], 1) == pytest.approx(1.0)
    assert hinge_penalty([0.1, 0.6, 0.3], 1) == 0.0
    assert hinge_penalty([0.6, 0.1, 0.3], 0) == pytest.approx(0.2)


def test_unimodal_loss_feasible_equals_ce():
    z = np.array([0.0, 2.0, 0.0])  # softmax is unimodal at 1
    a = loss_at(MethodConfig(family="unimodal", lambda_uni=3.0), z, 1, LS3)
    b = loss_at(CE, z, 1, LS3)
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
        out = loss_eval(cfg, z, encode_targets(cfg, age, ls), ls)
        fd = fd_grad(lambda v: loss_eval(cfg, v, encode_targets(cfg, age, ls), ls).value, z)
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
        batch = loss_eval(cfg, z, encode_targets(cfg, ages, ls), ls)
        rows = [loss_eval(cfg, z[i], encode_targets(cfg, ages[i], ls), ls) for i in range(len(z))]
        assert batch.value.shape == (len(z),) and batch.grad.shape == z.shape
        assert all(isinstance(r.value, float) for r in rows)
        np.testing.assert_allclose(batch.value, [r.value for r in rows], rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.grad, np.stack([r.grad for r in rows]),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_batches_are_bitwise_their_slices(family):
    """An (S, n, head) call, as the trainer makes for S models of one method,
    gives bitwise the values and gradients of S (n, head) calls."""
    cfg = MethodConfig(family=family)
    rng = rng_from_seed(203)
    for _ in range(20):
        ls, z, ages = _random_batch(rng, cfg)
        s = int(rng.integers(1, 6))
        z = np.stack([z] + [rng.normal(size=z.shape) * 3.0 for _ in range(s - 1)])
        ages = rng.choice(ls.as_array(), size=(s, z.shape[1])).astype(float)
        stacked = loss_eval(cfg, z, encode_targets(cfg, ages, ls), ls)
        assert stacked.value.shape == z.shape[:2] and stacked.grad.shape == z.shape
        for i in range(s):
            alone = loss_eval(cfg, z[i], encode_targets(cfg, ages[i], ls), ls)
            assert np.array_equal(stacked.value[i], alone.value)
            assert np.array_equal(stacked.grad[i], alone.grad)
        if FAMILIES[family].head == "labels":
            p = softmax(z)
            for i in range(s):
                assert np.array_equal(p[i], softmax(z[i]))
                assert np.array_equal(expectation(p, ls)[i], expectation(p[i], ls))
                assert np.array_equal(variance(p, ls)[i], variance(p[i], ls))


@pytest.mark.parametrize("family", FAMILIES)
def test_float32_outputs_give_a_float32_loss(family):
    """float32 head outputs, as the trainer's stacks give, get a float32 value
    and gradient, also from float64 targets and numpy-float hyperparameters;
    each row of a (S, n, head) batch is bitwise its single-row result, and
    the float64 loss of the same outputs agrees to float32 round-off."""
    rng = rng_from_seed(204)
    params = {p: np.float64(getattr(MethodConfig(family=family), p))
              for p in FAMILIES[family].params}
    for cfg in (MethodConfig(family=family), MethodConfig(family=family, **params)):
        for _ in range(10):
            ls, z, _ = _random_batch(rng, cfg)
            z = np.stack([z, rng.normal(size=z.shape) * 3.0]).astype(np.float32)
            ages = rng.choice(ls.as_array(), size=z.shape[:2]).astype(float)
            targets = encode_targets(cfg, ages, ls)
            batch = loss_eval(cfg, z, targets, ls)
            assert batch.value.dtype == batch.grad.dtype == np.float32
            for i, j in np.ndindex(*z.shape[:2]):
                row = loss_eval(cfg, z[i, j], encode_targets(cfg, ages[i, j], ls), ls)
                assert row.grad.dtype == np.float32
                assert batch.value[i, j] == row.value
                assert np.array_equal(batch.grad[i, j], row.grad)
            wide = loss_eval(cfg, z.astype(float), targets, ls)
            assert wide.value.dtype == np.float64
            # a gradient entry that cancels to near 0 is compared at the scale of its batch
            np.testing.assert_allclose(batch.value, wide.value, rtol=1e-4, atol=0)
            np.testing.assert_allclose(batch.grad, wide.grad, rtol=1e-4,
                                       atol=1e-6 * np.abs(wide.grad).max())


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "regression"])
def test_batched_loss_rejects_age_outside_label_set(family):
    cfg = MethodConfig(family=family)
    ls = LabelSet((20, 21, 23))
    z = np.zeros((3, cfg.head_size(3)))
    with pytest.raises(ValidationError):
        loss_eval(cfg, z, encode_targets(cfg, np.array([20.0, 22.0, 23.0]), ls), ls)
    with pytest.raises(ValidationError):
        loss_eval(cfg, z[0], encode_targets(cfg, 24.0, ls), ls)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("family", FAMILIES)
def test_loss_eval_refuses_a_non_finite_output_for_every_family(family, bad):
    """One rule and one message for every head, for a row and for a batch."""
    cfg = MethodConfig(family=family)
    z = np.zeros((3, cfg.head_size(len(LS4))))
    z[1, -1] = bad
    ages = np.array([0.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="^head outputs must be finite$"):
        loss_eval(cfg, z, encode_targets(cfg, ages, LS4), LS4)
    with pytest.raises(ValueError, match="^head outputs must be finite$"):
        loss_eval(cfg, z[1], encode_targets(cfg, ages[1], LS4), LS4)


def test_unimodal_penalty_batch_matches_rows():
    cfg = MethodConfig(family="unimodal")
    ls = LabelSet(tuple(range(12)))
    rng = rng_from_seed(7)
    z = np.log(rng.dirichlet(np.ones(12), size=9))
    modes = rng.integers(0, 12, size=9).astype(float)
    np.testing.assert_allclose(loss_at(cfg, z, modes, ls).value,
                               [loss_at(cfg, z[i], modes[i], ls).value for i in range(9)],
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
    """Each family has one of the four heads, and its head alone sets its
    size: six softmax heads, two threshold heads (CORAL's shared), one scalar."""
    heads = {f: FAMILIES[f].head for f in FAMILIES}
    assert list(heads) == ["cross-entropy", "regression", "or-cnn", "coral", "dldl",
                           "dldl-v2", "sord", "mean-variance", "unimodal"]
    assert heads == {**dict.fromkeys(FAMILIES, "labels"), "regression": "scalar",
                     "or-cnn": "thresholds", "coral": "shared"}
    size = {"labels": 12, "thresholds": 11, "shared": 11, "scalar": 1}
    assert all(MethodConfig(family=f).head_size(12) == size[h] for f, h in heads.items())
    assert [f for f in FAMILIES if FAMILIES[f].soft] == ["dldl", "dldl-v2", "sord"]
    assert {p for f in FAMILIES.values() for p in f.params} == set(HYPERPARAMETERS)


HYPERPARAMETERS = ("sigma", "alpha", "lambda_expect", "lambda_mean", "lambda_var", "lambda_uni")


def tuned(field):
    """A value of field, in range, other than its default."""
    return getattr(MethodConfig(family="cross-entropy"), field) * 2 + 0.5


@pytest.mark.parametrize("family", FAMILIES)
def test_a_family_refuses_a_hyperparameter_it_does_not_read(family):
    """A tuned value of a field the family's loss never reads would train the
    defaults under a tuned name, so the config refuses it; the family's own
    fields, and any field at its default, are accepted."""
    for field in HYPERPARAMETERS:
        if field in FAMILIES[family].params:
            cfg = MethodConfig(family=family, **{field: tuned(field)})
            assert getattr(cfg, field) == tuned(field)
        else:
            with pytest.raises(ValidationError,
                               match=f"^family '{family}' does not read {field}$"):
                MethodConfig(family=family, **{field: tuned(field)})
        default = getattr(MethodConfig(family=family), field)
        assert MethodConfig(family=family, **{field: default}) == MethodConfig(family=family)


@pytest.mark.parametrize("family, field", [(f, p) for f in FAMILIES for p in FAMILIES[f].params])
def test_a_family_reads_each_of_its_params(family, field):
    """Every field a record lists changes the loss on a fixed batch, or the
    rows encode_targets builds: a params list cannot name a field the kernel
    ignores."""
    base, other = MethodConfig(family=family), MethodConfig(family=family, **{field: tuned(field)})
    ls, z, ages = _random_batch(rng_from_seed(404), base)
    targets = [encode_targets(cfg, ages, ls) for cfg in (base, other)]
    values = [loss_eval(cfg, z, t, ls).value for cfg, t in zip((base, other), targets)]
    assert not (np.array_equal(*values) and np.array_equal(targets[0].row, targets[1].row))


def test_display_name_defaults_to_family():
    assert MethodConfig(family="sord").display_name == "sord"
    assert MethodConfig(family="sord", name="s2").display_name == "s2"
