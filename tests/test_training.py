"""The MLP, its optimizer loop, model selection, and checkpointing."""

import numpy as np
import pytest

from gradcheck import fd_grad, flatten_params, rel_err, set_params
from ordibench.data import LabelSet, Sample, DatasetTable, SynthSpec, generate_synthetic
from ordibench.methods import MethodConfig, ebc_encode, ebc_loss
from ordibench.splitting import MODE_SUBJECT_EXCLUSIVE, SplitSpec, make_split
from ordibench.training import (
    HEAD_DENSE,
    HEAD_SHARED_SCORE,
    MlpModel,
    TrainConfig,
    TrainingDiverged,
    batch_loss_and_grads,
    evaluate_mae,
    forward,
    head_kind_for,
    init_model,
    load_model,
    reset_head,
    save_model,
    train,
)
from ordibench import training
from ordibench.training import _backprop, _forward_cached
from ordibench.util import rng_from_seed


def test_init_parameter_counts():
    m = init_model(4, (8,), 3, seed=0)
    assert m.weights[0].shape == (4, 8) and m.biases[0].shape == (8,)
    assert m.weights[1].shape == (8, 3) and m.biases[1].shape == (3,)
    assert m.n_params == (4 * 8 + 8) + (8 * 3 + 3)
    assert m.layer_dims == (4, 8, 3)


def test_init_no_hidden_is_single_affine():
    m = init_model(5, (), 2, seed=1)
    assert len(m.weights) == 1
    x = rng_from_seed(2).normal(size=5)
    np.testing.assert_allclose(forward(m, x), x @ m.weights[0] + m.biases[0])


def test_init_seeds_differ():
    a = init_model(4, (8,), 3, seed=0)
    b = init_model(4, (8,), 3, seed=1)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_init_biases_zero_and_bound():
    m = init_model(9, (16,), 4, seed=5)
    for b in m.biases:
        assert np.all(b == 0.0)
    assert np.abs(m.weights[0]).max() <= 1 / np.sqrt(9)
    assert np.abs(m.weights[1]).max() <= 1 / np.sqrt(16)


def test_hidden_layers_shared_across_head_sizes():
    """Same seed, different heads: the backbone realization is identical."""
    full = init_model(6, (10, 10), 41, seed=3)
    thresh = init_model(6, (10, 10), 40, seed=3)
    scalar = init_model(6, (10, 10), 1, seed=3)
    for other in (thresh, scalar):
        for wa, wb in zip(full.weights[:-1], other.weights[:-1]):
            assert np.array_equal(wa, wb)


def test_reset_head_keeps_hidden_bitwise():
    m = init_model(6, (12,), 5, seed=7)
    r = reset_head(m, 5, seed=7)
    assert np.array_equal(m.weights[0], r.weights[0])
    assert np.array_equal(m.biases[0], r.biases[0])
    assert not np.array_equal(m.weights[-1], r.weights[-1])
    again = reset_head(m, 5, seed=7)
    assert np.array_equal(r.weights[-1], again.weights[-1])


def test_reset_head_to_threshold_width_feeds_ebc():
    m = init_model(6, (12,), 5, seed=7)
    r = reset_head(m, 4, seed=0)
    z = forward(r, np.zeros(6))
    out = ebc_loss(z, ebc_encode(2, 5))
    assert np.isfinite(out.value)


def test_shared_score_head_is_rank_one():
    m = init_model(6, (12,), 7, seed=2, head_kind=HEAD_SHARED_SCORE)
    assert m.weights[-1].shape == (12, 1)
    assert m.biases[-1].shape == (7,)
    x = rng_from_seed(0).normal(size=(4, 6))
    out = forward(m, x)
    spread = out - m.biases[-1][None, :]
    np.testing.assert_allclose(spread - spread[:, :1], 0.0, atol=1e-12)


def test_forward_zero_weights_gives_biases():
    m = init_model(3, (), 4, seed=0)
    m.weights[0][...] = 0.0
    m.biases[0][...] = [1.0, -2.0, 0.5, 3.0]
    np.testing.assert_allclose(forward(m, np.ones(3)), [1.0, -2.0, 0.5, 3.0])


def test_forward_rejects_wrong_width():
    m = init_model(3, (4,), 2, seed=0)
    with pytest.raises(ValueError):
        forward(m, np.zeros(5))


def test_backprop_jacobian_small_model():
    """Each head unit's parameter gradient agrees with finite differences."""
    model = init_model(3, (2,), 2, seed=13)
    x = rng_from_seed(14).normal(size=(1, 3))
    theta = flatten_params(model)

    for j in range(2):
        acts, out = _forward_cached(model, x)
        basis = np.zeros((1, 2))
        basis[0, j] = 1.0
        gw, gb = _backprop(model, acts, basis)
        analytic = np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])
        fd = fd_grad(lambda v: forward(set_params(model, v), x)[0, j], theta)
        assert rel_err(analytic, fd) <= 1e-5


def test_shared_score_backprop_matches_fd():
    model = init_model(4, (6,), 5, seed=21, head_kind=HEAD_SHARED_SCORE)
    ls = LabelSet(tuple(range(6)))
    x = rng_from_seed(22).normal(size=(3, 4))
    ages = np.array([0.0, 3.0, 5.0])
    cfg = MethodConfig(family="coral")
    _, gw, gb = batch_loss_and_grads(model, x, ages, cfg, ls)
    analytic = np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])

    def value(v):
        m = set_params(model, v)
        out = _forward_cached(m, x)[1]
        total = 0.0
        for r in range(3):
            total += ebc_loss(out[r], ebc_encode(ls.index_of(int(ages[r])), 6)).value
        return total / 3

    fd = fd_grad(value, flatten_params(model))
    assert rel_err(analytic, fd) <= 1e-6


def hand_table():
    ls = LabelSet((0, 1, 2, 3, 4))
    rows = [("a", "p1", 0), ("b", "p2", 1), ("c", "p3", 2), ("d", "p4", 4)]
    samples = tuple(
        Sample(sample_id=sid, identity_id=ident, age=age,
               features=np.array([age / 4.0, 1.0]))
        for sid, ident, age in rows
    )
    return DatasetTable(name="hand", label_set=ls, dimension=2, samples=samples)


def test_evaluate_mae_perfect_and_constant():
    tab = hand_table()
    # weights reading off the normalized age exactly
    perfect = MlpModel(weights=[np.array([[1.0], [0.0]])],
                       biases=[np.zeros(1)], head_kind=HEAD_DENSE)
    reg = MethodConfig(family="regression")
    assert evaluate_mae(perfect, tab, tab.sample_ids, reg) == pytest.approx(0.0)

    # constant head pinned at label 2 predicts 2 everywhere
    const = MlpModel(weights=[np.zeros((2, 5))],
                     biases=[np.array([0.0, 0.0, 50.0, 0.0, 0.0])],
                     head_kind=HEAD_DENSE)
    ce = MethodConfig(family="cross-entropy")
    # |0-2|, |1-2|, |2-2|, |4-2| -> mean 5/4
    assert evaluate_mae(const, tab, tab.sample_ids, ce) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        evaluate_mae(const, tab, (), ce)


def clean_split_table(seed=5):
    spec = SynthSpec(n_identities=40, samples_per_identity=4, dimension=12,
                     age_range=(20, 50), sigma_id=0.0, sigma_obs=0.3, seed=seed)
    tab = generate_synthetic(spec)
    split = make_split(tab, MODE_SUBJECT_EXCLUSIVE, (0.6, 0.2, 0.2), seed=0)
    return tab, split


def test_training_reduces_validation_error():
    tab, split = clean_split_table()
    cfg = TrainConfig(epochs=50, seed=0)
    run = train(tab, split, MethodConfig(family="cross-entropy"), cfg)
    first = run.history[0][1]
    assert run.best_val_mae < first
    assert run.best_val_mae == min(v for _, v in run.history)


def test_training_single_epoch():
    tab, split = clean_split_table()
    run = train(tab, split, MethodConfig(family="regression"),
                TrainConfig(epochs=1, seed=0))
    assert len(run.history) == 1
    assert run.selected_epoch == 1


def test_training_is_deterministic():
    tab, split = clean_split_table()
    cfg = TrainConfig(epochs=8, seed=4)
    m = MethodConfig(family="sord")
    a = train(tab, split, m, cfg)
    b = train(tab, split, m, cfg)
    assert a.history == b.history
    assert a.selected_epoch == b.selected_epoch
    for wa, wb in zip(a.best_model.weights, b.best_model.weights):
        assert np.array_equal(wa, wb)


def test_selection_prefers_earliest_best_epoch():
    tab, split = clean_split_table()
    run = train(tab, split, MethodConfig(family="cross-entropy"),
                TrainConfig(epochs=30, seed=1))
    maes = [v for _, v in run.history]
    assert run.selected_epoch == maes.index(min(maes)) + 1


def test_training_diverges_loudly():
    tab, split = clean_split_table()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            train(tab, split, MethodConfig(family="cross-entropy"),
                  TrainConfig(epochs=30, seed=0, learning_rate=1e200))
    assert exc.value.epoch >= 1


def test_train_never_touches_the_test_fold():
    """Every sample id the trainer asks for belongs to train or val."""
    tab, split = clean_split_table()
    requested = []
    orig_feat, orig_ages = tab.features_for, tab.ages_for

    def spy_feat(ids):
        requested.extend(ids)
        return orig_feat(ids)

    def spy_ages(ids):
        requested.extend(ids)
        return orig_ages(ids)

    tab.features_for = spy_feat
    tab.ages_for = spy_ages
    try:
        train(tab, split, MethodConfig(family="cross-entropy"),
              TrainConfig(epochs=3, seed=0))
    finally:
        del tab.features_for
        del tab.ages_for
    allowed = set(split.train) | set(split.val)
    assert requested, "spy never saw a lookup"
    assert set(requested) <= allowed
    assert not set(requested) & set(split.test)


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls to the loss and the decoder through the names the trainer uses."""
    counts = {"loss": 0, "decode": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "loss_eval", counting("loss", training.loss_eval))
    monkeypatch.setattr(training, "decode_output", counting("decode", training.decode_output))
    return counts


@pytest.mark.parametrize("family", ["cross-entropy", "coral", "regression"])
def test_one_loss_call_per_minibatch_and_one_decode_per_fold(call_counts, family):
    tab, split = clean_split_table()
    method = MethodConfig(family=family)
    model = init_model(tab.dimension, (8,), method.head_size(len(tab.label_set)), seed=0,
                       head_kind=head_kind_for(method))
    rows = split.train[:32]
    batch_loss_and_grads(model, tab.features_for(rows), tab.ages_for(rows), method,
                         tab.label_set)
    assert call_counts == {"loss": 1, "decode": 0}
    evaluate_mae(model, tab, split.val, method)
    assert call_counts == {"loss": 1, "decode": 1}

    cfg = TrainConfig(epochs=3, batch_size=16, seed=0, hidden_dims=(8,))
    train(tab, split, method, cfg)
    batches = -(-len(split.train) // cfg.batch_size)
    assert call_counts == {"loss": 1 + cfg.epochs * batches, "decode": 1 + cfg.epochs}


def test_in_place_adam_is_bitwise_the_textbook_update():
    cfg = TrainConfig(learning_rate=3e-3, beta1=0.85, beta2=0.995, adam_eps=1e-7)
    model = init_model(5, (7, 4), 3, seed=2)
    ref = model.copy()
    params = ref.weights + ref.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    adam = training._Adam(model, cfg)
    rng = np.random.default_rng(0)
    for t in range(1, 31):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape) for p in params]
        adam.step(model, grads[:3], grads[3:])
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = cfg.beta1 * m[i] + (1 - cfg.beta1) * g
            v[i] = cfg.beta2 * v[i] + (1 - cfg.beta2) * g * g
            p -= cfg.learning_rate * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + cfg.adam_eps)
    for got, want in zip(model.weights + model.biases, params):
        np.testing.assert_array_equal(got, want)


def test_train_rejects_empty_folds():
    tab, _ = clean_split_table()
    ids = tab.sample_ids
    bad = SplitSpec(mode=MODE_SUBJECT_EXCLUSIVE, seed=0, fractions=(0.6, 0.2, 0.2),
                    train=(), val=ids[:2], test=ids[2:4])
    with pytest.raises(ValueError):
        train(tab, bad, MethodConfig(family="cross-entropy"), TrainConfig(epochs=1))


def test_train_validates_initial_model_shape():
    tab, split = clean_split_table()
    wrong = init_model(tab.dimension, (8,), 3, seed=0)
    with pytest.raises(ValueError):
        train(tab, split, MethodConfig(family="cross-entropy"),
              TrainConfig(epochs=1), initial_model=wrong)


def test_head_kind_selection():
    assert head_kind_for(MethodConfig(family="coral")) == HEAD_SHARED_SCORE
    for fam in ("cross-entropy", "or-cnn", "regression", "dldl"):
        assert head_kind_for(MethodConfig(family=fam)) == HEAD_DENSE


def test_checkpoint_round_trip(tmp_path):
    m = init_model(7, (9, 5), 4, seed=31, head_kind=HEAD_DENSE)
    rng = rng_from_seed(32)
    for w in m.weights:
        w += rng.normal(size=w.shape)
    path = save_model(m, tmp_path / "ckpt.json")
    back = load_model(path)
    assert back.head_kind == m.head_kind
    for wa, wb in zip(m.weights, back.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(m.biases, back.biases):
        assert np.array_equal(ba, bb)


def test_train_config_round_trip():
    cfg = TrainConfig(epochs=12, seed=9, hidden_dims=(32,), learning_rate=3e-4)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
