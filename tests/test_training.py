"""The MLP, its optimizer loop and model selection."""

import dataclasses
import math

import numpy as np
import pytest

from gradcheck import fd_grad, flatten_params, rel_err, set_params
from ordibench.data import LabelSet, DatasetTable, SynthSpec, generate_synthetic
from ordibench.methods import (
    FAMILIES,
    MethodConfig,
    encode_targets,
    loss_eval,
)
from ordibench.splitting import MODE_RANDOM, MODE_SUBJECT_EXCLUSIVE, SplitSpec, make_split, make_split_series
from ordibench.training import (
    MlpModel,
    ModelStack,
    TrainConfig,
    TrainedRun,
    TrainingDiverged,
    batch_loss_and_grads,
    evaluate_mae,
    forward,
    init_model,
    train,
)
from ordibench import prediction, training
from ordibench.util import rng_from_seed


def head_width(method):
    """The head width train() gives a method: one weight column for a shared score."""
    return 1 if FAMILIES[method.family].head == "shared" else None


def test_init_parameter_counts():
    m = init_model(4, (8,), 3, seed=0)
    assert m.weights[0].shape == (4, 8) and m.biases[0].shape == (8,)
    assert m.weights[1].shape == (8, 3) and m.biases[1].shape == (3,)
    assert sum(p.size for p in m.weights + m.biases) == (4 * 8 + 8) + (8 * 3 + 3)
    assert m.input_dim == 4 and m.head_size == 3


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


def test_shared_score_head_is_rank_one():
    m = init_model(6, (12,), 7, seed=2, head_width=1)
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


def test_forward_builds_no_gradient(monkeypatch):
    """An inference pass allocates no gradient vector or gradient blocks; a
    training step builds them on first use."""
    stacks = []
    monkeypatch.setattr(training, "ModelStack",
                        lambda models, group_size=1: stacks.append(ModelStack(models, group_size))
                        or stacks[-1])
    m = init_model(3, (4,), 2, seed=0)
    forward(m, np.ones((5, 3)))
    lazy = {"grad", "_grad_blocks"}
    assert len(stacks) == 1 and not lazy & set(vars(stacks[0]))
    method = MethodConfig(family="cross-entropy")
    batch_loss_and_grads(stacks[0], np.ones((2, 3)),
                         [encode_targets(method, np.array([0.0, 1.0]), LabelSet((0, 1)))],
                         [method], LabelSet((0, 1)))
    assert {"grad", "_grad_blocks"} <= set(vars(stacks[0]))
    assert stacks[0].grad.any()


def test_backprop_jacobian_small_model():
    """Each head unit's parameter gradient agrees with finite differences."""
    model = init_model(3, (2,), 2, seed=13)
    x = rng_from_seed(14).normal(size=(1, 3))
    theta = flatten_params(model)
    stack = ModelStack([model])

    for j in range(2):
        acts = stack._layers(x)
        basis = np.zeros((1, 1, 2))
        basis[0, 0, j] = 1.0
        stack.backward(acts, [basis])
        analytic = flatten_params(stack._members(stack.grad)[0])
        fd = fd_grad(lambda v: forward(set_params(model, v), x)[0, j], theta)
        assert rel_err(analytic, fd) <= 1e-5


def assert_backprop_matches_fd(method, label_set, ages):
    """The stack's parameter gradients of the mean loss over len(ages) rows
    agree with finite differences; returns the model they were taken at."""
    model = init_model(4, (6,), method.head_size(len(label_set)), seed=21,
                       head_width=head_width(method))
    x = rng_from_seed(22).normal(size=(len(ages), 4))
    stack = ModelStack([model])
    batch_loss_and_grads(stack, x, [encode_targets(method, ages, label_set)], [method], label_set)

    def value(v):
        out = forward(set_params(model, v), x)
        return sum(loss_eval(method, out[r], encode_targets(method, ages[r], label_set),
                             label_set).value for r in range(len(ages))) / len(ages)

    analytic = flatten_params(stack._members(stack.grad)[0])
    assert rel_err(analytic, fd_grad(value, flatten_params(model))) <= 1e-6
    return model


def test_shared_score_backprop_matches_fd():
    model = assert_backprop_matches_fd(MethodConfig(family="coral"), LabelSet(tuple(range(6))),
                                       np.array([0.0, 3.0, 5.0]))
    assert model.weights[-1].shape == (6, 1) and model.biases[-1].shape == (5,)


@pytest.mark.parametrize("family", ["coral", "or-cnn"])
def test_two_label_threshold_backprop_matches_fd(family):
    """K = 2: a threshold head has one output and one weight column, whichever
    head kind its family has."""
    model = assert_backprop_matches_fd(MethodConfig(family=family), LabelSet((20, 21)),
                                       np.array([20.0, 21.0, 21.0]))
    assert model.weights[-1].shape == (6, 1) and model.biases[-1].shape == (1,)


def test_a_malformed_head_is_refused():
    """A head has one weight column or one per bias; nothing else is a head."""
    with pytest.raises(ValueError, match="needs 1 or 4 weight columns, got 2"):
        MlpModel(weights=[np.zeros((3, 2))], biases=[np.zeros(4)])
    with pytest.raises(ValueError, match="got 3"):
        init_model(3, (5,), 4, seed=0, head_width=3)
    for width in (1, 4):
        assert MlpModel(weights=[np.zeros((3, width))], biases=[np.zeros(4)]).head_size == 4


def hand_table():
    ls = LabelSet((0, 1, 2, 3, 4))
    ages = [0, 1, 2, 4]
    return DatasetTable("hand", ls, 2, ["a", "b", "c", "d"], ["p1", "p2", "p3", "p4"], ages,
                        [[age / 4.0, 1.0] for age in ages])


def run_of(model, method, label_set):
    """A one-epoch TrainedRun around a hand-made model, to score it."""
    return TrainedRun(best_model=model, history=((0.0, 0.0),), selected_epoch=1,
                      method=method, label_set=label_set)


def test_evaluate_mae_perfect_and_constant():
    tab = hand_table()
    # weights reading off the normalized age exactly
    perfect = MlpModel(weights=[np.array([[1.0], [0.0]])], biases=[np.zeros(1)])
    reg = MethodConfig(family="regression")
    assert evaluate_mae(run_of(perfect, reg, tab.label_set), tab, tab.sample_ids) == \
        pytest.approx(0.0)

    # constant head pinned at label 2 predicts 2 everywhere
    const = MlpModel(weights=[np.zeros((2, 5))],
                     biases=[np.array([0.0, 0.0, 50.0, 0.0, 0.0])])
    ce = MethodConfig(family="cross-entropy")
    # |0-2|, |1-2|, |2-2|, |4-2| -> mean 5/4
    const_run = run_of(const, ce, tab.label_set)
    assert evaluate_mae(const_run, tab, tab.sample_ids) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        evaluate_mae(const_run, tab, ())


def clean_split_table(seed=5):
    spec = SynthSpec(n_identities=40, samples_per_identity=4, dimension=12,
                     age_range=(20, 50), sigma_id=0.0, sigma_obs=0.3, seed=seed)
    tab = generate_synthetic(spec)
    split = make_split(tab, MODE_SUBJECT_EXCLUSIVE, (0.6, 0.2, 0.2), seed=0)
    return tab, split


def test_training_reduces_validation_error():
    tab, split = clean_split_table()
    cfg = TrainConfig(epochs=50, seed=0)
    [[run]] = train(tab, [split], [MethodConfig(family="cross-entropy")], [cfg])
    first = run.history[0][1]
    assert run.best_val_mae < first
    assert run.best_val_mae == min(v for _, v in run.history)


def test_training_single_epoch():
    tab, split = clean_split_table()
    [[run]] = train(tab, [split], [MethodConfig(family="regression")],
                    [TrainConfig(epochs=1, seed=0)])
    assert len(run.history) == 1
    assert run.selected_epoch == 1


def test_training_is_deterministic():
    tab, split = clean_split_table()
    cfg = TrainConfig(epochs=8, seed=4)
    m = MethodConfig(family="sord")
    [[a]] = train(tab, [split], [m], [cfg])
    [[b]] = train(tab, [split], [m], [cfg])
    assert a.history == b.history
    assert a.selected_epoch == b.selected_epoch
    for wa, wb in zip(a.best_model.weights, b.best_model.weights):
        assert np.array_equal(wa, wb)


def test_selection_prefers_earliest_best_epoch():
    tab, split = clean_split_table()
    [[run]] = train(tab, [split], [MethodConfig(family="cross-entropy")],
                    [TrainConfig(epochs=30, seed=1)])
    maes = [v for _, v in run.history]
    assert run.selected_epoch == maes.index(min(maes)) + 1


def test_training_diverges_loudly():
    tab, split = clean_split_table()
    [[run]] = train(tab, [split], [MethodConfig(family="cross-entropy")],
                    [TrainConfig(epochs=30, seed=0, learning_rate=1e200)])
    assert isinstance(run, TrainingDiverged) and run.epoch >= 1


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
        train(tab, [split], [MethodConfig(family="cross-entropy")], [TrainConfig(epochs=3, seed=0)])
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
                       head_width=head_width(method))
    rows = split.train[:32]
    batch_loss_and_grads(ModelStack([model]), tab.features_for(rows),
                         [encode_targets(method, tab.ages_for(rows), tab.label_set)], [method],
                         tab.label_set)
    assert call_counts == {"loss": 1, "decode": 0}
    evaluate_mae(run_of(model, method, tab.label_set), tab, split.val)
    assert call_counts == {"loss": 1, "decode": 1}

    cfg = TrainConfig(epochs=3, batch_size=16, seed=0, hidden_dims=(8,))
    train(tab, [split], [method], [cfg])
    batches = -(-len(split.train) // cfg.batch_size)
    assert call_counts == {"loss": 1 + cfg.epochs * batches, "decode": 1 + cfg.epochs}


def _member_arrays(model):
    return [a.tobytes() for a in model.weights + model.biases]


def grid_models(hidden_dims, splits=2):
    """A group of dense heads, then a group of shared-score heads, a member per split."""
    return [init_model(4, hidden_dims, 3, seed=s, head_width=width)
            for width in (None, 1) for s in range(splits)]


@pytest.mark.parametrize("hidden_dims", [(5, 3), ()], ids=["two_hidden", "no_hidden"])
def test_a_member_mask_marks_exactly_its_members_views(hidden_dims):
    """A 2 x 2 grid, a group of dense heads and a group of shared-score
    heads: the mask of any set of members is true on exactly the entries of
    theta their views hold."""
    stack = ModelStack(grid_models(hidden_dims), 2)
    stack.theta[:] = np.arange(stack.theta.size)
    for members in ([True, False, False, False], [False, True, True, False],
                    [False, True, False, True], [False] * 4):
        held = [a.ravel() for k in np.flatnonzero(members)
                for a in stack.models[k].weights + stack.models[k].biases]
        held = np.sort(np.concatenate(held)) if held else np.array([])
        np.testing.assert_array_equal(stack.theta[stack.member_mask(np.array(members))], held)


@pytest.mark.parametrize("hidden_dims", [(5, 3), ()], ids=["two_hidden", "no_hidden"])
def test_a_grid_member_reads_its_splits_batch(hidden_dims):
    """In a 2 methods x 2 splits stack fed a (2, n, input) batch, member
    (j, s) gets bitwise forward() of its model on batch s."""
    models = grid_models(hidden_dims)
    rng = rng_from_seed(8)
    for model in models:  # move every member off the shared initial hidden layers
        for a in model.weights + model.biases:
            a += rng.normal(scale=0.1, size=a.shape)
    x = rng_from_seed(9).normal(size=(2, 7, 4))
    outs = ModelStack(models, 2).outputs(x)
    for k, model in enumerate(models):
        j, s = divmod(k, 2)
        assert outs[j][s].tobytes() == forward(model, x[s]).tobytes(), (j, s)


def test_a_stack_is_a_grid_of_equal_groups():
    models = grid_models(())
    for group_size in (0, 3):
        with pytest.raises(ValueError, match="do not form groups"):
            ModelStack(models, group_size)
    assert ModelStack(models[:2], 2).grid == (1, 2) and ModelStack(models).grid == (4, 1)


@pytest.mark.parametrize("hidden_dims", [(16, 8), ()], ids=["two_hidden", "no_hidden"])
def test_a_stack_is_bitwise_its_stacks_of_one(hidden_dims):
    """Every family in one stack (dense, shared-score and scalar heads) gets
    the gradients and the run it gets alone, ragged minibatches included."""
    tab, split = clean_split_table()
    methods = [MethodConfig(family=f) for f in FAMILIES]
    ls = tab.label_set
    models = [init_model(tab.dimension, hidden_dims, m.head_size(len(ls)), seed=7,
                         head_width=head_width(m)) for m in methods]
    rng = rng_from_seed(8)
    for model in models:  # move every member off the shared initial hidden layers
        for a in model.weights + model.biases:
            a += rng.normal(scale=0.1, size=a.shape)
    stack = ModelStack(models)
    for rows in (list(split.train[:13]), [split.train[0]]):
        x, ages = tab.features_for(rows), tab.ages_for(rows)
        targets = [encode_targets(m, ages, ls) for m in methods]
        values = batch_loss_and_grads(stack, x, targets, methods, ls)
        for k, (model, method) in enumerate(zip(models, methods)):
            alone = ModelStack([model])
            assert batch_loss_and_grads(alone, x, [targets[k]], [method], ls) == [values[k]]
            assert (_member_arrays(alone._members(alone.grad)[0])
                    == _member_arrays(stack._members(stack.grad)[k])), method

    # forward() is the pass of a stack of one: bitwise each member's outputs,
    # into arrays of its own that a later call leaves alone
    x, row = tab.features_for(split.val), tab.features_for(split.val[:1])
    batch = [out[0].copy() for out in stack.outputs(x)]
    single = [out[0, 0].copy() for out in stack.outputs(row)]
    for k, model in enumerate(models):
        first = forward(model, x)
        assert first.tobytes() == batch[k].tobytes(), methods[k]
        assert forward(model, row[0]).tobytes() == single[k].tobytes(), methods[k]
        forward(model, x[::-1])
        assert first.tobytes() == batch[k].tobytes(), methods[k]

    n = len(split.train)
    for batch_size in (n - 1, 10):  # last minibatches of 1 and of n % 10 = 6 rows
        cfg = TrainConfig(epochs=3, batch_size=batch_size, seed=2, hidden_dims=hidden_dims)
        [runs] = train(tab, [split], methods, [cfg])
        for method, run in zip(methods, runs):
            [[alone]] = train(tab, [split], [method], [cfg])
            assert run.history == alone.history, method
            assert run.selected_epoch == alone.selected_epoch
            assert _member_arrays(run.best_model) == _member_arrays(alone.best_model)


def test_a_failing_method_fails_alone_and_the_others_go_on():
    tab, split = clean_split_table()
    cfg = TrainConfig(epochs=3, seed=0, hidden_dims=(8,))
    methods = [MethodConfig(family="sord"),
               MethodConfig(family="mean-variance", lambda_mean=1e308),
               MethodConfig(family="coral")]
    [runs] = train(tab, [split], methods, [cfg])
    [[alone]] = train(tab, [split], [methods[1]], [cfg])
    assert isinstance(alone, TrainingDiverged)
    assert isinstance(runs[1], TrainingDiverged) and runs[1].epoch == 1
    for method, run in zip(methods[::2], runs[::2]):
        [[alone]] = train(tab, [split], [method], [cfg])
        assert run.history == alone.history
        assert _member_arrays(run.best_model) == _member_arrays(alone.best_model)


def test_a_failed_member_is_frozen_at_zero_in_the_one_stack(monkeypatch):
    """The stack is built once, whatever fails; a member that fails at epoch 1
    keeps its slot with every parameter held at 0 to the end of the run."""
    tab, split = clean_split_table()
    cfg = TrainConfig(epochs=3, seed=0, hidden_dims=(8,))
    methods = [MethodConfig(family="sord"),
               MethodConfig(family="mean-variance", lambda_mean=1e308),
               MethodConfig(family="coral")]
    stacks = []

    def kept_stack(models, group_size=1):
        stacks.append(ModelStack(models, group_size))
        return stacks[-1]

    monkeypatch.setattr(training, "ModelStack", kept_stack)
    [runs] = train(tab, [split], methods, [cfg])
    assert isinstance(runs[1], TrainingDiverged) and runs[1].epoch == 1
    assert all(isinstance(run, TrainedRun) for run in runs[::2])
    assert len(stacks) == 1
    frozen = stacks[0].models[1]
    assert all(not a.any() for a in frozen.weights + frozen.biases)
    assert np.isfinite(stacks[0].theta).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_in_place_adam_is_bitwise_the_textbook_update(dtype):
    """The update in the parameters' dtype is bitwise Adam on unscaled
    moments, with its two scalars computed in Python floats and rounded
    once, and agrees with Kingma & Ba's Algorithm 1 (computed in float64
    from the same start and gradients) to round-off of the dtype."""
    lr, beta1, beta2, eps = 3e-3, training._BETA1, training._BETA2, training._ADAM_EPS
    model = init_model(5, (7, 4), 3, seed=2).astype(dtype)
    ref = model.astype(model.weights[0].dtype)
    params = ref.weights + ref.biases
    textbook = [p.astype(np.float64) for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    m64 = [np.zeros_like(p) for p in textbook]
    v64 = [np.zeros_like(p) for p in textbook]
    stack = ModelStack([model])
    model, grads = stack.models[0], stack._members(stack.grad)[0]
    grad_views = grads.weights + grads.biases
    adam = training._Adam(stack.theta, lr)
    rng = np.random.default_rng(0)
    for t in range(1, 31):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape).astype(dtype)
                 for p in params]
        for view, g in zip(grad_views, grads):
            view[...] = g
        adam.step(stack.theta, stack.grad)
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        lr_t = dtype(lr * ((1 - beta1) / math.sqrt(1 - beta2) * math.sqrt(bc2) / bc1))
        eps_t = dtype(eps * math.sqrt(bc2) / math.sqrt(1 - beta2))
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = dtype(beta1) * m[i] + g
            v[i] = dtype(beta2) * v[i] + g * g
            p -= lr_t * (m[i] / (np.sqrt(v[i]) + eps_t))
            m64[i] = beta1 * m64[i] + (1 - beta1) * g
            v64[i] = beta2 * v64[i] + (1 - beta2) * g.astype(np.float64) ** 2
            textbook[i] -= lr * (m64[i] / bc1) / (np.sqrt(v64[i] / bc2) + eps)
    for got, want, alg1 in zip(model.weights + model.biases, params, textbook):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(got, alg1, rtol=1e-12 if dtype == np.float64 else 1e-5, atol=0)


def test_a_stack_and_its_adam_take_the_dtype_of_their_models(monkeypatch):
    """float64 models give a float64 stack, Adam state, work buffers, head
    outputs and loss, the path criterion 1 and the gradient tests take;
    float32 models give float32 ones, and no float64 buffer. The loss kernel
    computes in the stack's dtype, from float64 targets too; the decoder
    computes in float64 either way, and forward() returns float64."""
    tab, split = clean_split_table()
    x = tab.features_for(split.train[:16])
    ages = tab.ages_for(split.train[:16])
    method = MethodConfig(family="coral")
    targets = encode_targets(method, ages, tab.label_set)
    seen = []
    family = FAMILIES["coral"]
    monkeypatch.setitem(FAMILIES, "coral", dataclasses.replace(
        family, loss=lambda m, z, *args: seen.append(z.dtype) or family.loss(m, z, *args)))
    decode = prediction.ebc_decode
    monkeypatch.setattr(prediction, "ebc_decode",
                        lambda q, *args: seen.append(q.dtype) or decode(q, *args))
    for dtype in (np.float64, np.float32):
        model = init_model(tab.dimension, (8,), method.head_size(len(tab.label_set)), seed=0,
                           head_width=1).astype(dtype)
        stack = ModelStack([model])
        batch_loss_and_grads(stack, x, [targets], [method], tab.label_set)
        adam = training._Adam(stack.theta, 1e-3)
        adam.step(stack.theta, stack.grad)
        out, = stack.outputs(x)
        training._mae(method, out, ages, tab.label_set)
        assert seen == [dtype, np.float64]
        seen.clear()
        for a in (stack.theta, stack.grad, adam.m, adam.v, adam.num, adam.den, out):
            assert a.dtype == dtype
        for (name, _, _), buf in stack._work.items():
            kind = name[0] if isinstance(name, tuple) else name
            assert buf.dtype == (bool if kind == "on" else dtype), kind
        assert forward(model, x).dtype == np.float64
        assert forward(model, x[0]).dtype == np.float64


def test_train_returns_float32_models_drawn_in_float64():
    """Each member is drawn in float64 and rounded to float32 once: steps
    too small to move a weight leave the rounded draw."""
    tab, split = clean_split_table()
    [[run]] = train(tab, [split], [MethodConfig(family="cross-entropy")],
                    [TrainConfig(learning_rate=1e-30, epochs=1, seed=3, hidden_dims=(8,))])
    drawn = init_model(tab.dimension, (8,), len(tab.label_set), seed=3)
    assert all(a.dtype == np.float32 for a in run.best_model.weights + run.best_model.biases)
    for got, want in zip(run.best_model.weights, drawn.weights):
        np.testing.assert_array_equal(got, want.astype(np.float32))


def test_a_numpy_learning_rate_trains_bitwise_as_its_python_float():
    """Under numpy 2, a float32 array times an np.float64 computes in float64;
    Adam's step size is rounded to the trunk's dtype, so the learning rate's
    type does not change a run."""
    tab, split = clean_split_table()
    lr = np.linspace(1e-3, 4e-3, 4)[1]
    assert type(TrainConfig(learning_rate=lr).learning_rate) is float
    methods = [MethodConfig(family=f) for f in LOCKSTEP_FAMILIES]
    [as_numpy] = train(tab, [split], methods, [TrainConfig(learning_rate=lr, epochs=3, seed=1)])
    [as_float] = train(tab, [split], methods, [TrainConfig(learning_rate=float(lr), epochs=3, seed=1)])
    for a, b in zip(as_numpy, as_float):
        assert a.history == b.history
        assert _member_arrays(a.best_model) == _member_arrays(b.best_model)


def test_coral_thresholds_start_at_the_train_fold_logits():
    """Bias k starts at logit(P(label index > k)) over the train fold, clipped."""
    tab, split = clean_split_table()
    [[run]] = train(tab, [split], [MethodConfig(family="coral")],
                    [TrainConfig(learning_rate=1e-9, epochs=1, seed=0)])
    idx = [tab.label_set.values.index(int(a)) for a in tab.ages_for(split.train)]
    above = [np.mean([i > k for i in idx]) for k in range(len(tab.label_set) - 1)]
    p = np.clip(above, 1e-3, 1 - 1e-3)
    assert p.min() == 1e-3 or p.max() == 1 - 1e-3  # the clip is exercised
    np.testing.assert_allclose(run.best_model.biases[-1], np.log(p / (1 - p)), rtol=0, atol=1e-6)


def test_the_family_rule_gives_every_head_its_shape():
    """A family's head is the one record of its kind: of the nine families,
    train() gives CORAL, the one "shared" head, a single weight column and
    every other family one column per output."""
    assert [f for f in FAMILIES if FAMILIES[f].head == "shared"] == ["coral"]
    tab, split = clean_split_table()
    methods = [MethodConfig(family=f) for f in FAMILIES]
    [runs] = train(tab, [split], methods, [TrainConfig(epochs=1, seed=0, hidden_dims=(8,))])
    for method, run in zip(methods, runs):
        size = method.head_size(len(tab.label_set))
        assert run.best_model.biases[-1].shape == (size,)
        assert run.best_model.weights[-1].shape == (8, 1 if method.family == "coral" else size)


@pytest.mark.parametrize("learning_rate", [3e38, 1e308], ids=["lr3e38", "lr1e308"])
def test_a_bias_only_divergence_is_reported_as_divergence(monkeypatch, learning_rate):
    """All-zero features and no hidden layer leave every head weight at its
    start, so a huge step overflows only the biases. The epoch-end check reads
    the biases too: each such member fails as TrainingDiverged at epoch 1, not
    as a ValueError from decoding its non-finite val outputs, and the stack's
    member mask freezes its parameters and Adam moments at zero.

    Every age is 20, the lowest label, so both steps of the epoch (23 rows,
    then 1) push a labels head's target logit up and its other logits down,
    and a threshold head's biases down. Its float32 loss stays finite, 0 at
    the second step, while the second step of 3e38, finite in float32,
    overflows the biases: the eight label and threshold families fail with
    every weight finite at the epoch-end check, and regression, whose one
    output starts at its target, finishes. A step of 1e308 is inf in
    float32, so it makes every parameter non-finite and every member
    diverges."""
    ids = [f"s{i}" for i in range(40)]
    tab = DatasetTable("zeros", LabelSet(tuple(range(20, 30))), 2, ids, ids, [20] * 40,
                       np.zeros((40, 2)))
    split = make_split(tab, MODE_RANDOM, (0.6, 0.2, 0.2), seed=0)
    methods = [MethodConfig(family=f) for f in FAMILIES]
    cfg = TrainConfig(learning_rate=learning_rate, epochs=1, batch_size=23, hidden_dims=())
    stacks, adams, stepped = [], [], []  # stepped: (theta, m, v) after each Adam step

    class KeptAdam(training._Adam):
        def step(self, theta, g):
            super().step(theta, g)
            adams.append(self)
            stepped.append([a.copy() for a in (theta, self.m, self.v)])

    monkeypatch.setattr(training, "ModelStack",
                        lambda models, group_size=1: stacks.append(ModelStack(models, group_size))
                        or stacks[-1])
    monkeypatch.setattr(training, "_Adam", KeptAdam)
    [runs] = train(tab, [split], methods, [cfg])
    finish = ("regression",) if learning_rate == 3e38 else ()
    for method, run in zip(methods, runs):
        if method.family in finish:
            assert isinstance(run, TrainedRun), method.family
        else:
            assert isinstance(run, TrainingDiverged) and run.epoch == 1, (method.family, run)
            assert str(run) == "training diverged at epoch 1", method.family
    stack, adam = stacks[0], adams[-1]  # one member per method, in method order
    failed = np.array([isinstance(run, TrainingDiverged) for run in runs])
    frozen = stack.member_mask(failed)
    assert not any(a[frozen].any() for a in (stack.theta, adam.m, adam.v))
    if learning_rate == 3e38:
        before = [stack._members(a) for a in stepped[-1]]  # as the epoch-end check read them
        assert sum(not all(np.isfinite(b).all() for b in views[k].biases)
                   for views in before for k in np.flatnonzero(failed)) == 8
        assert all(np.isfinite(w).all()
                   for views in before for k in np.flatnonzero(failed) for w in views[k].weights)


def test_outputs_that_overflow_fail_every_family_as_divergence():
    """A huge first step leaves the parameters finite but overflows the
    outputs. Every family fails as TrainingDiverged at epoch 1: none raises
    from its loss or decode, and none is selected from NaN val MAEs. The
    step, 1e36, is finite in float32 (1e160 would make the parameters inf
    and fail them before the outputs are read)."""
    tab = generate_synthetic(SynthSpec(40, 1, 4, (20, 29), 1.0, 0.5, seed=0))
    split = make_split(tab, MODE_RANDOM, (0.6, 0.2, 0.2), seed=0)
    cfg = TrainConfig(learning_rate=1e36, epochs=1, batch_size=64, seed=0, hidden_dims=(8, 8))
    methods = [MethodConfig(family=f) for f in FAMILIES]
    [runs] = train(tab, [split], methods, [cfg])
    for method, run in zip(methods, runs):
        assert isinstance(run, TrainingDiverged) and run.epoch == 1, (method.family, run)
        assert str(run) == "val outputs not finite at epoch 1", method.family


# ------------------------------------------------------- multi-split lockstep

LOCKSTEP_FAMILIES = ("cross-entropy", "coral", "regression")  # dense, shared-score, scalar heads


def grid_table():
    """The criterion-10 table's shape: 240 rows, so a 0.6/0.2/0.2 random split
    has 144 train rows, a ragged last minibatch of 16 at batch size 32."""
    spec = SynthSpec(n_identities=60, samples_per_identity=4, dimension=8,
                     age_range=(20, 60), sigma_id=2.0, sigma_obs=0.5, seed=11)
    return generate_synthetic(spec)


def two_label_table():
    """grid_table with every age above 50 made 21 and every other age 20: an
    uneven two-label problem, so CORAL's one bias starts well off zero."""
    tab = grid_table()
    names = tab.identities()
    return DatasetTable(tab.name, LabelSet((20, 21)), tab.dimension, tab.sample_ids,
                        [names[c] for c in tab.identity_codes],
                        [21 if age > 50 else 20 for age in tab.ages], tab.feature_matrix)


def one_label_table():
    """grid_table with every age made 20: one label, so no threshold family
    can encode its targets."""
    tab = grid_table()
    names = tab.identities()
    return DatasetTable(tab.name, LabelSet((20,)), tab.dimension, tab.sample_ids,
                        [names[c] for c in tab.identity_codes], [20] * len(tab), tab.feature_matrix)


def random_splits(tab, n):
    return make_split_series(tab, MODE_RANDOM, (0.6, 0.2, 0.2), 3, n)


def split_cfgs(n, **kw):
    return [TrainConfig(epochs=3, batch_size=32, seed=20 + s, hidden_dims=(16, 8), **kw)
            for s in range(n)]


def with_features(tab, features):
    names = tab.identities()
    return DatasetTable(tab.name, tab.label_set, tab.dimension, tab.sample_ids,
                        [names[c] for c in tab.identity_codes], tab.ages, features)


def assert_solo(tab, split, method, cfg, run):
    """run is bitwise the run train() gives the split and method alone."""
    [[alone]] = train(tab, [split], [method], [cfg])
    assert run.history == alone.history, method
    assert run.selected_epoch == alone.selected_epoch
    assert _member_arrays(run.best_model) == _member_arrays(alone.best_model)


def test_every_split_and_method_in_one_stack_is_bitwise_its_solo_run(monkeypatch):
    tab = grid_table()
    splits = random_splits(tab, 3)
    assert {len(s.train) for s in splits} == {144}
    methods = [MethodConfig(family=f) for f in FAMILIES]
    cfgs = split_cfgs(3)
    stacks = []
    monkeypatch.setattr(training, "ModelStack", lambda models, group_size=1:
                        stacks.append(group_size) or ModelStack(models, group_size))
    runs = train(tab, splits, methods, cfgs)
    assert stacks == [3]  # one stack, method-major, a method's splits one group
    monkeypatch.undo()
    assert len(runs) == 3 and all(len(row) == len(methods) for row in runs)
    for split, cfg, row in zip(splits, cfgs, runs):
        for method, run in zip(methods, row):
            assert_solo(tab, split, method, cfg, run)


def test_a_split_whose_members_diverge_leaves_the_other_splits_unchanged():
    tab = grid_table()
    bad = tab.sample_ids[0]
    features = tab.feature_matrix.copy()
    features[0] = 1.7e308  # overflows the first layer of every model that trains on this row
    tab = with_features(tab, features)
    candidates = random_splits(tab, 10)
    in_train = next(s for s in candidates if bad in s.train)
    in_test = next(s for s in candidates if bad in s.test)
    splits = [in_test, in_train]
    methods = [MethodConfig(family=f) for f in LOCKSTEP_FAMILIES]
    cfgs = split_cfgs(2)
    clean, diverged = train(tab, splits, methods, cfgs)
    assert all(isinstance(o, TrainingDiverged) and o.epoch == 1 for o in diverged)
    for method, run in zip(methods, clean):
        assert_solo(tab, in_test, method, cfgs[0], run)


def test_a_member_whose_val_outputs_are_not_finite_diverges_alone():
    """A member whose val outputs are not finite fails as TrainingDiverged,
    whatever its family: CORAL's thresholds would otherwise decode a NaN to
    an age. The members that never score the bad row run as alone."""
    tab = grid_table()
    bad = tab.sample_ids[0]
    features = tab.feature_matrix.copy()
    features[0] = 1.7e308  # non-finite outputs wherever this row is scored
    tab = with_features(tab, features)
    candidates = random_splits(tab, 10)
    splits = [next(s for s in candidates if bad in s.test),
              next(s for s in candidates if bad in s.val)]
    methods = [MethodConfig(family="cross-entropy"), MethodConfig(family="coral")]
    cfgs = split_cfgs(2)
    runs = train(tab, splits, methods, cfgs)
    for split, cfg, row in zip(splits, cfgs, runs):
        for method, run in zip(methods, row):
            if isinstance(run, Exception):
                [[alone]] = train(tab, [split], [method], [cfg])
                assert type(alone) is type(run) and str(alone) == str(run)
            else:
                assert_solo(tab, split, method, cfg, run)
    assert all(isinstance(run, TrainedRun) for run in runs[0])
    assert all(isinstance(run, TrainingDiverged) and run.epoch == 1 for run in runs[1])
    assert str(runs[1][0]) == "val outputs not finite at epoch 1"


def test_a_member_that_diverges_mid_run_fails_alone():
    """A member whose loss stops being finite at epoch 3 of 5 fails alone as
    TrainingDiverged(3), after two epochs of history and selection in the
    stack; every other member of the multi-split, multi-method stack keeps
    the history, selected epoch and best model of its solo run."""
    tab = grid_table()
    splits = random_splits(tab, 3)
    methods = [MethodConfig(family=f) for f in LOCKSTEP_FAMILIES]
    cfgs = [dataclasses.replace(cfg, epochs=5) for cfg in split_cfgs(3)]
    steps = math.ceil(144 / 32)  # minibatches an epoch
    calls = []

    def poisoned(method, out, targets, label_set):
        """coral's losses, with split 1's member's made NaN from epoch 3 on."""
        ev = loss_eval(method, out, targets, label_set)
        if method is methods[1]:
            calls.append(len(out))
            if len(calls) > 2 * steps:
                ev.value[1] = np.nan
        return ev

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "loss_eval", poisoned)
        runs = train(tab, splits, methods, cfgs)
    assert calls == [3] * 5 * steps  # the failed member stays in its group's one call
    failed = runs[1][1]
    assert isinstance(failed, TrainingDiverged) and failed.epoch == 3
    assert str(failed) == "training diverged at epoch 3"
    for s, (split, cfg, row) in enumerate(zip(splits, cfgs, runs)):
        for j, (method, run) in enumerate(zip(methods, row)):
            if (s, j) != (1, 1):
                assert len(run.history) == 5
                assert_solo(tab, split, method, cfg, run)


def test_splits_whose_folds_differ_in_size_train_in_separate_stacks(monkeypatch):
    tab = grid_table()
    a, b, c = random_splits(tab, 3)
    b = SplitSpec(mode=b.mode, seed=b.seed, fractions=b.fractions,
                  train=b.train + b.val[:1], val=b.val[1:], test=b.test)
    methods = [MethodConfig(family=f) for f in LOCKSTEP_FAMILIES]
    cfgs = split_cfgs(3)
    stacks = []
    monkeypatch.setattr(training, "ModelStack", lambda models, group_size=1:
                        stacks.append(group_size) or ModelStack(models, group_size))
    runs = train(tab, [a, b, c], methods, cfgs)
    assert stacks == [2, 1]  # splits a and c, then b alone
    monkeypatch.undo()
    for split, cfg, row in zip((a, b, c), cfgs, runs):
        for method, run in zip(methods, row):
            assert_solo(tab, split, method, cfg, run)


def test_a_split_never_reads_another_splits_rows():
    """Changing the features of split 0's test rows, which other splits train
    on, leaves split 0's runs bitwise unchanged in a multi-split call."""
    tab = grid_table()
    splits = random_splits(tab, 3)
    methods = [MethodConfig(family=f) for f in LOCKSTEP_FAMILIES]
    cfgs = split_cfgs(3)
    before = train(tab, splits, methods, cfgs)
    features = tab.feature_matrix.copy()
    features[tab.rows_for(splits[0].test)] += rng_from_seed(5).normal(size=(len(splits[0].test), 8))
    after = train(with_features(tab, features), splits, methods, cfgs)
    for old, new in zip(before[0], after[0]):
        assert old.history == new.history
        assert _member_arrays(old.best_model) == _member_arrays(new.best_model)
    assert all(old.history != new.history for old, new in zip(before[1], after[1]))


def test_train_takes_one_config_per_split_differing_only_in_seed():
    """train() takes sequences only: a bare split, method or config is a
    TypeError, and the outcomes are always outcomes[split][method]."""
    tab = grid_table()
    splits = random_splits(tab, 2)
    methods = [MethodConfig(family="regression")]
    with pytest.raises(ValueError, match="one TrainConfig per split"):
        train(tab, splits, methods, split_cfgs(1))
    with pytest.raises(ValueError, match="differ only in seed"):
        train(tab, splits, methods, [TrainConfig(epochs=1), TrainConfig(epochs=2)])
    for args in ((splits[0], methods, split_cfgs(1)), (splits, methods[0], split_cfgs(2)),
                 (splits[:1], methods, split_cfgs(1)[0])):
        with pytest.raises(TypeError):
            train(tab, *args)
    runs = train(tab, splits, methods, split_cfgs(2))  # one method: one outcome per split
    assert len(runs) == 2 and all(len(row) == 1 and isinstance(row[0], TrainedRun) for row in runs)


@pytest.mark.parametrize("block", [7, 64, training._ADAM_BLOCK])
def test_blocked_adam_is_bitwise_one_pass(monkeypatch, block):
    """Walking the flat vector in blocks, a partial last block included,
    changes no bit of the update."""
    rng = np.random.default_rng(1)
    size = 1000
    theta, grads = rng.normal(size=size), rng.normal(size=(5, size))
    whole = theta.copy()
    monkeypatch.setattr(training, "_ADAM_BLOCK", size)
    one_pass = training._Adam(whole, 3e-3)
    for g in grads:
        one_pass.step(whole, g)
    monkeypatch.setattr(training, "_ADAM_BLOCK", block)
    blocked = training._Adam(theta, 3e-3)
    for g in grads:
        blocked.step(theta, g)
    assert np.array_equal(theta, whole)


@pytest.mark.parametrize("make_table", [grid_table, two_label_table],
                         ids=["41_labels", "two_labels"])
def test_scoring_a_val_fold_gives_the_selected_val_mae(make_table):
    """evaluate_mae's forward pass and the stack's val pass agree bitwise, for
    every family and split of one lockstep call."""
    tab = make_table()
    splits = random_splits(tab, 3)
    runs = train(tab, splits, [MethodConfig(family=f) for f in FAMILIES], split_cfgs(3))
    for split, row in zip(splits, runs):
        for run in row:
            assert evaluate_mae(run, tab, split.val) == run.best_val_mae, run.method


def test_two_label_coral_starts_at_the_train_fold_logit_and_runs_as_alone():
    """K = 2: CORAL's head is one weight column and one bias, and the bias
    starts at the logit of the train fold's P(age 21); in a stack of all nine
    families on two splits every run is bitwise its solo run."""
    tab = two_label_table()
    splits = random_splits(tab, 2)
    coral = MethodConfig(family="coral")
    [[start]] = train(tab, splits[:1], [coral], [TrainConfig(learning_rate=1e-9, epochs=1, seed=0,
                                                              hidden_dims=(16, 8))])
    p = np.mean(tab.ages_for(splits[0].train) == 21)
    assert start.best_model.weights[-1].shape == (8, 1)
    assert abs(np.log(p / (1 - p))) > 0.5
    np.testing.assert_allclose(start.best_model.biases[-1], [np.log(p / (1 - p))], rtol=0, atol=1e-6)

    methods = [MethodConfig(family=f) for f in FAMILIES]
    cfgs = split_cfgs(2)
    runs = train(tab, splits, methods, cfgs)
    for split, cfg, row in zip(splits, cfgs, runs):
        for method, run in zip(methods, row):
            assert_solo(tab, split, method, cfg, run)


def test_a_method_that_cannot_be_encoded_fails_on_every_split_and_the_rest_run_as_alone():
    """On a one-label table the two threshold families cannot encode their
    targets: each fails with that error on both splits, and every other
    member of the call is bitwise its solo run."""
    tab = one_label_table()
    splits = random_splits(tab, 2)
    methods = [MethodConfig(family=f) for f in FAMILIES]
    cfgs = split_cfgs(2)
    runs = train(tab, splits, methods, cfgs)
    for split, cfg, row in zip(splits, cfgs, runs):
        for method, run in zip(methods, row):
            if method.family in ("or-cnn", "coral"):
                assert isinstance(run, ValueError), method.family
                assert str(run) == "threshold encoding needs at least 2 labels"
            else:
                assert_solo(tab, split, method, cfg, run)
