"""A small fully-connected network trained with Adam, from scratch in numpy.

The trainer is deliberately minimal: affine layers with ReLU between them,
a method-specific head, minibatch Adam, and per-epoch model selection on
validation MAE. It only ever touches the train and val folds of a split;
scoring the test fold is a separate call the caller makes once.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetTable, LabelSet, ValidationError
from .methods import FAMILIES, MethodConfig, Targets, encode_targets, loss_eval
from .prediction import decode_output
from .splitting import SplitSpec
from .util import rng_from_seed

__all__ = [
    "TrainConfig",
    "MlpModel",
    "ModelStack",
    "TrainedRun",
    "TrainingDiverged",
    "init_model",
    "forward",
    "batch_loss_and_grads",
    "train",
    "evaluate_mae",
]


class TrainingDiverged(RuntimeError):
    """A model's failure in training: its train outputs, its loss, its
    parameters or its val outputs stopped being finite in the 1-based epoch."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    hidden_dims: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if not math.isfinite(self.learning_rate):
            raise ValidationError("learning_rate must be finite")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        dims = tuple(int(d) for d in self.hidden_dims)
        if any(d < 1 for d in dims):
            raise ValidationError("hidden_dims must be positive")
        object.__setattr__(self, "hidden_dims", dims)
        object.__setattr__(self, "learning_rate", float(self.learning_rate))


@dataclass
class MlpModel:
    """Affine-ReLU chain plus a head; the last weight/bias pair is the head.

    The head's shape is its kind. A head with one weight column per bias is
    a regular affine (dense) head. A head with a single weight column and
    several biases is a shared score: one hidden-to-scalar score that every
    bias shifts, so all threshold logits move together and stay ordered like
    the biases.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty and aligned")
        width = self.weights[-1].shape[-1]
        if width not in (1, self.head_size):
            raise ValueError(f"a head of {self.head_size} biases needs 1 or {self.head_size} "
                             f"weight columns, got {width}")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def head_size(self) -> int:
        return len(self.biases[-1])

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "MlpModel":
        return MlpModel([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def astype(self, dtype) -> "MlpModel":
        """A copy with every parameter rounded to dtype."""
        return MlpModel([w.astype(dtype) for w in self.weights],
                        [b.astype(dtype) for b in self.biases])


def _init_affine(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A (fan_in, fan_out) weight matrix drawn uniform in +-1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_model(dimension: int, hidden_dims, head_size: int, seed: int,
               head_width: int | None = None) -> MlpModel:
    """Scaled-uniform weight init (bound 1/sqrt(fan_in)), zero biases.

    The head has head_size biases and head_width weight columns: head_size
    by default (a dense head), or 1 for a shared-score head. Hidden layers
    are drawn before the head, so two models built from the same seed share
    identical hidden parameters even when their heads have different shapes.
    """
    if dimension < 1 or head_size < 1:
        raise ValueError("dimension and head_size must be positive")
    dims = [int(dimension)] + [int(d) for d in hidden_dims]
    if any(d < 1 for d in dims):
        raise ValueError("hidden dims must be positive")
    rng = rng_from_seed(seed)
    widths = dims[1:] + [head_size if head_width is None else head_width]
    return MlpModel(weights=[_init_affine(rng, d_in, d_out) for d_in, d_out in zip(dims, widths)],
                    biases=[np.zeros(d) for d in dims[1:] + [head_size]])


def forward(model: MlpModel, x) -> np.ndarray:
    """Head outputs for a single feature vector or a batch of them: the pass
    of a one-member ModelStack, in the dtype of the model's parameters,
    returned in float64."""
    arr = np.asarray(x, dtype=model.weights[0].dtype)
    if arr.ndim not in (1, 2) or arr.shape[-1] != model.input_dim:
        raise ValueError(f"expected features of width {model.input_dim}, got shape {arr.shape}")
    out = np.asarray(ModelStack([model]).outputs(np.atleast_2d(arr))[0][0], dtype=float)
    return out[0] if arr.ndim == 1 else out


class ModelStack:
    """Models with one input width and one set of hidden-layer shapes, trained as one.

    Hidden layer i of all B members is one (B, fan_in, fan_out) weight block
    and one (B, fan_out) bias block, run as one batched matmul. The members
    come in groups of consecutive models with one head shape (groups gives
    their sizes; by default each model is a group of its own), and the heads
    of a group of G are one (G, hidden, width) weight block and one (G, size)
    bias block, run as one batched matmul too. Each slice of a batched matmul
    is the BLAS call the 2-d product of that slice makes, so every member,
    and forward()'s stack of one, gets bitwise what it gets alone. theta holds
    every parameter and grad every gradient, in one layout, and every array
    is a view into one of them: models[k] is member k's MlpModel over theta
    and grads[k] its gradients over grad. Building a stack copies the given
    models' parameters in; its members and layout are then fixed for its
    life. A pass writes its activations into work buffers that the stack
    keeps for the next pass of the same shape. theta, grad, the inputs, the
    work buffers and the head outputs have the dtype of the first model's
    parameters; the loss and the decoders widen head outputs to float64.
    """

    def __init__(self, models: list[MlpModel], groups=None):
        if not models:
            raise ValueError("a stack needs at least one model")
        sizes = [1] * len(models) if groups is None else [int(g) for g in groups]
        if min(sizes) < 1 or sum(sizes) != len(models):
            raise ValueError("group sizes must be positive and add up to the model count")
        self.groups = [range(end - size, end)
                       for size, end in zip(sizes, itertools.accumulate(sizes))]
        first = models[0]
        heads = [models[g.start] for g in self.groups]
        for g, lead in zip(self.groups, heads):
            for m in models[g.start:g.stop]:
                if [w.shape for w in m.weights[:-1]] != [w.shape for w in first.weights[:-1]]:
                    raise ValueError("stacked models must share their hidden-layer shapes")
                if (m.weights[-1].shape, m.biases[-1].shape) != \
                        (lead.weights[-1].shape, lead.biases[-1].shape):
                    raise ValueError("the models of a group must share their head shape")
        b = len(models)
        self._n_hidden = len(first.weights) - 1
        self._shapes = ([(b, *w.shape) for w in first.weights[:-1]]
                        + [(b, *x.shape) for x in first.biases[:-1]]
                        + [(len(g), *p.shape) for g, m in zip(self.groups, heads)
                           for p in (m.weights[-1], m.biases[-1])])
        self._ends = list(itertools.accumulate(map(math.prod, self._shapes)))
        self.theta = np.empty(self._ends[-1], first.weights[0].dtype)
        self.grad = np.zeros_like(self.theta)
        self._work: dict = {}
        self._w, self._b, self._hw, self._hb = self._blocks(self.theta)
        self._gw, self._gb, self._ghw, self._ghb = self._blocks(self.grad)
        self.models = self._members(self.theta)
        self.grads = self._members(self.grad)
        for dst, src in zip(self.models, models):
            for a, p in zip(dst.weights + dst.biases, src.weights + src.biases):
                a[...] = p

    def _blocks(self, flat: np.ndarray) -> tuple[list, list, list, list]:
        """The hidden weight and bias blocks and the head weight and bias
        blocks of a flat vector in this stack's layout."""
        views = [flat[lo:end].reshape(s)
                 for s, lo, end in zip(self._shapes, [0] + self._ends, self._ends)]
        n = self._n_hidden
        return views[:n], views[n:2 * n], views[2 * n::2], views[2 * n + 1::2]

    def _members(self, flat: np.ndarray) -> list[MlpModel]:
        hidden_w, hidden_b, head_w, head_b = self._blocks(flat)
        return [MlpModel(weights=[w[k] for w in hidden_w] + [head_w[j][i]],
                         biases=[b[k] for b in hidden_b] + [head_b[j][i]])
                for j, g in enumerate(self.groups) for i, k in enumerate(g)]

    def _buffer(self, name, shape: tuple, dtype=None) -> np.ndarray:
        """A work array of this stack, the same one on every call with equal
        arguments; dtype defaults to the stack's."""
        key = (name, shape, self.theta.dtype if dtype is None else dtype)
        if key not in self._work:
            self._work[key] = np.empty(shape, key[2])
        return self._work[key]

    @property
    def weights(self) -> list[np.ndarray]:
        """Every member's weight matrices, member by member: a row's multiply-adds
        through the stack. Only bench/tracer.py reads them, to count a step's flop."""
        return [w for m in self.models for w in m.weights]

    def _layers(self, x: np.ndarray) -> list[np.ndarray]:
        """Each layer's input: x, the (B, n, input) stack of the members'
        batches or one (n, input) batch they all read, in the stack's dtype,
        then each hidden layer's (B, n, fan_out) activations."""
        x = np.asarray(x, self.theta.dtype)
        acts = [np.broadcast_to(x, (len(self.models), *x.shape[-2:]))]
        for i, (w, b) in enumerate(zip(self._w, self._b)):
            out = self._buffer(("act", i), (len(w), x.shape[-2], w.shape[-1]))
            np.matmul(acts[-1], w, out=out)
            out += b[:, None, :]
            acts.append(np.maximum(out, 0.0, out=out))
        return acts

    def _heads(self, h: np.ndarray) -> list[np.ndarray]:
        """Each group's (G, n, size) head outputs for the (B, n, hidden) head
        inputs, in the stack's dtype; a shared-score head's (G, n, 1) score
        broadcasts over its biases."""
        outs = []
        for j, g in enumerate(self.groups):
            w, b = self._hw[j], self._hb[j]
            out = self._buffer(("out", j), (len(g), h.shape[-2], b.shape[-1]))
            score = out if w.shape[-1] == b.shape[-1] else \
                self._buffer(("score", j), (len(g), h.shape[-2], 1))
            np.matmul(h[g.start:g.stop], w, out=score)
            outs.append(np.add(score, b[:, None, :], out=out))
        return outs

    def outputs(self, x: np.ndarray) -> list[np.ndarray]:
        """Each group's (G, n, size) head outputs for a batch as _layers takes
        it, in work buffers that the stack's next pass overwrites."""
        return self._heads(self._layers(x)[-1])

    def backward(self, acts: list[np.ndarray], grad_outs: list[np.ndarray]) -> None:
        """Write into grad the parameter gradients, given each group's
        (G, n, size) block of d(loss)/d(head outputs).

        No gradient is computed for the input.
        """
        h = acts[-1]
        da = self._buffer("da", h.shape) if self._n_hidden else None
        for j, (g, d_out) in enumerate(zip(self.groups, grad_outs)):
            h_t = np.swapaxes(h[g.start:g.stop], -1, -2)
            w, gw, gb = self._hw[j], self._ghw[j], self._ghb[j]
            if w.shape[-1] == gb.shape[-1]:  # dense: one weight column per output
                np.matmul(h_t, d_out, out=gw)
                if da is not None:
                    np.matmul(d_out, np.swapaxes(w, -1, -2), out=da[g.start:g.stop])
            else:  # shared score: every output adds the one column's score
                d_score = d_out.sum(axis=-1)
                np.matmul(h_t, d_score[..., None], out=gw)
                if da is not None:
                    np.multiply(d_score[..., None], w[:, None, :, 0], out=da[g.start:g.stop])
            d_out.sum(axis=1, out=gb)
        for i in range(self._n_hidden - 1, -1, -1):
            shape = acts[i + 1].shape
            dz = np.multiply(da, np.greater(acts[i + 1], 0, out=self._buffer(("on", i), shape, bool)),
                             out=self._buffer(("dz", i), shape))
            np.matmul(np.swapaxes(acts[i], -1, -2), dz, out=self._gw[i])
            dz.sum(axis=1, out=self._gb[i])
            if i:
                da = np.matmul(dz, np.swapaxes(self._w[i], -1, -2),
                               out=self._buffer(("da", i), acts[i].shape))


def _finite_members(out: np.ndarray) -> np.ndarray:
    """Which members of a group's (G, n, size) head outputs are all finite.
    The others' outputs are zeroed in place, so that one call can score the
    whole group: on finite outputs no loss or decoder raises."""
    finite = np.isfinite(out).all(axis=(1, 2))
    out[~finite] = 0.0
    return finite


def batch_loss_and_grads(stack: ModelStack, x: np.ndarray, targets: list[Targets],
                         methods: list[MethodConfig], label_set: LabelSet) -> list[float]:
    """One training step of every member of a stack, each on its own minibatch.

    x is the (B, n, input) stack of the members' minibatches, or one
    (n, input) minibatch they all read. targets[j] and methods[j] are group
    j's: its members' targets for their batch rows, stacked to (G, n), and
    its method; one loss_eval call scores the group's (G, n, size) head
    outputs. The parameter gradients of each member's mean loss land in
    stack.grad. Returns the mean losses in member order. A member whose head
    outputs are not finite gets inf, to signal divergence; the gradient of a
    member without a finite loss is zero. The losses widen the head outputs
    to float64, and their gradients go back in the stack's dtype.
    """
    n = np.shape(x)[-2]
    acts = stack._layers(x)
    values: list[float] = []
    grad_outs: list = []
    for j, (out, t, method) in enumerate(zip(stack._heads(acts[-1]), targets, methods)):
        finite = _finite_members(out)
        ev = loss_eval(method, out, t, label_set)
        grad_out = np.divide(ev.grad, n, out=stack._buffer(("grad_out", j), out.shape))
        value = np.where(finite, _sum_in_order(ev.value) / n, np.inf)
        grad_out[~np.isfinite(value)] = 0.0
        values.extend(value.tolist())
        grad_outs.append(grad_out)
    stack.backward(acts, grad_outs)
    return values


def _sum_in_order(values: np.ndarray) -> np.ndarray:
    """Left-to-right sums along the last axis, as a Python loop adds (np.sum
    adds pairwise)."""
    return np.cumsum(values, axis=-1)[..., -1]


_TRUNK_DTYPE = np.float32  # train()'s parameters, Adam state and activations; losses stay float64
_ADAM_BLOCK = 32768  # entries an Adam step updates at a time: a block's state stays in cache
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator offset


class _Adam:
    """Adam over one flat parameter vector, updated in place.

    The moments are single preallocated vectors. A step walks the vector in
    blocks of _ADAM_BLOCK entries, with a fixed handful of array operations
    per block into two preallocated temporaries, so a block's state stays in
    cache from one operation to the next whatever the model count and depth.
    The operations and their order are those of
    m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), elementwise, with b1, b2
    and eps the constants _BETA1, _BETA2 and _ADAM_EPS. Every scalar is
    rounded to the vector's dtype, so a step computes in that dtype.
    """

    def __init__(self, theta: np.ndarray, learning_rate: float):
        self.scalar = theta.dtype.type
        self.lr, self.b1, self.b2, self.c1, self.c2, self.eps = map(
            self.scalar, (learning_rate, _BETA1, _BETA2, 1 - _BETA1, 1 - _BETA2, _ADAM_EPS))
        self.t = 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
        block = min(theta.size, _ADAM_BLOCK)
        self.num, self.den = np.empty(block, theta.dtype), np.empty(block, theta.dtype)

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        self.t += 1
        bc1 = self.scalar(1.0 - _BETA1 ** self.t)
        bc2 = self.scalar(1.0 - _BETA2 ** self.t)
        for lo in range(0, len(theta), _ADAM_BLOCK):
            block = slice(lo, lo + _ADAM_BLOCK)
            p, gb, m, v = theta[block], g[block], self.m[block], self.v[block]
            num, den = self.num[:len(p)], self.den[:len(p)]
            m *= self.b1
            m += np.multiply(self.c1, gb, out=num)
            np.multiply(self.c2, gb, out=num)
            num *= gb
            v *= self.b2
            v += num
            np.divide(m, bc1, out=num)
            num *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            p -= num


@dataclass
class TrainedRun:
    """Outcome of one training call.

    history holds one (train_loss, val_mae) pair per epoch; selected_epoch
    is 1-based and points at the first epoch achieving the minimum
    validation MAE, whose parameter snapshot is best_model, in the dtype
    it trained in (_TRUNK_DTYPE from train()). method and
    label_set are those the model was trained with, so the run alone knows
    how to decode its outputs into ages.
    """

    best_model: MlpModel
    history: tuple[tuple[float, float], ...]
    selected_epoch: int
    method: MethodConfig
    label_set: LabelSet

    @property
    def best_val_mae(self) -> float:
        return self.history[self.selected_epoch - 1][1]


def _mae(method: MethodConfig, head_out: np.ndarray, ages: np.ndarray,
         label_set: LabelSet) -> np.ndarray:
    """Mean absolute error of each model's (..., n, head) outputs against (..., n) ages."""
    pred = decode_output(method, head_out, label_set)
    return _sum_in_order(np.abs(pred.age - ages)) / ages.shape[-1]


def evaluate_mae(run: TrainedRun, table: DatasetTable, fold_ids) -> float:
    """Mean absolute error in years of the run's selected model over a fold.

    Outputs are decoded with the run's method and label set, the labels the
    model was trained on. Errors are taken against the table's true ages,
    so a run can be scored on a table whose label set differs from its own.
    bench/tracer.py counts this pass's flop by patching forward in this module.
    """
    ids = tuple(fold_ids)
    if not ids:
        raise ValueError("cannot evaluate an empty fold")
    return float(_mae(run.method, forward(run.best_model, table.features_for(ids)),
                      table.ages_for(ids), run.label_set))


@dataclass
class _Member:
    """One (split, method) part of a lockstep run: the positions of its split
    and its method, its targets, its model (its views into the run's one
    stack), its selection state, and whether it has failed and is frozen."""

    split: int
    method: int
    targets: Targets
    model: MlpModel
    best_model: MlpModel | None = None
    history: list = field(default_factory=list)
    best_mae: float = np.inf
    best_epoch: int = 0
    epoch_loss: float = 0.0
    failed: bool = False


def _zero(models) -> None:
    """Set every parameter of each model, a member's views into a stack's
    flat layout, to 0."""
    for model in models:
        for a in model.weights + model.biases:
            a[...] = 0.0


def _joined(targets: list[Targets]) -> Targets:
    """The targets of members with n rows each, one after another: member i's
    row r is row i * n + r."""
    index = None if targets[0].index is None else np.concatenate([t.index for t in targets])
    return Targets(index, np.concatenate([t.row for t in targets]))


def train(table: DatasetTable, splits, methods, cfgs):
    """Fit one model per (split, method) on the split's train fold, selecting
    each by val-fold MAE.

    splits is one SplitSpec with its TrainConfig as cfgs, or a sequence of
    splits of the table with one TrainConfig each, configs that may differ
    only in seed; methods is one MethodConfig or a sequence of them. The
    outcomes come as outcomes[split][method], without the level of an
    argument given singly: one split and one method give that TrainedRun and
    raise its failure, and otherwise an outcome is a TrainedRun or the
    exception that stopped it. A split with an empty train or val fold fails
    its own outcomes only.

    The splits whose train and val folds have equal sizes train in lockstep
    as one ModelStack of all their (split, method) members, method-major, a
    method's members forming one group. Each member starts from its split's
    seed, so all methods on a split start from the same hidden layers, and
    reads its split's minibatches, drawn by its split's seeded shuffle; each
    gets bitwise the run it would get alone. A member whose train outputs,
    loss, parameters or val outputs stop being finite gets TrainingDiverged
    at that epoch as its outcome and stays in the stack, frozen; the others
    go on. So does a member whose targets cannot be encoded or whose model
    cannot be built, with that error. Any other exception leaves train().

    Only the train and val folds are ever read; the test folds stay
    untouched. Given equal inputs the result is bitwise reproducible: the
    seed drives both initialization and the per-epoch shuffles. Each model
    is drawn in float64 and trains in _TRUNK_DTYPE, float32, as do the
    folds; losses and decoders widen its head outputs to float64. Targets are
    encoded from the train fold once. A family with a "shared" head gets one
    weight column, and its bias k starts at the logit of the train fold's
    P(label index > k), as Cao, Mirjalili & Raschka (2020) do; from zero
    biases Adam cannot spread the thresholds within a short run.
    """
    one_split, one_method = isinstance(splits, SplitSpec), isinstance(methods, MethodConfig)
    splits = [splits] if one_split else list(splits)
    cfgs = [cfgs] if isinstance(cfgs, TrainConfig) else list(cfgs)
    methods = [methods] if one_method else list(methods)
    if not methods:
        raise ValueError("no methods to train")
    if not splits or len(cfgs) != len(splits):
        raise ValueError("train needs one or more splits and one TrainConfig per split")
    if len({dataclasses.replace(c, seed=0) for c in cfgs}) > 1:
        raise ValueError("the TrainConfigs of one train() call may differ only in seed")
    outcomes: list = [[None] * len(methods) for _ in splits]
    stacks: dict = {}
    for s, split in enumerate(splits):
        empty = [fold for fold in ("train", "val") if not getattr(split, fold)]
        if empty:
            outcomes[s] = [ValueError(f"split has an empty {empty[0]} fold")] * len(methods)
        else:
            stacks.setdefault((len(split.train), len(split.val)), []).append(s)
    for group in stacks.values():
        _train_stack(table, [splits[s] for s in group], methods, [cfgs[s] for s in group],
                     [outcomes[s] for s in group])
    if one_method:
        outcomes = [row[0] for row in outcomes]
    if not one_split:
        return outcomes
    if one_method and isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]


def _train_stack(table: DatasetTable, splits: list[SplitSpec], methods: list[MethodConfig],
                 cfgs: list[TrainConfig], outcomes: list[list]) -> None:
    """train() for splits whose folds have equal sizes: one lockstep stack,
    whose member (s, j) puts its outcome in outcomes[s][j].

    A member that fails keeps its place in the stack, frozen: its parameters
    and Adam moments are zeroed once and its gradients after every step, so
    Adam leaves them at zero. Zero parameters give finite outputs, so a
    frozen member does not fail again.
    """
    label_set = table.label_set
    x_train = np.stack([table.features_for(s.train) for s in splits]).astype(_TRUNK_DTYPE)
    ages_train = np.stack([table.ages_for(s.train) for s in splits])
    x_val = np.stack([table.features_for(s.val) for s in splits]).astype(_TRUNK_DTYPE)
    ages_val = np.stack([table.ages_for(s.val) for s in splits])
    cfg = cfgs[0]

    members: list[_Member] = []
    for j, method in enumerate(methods):
        shared = FAMILIES[method.family].head == "shared"
        for s, (ages, split_cfg) in enumerate(zip(ages_train, cfgs)):
            try:
                targets = encode_targets(method, ages, label_set)
                model = init_model(table.dimension, cfg.hidden_dims,
                                   method.head_size(len(label_set)), seed=split_cfg.seed,
                                   head_width=1 if shared else None)
            except Exception as exc:  # this member fails; the others go on
                outcomes[s][j] = exc
                continue
            if shared:
                p = np.clip(targets.row.mean(axis=0), 1e-3, 1 - 1e-3)
                model.biases[-1][:] = np.log(p / (1 - p))
            members.append(_Member(s, j, targets, model))
    if not members:
        return

    stack = ModelStack([m.model.astype(_TRUNK_DTYPE) for m in members],
                       [len(list(run)) for _, run in itertools.groupby(m.method for m in members)])
    adam = _Adam(stack.theta, cfg.learning_rate)
    for m, model in zip(members, stack.models):
        m.model = model
    group_splits = [np.array([m.split for m in members[g.start:g.stop]]) for g in stack.groups]
    group_targets = [_joined([m.targets for m in members[g.start:g.stop]]) for g in stack.groups]
    group_methods = [methods[members[g.start].method] for g in stack.groups]
    inputs = np.concatenate(group_splits)  # the split of every member
    val_x = x_val[inputs]
    params_and_moments = [stack.models, stack._members(adam.m), stack._members(adam.v)]

    def freeze(failed: list[int], epoch: int, message: str | None = None) -> bool:
        """Record TrainingDiverged(epoch, message) as the outcome of the
        members at the failed positions and zero their parameters and Adam
        moments; False once every member has failed."""
        for k in failed:
            members[k].failed = True
            outcomes[members[k].split][members[k].method] = TrainingDiverged(epoch, message)
            _zero(views[k] for views in params_and_moments)
        return any(not m.failed for m in members)

    rngs = [rng_from_seed(c.seed, 1) for c in cfgs]
    n, width = x_train.shape[1:]
    train_rows = x_train.reshape(-1, width)  # row r of split s is train_rows[s * n + r]
    for epoch in range(1, cfg.epochs + 1):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        for m in members:
            m.epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = orders[:, start:start + cfg.batch_size]
            x = np.take(train_rows, inputs[:, None] * n + rows[inputs], axis=0, mode="clip",
                        out=stack._buffer("x", (len(members), rows.shape[1], width)))
            targets = [t[np.arange(0, len(s) * n, n)[:, None] + rows[s]]
                       for t, s in zip(group_targets, group_splits)]
            values = batch_loss_and_grads(stack, x, targets, group_methods, label_set)
            if not freeze([k for k, (m, v) in enumerate(zip(members, values))
                           if not m.failed and not math.isfinite(v)], epoch):
                return
            _zero(stack.grads[k] for k, m in enumerate(members) if m.failed)
            adam.step(stack.theta, stack.grad)
            for m, value in zip(members, values):
                if not m.failed:
                    m.epoch_loss += value * rows.shape[1]
        if not np.isfinite(stack.theta).all():
            if not freeze([k for k, m in enumerate(members)
                           if not all(np.isfinite(a).all()
                                      for a in m.model.weights + m.model.biases)], epoch):
                return
        failed = []
        for g, s, method, out in zip(stack.groups, group_splits, group_methods,
                                     stack.outputs(val_x)):
            finite = _finite_members(out)
            maes = _mae(method, out, ages_val[s], label_set).tolist()
            for k, ok, val_mae in zip(g, finite, maes):
                m = members[k]
                if m.failed:
                    continue
                if not ok:
                    failed.append(k)
                    continue
                m.history.append((m.epoch_loss / n, val_mae))
                if val_mae < m.best_mae:
                    m.best_mae = val_mae
                    m.best_epoch = epoch
                    m.best_model = m.model.copy()
        if not freeze(failed, epoch, f"val outputs not finite at epoch {epoch}"):
            return

    for m in members:
        if not m.failed:
            outcomes[m.split][m.method] = TrainedRun(
                best_model=m.best_model, history=tuple(m.history), selected_epoch=m.best_epoch,
                method=methods[m.method], label_set=label_set)
