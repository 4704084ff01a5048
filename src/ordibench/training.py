"""A small fully-connected network trained with Adam, from scratch in numpy.

The trainer is deliberately minimal: affine layers with ReLU between them,
a method-specific head, minibatch Adam, and per-epoch model selection on
validation MAE. It only ever touches the train and val folds of a split;
scoring the test fold is a separate call the caller makes once.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

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
    is a view into one of them: models[k] is member k's MlpModel over theta,
    and member_mask marks some members' entries of the layout. grad and the
    gradient blocks are built on first use, so a stack that only runs
    passes, as forward()'s does, never allocates them. Building a stack
    copies the given models' parameters in; its members and layout are then
    fixed for its life. A pass writes its activations into work buffers that
    the stack keeps for the next pass of the same shape. theta, grad, the
    inputs, the work buffers and the head outputs have the dtype of the
    first model's parameters; the loss computes in that dtype too, and the
    decoders widen head outputs to float64.
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
        self._work: dict = {}
        self._w, self._b, self._hw, self._hb = self._blocks(self.theta)
        self.models = self._members(self.theta)
        for dst, src in zip(self.models, models):
            for a, p in zip(dst.weights + dst.biases, src.weights + src.biases):
                a[...] = p

    @functools.cached_property
    def grad(self) -> np.ndarray:
        return np.zeros_like(self.theta)

    @functools.cached_property
    def _grad_blocks(self) -> tuple[list, list, list, list]:
        return self._blocks(self.grad)

    def _blocks(self, flat: np.ndarray) -> tuple[list, list, list, list]:
        """The hidden weight and bias blocks and the head weight and bias
        blocks of a flat vector in this stack's layout."""
        views = [flat[lo:end].reshape(s)
                 for s, lo, end in zip(self._shapes, [0] + self._ends, self._ends)]
        n = self._n_hidden
        return views[:n], views[n:2 * n], views[2 * n::2], views[2 * n + 1::2]

    def member_mask(self, members: np.ndarray) -> np.ndarray:
        """A mask over this stack's flat layout, true on the parameters of the
        members where the (B,) mask members is true. A block's leading axis
        is every member for a hidden block, its group's for a head block."""
        leading = [members] * (2 * self._n_hidden) + [members[g.start:g.stop]
                                                      for g in self.groups for _ in ("w", "b")]
        return np.repeat(np.concatenate(leading),
                         np.repeat([math.prod(s[1:]) for s in self._shapes],
                                   [s[0] for s in self._shapes]))

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
        grad_w, grad_b, grad_hw, grad_hb = self._grad_blocks
        da = self._buffer("da", h.shape) if self._n_hidden else None
        for j, (g, d_out) in enumerate(zip(self.groups, grad_outs)):
            h_t = np.swapaxes(h[g.start:g.stop], -1, -2)
            w, gw, gb = self._hw[j], grad_hw[j], grad_hb[j]
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
            np.matmul(np.swapaxes(acts[i], -1, -2), dz, out=grad_w[i])
            dz.sum(axis=1, out=grad_b[i])
            if i:
                da = np.matmul(dz, np.swapaxes(self._w[i], -1, -2),
                               out=self._buffer(("da", i), acts[i].shape))


def _finite_members(out: np.ndarray) -> np.ndarray:
    """Which members of a group's (G, n, size) head outputs are all finite.
    The others' outputs are zeroed in place, so that one call can score the
    whole group: on finite outputs no loss or decoder raises."""
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
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
    member without a finite loss is zero. The losses compute in the stack's
    dtype, so targets in that dtype (as train() gives them) are read as they
    are.
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
        failed = ~np.isfinite(value)
        if failed.any():
            grad_out[failed] = 0.0
        values.extend(value.tolist())
        grad_outs.append(grad_out)
    stack.backward(acts, grad_outs)
    return values


def _sum_in_order(values: np.ndarray) -> np.ndarray:
    """Left-to-right sums along the last axis, as a Python loop adds (np.sum
    adds pairwise)."""
    return np.cumsum(values, axis=-1)[..., -1]


_TRUNK_DTYPE = np.float32  # train()'s parameters, Adam state, activations, targets and losses
_ADAM_BLOCK = 32768  # entries an Adam step updates at a time: a block's state stays in cache
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator offset


class _Adam:
    """Adam over one flat parameter vector, updated in place.

    The moments are preallocated vectors kept unscaled: m and v hold Kingma
    & Ba's m_t / (1 - b1) and v_t / (1 - b2). Step t is m = b1 * m + g,
    v = b2 * v + g * g and p -= lr_t * (m / (sqrt(v) + eps_t)), with
    lr_t = lr * (1 - b1) / sqrt(1 - b2) * sqrt(1 - b2^t) / (1 - b1^t) and
    eps_t = eps * sqrt(1 - b2^t) / sqrt(1 - b2): Algorithm 1's update in ten
    array passes, for b1, b2 and eps the constants _BETA1, _BETA2 and
    _ADAM_EPS. Every scalar is rounded to the vector's dtype, so a step
    computes in that dtype; lr_t and eps_t are computed in Python floats
    first, so no rounded intermediate overflows. A step walks the vector in
    blocks of _ADAM_BLOCK entries into two preallocated temporaries, so a
    block's state stays in cache whatever the model count and depth.
    """

    def __init__(self, theta: np.ndarray, learning_rate: float):
        self.scalar = theta.dtype.type
        self.lr = float(learning_rate)
        self.b1, self.b2 = self.scalar(_BETA1), self.scalar(_BETA2)
        self.t = 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
        block = min(theta.size, _ADAM_BLOCK)
        self.num, self.den = np.empty(block, theta.dtype), np.empty(block, theta.dtype)

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        self.t += 1
        root_bc2 = math.sqrt(1.0 - _BETA2 ** self.t)
        lr_t = self.scalar(self.lr * ((1 - _BETA1) / math.sqrt(1 - _BETA2) * root_bc2
                                      / (1.0 - _BETA1 ** self.t)))
        eps_t = self.scalar(_ADAM_EPS * root_bc2 / math.sqrt(1 - _BETA2))
        for lo in range(0, len(theta), _ADAM_BLOCK):
            block = slice(lo, lo + _ADAM_BLOCK)
            p, gb, m, v = theta[block], g[block], self.m[block], self.v[block]
            num, den = self.num[:len(p)], self.den[:len(p)]
            m *= self.b1
            m += gb
            v *= self.b2
            v += np.multiply(gb, gb, out=num)
            np.sqrt(v, out=den)
            den += eps_t
            np.divide(m, den, out=num)
            num *= lr_t
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
    predicted = decode_output(method, head_out, label_set)
    return _sum_in_order(np.abs(predicted - ages)) / ages.shape[-1]


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
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite outputs fail the decoder
        return float(_mae(run.method, forward(run.best_model, table.features_for(ids)),
                          table.ages_for(ids), run.label_set))


def _take(stack: ModelStack, name, a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a's entries at rows, along its first axis, in the stack's work buffer name."""
    return np.take(a, rows, axis=0, mode="clip",
                   out=stack._buffer(name, rows.shape + a.shape[1:], a.dtype))


def train(table: DatasetTable, splits, methods, cfgs) -> list[list]:
    """Fit one model per (split, method) on the split's train fold, selecting
    each by val-fold MAE.

    splits is a sequence of splits of the table, cfgs one TrainConfig per
    split, configs that may differ only in seed, and methods a sequence of
    MethodConfigs. The outcomes come as outcomes[split][method], each a
    TrainedRun or the exception that stopped it. No fold of a SplitSpec is
    empty.

    The splits whose train and val folds have equal sizes train in lockstep
    as one ModelStack of all their (split, method) members, method-major, a
    method's members forming one group. Each member starts from its split's
    seed, so all methods on a split start from the same hidden layers, and
    reads its split's minibatches, drawn by its split's seeded shuffle; each
    gets bitwise the run it would get alone. A member whose train outputs,
    loss, parameters or val outputs stop being finite gets TrainingDiverged
    at that epoch as its outcome and stays in the stack, frozen; the others
    go on. A method whose targets cannot be encoded or whose model cannot be
    built has that error as its outcome on every split, as every split
    shares the table's label set. Any other exception leaves train().

    Only the train and val folds are ever read; the test folds stay
    untouched. Given equal inputs the result is bitwise reproducible: the
    seed drives both initialization and the per-epoch shuffles. Each model
    is drawn in float64 and trains in _TRUNK_DTYPE, float32, as do the
    folds, the target rows and the losses; the decoders widen its head
    outputs to float64. Targets are encoded from the train folds once per
    stack and cast to float32 once. A family with a "shared" head gets one
    weight column, and its bias k starts at the logit of the train fold's
    P(label index > k), as Cao, Mirjalili & Raschka (2020) do; from zero
    biases Adam cannot spread the thresholds within a short run.
    """
    splits, methods, cfgs = list(splits), list(methods), list(cfgs)
    if not methods:
        raise ValueError("no methods to train")
    if not splits or len(cfgs) != len(splits):
        raise ValueError("train needs one or more splits and one TrainConfig per split")
    if len({dataclasses.replace(c, seed=0) for c in cfgs}) > 1:
        raise ValueError("the TrainConfigs of one train() call may differ only in seed")
    outcomes: list = [[None] * len(methods) for _ in splits]
    stacks: dict = {}
    for s, split in enumerate(splits):
        stacks.setdefault((len(split.train), len(split.val)), []).append(s)
    # A member that overflows fails by the non-finite rule; numpy's warnings say no more.
    with np.errstate(over="ignore", invalid="ignore"):
        for group in stacks.values():
            _train_stack(table, [splits[s] for s in group], methods, [cfgs[s] for s in group],
                         [outcomes[s] for s in group])
    return outcomes


def _train_stack(table: DatasetTable, splits: list[SplitSpec], methods: list[MethodConfig],
                 cfgs: list[TrainConfig], outcomes: list[list]) -> None:
    """train() for splits whose folds have equal sizes: one lockstep stack,
    whose member (s, j) puts its outcome in outcomes[s][j].

    The stack is a dense grid: each method that can be encoded and built is
    one group of a member per split, in split order. A method's targets are
    encoded once, for the train ages of every split, so a method that cannot
    be encoded or built fails on every split. The members' state is arrays
    over the stack's members: which have failed, each epoch's train losses
    and val MAEs, the best val MAE and epoch, and one flat snapshot of the
    best parameters in the stack's layout, whose member views are the runs'
    best models. A member that fails keeps its place in the stack, frozen:
    the stack's member mask zeroes its parameters and Adam moments once and
    its gradients after every step, so Adam leaves them at zero. Zero
    parameters give finite outputs, so a frozen member does not fail again.
    """
    label_set = table.label_set
    x_train = np.stack([table.features_for(s.train) for s in splits]).astype(_TRUNK_DTYPE)
    # every split's train ages, one after another: split s's row r is row s * n + r
    ages_train = np.concatenate([table.ages_for(s.train) for s in splits])
    x_val = np.stack([table.features_for(s.val) for s in splits]).astype(_TRUNK_DTYPE)
    ages_val = np.stack([table.ages_for(s.val) for s in splits])
    cfg = cfgs[0]
    n_splits, n, width = x_train.shape

    live, targets, models = [], [], []  # the methods that train, their targets, their models
    for j, method in enumerate(methods):
        shared = FAMILIES[method.family].head == "shared"
        try:
            method_targets = encode_targets(method, ages_train, label_set)
            group = [init_model(table.dimension, cfg.hidden_dims, method.head_size(len(label_set)),
                                seed=c.seed, head_width=1 if shared else None) for c in cfgs]
        except Exception as exc:  # this method fails on every split; the others go on
            for row in outcomes:
                row[j] = exc
            continue
        if shared:
            for model, rows in zip(group, method_targets.row.reshape(n_splits, n, -1)):
                p = np.clip(rows.mean(axis=0), 1e-3, 1 - 1e-3)
                model.biases[-1][:] = np.log(p / (1 - p))
        live.append(j)
        targets.append(Targets(method_targets.index, method_targets.row.astype(_TRUNK_DTYPE)))
        models.extend(model.astype(_TRUNK_DTYPE) for model in group)
    if not live:
        return

    stack = ModelStack(models, [n_splits] * len(live))
    del models
    adam = _Adam(stack.theta, cfg.learning_rate)
    group_methods = [methods[j] for j in live]
    places = [(s, j) for j in live for s in range(n_splits)]  # each member's (split, method)
    val_x = np.concatenate([x_val] * len(live))
    b = len(places)
    failed = np.zeros(b, bool)
    losses, maes = np.zeros((cfg.epochs, b)), np.zeros((cfg.epochs, b))
    best_mae, best_epoch = np.full(b, np.inf), np.zeros(b, int)
    best = np.zeros_like(stack.theta)  # every member's parameters at its best epoch

    def freeze(new: np.ndarray, epoch: int, message: str | None = None) -> bool:
        """Record TrainingDiverged(epoch, message) as the outcome of the
        members where new is true and zero their parameters and Adam
        moments; False once every member has failed."""
        for k in np.flatnonzero(new):
            s, j = places[k]
            outcomes[s][j] = TrainingDiverged(epoch, message)
        failed[new] = True
        mask = stack.member_mask(new)
        for a in (stack.theta, adam.m, adam.v):
            np.copyto(a, 0.0, where=mask)
        return not failed.all()

    rngs = [rng_from_seed(c.seed, 1) for c in cfgs]
    train_rows = x_train.reshape(-1, width)  # row r of split s is train_rows[s * n + r]
    for epoch in range(1, cfg.epochs + 1):
        # each split's rows in this epoch's order, taken once for every
        # member's inputs and every group's targets; a minibatch is a slice
        rows = np.stack([s * n + rng.permutation(n) for s, rng in enumerate(rngs)])
        x_epoch = _take(stack, "x", train_rows, np.concatenate([rows] * len(live)))
        t_epoch = [Targets(None if t.index is None else _take(stack, ("index", j), t.index, rows),
                           _take(stack, ("target", j), t.row, rows)) for j, t in enumerate(targets)]
        loss, mae = losses[epoch - 1], maes[epoch - 1]
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            x = x_epoch[:, batch]
            values = np.array(batch_loss_and_grads(stack, x, [t[:, batch] for t in t_epoch],
                                                   group_methods, label_set))
            new = ~(failed | np.isfinite(values))
            if new.any() and not freeze(new, epoch):
                return
            if failed.any():
                np.copyto(stack.grad, 0.0, where=stack.member_mask(failed))
            adam.step(stack.theta, stack.grad)
            loss += values * x.shape[1]
        loss /= n
        if not np.isfinite(stack.theta).all():
            if not freeze(np.array([not all(np.isfinite(a).all() for a in m.weights + m.biases)
                                    for m in stack.models]), epoch):
                return
        finite = np.empty(b, bool)
        for g, method, out in zip(stack.groups, group_methods, stack.outputs(val_x)):
            finite[g.start:g.stop] = _finite_members(out)
            mae[g.start:g.stop] = _mae(method, out, ages_val, label_set)
        new = ~(failed | finite)
        if new.any() and not freeze(new, epoch, f"val outputs not finite at epoch {epoch}"):
            return
        improved = ~failed & (mae < best_mae)
        best_mae[improved] = mae[improved]
        best_epoch[improved] = epoch
        np.copyto(best, stack.theta, where=stack.member_mask(improved))

    for k, ((s, j), model) in enumerate(zip(places, stack._members(best))):
        if not failed[k]:
            outcomes[s][j] = TrainedRun(
                best_model=model, history=tuple(zip(losses[:, k].tolist(), maes[:, k].tolist())),
                selected_epoch=int(best_epoch[k]), method=methods[j], label_set=label_set)
