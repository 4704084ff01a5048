"""A small fully-connected network trained with Adam, from scratch in numpy.

The trainer is deliberately minimal: affine layers with ReLU between them,
a method-specific head, minibatch Adam, and per-epoch model selection on
validation MAE. It only ever touches the train and val folds of a split;
scoring the test fold is a separate call the caller makes once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DatasetTable, LabelSet, ValidationError
from .methods import MethodConfig, Targets, encode_targets, loss_eval
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

HEAD_DENSE = "dense"
HEAD_SHARED_SCORE = "shared-score"  # rank-1 head: one score, per-threshold biases
_HEAD_KINDS = (HEAD_DENSE, HEAD_SHARED_SCORE)


class TrainingDiverged(RuntimeError):
    """Raised when a loss or parameter stops being finite during training."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    hidden_dims: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError("beta1 and beta2 must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ValidationError("adam_eps must be positive")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        dims = tuple(int(d) for d in self.hidden_dims)
        if any(d < 1 for d in dims):
            raise ValidationError("hidden_dims must be positive")
        object.__setattr__(self, "hidden_dims", dims)


@dataclass
class MlpModel:
    """Affine-ReLU chain plus a head; the last weight/bias pair is the head.

    head_kind "dense" is a regular affine head. "shared-score" keeps a single
    hidden-to-scalar weight column and one bias per threshold, so all
    threshold logits move together and stay ordered like the biases.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_kind: str = HEAD_DENSE

    def __post_init__(self) -> None:
        if self.head_kind not in _HEAD_KINDS:
            raise ValueError(f"unknown head kind {self.head_kind!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty and aligned")

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
        return MlpModel(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            head_kind=self.head_kind,
        )


def _init_affine(rng: np.random.Generator, fan_in: int, fan_out: int) -> tuple[np.ndarray, np.ndarray]:
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return w, np.zeros(fan_out)


def init_model(dimension: int, hidden_dims, head_size: int, seed: int,
               head_kind: str = HEAD_DENSE) -> MlpModel:
    """Scaled-uniform weight init (bound 1/sqrt(fan_in)), zero biases.

    Hidden layers are drawn before the head, so two models built from the
    same seed share identical hidden parameters even when their heads have
    different shapes.
    """
    if dimension < 1 or head_size < 1:
        raise ValueError("dimension and head_size must be positive")
    dims = [int(dimension)] + [int(d) for d in hidden_dims]
    if any(d < 1 for d in dims):
        raise ValueError("hidden dims must be positive")
    rng = rng_from_seed(seed)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        w, b = _init_affine(rng, fan_in, fan_out)
        weights.append(w)
        biases.append(b)
    if head_kind == HEAD_SHARED_SCORE:
        w, _ = _init_affine(rng, dims[-1], 1)
        weights.append(w)
        biases.append(np.zeros(head_size))
    else:
        w, b = _init_affine(rng, dims[-1], head_size)
        weights.append(w)
        biases.append(b)
    return MlpModel(weights=weights, biases=biases, head_kind=head_kind)


def _hidden(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """Layer inputs of B models run side by side: x, then each hidden layer's
    (B, n, fan_out) activations, for (B, fan_in, fan_out) weights and
    (B, fan_out) biases.

    Every slice of a batched matmul is the BLAS call the 2-d product of that
    slice makes, so each model gets bitwise what it would get alone.
    """
    acts = [x]
    h = x
    for w, b in zip(weights, biases):
        h = np.maximum(h @ w + b[:, None, :], 0.0)
        acts.append(h)
    return acts


def _head(model: MlpModel, h: np.ndarray) -> np.ndarray:
    # a shared-score head's (n, 1) score broadcasts over its K-1 biases
    return h @ model.weights[-1] + model.biases[-1]


def forward(model: MlpModel, x) -> np.ndarray:
    """Head outputs for a single feature vector or a batch of them."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise ValueError(f"expected features of width {model.input_dim}, got shape {arr.shape}")
    acts = _hidden([w[None] for w in model.weights[:-1]], [b[None] for b in model.biases[:-1]], arr)
    out = _head(model, acts[-1][0] if len(acts) > 1 else arr)
    return out[0] if single else out


class ModelStack:
    """Models with one input width and one set of hidden-layer shapes, trained as one.

    Hidden layer i of all B members is one (B, fan_in, fan_out) weight block
    and one (B, fan_out) bias block, run as one batched matmul; each member
    keeps its own head. theta holds every parameter and grad every gradient,
    in one layout, and every array is a view into one of them: models[k] is
    member k's MlpModel over theta and grads[k] its gradients over grad.
    Building a stack copies the given models' parameters in.
    """

    def __init__(self, models: list[MlpModel]):
        if not models:
            raise ValueError("a stack needs at least one model")
        first = models[0]
        for m in models:
            if [w.shape for w in m.weights[:-1]] != [w.shape for w in first.weights[:-1]]:
                raise ValueError("stacked models must share their hidden-layer shapes")
        b = len(models)
        self._shapes = ([(b, *w.shape) for w in first.weights[:-1]]
                        + [(b, *x.shape) for x in first.biases[:-1]]
                        + [p.shape for m in models for p in (m.weights[-1], m.biases[-1])])
        self._kinds = [m.head_kind for m in models]
        size = sum(int(np.prod(s)) for s in self._shapes)
        self.theta = np.empty(size)
        self.grad = np.zeros(size)
        self.models = self._members(self.theta)
        self.grads = self._members(self.grad)
        for dst, src in zip(self.models, models):
            for a, p in zip(dst.weights + dst.biases, src.weights + src.biases):
                a[...] = p
        n_hidden = len(first.weights) - 1
        views = self._views(self.theta)
        self._w, self._b = views[:n_hidden], views[n_hidden:2 * n_hidden]
        views = self._views(self.grad)
        self._gw, self._gb = views[:n_hidden], views[n_hidden:2 * n_hidden]

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        ends = np.cumsum([int(np.prod(s)) for s in self._shapes])
        return [flat[end - int(np.prod(s)):end].reshape(s) for s, end in zip(self._shapes, ends)]

    def _members(self, flat: np.ndarray) -> list[MlpModel]:
        views = self._views(flat)
        n_hidden = len(self._shapes) // 2 - len(self._kinds)
        hidden_w, hidden_b, heads = views[:n_hidden], views[n_hidden:2 * n_hidden], views[2 * n_hidden:]
        return [MlpModel(weights=[w[k] for w in hidden_w] + [heads[2 * k]],
                         biases=[b[k] for b in hidden_b] + [heads[2 * k + 1]], head_kind=kind)
                for k, kind in enumerate(self._kinds)]

    @property
    def weights(self) -> list[np.ndarray]:
        """Every member's weight matrices, member by member: the multiply-adds
        of one row through the stack are those of its members."""
        return [w for m in self.models for w in m.weights]

    def select(self, keep: list[int]) -> tuple["ModelStack", np.ndarray]:
        """A stack of the members at positions keep, with their parameters and
        gradients, and the mask of their entries in this stack's flat layout."""
        owner = np.empty(self.theta.size, dtype=np.intp)
        for k, member in enumerate(self._members(owner)):
            for a in member.weights + member.biases:
                a[...] = k
        mask = np.isin(owner, keep)
        kept = ModelStack([self.models[k] for k in keep])
        kept.grad[...] = self.grad[mask]
        return kept, mask

    def _layers(self, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each layer's input, and each member's head input."""
        acts = _hidden(self._w, self._b, x)
        if len(acts) == 1:
            return acts, [x] * len(self.models)
        return acts, list(acts[-1])

    def outputs(self, x: np.ndarray) -> list[np.ndarray]:
        """Each member's (n, head) outputs for an (n, input) batch."""
        _, heads_in = self._layers(x)
        return [_head(m, h) for m, h in zip(self.models, heads_in)]

    def backward(self, acts: list[np.ndarray], heads_in: list[np.ndarray],
                 grad_outs: list[np.ndarray | None]) -> None:
        """Write into grad the parameter gradients, given each member's
        d(loss)/d(head outputs), or None for a gradient of zero.

        No gradient is computed for the input.
        """
        da = np.zeros(acts[-1].shape) if len(acts) > 1 else None
        for k, (model, grads, h, g) in enumerate(zip(self.models, self.grads, heads_in, grad_outs)):
            gw, gb = grads.weights[-1], grads.biases[-1]
            if g is None:
                gw[...] = 0.0
                gb[...] = 0.0
                continue
            if model.head_kind == HEAD_SHARED_SCORE:
                d_score = g.sum(axis=1)
                np.matmul(h.T, d_score[:, None], out=gw)
                g.sum(axis=0, out=gb)
                if da is not None:
                    np.outer(d_score, model.weights[-1][:, 0], out=da[k])
            else:
                np.matmul(h.T, g, out=gw)
                g.sum(axis=0, out=gb)
                if da is not None:
                    np.matmul(g, model.weights[-1].T, out=da[k])
        for i in range(len(self._w) - 1, -1, -1):
            dz = da * (acts[i + 1] > 0)
            np.matmul(np.swapaxes(acts[i], -1, -2), dz, out=self._gw[i])
            dz.sum(axis=1, out=self._gb[i])
            if i:
                da = dz @ np.swapaxes(self._w[i], -1, -2)


def batch_loss_and_grads(stack: ModelStack, x: np.ndarray, targets: list[Targets],
                         methods: list[MethodConfig], label_set: LabelSet) -> list:
    """One training step of every member of a stack on a shared minibatch.

    targets[k] holds member k's targets for the batch rows and methods[k]
    its method. The parameter gradients of each member's mean loss land in
    stack.grad. Returns the mean losses in member order. A member whose
    head outputs are not finite gets inf, to signal divergence, and one
    whose loss raised gets the exception instead; the gradient of a member
    without a finite loss is zero.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    acts, heads_in = stack._layers(x)
    values: list = []
    grad_outs: list = []
    for model, h, t, method in zip(stack.models, heads_in, targets, methods):
        out = _head(model, h)
        grad_out = None
        if not np.all(np.isfinite(out)):
            values.append(float("inf"))
        else:
            try:
                ev = loss_eval(method, out, t, label_set)
            except Exception as exc:  # one member's failure; the others go on
                values.append(exc)
            else:
                value = _sum_in_order(ev.value) / n
                values.append(value)
                if np.isfinite(value):
                    grad_out = ev.grad / n
        grad_outs.append(grad_out)
    stack.backward(acts, heads_in, grad_outs)
    return values


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right sum, as a Python loop adds (np.sum adds pairwise)."""
    return float(np.cumsum(values)[-1])


class _Adam:
    """Adam over one flat parameter vector, updated in place.

    The moments and the temporaries are single preallocated vectors, so one
    step is a fixed handful of array operations whatever the model count
    and depth. The operations and their order are those of
    m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), elementwise.
    """

    def __init__(self, size: int, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m, self.v, self.num, self.den = (np.zeros(size) for _ in range(4))

    def keep(self, mask: np.ndarray) -> None:
        """Keep the state of the entries under mask, as ModelStack.select does."""
        self.m, self.v, self.num, self.den = (a[mask] for a in (self.m, self.v, self.num, self.den))

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        m, v, num, den = self.m, self.v, self.num, self.den
        m *= c.beta1
        m += np.multiply(1 - c.beta1, g, out=num)
        np.multiply(1 - c.beta2, g, out=num)
        num *= g
        v *= c.beta2
        v += num
        np.divide(m, bc1, out=num)
        num *= c.learning_rate
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += c.adam_eps
        num /= den
        theta -= num


@dataclass
class TrainedRun:
    """Outcome of one training call.

    history holds one (train_loss, val_mae) pair per epoch; selected_epoch
    is 1-based and points at the first epoch achieving the minimum
    validation MAE, whose parameter snapshot is best_model. method and
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


def head_kind_for(method: MethodConfig) -> str:
    return HEAD_SHARED_SCORE if method.family == "coral" else HEAD_DENSE


def _mae(method: MethodConfig, head_out: np.ndarray, ages: np.ndarray,
         label_set: LabelSet) -> float:
    pred = decode_output(method, head_out, label_set)
    return _sum_in_order(np.abs(pred.age - ages)) / len(ages)


def evaluate_mae(run: TrainedRun, table: DatasetTable, fold_ids) -> float:
    """Mean absolute error in years of the run's selected model over a fold.

    Outputs are decoded with the run's method and label set, the labels the
    model was trained on. Errors are taken against the table's true ages,
    so a run can be scored on a table whose label set differs from its own.
    """
    ids = tuple(fold_ids)
    if not ids:
        raise ValueError("cannot evaluate an empty fold")
    return _mae(run.method, forward(run.best_model, table.features_for(ids)),
                table.ages_for(ids), run.label_set)


@dataclass(eq=False)
class _Member:
    """One method's part of a lockstep run: its targets, its model (views
    into the current stack) and its selection state."""

    index: int
    method: MethodConfig
    targets: Targets
    model: MlpModel
    best_model: MlpModel
    history: list = field(default_factory=list)
    best_mae: float = np.inf
    best_epoch: int = 0
    epoch_loss: float = 0.0


def train(table: DatasetTable, split: SplitSpec, methods, cfg: TrainConfig):
    """Fit one model per method on the split's train fold, selecting each by val-fold MAE.

    methods is one MethodConfig, which gives its TrainedRun and raises its
    failure, or a sequence of them, which gives a list in the same order
    holding each method's TrainedRun or the exception that stopped it. The
    methods of a sequence train in lockstep as one ModelStack: all start
    from the seed's hidden layers and see the same minibatches, and each
    gets bitwise the run it would get alone. A method whose loss diverges or
    raises leaves the stack; the others go on.

    Only the train and val folds are ever read; the test fold stays
    untouched. Given equal inputs the result is bitwise reproducible: the
    seed drives both initialization and the per-epoch shuffles. Targets are
    encoded from the train fold once. A shared-score (CORAL) head starts
    with bias k at the logit of the train fold's P(label index > k), as Cao,
    Mirjalili & Raschka (2020) do; from zero biases Adam cannot spread the
    thresholds within a short run.
    """
    if isinstance(methods, MethodConfig):
        (outcome,) = train(table, split, [methods], cfg)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    methods = list(methods)
    if not methods:
        raise ValueError("no methods to train")
    if not split.train:
        raise ValueError("split has an empty train fold")
    if not split.val:
        raise ValueError("split has an empty val fold")
    label_set = table.label_set
    x_train = table.features_for(split.train)
    ages_train = table.ages_for(split.train)
    x_val = table.features_for(split.val)
    ages_val = table.ages_for(split.val)

    outcomes: list = [None] * len(methods)
    live: list[_Member] = []
    for k, method in enumerate(methods):
        try:
            targets = encode_targets(method, ages_train, label_set)
            model = init_model(table.dimension, cfg.hidden_dims,
                               method.head_size(len(label_set)), seed=cfg.seed,
                               head_kind=head_kind_for(method))
        except Exception as exc:  # this method fails; the others go on
            outcomes[k] = exc
            continue
        if model.head_kind == HEAD_SHARED_SCORE:
            p = np.clip(targets.row.mean(axis=0), 1e-3, 1 - 1e-3)
            model.biases[-1][:] = np.log(p / (1 - p))
        live.append(_Member(k, method, targets, model, model.copy()))
    if not live:
        return outcomes

    stack = ModelStack([m.model for m in live])
    adam = _Adam(stack.theta.size, cfg)

    def drop(failed: dict) -> bool:
        """Record the failed members' outcomes, take them out of the stack and
        point the others at their views in it; False once none is left."""
        nonlocal stack, live
        if failed:
            for m, exc in failed.items():
                outcomes[m.index] = exc
            keep = [j for j, m in enumerate(live) if m not in failed]
            live = [live[j] for j in keep]
            if live:
                stack, mask = stack.select(keep)
                adam.keep(mask)
        for m, model in zip(live, stack.models):
            m.model = model
        return bool(live)

    drop({})  # each member's model becomes its views in the stack
    shuffle_rng = rng_from_seed(cfg.seed, 1)
    n = len(x_train)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        for m in live:
            m.epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            values = batch_loss_and_grads(stack, x_train[rows], [m.targets[rows] for m in live],
                                          [m.method for m in live], label_set)
            failed = {m: v if isinstance(v, Exception) else TrainingDiverged(epoch)
                      for m, v in zip(live, values)
                      if isinstance(v, Exception) or not np.isfinite(v)}
            values = [v for m, v in zip(live, values) if m not in failed]
            if not drop(failed):
                return outcomes
            adam.step(stack.theta, stack.grad)
            for m, value in zip(live, values):
                m.epoch_loss += value * len(rows)
        failed = {m: TrainingDiverged(epoch) for m in live
                  if not all(np.all(np.isfinite(w)) for w in m.model.weights)}
        if not drop(failed):
            return outcomes
        failed = {}
        for m, out in zip(live, stack.outputs(x_val)):
            try:
                val_mae = _mae(m.method, out, ages_val, label_set)
            except Exception as exc:  # this method fails; the others go on
                failed[m] = exc
                continue
            m.history.append((m.epoch_loss / n, val_mae))
            if val_mae < m.best_mae:
                m.best_mae = val_mae
                m.best_epoch = epoch
                m.best_model = m.model.copy()
        if not drop(failed):
            return outcomes

    for m in live:
        outcomes[m.index] = TrainedRun(best_model=m.best_model, history=tuple(m.history),
                                       selected_epoch=m.best_epoch, method=m.method,
                                       label_set=label_set)
    return outcomes
