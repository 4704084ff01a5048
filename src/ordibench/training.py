"""A small fully-connected network trained with Adam, from scratch in numpy.

The trainer is deliberately minimal: affine layers with ReLU between them,
a method-specific head, minibatch Adam, and per-epoch model selection on
validation MAE. It only ever touches the train and val folds of a split;
scoring the test fold is a separate call the caller makes once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DatasetTable, LabelSet
from .methods import MethodConfig, ebc_encode, loss_eval
from .prediction import decode_output
from .splitting import SplitSpec
from .util import rng_from_seed

__all__ = [
    "TrainConfig",
    "MlpModel",
    "TrainedRun",
    "TrainingDiverged",
    "init_model",
    "forward",
    "batch_loss_and_grads",
    "train",
    "evaluate_mae",
    "save_model",
    "load_model",
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
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        dims = tuple(int(d) for d in self.hidden_dims)
        if any(d < 1 for d in dims):
            raise ValueError("hidden dims must be positive")
        object.__setattr__(self, "hidden_dims", dims)

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "adam_eps": self.adam_eps,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "hidden_dims": list(self.hidden_dims),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        allowed = {
            "learning_rate", "beta1", "beta2", "adam_eps",
            "epochs", "batch_size", "seed", "hidden_dims",
        }
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(f"unknown train option(s): {sorted(unknown)}")
        payload = dict(payload)
        if "hidden_dims" in payload:
            payload["hidden_dims"] = tuple(payload["hidden_dims"])
        return cls(**payload)


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
    def layer_dims(self) -> tuple[int, ...]:
        dims = [w.shape[0] for w in self.weights]
        dims.append(self.head_size)
        return tuple(dims)

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


def _forward_cached(model: MlpModel, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Returns (layer inputs a_0..a_{L-1}, head outputs)."""
    acts = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    w, b = model.weights[-1], model.biases[-1]
    if model.head_kind == HEAD_SHARED_SCORE:
        out = (h @ w) + b  # (n,1) + (K-1,) broadcasts to (n, K-1)
    else:
        out = h @ w + b
    return acts, out


def forward(model: MlpModel, x) -> np.ndarray:
    """Head outputs for a single feature vector or a batch of them."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise ValueError(f"expected features of width {model.input_dim}, got shape {arr.shape}")
    _, out = _forward_cached(model, arr)
    return out[0] if single else out


def _backprop(model: MlpModel, acts: list[np.ndarray],
              grad_out: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Parameter gradients given d(loss)/d(head outputs) for a batch."""
    gw: list[np.ndarray | None] = [None] * len(model.weights)
    gb: list[np.ndarray | None] = [None] * len(model.biases)
    a_head = acts[-1]
    if model.head_kind == HEAD_SHARED_SCORE:
        d_score = grad_out.sum(axis=1)
        gw[-1] = a_head.T @ d_score[:, None]
        gb[-1] = grad_out.sum(axis=0)
        da = np.outer(d_score, model.weights[-1][:, 0])
    else:
        gw[-1] = a_head.T @ grad_out
        gb[-1] = grad_out.sum(axis=0)
        da = grad_out @ model.weights[-1].T
    for i in range(len(model.weights) - 2, -1, -1):
        dz = da * (acts[i + 1] > 0)
        gw[i] = acts[i].T @ dz
        gb[i] = dz.sum(axis=0)
        da = dz @ model.weights[i].T
    return gw, gb  # type: ignore[return-value]


def batch_loss_and_grads(model: MlpModel, x: np.ndarray, ages: np.ndarray,
                         method: MethodConfig, label_set: LabelSet):
    """Mean per-sample loss over the batch and its parameter gradients."""
    x = np.asarray(x, dtype=float)
    acts, out = _forward_cached(model, x)
    n = len(x)
    if not np.all(np.isfinite(out)):
        # signal divergence to the caller instead of failing inside a loss
        return float("inf"), [np.zeros_like(w) for w in model.weights], [
            np.zeros_like(b) for b in model.biases
        ]
    ev = loss_eval(method, out, np.asarray(ages, dtype=float), label_set)
    gw, gb = _backprop(model, acts, ev.grad / n)
    return _sum_in_order(ev.value) / n, gw, gb


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right sum, as a Python loop adds (np.sum adds pairwise)."""
    return float(np.cumsum(values)[-1])


class _Adam:
    """Adam over every weight and bias of a model, updated in place.

    The moments and the temporaries are single preallocated vectors over
    all parameters, so one step is a fixed handful of array operations
    whatever the depth. The operations and their order are those of
    m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g and
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), elementwise.
    """

    def __init__(self, model: MlpModel, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        ends = np.cumsum([p.size for p in model.weights + model.biases])
        self.slices = [slice(a, b) for a, b in zip(np.r_[0, ends[:-1]], ends)]
        self.g, self.m, self.v, self.num, self.den = (np.zeros(ends[-1]) for _ in range(5))

    def step(self, model: MlpModel, gw, gb) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        g, m, v, num, den = self.g, self.m, self.v, self.num, self.den
        np.concatenate([x.ravel() for x in (*gw, *gb)], out=g)
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
        for p, part in zip(model.weights + model.biases, self.slices):
            p -= num[part].reshape(p.shape)


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


def _fold_mae(model: MlpModel, x: np.ndarray, ages: np.ndarray,
              method: MethodConfig, label_set: LabelSet) -> float:
    pred = decode_output(method, forward(model, x), label_set)
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
    return _fold_mae(run.best_model, table.features_for(ids), table.ages_for(ids),
                     run.method, run.label_set)


def train(table: DatasetTable, split: SplitSpec, method: MethodConfig,
          cfg: TrainConfig) -> TrainedRun:
    """Fit a model on the split's train fold, selecting by val-fold MAE.

    Only the train and val folds are ever read; the test fold stays
    untouched. Given equal inputs the result is bitwise reproducible: the
    seed drives both initialization and the per-epoch shuffles. A
    shared-score (CORAL) head starts with bias k at the logit of the train
    fold's P(label index > k), as Cao, Mirjalili & Raschka (2020) do;
    from zero biases Adam cannot spread the thresholds within a short run.
    """
    if not split.train:
        raise ValueError("split has an empty train fold")
    if not split.val:
        raise ValueError("split has an empty val fold")
    label_set = table.label_set
    x_train = table.features_for(split.train)
    ages_train = table.ages_for(split.train)
    x_val = table.features_for(split.val)
    ages_val = table.ages_for(split.val)

    model = init_model(
        table.dimension,
        cfg.hidden_dims,
        method.head_size(len(label_set)),
        seed=cfg.seed,
        head_kind=head_kind_for(method),
    )
    if model.head_kind == HEAD_SHARED_SCORE:
        above = ebc_encode(label_set.indices_of(ages_train), len(label_set)).mean(axis=0)
        p = np.clip(above, 1e-3, 1 - 1e-3)
        model.biases[-1][:] = np.log(p / (1 - p))

    shuffle_rng = rng_from_seed(cfg.seed, 1)
    adam = _Adam(model, cfg)
    n = len(x_train)
    history: list[tuple[float, float]] = []
    best_mae = np.inf
    best_epoch = 0
    best_model = model.copy()

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            value, gw, gb = batch_loss_and_grads(
                model, x_train[rows], ages_train[rows], method, label_set
            )
            if not np.isfinite(value):
                raise TrainingDiverged(epoch)
            adam.step(model, gw, gb)
            epoch_loss += value * len(rows)
        if not all(np.all(np.isfinite(w)) for w in model.weights):
            raise TrainingDiverged(epoch)
        val_mae = _fold_mae(model, x_val, ages_val, method, label_set)
        history.append((epoch_loss / n, val_mae))
        if val_mae < best_mae:
            best_mae = val_mae
            best_epoch = epoch
            best_model = model.copy()

    return TrainedRun(best_model=best_model, history=tuple(history), selected_epoch=best_epoch,
                      method=method, label_set=label_set)


_CHECKPOINT_VERSION = 1


def save_model(model: MlpModel, path) -> Path:
    """Write a lossless JSON checkpoint (floats keep full precision)."""
    path = Path(path)
    payload = {
        "version": _CHECKPOINT_VERSION,
        "head_kind": model.head_kind,
        "layers": [
            {"weights": w.tolist(), "biases": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def load_model(path) -> MlpModel:
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    weights = [np.asarray(layer["weights"], dtype=float) for layer in payload["layers"]]
    biases = [np.asarray(layer["biases"], dtype=float) for layer in payload["layers"]]
    return MlpModel(weights=weights, biases=biases, head_kind=payload["head_kind"])
