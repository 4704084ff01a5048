"""Experiment harness: run a methods-by-datasets-by-splits grid and collect
error matrices, plus the split-leakage demonstration.

The harness owns the protocol sequencing: per dataset it builds a series of
splits, per split it initializes one backbone, per method it swaps in a
fresh head and trains. The trainer only ever sees the train and val folds;
the single test-fold pass happens here, after model selection, and held-out
datasets are scored in full as cross-dataset rows.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .data import DatasetTable, SynthSpec, ValidationError, generate_synthetic, load_dataset
from .methods import MethodConfig
from .splitting import (
    MODE_RANDOM,
    MODE_SUBJECT_EXCLUSIVE,
    SplitSpec,
    make_split,
    make_split_series,
)
from .stats import ResultMatrix, aggregate_splits, save_result_matrix
from .training import (
    TrainConfig,
    evaluate_mae,
    head_kind_for,
    init_model,
    reset_head,
    train,
)
from .util import fmt_float

__all__ = [
    "DatasetEntry",
    "ExperimentConfig",
    "RunRecord",
    "RunResult",
    "run_experiment",
    "save_run_records",
    "LeakageParams",
    "LeakageReport",
    "leakage_demo",
]


@dataclass(frozen=True)
class DatasetEntry:
    """One dataset: either a manifest on disk or a synthetic recipe."""

    name: str
    path: Optional[str] = None
    synth: Optional[SynthSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("dataset entry needs a name")
        if (self.path is None) == (self.synth is None):
            raise ValidationError(
                f"dataset {self.name!r} must set exactly one of 'path' or 'synth'"
            )

    def load(self) -> DatasetTable:
        if self.synth is not None:
            return generate_synthetic(self.synth, name=self.name)
        return load_dataset(self.path, name=self.name)


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetEntry, ...]
    methods: tuple[MethodConfig, ...]
    split_mode: str
    fractions: tuple[float, float, float]
    n_splits: int
    base_seed: int
    train: TrainConfig
    output_dir: str

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ValidationError("config needs at least one dataset")
        if len(self.methods) < 2:
            raise ValidationError("a comparison run needs at least two methods")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ValidationError("dataset names must be unique")
        mnames = [m.display_name for m in self.methods]
        if len(set(mnames)) != len(mnames):
            raise ValidationError("method names must be unique; set 'name' on duplicates")
        if self.split_mode not in (MODE_SUBJECT_EXCLUSIVE, MODE_RANDOM):
            raise ValidationError(f"unknown split mode {self.split_mode!r}")
        if self.n_splits < 1:
            raise ValidationError("n_splits must be >= 1")
        if not self.output_dir:
            raise ValidationError("output_dir must be set")

    @classmethod
    def from_dict(cls, payload: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        allowed = {"datasets", "methods", "split", "train", "output_dir"}
        unknown = set(payload) - allowed
        if unknown:
            raise ValidationError(f"unknown config key(s): {sorted(unknown)}")
        base = Path(base_dir) if base_dir is not None else Path(".")

        entries = []
        for item in payload.get("datasets", []):
            synth = None
            path = None
            if "synth" in item:
                s = dict(item["synth"])
                if "age_range" in s:
                    s["age_range"] = tuple(s["age_range"])
                synth = SynthSpec(**s)
            if "path" in item:
                path = str((base / item["path"]).resolve()) if not Path(item["path"]).is_absolute() else item["path"]
            entries.append(DatasetEntry(name=item.get("name", ""), path=path, synth=synth))

        methods = tuple(MethodConfig.from_dict(m) for m in payload.get("methods", []))

        split = payload.get("split", {})
        mode = split.get("mode", MODE_SUBJECT_EXCLUSIVE)
        if mode in ("se", "subject-exclusive"):
            mode = MODE_SUBJECT_EXCLUSIVE
        elif mode in ("rs", "random"):
            mode = MODE_RANDOM
        fractions = tuple(split.get("fractions", (0.6, 0.2, 0.2)))
        n_splits = int(split.get("n_splits", 5))
        base_seed = int(split.get("base_seed", 0))

        train_cfg = TrainConfig.from_dict(payload.get("train", {}))
        out_dir = payload.get("output_dir", "runs")
        out_path = Path(out_dir)
        if not out_path.is_absolute():
            out_path = base / out_dir
        return cls(
            datasets=tuple(entries),
            methods=methods,
            split_mode=mode,
            fractions=fractions,  # type: ignore[arg-type]
            n_splits=n_splits,
            base_seed=base_seed,
            train=train_cfg,
            output_dir=str(out_path),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        path = Path(path)
        payload = json.loads(path.read_text())
        return cls.from_dict(payload, base_dir=path.parent)


@dataclass(frozen=True)
class RunRecord:
    """One grid cell: a method trained on one split of one dataset.

    For cross-dataset rows the dataset field reads "train->eval" and
    test_mae is the error over every sample of the held-out dataset.
    """

    dataset: str
    method: str
    split_index: int
    seed: int
    val_mae: float
    test_mae: float
    selected_epoch: int


RECORD_HEADER = "dataset,method,split,seed,val_mae,test_mae,selected_epoch"


def save_run_records(records, path) -> Path:
    """Write records sorted by (dataset, method, split); fully deterministic."""
    path = Path(path)
    ordered = sorted(records, key=lambda r: (r.dataset, r.method, r.split_index))
    lines = [RECORD_HEADER]
    for r in ordered:
        lines.append(
            f"{r.dataset},{r.method},{r.split_index},{r.seed},"
            f"{fmt_float(r.val_mae)},{fmt_float(r.test_mae)},{r.selected_epoch}"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


@dataclass
class RunResult:
    records: tuple[RunRecord, ...]
    failures: tuple[tuple[str, str], ...]
    contexts: tuple[str, ...]
    methods: tuple[str, ...]
    mean_matrix: Optional[ResultMatrix]
    split_matrix: Optional[ResultMatrix]
    files: dict[str, str]


def _cell_key(dataset: str, method: str, split_index: int) -> str:
    return f"{dataset}/{method}/split{split_index}"


def _run_cell(table: DatasetTable, split: SplitSpec, split_index: int,
              method: MethodConfig, cfg: TrainConfig,
              holdouts: list[DatasetTable]) -> tuple[list[RunRecord], float]:
    """Train one cell and score it on the test fold plus any held-out tables."""
    n_labels = len(table.label_set)
    backbone = init_model(
        table.dimension, cfg.hidden_dims, n_labels, seed=cfg.seed, head_kind="dense"
    )
    model0 = reset_head(
        backbone, method.head_size(n_labels), seed=cfg.seed, head_kind=head_kind_for(method)
    )
    started = time.perf_counter()
    run = train(table, split, method, cfg, initial_model=model0)
    wall = time.perf_counter() - started
    test_mae = evaluate_mae(run.best_model, table, split.test, method)
    records = [RunRecord(
        dataset=table.name,
        method=method.display_name,
        split_index=split_index,
        seed=cfg.seed,
        val_mae=run.best_val_mae,
        test_mae=float(test_mae),
        selected_epoch=run.selected_epoch,
    )]
    for other in holdouts:
        cross = evaluate_mae(run.best_model, other, other.sample_ids, method,
                             label_set=table.label_set)
        records.append(RunRecord(
            dataset=f"{table.name}->{other.name}",
            method=method.display_name,
            split_index=split_index,
            seed=cfg.seed,
            val_mae=run.best_val_mae,
            test_mae=float(cross),
            selected_epoch=run.selected_epoch,
        ))
    return records, wall


def _cell_worker(args):
    try:
        records, wall = _run_cell(*args[1:])
        return args[0], records, wall, None
    except Exception as exc:  # isolate cell failures; the collector reports them
        return args[0], [], 0.0, f"{type(exc).__name__}: {exc}"


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Execute the full grid and write records and matrices to output_dir.

    Cells are independent; with jobs > 1 they run in worker processes. The
    collected records are sorted before writing, so reruns of the same
    config produce byte-identical record and matrix files regardless of
    jobs. Per-cell wall times go to a separate timings file, which is the
    one output that legitimately varies between reruns.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tables = [entry.load() for entry in config.datasets]
    dims = {t.dimension for t in tables}
    if len(dims) > 1:
        raise ValidationError(
            f"cross-dataset evaluation needs one shared feature width, got {sorted(dims)}"
        )

    cells = []
    for d_idx, table in enumerate(tables):
        splits = make_split_series(
            table, config.split_mode, config.fractions, config.base_seed, config.n_splits
        )
        holdouts = [t for i, t in enumerate(tables) if i != d_idx]
        for s_idx, split in enumerate(splits):
            cell_cfg = TrainConfig.from_dict(
                {**config.train.to_dict(), "seed": config.train.seed + s_idx}
            )
            for method in config.methods:
                key = _cell_key(table.name, method.display_name, s_idx)
                cells.append((key, table, split, s_idx, method, cell_cfg, holdouts))

    results = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_cell_worker, cells))
    else:
        results = [_cell_worker(c) for c in cells]

    records: list[RunRecord] = []
    timings: list[tuple[str, float]] = []
    failures: list[tuple[str, str]] = []
    for key, recs, wall, error in results:
        if error is not None:
            failures.append((key, error))
        else:
            records.extend(recs)
            timings.append((key, wall))

    records.sort(key=lambda r: (r.dataset, r.method, r.split_index))
    files: dict[str, str] = {}
    rec_path = save_run_records(records, out_dir / "run_records.csv")
    files["records"] = str(rec_path)

    timing_lines = ["cell,wall_time_s"]
    for key, wall in sorted(timings):
        timing_lines.append(f"{key},{wall:.3f}")
    (out_dir / "run_timings.csv").write_text("\n".join(timing_lines) + "\n")
    files["timings"] = str(out_dir / "run_timings.csv")

    # evaluation contexts, intra rows first per training dataset, then holdouts
    contexts: list[str] = []
    for d_idx, table in enumerate(tables):
        contexts.append(table.name)
        for i, other in enumerate(tables):
            if i != d_idx:
                contexts.append(f"{table.name}->{other.name}")
    method_names = tuple(m.display_name for m in config.methods)

    by_cell: dict[tuple[str, str], dict[int, float]] = {}
    for r in records:
        by_cell.setdefault((r.dataset, r.method), {})[r.split_index] = r.test_mae

    mean_matrix = None
    split_matrix = None
    complete = all(
        len(by_cell.get((ctx, m), {})) == config.n_splits
        for ctx in contexts
        for m in method_names
    )
    if complete and contexts and method_names:
        mean = np.zeros((len(contexts), len(method_names)))
        std = np.zeros_like(mean)
        for i, ctx in enumerate(contexts):
            for j, m in enumerate(method_names):
                vals = [by_cell[(ctx, m)][s] for s in range(config.n_splits)]
                mean[i, j], std[i, j] = aggregate_splits(vals)
        mean_matrix = ResultMatrix(
            datasets=tuple(contexts), methods=method_names, mae=mean, std=std
        )
        files["mae_mean"] = str(save_result_matrix(mean_matrix, out_dir / "mae_mean.csv"))
        std_matrix = ResultMatrix(datasets=tuple(contexts), methods=method_names, mae=std)
        files["mae_std"] = str(save_result_matrix(std_matrix, out_dir / "mae_std.csv"))

        split_rows = []
        split_names = []
        for i, ctx in enumerate(contexts):
            for s in range(config.n_splits):
                split_names.append(f"{ctx}/split{s}")
                split_rows.append([by_cell[(ctx, m)][s] for m in method_names])
        split_matrix = ResultMatrix(
            datasets=tuple(split_names), methods=method_names, mae=np.asarray(split_rows)
        )
        files["mae_splits"] = str(save_result_matrix(split_matrix, out_dir / "mae_splits.csv"))

    if failures:
        fail_lines = [f"{key}: {msg}" for key, msg in sorted(failures)]
        (out_dir / "failures.txt").write_text("\n".join(fail_lines) + "\n")
        files["failures"] = str(out_dir / "failures.txt")

    return RunResult(
        records=tuple(records),
        failures=tuple(sorted(failures)),
        contexts=tuple(contexts),
        methods=method_names,
        mean_matrix=mean_matrix,
        split_matrix=split_matrix,
        files=files,
    )


@dataclass(frozen=True)
class LeakageParams:
    """Settings for the random-vs-subject-exclusive comparison.

    The defaults put identity structure well above observation noise, the
    regime where sharing identities between folds visibly flatters the
    random-split score.
    """

    n_identities: int = 60
    samples_per_identity: int = 4
    dimension: int = 16
    age_range: tuple[int, int] = (20, 60)
    sigma_id: float = 2.0
    sigma_obs: float = 0.5
    n_seeds: int = 5
    base_seed: int = 0
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    epochs: int = 40
    hidden_dims: tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ValidationError("n_seeds must be >= 1")


@dataclass(frozen=True)
class LeakageReport:
    """Per-seed test MAE under both split modes for one loss family."""

    params: LeakageParams
    seeds: tuple[int, ...]
    random_mae: tuple[float, ...]
    subject_exclusive_mae: tuple[float, ...]

    @property
    def gaps(self) -> tuple[float, ...]:
        """subject-exclusive minus random; positive means random flattered."""
        return tuple(s - r for r, s in zip(self.random_mae, self.subject_exclusive_mae))

    @property
    def mean_gap(self) -> float:
        return float(np.mean(self.gaps))

    @property
    def std_gap(self) -> float:
        g = np.asarray(self.gaps)
        return float(g.std(ddof=1)) if len(g) > 1 else 0.0

    @property
    def n_random_lower(self) -> int:
        return sum(r < s for r, s in zip(self.random_mae, self.subject_exclusive_mae))

    def to_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "random_mae": list(self.random_mae),
            "subject_exclusive_mae": list(self.subject_exclusive_mae),
            "gaps": list(self.gaps),
            "mean_gap": self.mean_gap,
            "std_gap": self.std_gap,
            "n_random_lower": self.n_random_lower,
            "sigma_id": self.params.sigma_id,
            "sigma_obs": self.params.sigma_obs,
        }

    def to_text(self) -> str:
        lines = [
            "split-leakage demonstration (cross-entropy)",
            f"  sigma_id={self.params.sigma_id} sigma_obs={self.params.sigma_obs} "
            f"identities={self.params.n_identities} x {self.params.samples_per_identity}",
            "  seed  random-MAE  subject-exclusive-MAE  gap",
        ]
        for seed, r, s in zip(self.seeds, self.random_mae, self.subject_exclusive_mae):
            lines.append(f"  {seed:4d}  {r:10.3f}  {s:21.3f}  {s - r:+.3f}")
        lines.append(
            f"  random split scored lower in {self.n_random_lower}/{len(self.seeds)} seeds; "
            f"mean gap {self.mean_gap:+.3f} (std {self.std_gap:.3f})"
        )
        return "\n".join(lines)


def leakage_demo(params: LeakageParams = LeakageParams()) -> LeakageReport:
    """Train the same method under random and subject-exclusive splits.

    For each seed one synthetic table is generated, split both ways with
    that same seed, and a cross-entropy model is trained per split; the
    reported numbers are test-fold MAEs. With identity-correlated features
    the random split lets the model recognize people it saw in training, so
    its test score is optimistically low.
    """
    method = MethodConfig(family="cross-entropy")
    seeds = tuple(params.base_seed + i for i in range(params.n_seeds))
    random_mae: list[float] = []
    se_mae: list[float] = []
    for seed in seeds:
        spec = SynthSpec(
            n_identities=params.n_identities,
            samples_per_identity=params.samples_per_identity,
            dimension=params.dimension,
            age_range=params.age_range,
            sigma_id=params.sigma_id,
            sigma_obs=params.sigma_obs,
            seed=seed,
        )
        table = generate_synthetic(spec, name=f"leakage_seed{seed}")
        cfg = TrainConfig(
            learning_rate=params.learning_rate,
            epochs=params.epochs,
            batch_size=params.batch_size,
            seed=seed,
            hidden_dims=params.hidden_dims,
        )
        for mode, sink in ((MODE_RANDOM, random_mae), (MODE_SUBJECT_EXCLUSIVE, se_mae)):
            split = make_split(table, mode, params.fractions, seed)
            run = train(table, split, method, cfg)
            sink.append(float(evaluate_mae(run.best_model, table, split.test, method)))
    return LeakageReport(
        params=params,
        seeds=seeds,
        random_mae=tuple(random_mae),
        subject_exclusive_mae=tuple(se_mae),
    )
