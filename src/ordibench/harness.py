"""Experiment harness: run a methods-by-datasets-by-splits grid and collect
error matrices, plus the split-leakage demonstration.

The harness owns the protocol sequencing: per dataset it builds a series of
splits, and one train() call per chunk of those splits fits every method on
each of them, in lockstep. The trainer builds every model from its split's
seed, so all methods on a split start from the same hidden layers. The
trainer only ever sees the train and val folds; the single test-fold pass
happens here, after model selection, and held-out datasets are scored in
full as cross-dataset rows, decoded with the label set the model was
trained on.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .data import (
    DatasetTable,
    SynthSpec,
    ValidationError,
    _check_keys,
    _check_types,
    _from_json,
    _is_kind,
    generate_synthetic,
    load_dataset,
)
from .methods import MethodConfig
from .splitting import (
    MODE_RANDOM,
    MODE_SUBJECT_EXCLUSIVE,
    SplitSpec,
    _check_fractions,
    make_split,
    make_split_series,
    parse_mode,
)
from .stats import ResultMatrix, aggregate_splits, save_result_matrix
from .training import TrainConfig, TrainedRun, evaluate_mae, train
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
        for name in names + mnames:  # names become fields and rows of the CSV outputs
            if "," in name or name.splitlines() != [name]:
                raise ValidationError(f"name {name!r} must not contain ',' or a line break")
        for name in names:  # "a->b" names the rows of a model trained on a, scored on b
            if "->" in name:
                raise ValidationError(f"dataset name {name!r} must not contain '->'")
        if self.split_mode not in (MODE_SUBJECT_EXCLUSIVE, MODE_RANDOM):
            raise ValidationError(f"unknown split mode {self.split_mode!r}")
        object.__setattr__(self, "fractions", _check_fractions(self.fractions))
        if self.n_splits < 1:
            raise ValidationError("n_splits must be >= 1")
        if not self.output_dir:
            raise ValidationError("output_dir must be set")

    @classmethod
    def from_dict(cls, payload: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if not _is_kind(payload, "object"):
            raise ValidationError("a config must be a JSON object")
        _check_keys("config", payload, {"datasets", "methods", "split", "train", "output_dir"})
        _check_types("config", payload, {"datasets": "list", "methods": "list", "split": "object",
                                         "train": "object", "output_dir": "str"})
        base = Path(base_dir) if base_dir is not None else Path(".")

        entries = []
        for item in payload.get("datasets", []):
            if not _is_kind(item, "object"):
                raise ValidationError(f"each datasets entry must be an object, got {item!r}")
            _check_keys("dataset entry", item, {"name", "path", "synth"})
            _check_types("dataset entry", item, {"name": "str", "path": "str", "synth": "object"})
            synth = _from_json(SynthSpec, "synth", item["synth"]) if "synth" in item else None
            path = None
            if "path" in item:
                path = str((base / item["path"]).resolve()) if not Path(item["path"]).is_absolute() else item["path"]
            entries.append(DatasetEntry(name=item.get("name", ""), path=path, synth=synth))
        methods = tuple(_from_json(MethodConfig, "method", m) for m in payload.get("methods", []))

        split = payload.get("split", {})
        _check_keys("split", split, {"mode", "fractions", "n_splits", "base_seed"})
        _check_types("split", split, {"mode": "str", "fractions": "tuple[float, float, float]",
                                      "n_splits": "int", "base_seed": "int"})
        mode = parse_mode(split.get("mode", MODE_SUBJECT_EXCLUSIVE))
        fractions = tuple(split.get("fractions", (0.6, 0.2, 0.2)))
        n_splits = int(split.get("n_splits", 5))
        base_seed = int(split.get("base_seed", 0))

        train_cfg = _from_json(TrainConfig, "train", payload.get("train", {}))
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


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _records(run: TrainedRun, table: DatasetTable, split: SplitSpec, split_index: int,
             cfg: TrainConfig, holdouts: list[DatasetTable]) -> list[RunRecord]:
    """Score one trained cell on the test fold plus any held-out tables."""
    scored = [(table.name, evaluate_mae(run, table, split.test))]
    scored += [(f"{table.name}->{other.name}", evaluate_mae(run, other, other.sample_ids))
               for other in holdouts]
    return [RunRecord(
        dataset=dataset,
        method=run.method.display_name,
        split_index=split_index,
        seed=cfg.seed,
        val_mae=run.best_val_mae,
        test_mae=float(mae),
        selected_epoch=run.selected_epoch,
    ) for dataset, mae in scored]


def _task_name(dataset: str, split_indices: list[int]) -> str:
    first, last = split_indices[0], split_indices[-1]
    return f"{dataset}/split{first}" if first == last else f"{dataset}/split{first}-{last}"


def _run_task(table: DatasetTable, splits: list[SplitSpec], split_indices: list[int],
              methods: tuple[MethodConfig, ...], cfgs: list[TrainConfig],
              holdouts: list[DatasetTable]) -> tuple[list[RunRecord], list, list]:
    """Train every method on a chunk of one dataset's splits in one train()
    call and score each cell.

    Returns the records, the (cell, error) failures and the task's
    (name, train wall time), if train returned. A cell that fails, in
    training or in scoring, is reported alone; an error that stops the whole
    task fails each of its cells with the same message.
    """
    keys = [[_cell_key(table.name, m.display_name, s) for m in methods] for s in split_indices]
    try:
        started = time.perf_counter()
        outcomes = train(table, splits, methods, cfgs)
        wall = time.perf_counter() - started
    except Exception as exc:  # isolate task failures; the collector reports them
        return [], [(key, _describe(exc)) for row in keys for key in row], []
    records: list[RunRecord] = []
    failures: list[tuple[str, str]] = []
    for split, s, cfg, row_keys, runs in zip(splits, split_indices, cfgs, keys, outcomes):
        for key, run in zip(row_keys, runs):
            if isinstance(run, Exception):
                failures.append((key, _describe(run)))
                continue
            try:
                records.extend(_records(run, table, split, s, cfg, holdouts))
            except Exception as exc:  # isolate cell failures; the collector reports them
                failures.append((key, _describe(exc)))
    return records, failures, [(_task_name(table.name, split_indices), wall)]


# A pool worker's copy of the grid's tasks, set once by the pool initializer;
# a task is then named by its index. The parent process never sets it.
_TASKS: list = []


def _set_tasks(tasks: list) -> None:
    global _TASKS
    _TASKS = tasks


def _pool_task(index: int) -> tuple:
    return _run_task(*_TASKS[index])


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Execute the full grid and write records and matrices to output_dir.

    A task is a chunk of consecutive splits of one dataset: one train() call
    fits every method on every split of it in lockstep, then each cell is
    scored. Each dataset is cut into min(n_splits, ceil(jobs / datasets))
    chunks, so jobs=1 trains one stack per dataset (per fold size, should
    the splits' folds differ in size). Tasks are independent. With jobs > 1
    they run in a pool of min(jobs, tasks) worker processes. The
    task list, tables and splits included, reaches each worker once,
    through the pool's initializer (inherited under fork, pickled once per
    worker otherwise); a task sent to a worker is an index. Both paths run a
    task and isolate a cell's failure the same way. The collected records
    are sorted before writing, so reruns of the same config produce
    byte-identical record and matrix files regardless of jobs. Per-task wall
    times go to a separate timings file, which is the one output that
    legitimately varies between reruns. The tables are loaded and checked,
    and every split is made, before the output directory is made.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValidationError(f"jobs must be a positive integer, got {jobs!r}")
    tables = [entry.load() for entry in config.datasets]
    dims = {t.dimension for t in tables}
    if len(dims) > 1:
        raise ValidationError(
            f"cross-dataset evaluation needs one shared feature width, got {sorted(dims)}"
        )
    tasks = []
    for d_idx, table in enumerate(tables):
        splits = make_split_series(
            table, config.split_mode, config.fractions, config.base_seed, config.n_splits
        )
        holdouts = [t for i, t in enumerate(tables) if i != d_idx]
        cfgs = [dataclasses.replace(config.train, seed=config.train.seed + s)
                for s in range(len(splits))]
        chunks = min(len(splits), -(-jobs // len(tables)))
        for chunk in np.array_split(np.arange(len(splits)), chunks):
            idx = chunk.tolist()
            tasks.append((table, [splits[s] for s in idx], idx, config.methods,
                          [cfgs[s] for s in idx], holdouts))

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_tasks,
                                 initargs=(tasks,)) as pool:
            results = list(pool.map(_pool_task, range(len(tasks))))
    else:
        results = [_run_task(*t) for t in tasks]

    records: list[RunRecord] = []
    timings: list[tuple[str, float]] = []
    failures: list[tuple[str, str]] = []
    for recs, fails, walls in results:
        records.extend(recs)
        failures.extend(fails)
        timings.extend(walls)

    records.sort(key=lambda r: (r.dataset, r.method, r.split_index))
    files: dict[str, str] = {}
    rec_path = save_run_records(records, out_dir / "run_records.csv")
    files["records"] = str(rec_path)

    timing_lines = ["task,wall_time_s"]
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
        mean_matrix = ResultMatrix(datasets=tuple(contexts), methods=method_names, mae=mean)
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
            sink.append(float(evaluate_mae(run, table, split.test)))
    return LeakageReport(
        params=params,
        seeds=seeds,
        random_mae=tuple(random_mae),
        subject_exclusive_mae=tuple(se_mae),
    )
