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
    _from_json,
    _read_json,
    generate_synthetic,
    load_dataset,
)
from .methods import MethodConfig
from .splitting import (
    MODE_RANDOM,
    MODE_SUBJECT_EXCLUSIVE,
    SplitConfig,
    SplitSpec,
    make_split,
    make_split_series,
)
from .stats import ResultMatrix, save_result_matrix
from .training import TrainConfig, TrainedRun, TrainingDiverged, evaluate_mae, train
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
    """A grid's whole config; its fields are the config file's keys."""

    datasets: tuple[DatasetEntry, ...]
    methods: tuple[MethodConfig, ...]
    split: SplitConfig = SplitConfig()
    train: TrainConfig = TrainConfig()
    output_dir: str = "runs"

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
        if not self.output_dir:
            raise ValidationError("output_dir must be set")

    # bench/phase.py's check_inputs still reads the split settings by these flat names
    split_mode = property(lambda self: self.split.mode)
    fractions = property(lambda self: self.split.fractions)
    n_splits = property(lambda self: self.split.n_splits)
    base_seed = property(lambda self: self.split.base_seed)

    @classmethod
    def from_dict(cls, payload: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        """Read a config; relative dataset paths and output_dir resolve
        against base_dir (the working directory if None)."""
        config = _from_json(cls, "config", payload)
        base = Path(base_dir) if base_dir is not None else Path(".")
        datasets = tuple(
            entry if entry.path is None or Path(entry.path).is_absolute()
            else dataclasses.replace(entry, path=str((base / entry.path).resolve()))
            for entry in config.datasets)
        return dataclasses.replace(config, datasets=datasets,
                                   output_dir=str(base / config.output_dir))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        path = Path(path)
        return cls.from_dict(_read_json(path), base_dir=path.parent)


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
    files: dict[str, str]


def _cell_key(dataset: str, method: str, split_index: int) -> str:
    return f"{dataset}/{method}/split{split_index}"


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _records(run: TrainedRun, table: DatasetTable, split: SplitSpec, split_index: int,
             cfg: TrainConfig, holdouts: list[tuple[str, DatasetTable]]) -> list[RunRecord]:
    """Score one trained cell on the test fold plus each (context, table)
    held out."""
    scored = [(table.name, evaluate_mae(run, table, split.test))]
    scored += [(context, evaluate_mae(run, other, other.sample_ids))
               for context, other in holdouts]
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
              holdouts: list[tuple[str, DatasetTable]]) -> tuple[list[RunRecord], list, list]:
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
    split = config.split
    tasks = []
    contexts: list[str] = []  # per training dataset, its intra row then its held-out rows
    for d_idx, table in enumerate(tables):
        splits = make_split_series(table, split.mode, split.fractions, split.base_seed,
                                   split.n_splits)
        holdouts = [(f"{table.name}->{t.name}", t) for i, t in enumerate(tables) if i != d_idx]
        contexts += [table.name] + [context for context, _ in holdouts]
        cfgs = [dataclasses.replace(config.train, seed=config.train.seed + s)
                for s in range(len(splits))]
        chunks = min(len(splits), -(-jobs // len(tables)))
        for chunk in np.array_split(np.arange(len(splits)), chunks):
            idx = chunk.tolist()
            tasks.append((table, [splits[s] for s in idx], idx, config.methods,
                          [cfgs[s] for s in idx], holdouts))

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("mae_mean.csv", "mae_std.csv", "mae_splits.csv", "failures.txt",
                 "rank_report.txt", "rank_report.json"):
        (out_dir / name).unlink(missing_ok=True)  # written below only if this run earns them

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

    method_names = tuple(m.display_name for m in config.methods)
    row = {ctx: i for i, ctx in enumerate(contexts)}
    col = {m: j for j, m in enumerate(method_names)}
    mae = np.full((len(contexts), len(method_names), split.n_splits), np.nan)
    for r in records:
        mae[row[r.dataset], col[r.method], r.split_index] = r.test_mae

    if not np.isnan(mae).any():  # every cell of every context has a record
        std = mae.std(axis=2, ddof=1) if split.n_splits > 1 else np.zeros(mae.shape[:2])
        split_rows = tuple(f"{ctx}/split{s}" for ctx in contexts for s in range(split.n_splits))
        for name, rows, values in (
                ("mae_mean", contexts, mae.mean(axis=2)),
                ("mae_std", contexts, std),
                ("mae_splits", split_rows, mae.transpose(0, 2, 1).reshape(-1, len(method_names)))):
            files[name] = str(save_result_matrix(ResultMatrix(tuple(rows), method_names, values),
                                                 out_dir / f"{name}.csv"))

    if failures:
        fail_lines = [f"{key}: {msg}" for key, msg in sorted(failures)]
        (out_dir / "failures.txt").write_text("\n".join(fail_lines) + "\n")
        files["failures"] = str(out_dir / "failures.txt")

    return RunResult(records=tuple(records), failures=tuple(sorted(failures)), files=files)


@dataclass(frozen=True)
class LeakageParams:
    """Settings for the random-vs-subject-exclusive comparison.

    Seed k of n_seeds generates its table and makes both of its splits with
    synth.seed + k, and trains with train.seed + k: the seed + index rule of
    run_experiment. The defaults put identity structure well above
    observation noise, the regime where sharing identities between folds
    visibly flatters the random-split score.
    """

    synth: SynthSpec = SynthSpec(60, 4, 16, (20, 60), sigma_id=2.0, sigma_obs=0.5)
    train: TrainConfig = TrainConfig(epochs=40)
    n_seeds: int = 5

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
            "sigma_id": self.params.synth.sigma_id,
            "sigma_obs": self.params.synth.sigma_obs,
        }

    def to_text(self) -> str:
        synth = self.params.synth
        lines = [
            "split-leakage demonstration (cross-entropy)",
            f"  sigma_id={synth.sigma_id} sigma_obs={synth.sigma_obs} "
            f"identities={synth.n_identities} x {synth.samples_per_identity}",
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

    For each seed one synthetic table is generated and split both ways, at
    SplitConfig's default fractions, with that seed, and one train() call
    fits a cross-entropy model per split with that seed's TrainConfig (the
    seed rule is in LeakageParams). The reported seeds are the table seeds
    and the numbers are test-fold MAEs. With
    identity-correlated features the random split lets the model recognize
    people it saw in training, so its test score is optimistically low. A
    run that diverges raises TrainingDiverged naming its seed and split mode.
    """
    method = MethodConfig(family="cross-entropy")
    seeds = tuple(params.synth.seed + k for k in range(params.n_seeds))
    maes: list[float] = []
    for k, seed in enumerate(seeds):
        table = generate_synthetic(dataclasses.replace(params.synth, seed=seed),
                                   name=f"leakage_seed{seed}")
        cfg = dataclasses.replace(params.train, seed=params.train.seed + k)
        splits = [make_split(table, mode, SplitConfig.fractions, seed)
                  for mode in (MODE_RANDOM, MODE_SUBJECT_EXCLUSIVE)]
        for split, [run] in zip(splits, train(table, splits, [method], [cfg, cfg])):
            if isinstance(run, TrainingDiverged):
                raise TrainingDiverged(run.epoch, f"seed {seed}, {split.mode} split: {run}")
            if isinstance(run, Exception):
                raise run
            maes.append(float(evaluate_mae(run, table, split.test)))
    return LeakageReport(params=params, seeds=seeds, random_mae=tuple(maes[0::2]),
                         subject_exclusive_mae=tuple(maes[1::2]))
