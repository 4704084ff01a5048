"""Experiment grid driving: configs, records, matrices, the leakage probe."""

import csv
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ordibench import harness
from ordibench.data import ValidationError
from ordibench.harness import (
    DatasetEntry,
    ExperimentConfig,
    LeakageParams,
    RunRecord,
    leakage_demo,
    run_experiment,
    save_run_records,
)
from ordibench.splitting import MODE_RANDOM, MODE_SUBJECT_EXCLUSIVE, make_split_series
from ordibench.methods import MethodConfig
from ordibench.prediction import decode_output
from ordibench.stats import load_result_matrix
from ordibench.training import evaluate_mae, forward, train

BASE_CONFIG = {
    "datasets": [{
        "name": "synthA",
        "synth": {"n_identities": 30, "samples_per_identity": 4, "dimension": 8,
                  "age_range": [20, 40], "sigma_id": 1.5, "sigma_obs": 0.4,
                  "seed": 5},
    }],
    "methods": [{"family": "cross-entropy"}, {"family": "regression"}],
    "split": {"mode": "se", "n_splits": 2, "fractions": [0.6, 0.2, 0.2],
              "base_seed": 0},
    "train": {"epochs": 6, "seed": 0, "hidden_dims": [16]},
}


def config_for(tmp_path, overrides=None, out="runs"):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["output_dir"] = str(tmp_path / out)
    if overrides:
        payload.update(overrides)
    return ExperimentConfig.from_dict(payload, base_dir=tmp_path)


def test_dataset_entry_needs_exactly_one_source():
    with pytest.raises(ValidationError):
        DatasetEntry(name="x")
    with pytest.raises(ValidationError):
        DatasetEntry(name="")


def test_config_parsing_defaults_and_aliases(tmp_path):
    cfg = config_for(tmp_path)
    assert cfg.split_mode == MODE_SUBJECT_EXCLUSIVE
    assert cfg.n_splits == 2
    assert cfg.train.epochs == 6
    rs = config_for(tmp_path, {"split": {"mode": "random", "n_splits": 1}})
    assert rs.split_mode == MODE_RANDOM


def test_config_rejects_unknown_keys_and_few_methods(tmp_path):
    with pytest.raises(ValidationError):
        config_for(tmp_path, {"turbo": True})
    with pytest.raises(ValidationError):
        config_for(tmp_path, {"methods": [{"family": "sord"}]})
    with pytest.raises(ValidationError):
        config_for(tmp_path, {"methods": [{"family": "sord"},
                                          {"family": "sord"}]})


@pytest.mark.parametrize("overrides", [
    {"methods": [{"family": "cross-entropy", "name": "ce,soft"}, {"family": "regression"}]},
    {"methods": [{"family": "cross-entropy", "name": "ce\nsoft"}, {"family": "regression"}]},
    {"datasets": [{**BASE_CONFIG["datasets"][0], "name": "synth,A"}]},
    {"datasets": [{**BASE_CONFIG["datasets"][0], "name": "synth\r\nA"}]},
])
def test_config_rejects_names_that_break_the_csv_outputs(tmp_path, overrides):
    with pytest.raises(ValidationError, match="',' or a line break"):
        config_for(tmp_path, overrides)


def test_config_rejects_arrow_in_dataset_names(tmp_path):
    """With datasets a and b, a dataset named a->b would share a's cross rows' name."""
    datasets = [{**BASE_CONFIG["datasets"][0], "name": n} for n in ("a", "b", "a->b")]
    with pytest.raises(ValidationError, match="'->'"):
        config_for(tmp_path, {"datasets": datasets})
    assert not (tmp_path / "runs").exists()


def _with_synth(**synth):
    entry = {**BASE_CONFIG["datasets"][0]}
    entry["synth"] = {**entry["synth"], **synth}
    return entry


@pytest.mark.parametrize("overrides, named", [
    ({"split": {**BASE_CONFIG["split"], "n_split": 1}}, "n_split"),
    ({"datasets": [{**BASE_CONFIG["datasets"][0], "pathh": "d.csv"}]}, "pathh"),
    ({"datasets": [_with_synth(n_identity=30)]}, "n_identity"),
    ({"train": {**BASE_CONFIG["train"], "epoch": 6}}, "unknown train key.*'epoch'"),
    ({"methods": [{"family": "sord", "alfa": 1.0}, {"family": "dldl"}]},
     "unknown method key.*'alfa'"),
])
def test_config_rejects_unknown_keys_in_every_section(tmp_path, overrides, named):
    with pytest.raises(ValidationError, match=named):
        config_for(tmp_path, overrides)


def test_config_names_missing_synth_keys(tmp_path):
    entry = _with_synth()
    del entry["synth"]["dimension"]
    with pytest.raises(ValidationError, match="dimension"):
        config_for(tmp_path, {"datasets": [entry]})


def test_config_names_a_method_entry_without_family(tmp_path):
    with pytest.raises(ValidationError, match="method lacks key.*'family'"):
        config_for(tmp_path, {"methods": [{"sigma": 2.0}, {"family": "dldl"}]})


@pytest.mark.parametrize("overrides, named", [
    ({"datasets": [_with_synth(n_identities="20")]}, "synth key 'n_identities'"),
    ({"datasets": [_with_synth(age_range=[20])]}, "synth key 'age_range'"),
    ({"split": {**BASE_CONFIG["split"], "fractions": 0.5}}, "split key 'fractions'"),
    ({"split": {**BASE_CONFIG["split"], "n_splits": "2"}}, "split key 'n_splits'"),
    ({"train": {**BASE_CONFIG["train"], "epochs": 6.0}}, "train key 'epochs'"),
    ({"train": {**BASE_CONFIG["train"], "hidden_dims": 16}}, "train key 'hidden_dims'"),
    ({"methods": [{"family": "sord", "alpha": "1"}, {"family": "dldl"}]}, "method key 'alpha'"),
    ({"methods": ["sord", "dldl"]}, "method must be an object"),
    ({"output_dir": 3}, "config key 'output_dir'"),
    ({"train": {**BASE_CONFIG["train"], "learning_rate": float("nan")}},
     "train key 'learning_rate' must be a finite number"),
    ({"methods": [{"family": "sord", "alpha": float("inf")}, {"family": "dldl"}]},
     "method key 'alpha'"),
    ({"datasets": [_with_synth(sigma_id=float("nan"))]}, "synth key 'sigma_id'"),
], ids=["n_identities", "age_range", "fractions", "n_splits", "epochs", "hidden_dims", "alpha",
        "method_entry", "output_dir", "learning_rate_nan", "alpha_inf", "sigma_id_nan"])
def test_config_names_a_value_of_the_wrong_type(tmp_path, overrides, named):
    payload = {**json.loads(json.dumps(BASE_CONFIG)), "output_dir": "runs", **overrides}
    with pytest.raises(ValidationError, match=named):
        ExperimentConfig.from_dict(payload, base_dir=tmp_path)


def test_a_missing_dataset_file_leaves_no_output_directory(tmp_path):
    cfg = config_for(tmp_path, {"datasets": [BASE_CONFIG["datasets"][0],
                                             {"name": "a", "path": "missing.csv"}]})
    with pytest.raises(FileNotFoundError):
        run_experiment(cfg, jobs=1)
    assert not (tmp_path / "runs").exists()


def test_a_split_that_cannot_be_made_leaves_no_output_directory(tmp_path):
    cfg = config_for(tmp_path, {"datasets": [_with_synth(n_identities=2)]})
    with pytest.raises(ValidationError, match="at least 3 identities"):
        run_experiment(cfg, jobs=1)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("fractions", [[0.5, 0.5], [0.6, 0.3, 0.3], [1.0, 0.0, 0.0]])
def test_config_checks_fractions(tmp_path, fractions):
    with pytest.raises(ValidationError, match="fraction"):
        config_for(tmp_path, {"split": {**BASE_CONFIG["split"], "fractions": fractions}})


@pytest.mark.parametrize("mode, want", [
    ("Subject-Exclusive", MODE_SUBJECT_EXCLUSIVE), ("RS", MODE_RANDOM),
])
def test_config_split_mode_is_parsed_like_the_cli_mode(tmp_path, mode, want):
    cfg = config_for(tmp_path, {"split": {**BASE_CONFIG["split"], "mode": mode}})
    assert cfg.split_mode == want


def test_config_rejects_unknown_split_mode(tmp_path):
    with pytest.raises(ValidationError, match="unknown mode 'loo'"):
        config_for(tmp_path, {"split": {**BASE_CONFIG["split"], "mode": "loo"}})


def test_config_from_json_resolves_relative_paths(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["output_dir"] = "out"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    cfg = ExperimentConfig.from_json(p)
    assert cfg.output_dir == str(tmp_path / "out")


def test_record_sorting_and_header(tmp_path):
    records = [
        RunRecord(dataset="b", method="m", split_index=0, seed=0,
                  val_mae=1.0, test_mae=2.0, selected_epoch=1),
        RunRecord(dataset="a", method="z", split_index=1, seed=1,
                  val_mae=1.5, test_mae=2.5, selected_epoch=3),
        RunRecord(dataset="a", method="z", split_index=0, seed=0,
                  val_mae=1.25, test_mae=2.25, selected_epoch=2),
    ]
    path = save_run_records(records, tmp_path / "r.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "dataset,method,split,seed,val_mae,test_mae,selected_epoch"
    assert [l.split(",")[0] for l in lines[1:]] == ["a", "a", "b"]
    assert [l.split(",")[2] for l in lines[1:3]] == ["0", "1"]


def test_small_grid_end_to_end(tmp_path):
    cfg = config_for(tmp_path)
    result = run_experiment(cfg, jobs=1)
    assert not result.failures
    # 1 dataset x 2 methods x 2 splits
    assert len(result.records) == 4
    assert result.contexts == ("synthA",)
    out = tmp_path / "runs"
    for name in ("run_records.csv", "mae_mean.csv", "mae_std.csv",
                 "mae_splits.csv", "run_timings.csv"):
        assert (out / name).exists(), name
    mean = load_result_matrix(out / "mae_mean.csv")
    assert mean.datasets == ("synthA",)
    assert mean.methods == ("cross-entropy", "regression")
    splits = load_result_matrix(out / "mae_splits.csv")
    assert splits.datasets == ("synthA/split0", "synthA/split1")
    assert np.all(splits.mae >= 0)


def test_grid_cells_are_the_models_train_builds(tmp_path):
    """A grid cell scores exactly what a direct train() call with its seed scores."""
    cfg = config_for(tmp_path, {"methods": [{"family": "coral"}, {"family": "regression"}]})
    result = run_experiment(cfg, jobs=1)
    table = cfg.datasets[0].load()
    splits = make_split_series(table, cfg.split_mode, cfg.fractions, cfg.base_seed,
                               cfg.n_splits)
    assert len(result.records) == 4
    for rec in result.records:
        split = splits[rec.split_index]
        run = train(table, split, MethodConfig(family=rec.method),
                    dataclasses.replace(cfg.train, seed=rec.seed))
        assert (rec.val_mae, rec.test_mae, rec.selected_epoch) == \
            (run.best_val_mae, evaluate_mae(run, table, split.test), run.selected_epoch)


def test_grid_rerun_is_byte_identical(tmp_path):
    r1 = run_experiment(config_for(tmp_path, out="r1"), jobs=1)
    r2 = run_experiment(config_for(tmp_path, out="r2"), jobs=1)
    a = (tmp_path / "r1" / "run_records.csv").read_bytes()
    b = (tmp_path / "r2" / "run_records.csv").read_bytes()
    assert a == b
    assert r1.records == r2.records


def test_parallel_jobs_match_serial(tmp_path):
    serial = run_experiment(config_for(tmp_path, out="s"), jobs=1)
    parallel = run_experiment(config_for(tmp_path, out="p"), jobs=2)
    assert serial.records == parallel.records
    a = (tmp_path / "s" / "run_records.csv").read_bytes()
    b = (tmp_path / "p" / "run_records.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("jobs, tasks", [
    (1, ["synthA/split0-2", "synthB/split0-2"]),  # one stack per dataset
    (2, ["synthA/split0-2", "synthB/split0-2"]),  # one task per dataset
    (3, ["synthA/split0-1", "synthA/split2", "synthB/split0-1", "synthB/split2"]),
])
def test_a_task_is_a_chunk_of_one_datasets_splits(tmp_path, jobs, tasks):
    """Each dataset is cut into min(splits, ceil(jobs / datasets)) tasks;
    run_timings.csv names each task's splits, and the records do not move."""
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["split"]["n_splits"] = 3
    second = json.loads(json.dumps(payload["datasets"][0]))
    second["name"] = "synthB"
    second["synth"]["seed"] = 9
    payload["datasets"].append(second)
    payload["output_dir"] = str(tmp_path / "out")
    result = run_experiment(ExperimentConfig.from_dict(payload, base_dir=tmp_path), jobs=jobs)
    assert not result.failures and len(result.records) == 2 * 2 * 3 * 2
    lines = (tmp_path / "out" / "run_timings.csv").read_text().splitlines()
    assert lines[0] == "task,wall_time_s"
    assert [line.split(",")[0] for line in lines[1:]] == tasks
    if jobs > 1:
        payload["output_dir"] = str(tmp_path / "serial")
        run_experiment(ExperimentConfig.from_dict(payload, base_dir=tmp_path), jobs=1)
        assert (tmp_path / "out" / "run_records.csv").read_bytes() == \
            (tmp_path / "serial" / "run_records.csv").read_bytes()


SPAWN_RUN = """
import multiprocessing, sys
from ordibench.harness import ExperimentConfig, run_experiment
if __name__ == "__main__":
    multiprocessing.set_start_method("spawn", force=True)
    run_experiment(ExperimentConfig.from_json(sys.argv[1]), jobs=2)
"""


def test_spawned_pool_matches_serial(tmp_path):
    """Workers that start from a fresh import write the records of jobs=1."""
    run_experiment(config_for(tmp_path, out="s"), jobs=1)
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["output_dir"] = str(tmp_path / "spawn")
    cfg = tmp_path / "spawn.json"
    cfg.write_text(json.dumps(payload))
    src = Path(harness.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", SPAWN_RUN, str(cfg)], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(src)})
    a = (tmp_path / "s" / "run_records.csv").read_bytes()
    b = (tmp_path / "spawn" / "run_records.csv").read_bytes()
    assert a == b


def test_cross_dataset_rows_cover_held_out_tables(tmp_path):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["output_dir"] = str(tmp_path / "x")
    second = json.loads(json.dumps(payload["datasets"][0]))
    second["name"] = "synthB"
    second["synth"]["seed"] = 9
    payload["datasets"].append(second)
    cfg = ExperimentConfig.from_dict(payload, base_dir=tmp_path)
    result = run_experiment(cfg, jobs=1)
    assert not result.failures
    names = {r.dataset for r in result.records}
    assert names == {"synthA", "synthB", "synthA->synthB", "synthB->synthA"}
    # grid: 2 intra contexts x 2 methods x 2 splits + 2 cross contexts likewise
    assert len(result.records) == 16
    assert set(result.contexts) == names


def _write_narrow_manifest(path, dimension):
    """15 identities x 4 rows with ages 30-54: the inferred label set has K = 25."""
    rng = np.random.default_rng(3)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "identity_id", "age"] + [f"f{i}" for i in range(dimension)])
        for ident in range(15):
            for j in range(4):
                age = 30 + (4 * ident + j) % 25
                feats = rng.normal(size=dimension) + (age - 40) / 10.0
                writer.writerow([f"s{ident}_{j}", f"p{ident}", age] + [repr(float(v)) for v in feats])


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
def test_cross_rows_decode_with_the_training_label_set(tmp_path, monkeypatch):
    """Held-out tables with another label set are decoded with the model's own labels."""
    _write_narrow_manifest(tmp_path / "narrow.csv", dimension=8)
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["output_dir"] = str(tmp_path / "x")
    payload["datasets"][0]["synth"]["age_range"] = [20, 60]
    payload["datasets"].append({"name": "narrow", "path": "narrow.csv"})
    payload["methods"] = [{"family": f} for f in ("cross-entropy", "or-cnn", "coral", "regression")]
    payload["split"]["n_splits"] = 1
    payload["train"]["epochs"] = 3
    cfg = ExperimentConfig.from_dict(payload, base_dir=tmp_path)

    runs, tables = {}, {}
    original_train = harness.train

    def capturing_train(table, splits, methods, train_cfgs):
        outcomes = original_train(table, splits, methods, train_cfgs)
        (split_runs,) = outcomes  # one split per dataset
        for method, run in zip(methods, split_runs):
            runs[(table.name, method.display_name)] = run
        tables[table.name] = table
        return outcomes

    monkeypatch.setattr(harness, "train", capturing_train)
    result = run_experiment(cfg, jobs=1)
    assert not result.failures
    assert len(tables["synthA"].label_set) == 41 and len(tables["narrow"].label_set) == 25

    cross = [r for r in result.records if "->" in r.dataset]
    assert len(cross) == 2 * 4
    for rec in cross:
        source, target = rec.dataset.split("->")
        trained_on, held_out = tables[source].label_set, tables[target]
        method = MethodConfig(family=rec.method)
        ids = held_out.sample_ids
        out = forward(runs[(source, rec.method)].best_model, held_out.features_for(ids))
        err = 0.0
        for row, age in zip(out, held_out.ages_for(ids)):
            err += abs(decode_output(method, row, trained_on).age - age)
        assert rec.test_mae == err / len(held_out.ages), rec


LR_OVERFLOW = {"train": {"epochs": 2, "seed": 0, "hidden_dims": [16], "learning_rate": 1e200}}


def test_failed_cell_is_isolated(tmp_path):
    """Failed cells come back alike from this process and through the pool."""
    with np.errstate(over="ignore", invalid="ignore"):
        serial = run_experiment(config_for(tmp_path, LR_OVERFLOW, out="s"), jobs=1)
        pooled = run_experiment(config_for(tmp_path, LR_OVERFLOW, out="p"), jobs=2)
    assert serial.failures
    assert pooled.failures == serial.failures
    assert pooled.records == serial.records
    for result, out in ((serial, tmp_path / "s"), (pooled, tmp_path / "p")):
        assert result.mean_matrix is None
        assert (out / "failures.txt").exists()
        assert not (out / "mae_mean.csv").exists()
    assert (tmp_path / "p" / "failures.txt").read_bytes() == (tmp_path / "s" / "failures.txt").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_diverging_family_leaves_the_others_bitwise_unchanged(tmp_path, jobs):
    """Lockstep training shares one optimizer buffer: a family that diverges
    on its first step must not reach the records of the others."""
    methods = [{"family": f} for f in ("cross-entropy", "coral", "regression")]
    diverging = methods + [{"family": "mean-variance", "lambda_mean": 1e308}]
    clean = run_experiment(config_for(tmp_path, {"methods": methods}, out="clean"), jobs=jobs)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = run_experiment(config_for(tmp_path, {"methods": diverging}, out="mixed"),
                               jobs=jobs)
        serial = run_experiment(config_for(tmp_path, {"methods": diverging}, out="serial"),
                                jobs=1)
    assert not clean.failures and len(clean.records) == 6
    assert mixed.records == clean.records
    assert mixed.failures == serial.failures == tuple(
        (f"synthA/mean-variance/split{s}", "TrainingDiverged: training diverged at epoch 1")
        for s in range(2))
    assert (tmp_path / "mixed" / "failures.txt").read_bytes() == \
        (tmp_path / "serial" / "failures.txt").read_bytes()


@pytest.mark.parametrize("jobs", [0, -1, 1.5])
def test_jobs_must_be_a_positive_integer(tmp_path, jobs):
    with pytest.raises(ValidationError, match="jobs"):
        run_experiment(config_for(tmp_path), jobs=jobs)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("jobs, workers", [(64, 3), (2, 2)])
def test_pool_is_capped_at_the_task_count(tmp_path, monkeypatch, jobs, workers):
    sizes = []

    class InProcessPool:
        """Stands in for the process pool: records its size and starts no process."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            self.initializer, self.initargs = initializer, initargs

        def __enter__(self):
            self.initializer(*self.initargs)
            return self

        def __exit__(self, *exc):
            self.initializer([])  # a worker's copy of the tasks ends with the worker
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    split = {**BASE_CONFIG["split"], "n_splits": 3}
    result = run_experiment(config_for(tmp_path, {"split": split}), jobs=jobs)  # 3 tasks
    assert sizes == [workers]
    assert len(result.records) == 6 and not result.failures


def test_tasks_reach_workers_as_indices(tmp_path, monkeypatch):
    """A pool task pickles to a few bytes; the tables reach each worker once."""
    task_bytes = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            task_bytes.append(len(pickle.dumps(args)))
            return super().submit(fn, *args, **kwargs)

    serial = run_experiment(config_for(tmp_path, out="s"), jobs=1)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    pooled = run_experiment(config_for(tmp_path, out="p"), jobs=2)
    assert len(task_bytes) == 2  # jobs=2 cuts the 2 splits into 2 tasks
    assert max(task_bytes) < 1024, task_bytes
    assert pooled.records == serial.records
    assert harness._TASKS == []  # the parent holds no table after the run


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
def test_leakage_demo_fields_and_shape():
    params = dataclasses.replace(LeakageParams(), n_identities=16, n_seeds=2,
                                 epochs=4, hidden_dims=(16,))
    rep = leakage_demo(params)
    assert len(rep.seeds) == 2
    assert len(rep.random_mae) == 2 and len(rep.subject_exclusive_mae) == 2
    assert len(rep.gaps) == 2
    text = rep.to_text()
    assert "seed" in text and "gap" in text
    payload = rep.to_dict()
    assert "mean_gap" in payload and "gaps" in payload
    assert payload["gaps"] == [s - r for r, s in zip(rep.random_mae,
                                                     rep.subject_exclusive_mae)]
