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

from ordibench import cli, harness, training
from ordibench.data import (
    DatasetTable, SynthSpec, ValidationError, generate_synthetic, save_dataset,
)
from ordibench.harness import (
    DatasetEntry,
    ExperimentConfig,
    LeakageParams,
    RunRecord,
    leakage_demo,
    run_experiment,
    save_run_records,
)
from ordibench.splitting import (
    MODE_RANDOM, MODE_SUBJECT_EXCLUSIVE, SplitConfig, make_split, make_split_series,
)
from ordibench.methods import FAMILIES, MethodConfig
from ordibench.prediction import decode_output
from ordibench.stats import load_result_matrix
from ordibench.training import TrainConfig, evaluate_mae, forward, train

from oracles import reference_matrices

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


HYPERPARAMETERS = ("sigma", "alpha", "lambda_expect", "lambda_mean", "lambda_var", "lambda_uni")
NON_FINITE_FIELDS = [(TrainConfig, {}, "learning_rate")] + [
    (MethodConfig, {"family": "dldl"}, f) for f in HYPERPARAMETERS]


@pytest.mark.parametrize("cls, base, field", NON_FINITE_FIELDS,
                         ids=[f for _, _, f in NON_FINITE_FIELDS])
def test_a_config_built_in_code_refuses_a_non_finite_float(cls, base, field):
    """The JSON reader refuses NaN and inf, and so does the constructor of a
    config built in code: a NaN learning rate would otherwise surface as
    every member diverging."""
    for value in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
        with pytest.raises(ValidationError, match=f"^{field} must be finite$"):
            cls(**base, **{field: value})


@pytest.mark.parametrize("family", FAMILIES)
def test_a_config_method_refuses_a_hyperparameter_its_family_does_not_read(tmp_path, family):
    """{"family": "coral", "lambda_uni": 5} used to load and train the plain
    coral loss under a tuned name; now only the family's own fields load."""
    for field in HYPERPARAMETERS:
        methods = [{"family": family, "name": "tuned", field: 5}, {"family": family}]
        if field in FAMILIES[family].params:
            assert getattr(config_for(tmp_path, {"methods": methods}).methods[0], field) == 5
        else:
            with pytest.raises(ValidationError,
                               match=rf"^methods\[0\]: family '{family}' does not read {field}$"):
                config_for(tmp_path, {"methods": methods})


def test_config_parsing_defaults_and_aliases(tmp_path):
    cfg = config_for(tmp_path)
    assert cfg.split.mode == MODE_SUBJECT_EXCLUSIVE
    assert cfg.split.n_splits == 2
    assert cfg.train.epochs == 6
    rs = config_for(tmp_path, {"split": {"mode": "random", "n_splits": 1}})
    assert rs.split.mode == MODE_RANDOM


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
     r"unknown methods\[0\] key.*'alfa'"),
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
    with pytest.raises(ValidationError, match=r"methods\[0\] lacks key.*'family'"):
        config_for(tmp_path, {"methods": [{"sigma": 2.0}, {"family": "dldl"}]})


@pytest.mark.parametrize("overrides, named", [
    ({"datasets": [_with_synth(n_identities="20")]}, "synth key 'n_identities'"),
    ({"datasets": [_with_synth(age_range=[20])]}, "synth key 'age_range'"),
    ({"split": {**BASE_CONFIG["split"], "fractions": 0.5}}, "split key 'fractions'"),
    ({"split": {**BASE_CONFIG["split"], "n_splits": "2"}}, "split key 'n_splits'"),
    ({"train": {**BASE_CONFIG["train"], "epochs": 6.0}}, "train key 'epochs'"),
    ({"train": {**BASE_CONFIG["train"], "hidden_dims": 16}}, "train key 'hidden_dims'"),
    ({"methods": [{"family": "sord", "alpha": "1"}, {"family": "dldl"}]},
     r"methods\[0\] key 'alpha'"),
    ({"methods": ["sord", "dldl"]}, r"methods\[0\] must be an object"),
    ({"output_dir": 3}, "config key 'output_dir'"),
    ({"train": {**BASE_CONFIG["train"], "learning_rate": float("nan")}},
     "train key 'learning_rate' must be a finite number"),
    ({"methods": [{"family": "sord", "alpha": float("inf")}, {"family": "dldl"}]},
     r"methods\[0\] key 'alpha'"),
    ({"datasets": [_with_synth(sigma_id=float("nan"))]}, "synth key 'sigma_id'"),
    ({"split": None}, "config key 'split' must be an object, got None"),
    ({"train": None}, "config key 'train' must be an object, got None"),
    ({"datasets": [_with_synth(), {**_with_synth(n_identities="20"), "name": "synthB"}]},
     r"^datasets\[1\]\.synth key 'n_identities'"),
    ({"methods": [{"family": "sord"}, {"family": "dldl", "sigma": "2"}]},
     r"^methods\[1\] key 'sigma'"),
], ids=["n_identities", "age_range", "fractions", "n_splits", "epochs", "hidden_dims", "alpha",
        "method_entry", "output_dir", "learning_rate_nan", "alpha_inf", "sigma_id_nan",
        "split_null", "train_null", "second_synth", "second_method"])
def test_config_names_a_value_of_the_wrong_type(tmp_path, overrides, named):
    payload = {**json.loads(json.dumps(BASE_CONFIG)), "output_dir": "runs", **overrides}
    with pytest.raises(ValidationError, match=named):
        ExperimentConfig.from_dict(payload, base_dir=tmp_path)


def test_config_refuses_a_dataset_entry_whose_sources_are_both_null(tmp_path):
    """null for path or synth means the key was left out, so DatasetEntry's
    exactly-one check still refuses an entry that nulls both."""
    entry = {"name": "synthA", "path": None, "synth": None}
    with pytest.raises(ValidationError, match="exactly one of 'path' or 'synth'"):
        config_for(tmp_path, {"datasets": [entry]})
    cfg = config_for(tmp_path, {"datasets": [{**entry, "path": "a.csv"}]})
    assert cfg.datasets[0] == DatasetEntry("synthA", path=str((tmp_path / "a.csv").resolve()))


def test_config_refuses_an_empty_output_dir(tmp_path):
    """An empty output_dir would write the grid into the config's own directory."""
    with pytest.raises(ValidationError, match="output_dir must be set"):
        config_for(tmp_path, {"output_dir": ""})


def test_config_equals_the_hand_built_config(tmp_path):
    want = ExperimentConfig(
        datasets=(DatasetEntry("synthA", synth=SynthSpec(30, 4, 8, (20, 40), sigma_id=1.5,
                                                         sigma_obs=0.4, seed=5)),),
        methods=(MethodConfig("cross-entropy"), MethodConfig("regression")),
        split=SplitConfig("se", (0.6, 0.2, 0.2), 2, 0),
        train=TrainConfig(epochs=6, seed=0, hidden_dims=(16,)),
        output_dir=str(tmp_path / "runs"),
    )
    assert ExperimentConfig.from_dict(BASE_CONFIG, base_dir=tmp_path) == want


def test_config_without_a_split_section_gets_the_default_split(tmp_path):
    payload = {k: v for k, v in BASE_CONFIG.items() if k != "split"}
    assert ExperimentConfig.from_dict(payload, base_dir=tmp_path).split == SplitConfig()


def test_flat_split_names_equal_the_split_section(tmp_path):
    """bench/phase.py:114-115 (check_inputs) reads split_mode, fractions,
    base_seed and n_splits off the config itself."""
    cfg = config_for(tmp_path, {"split": {"mode": "rs", "fractions": [0.5, 0.25, 0.25],
                                          "n_splits": 3, "base_seed": 7}})
    assert ((cfg.split_mode, cfg.fractions, cfg.n_splits, cfg.base_seed)
            == (cfg.split.mode, cfg.split.fractions, cfg.split.n_splits, cfg.split.base_seed)
            == (MODE_RANDOM, (0.5, 0.25, 0.25), 3, 7))


def test_the_readme_config_schema_loads(tmp_path):
    """The JSON block under README's "Config schema" is a config the reader takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_dict(json.loads(block), base_dir=tmp_path)
    assert cfg.datasets[0].path == str((tmp_path / "synthA.csv").resolve())
    assert cfg.output_dir == str(tmp_path / "results")


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
    assert cfg.split.mode == want


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


@pytest.mark.parametrize("n_splits", [3, 1])
def test_written_matrices_equal_the_per_cell_oracle(tmp_path, n_splits):
    """mae_mean, mae_std and mae_splits equal a cell-by-cell np.mean and
    np.std(ddof=1) of the records bitwise, cross-dataset contexts included;
    one split has zero spread."""
    datasets = [{**BASE_CONFIG["datasets"][0], "name": "a"},
                _with_synth(seed=9) | {"name": "b"}]
    cfg = config_for(tmp_path, {"datasets": datasets, "methods": [
        {"family": "cross-entropy"}, {"family": "regression"}, {"family": "coral"}],
        "split": {"mode": "rs", "n_splits": n_splits}})
    result = run_experiment(cfg, jobs=1)
    contexts = ("a", "a->b", "b", "b->a")
    methods = ("cross-entropy", "regression", "coral")
    assert not result.failures
    mean, std, splits = reference_matrices(result.records, contexts, methods, n_splits)
    if n_splits == 1:
        assert np.all(std == 0.0)
    out = tmp_path / "runs"
    for name, want, rows in (
        ("mae_mean.csv", mean, contexts),
        ("mae_std.csv", std, contexts),
        ("mae_splits.csv", splits, tuple(f"{c}/split{s}" for c in contexts
                                         for s in range(n_splits))),
    ):
        written = load_result_matrix(out / name)
        assert (written.datasets, written.methods) == (rows, methods), name
        assert np.array_equal(written.mae, want), name


def test_grid_cells_are_the_models_train_builds(tmp_path):
    """A grid cell scores exactly what a direct train() call with its seed scores."""
    cfg = config_for(tmp_path, {"methods": [{"family": "coral"}, {"family": "regression"}]})
    result = run_experiment(cfg, jobs=1)
    table = cfg.datasets[0].load()
    splits = make_split_series(table, cfg.split.mode, cfg.split.fractions,
                               cfg.split.base_seed, cfg.split.n_splits)
    assert len(result.records) == 4
    for rec in result.records:
        split = splits[rec.split_index]
        [[run]] = train(table, [split], [MethodConfig(family=rec.method)],
                        [dataclasses.replace(cfg.train, seed=rec.seed)])
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
    assert set(load_result_matrix(tmp_path / "x" / "mae_mean.csv").datasets) == names


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
            err += abs(decode_output(method, row, trained_on) - age)
        assert rec.test_mae == err / len(held_out.ages), rec


LR_OVERFLOW = {"train": {"epochs": 2, "seed": 0, "hidden_dims": [16], "learning_rate": 1e200}}


def test_failed_cell_is_isolated(tmp_path):
    """Failed cells come back alike from this process and through the pool."""
    serial = run_experiment(config_for(tmp_path, LR_OVERFLOW, out="s"), jobs=1)
    pooled = run_experiment(config_for(tmp_path, LR_OVERFLOW, out="p"), jobs=2)
    assert serial.failures
    assert pooled.failures == serial.failures
    assert pooled.records == serial.records
    for result, out in ((serial, tmp_path / "s"), (pooled, tmp_path / "p")):
        assert "mae_mean" not in result.files
        assert (out / "failures.txt").exists()
        assert not (out / "mae_mean.csv").exists()
    assert (tmp_path / "p" / "failures.txt").read_bytes() == (tmp_path / "s" / "failures.txt").read_bytes()

    # A rerun into the same directory keeps none of the last run's outputs.
    clean = run_experiment(config_for(tmp_path, out="s"), jobs=1)
    assert not clean.failures and "mae_mean" in clean.files
    assert not (tmp_path / "s" / "failures.txt").exists()
    run_experiment(config_for(tmp_path, LR_OVERFLOW, out="s"), jobs=1)
    assert (tmp_path / "s" / "failures.txt").exists()
    for name in ("mae_mean.csv", "mae_std.csv", "mae_splits.csv"):
        assert not (tmp_path / "s" / name).exists()


def test_a_rerun_deletes_the_rank_report_of_the_last_run(tmp_path):
    """compare writes its rank report beside the matrix it reads; a rerun
    into that directory deletes the report with the matrices, so no report
    ranks a method that the new run does not have."""
    run_experiment(config_for(tmp_path), jobs=1)
    assert cli.main(["compare", str(tmp_path / "runs" / "mae_splits.csv")]) == 0
    reports = [tmp_path / "runs" / name for name in ("rank_report.txt", "rank_report.json")]
    assert all(path.exists() for path in reports)
    diverging = [{"family": "cross-entropy"}, {"family": "mean-variance", "lambda_mean": 1e308}]
    assert run_experiment(config_for(tmp_path, {"methods": diverging}), jobs=1).failures
    assert not any(path.exists() for path in reports)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_diverging_family_leaves_the_others_bitwise_unchanged(tmp_path, jobs):
    """Lockstep training shares one optimizer buffer: a family that diverges
    on its first step must not reach the records of the others."""
    methods = [{"family": f} for f in ("cross-entropy", "coral", "regression")]
    diverging = methods + [{"family": "mean-variance", "lambda_mean": 1e308}]
    clean = run_experiment(config_for(tmp_path, {"methods": methods}, out="clean"), jobs=jobs)
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


def test_non_finite_test_and_held_out_outputs_fail_only_their_cells(tmp_path):
    """Every model's outputs overflow on a row of 1.7e308 features. Where
    the row is scored, in a test fold or in a held-out table, the cell fails
    for every family and writes no test MAE; where it is trained on, the cell
    fails as divergence."""
    tab = generate_synthetic(SynthSpec(30, 4, 8, (20, 40), 1.5, 0.4, seed=6))
    features = tab.feature_matrix.copy()
    features[0] = 1.7e308
    names = tab.identities()
    save_dataset(DatasetTable("bad", tab.label_set, tab.dimension, tab.sample_ids,
                              [names[c] for c in tab.identity_codes], tab.ages, features),
                 tmp_path / "bad.csv")
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["output_dir"] = str(tmp_path / "runs")
    payload["datasets"].append({"name": "bad", "path": "bad.csv"})
    payload["methods"] = [{"family": f} for f in FAMILIES]
    payload["split"] = {"mode": "random", "n_splits": 2, "fractions": [0.6, 0.2, 0.2],
                        "base_seed": 9}
    payload["train"]["epochs"] = 3
    cfg = ExperimentConfig.from_dict(payload, base_dir=tmp_path)
    test_fold, train_fold = make_split_series(tab, MODE_RANDOM, (0.6, 0.2, 0.2), 9, 2)
    assert tab.sample_ids[0] in test_fold.test and tab.sample_ids[0] in train_fold.train

    result = run_experiment(cfg, jobs=1)
    not_finite = "ValueError: head outputs must be finite"
    expected = {}
    for family in FAMILIES:
        expected.update({f"synthA/{family}/split0": not_finite,  # synthA->bad scores the row
                         f"synthA/{family}/split1": not_finite,
                         f"bad/{family}/split0": not_finite,  # the row is in the test fold
                         f"bad/{family}/split1": "TrainingDiverged: training diverged at epoch 1"})
    assert dict(result.failures) == expected
    assert not result.records and "mae_mean" not in result.files
    assert (tmp_path / "runs" / "failures.txt").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_error_from_a_loss_leaves_train_and_fails_its_task(tmp_path, monkeypatch, jobs):
    """Only a non-finite value fails one member alone. Any other error from
    a loss is a bug: it leaves train(), and every cell of its task fails
    with its message, from this process and through the pool alike."""
    real = training.loss_eval

    def broken_for_regression(method, *args):
        if method.family == "regression":
            raise RuntimeError("regression loss broke")
        return real(method, *args)

    monkeypatch.setattr(training, "loss_eval", broken_for_regression)
    cfg = config_for(tmp_path)
    table = cfg.datasets[0].load()
    with pytest.raises(RuntimeError, match="regression loss broke"):
        train(table, [make_split(table, MODE_RANDOM, (0.6, 0.2, 0.2), 0)], cfg.methods, [cfg.train])
    result = run_experiment(cfg, jobs=jobs)
    assert not result.records
    broke = "RuntimeError: regression loss broke"
    assert result.failures == tuple((f"synthA/{family}/split{s}", broke)
                                    for family in ("cross-entropy", "regression") for s in range(2))


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
    params = LeakageParams()
    params = dataclasses.replace(
        params, n_seeds=2, synth=dataclasses.replace(params.synth, n_identities=16),
        train=dataclasses.replace(params.train, epochs=4, hidden_dims=(16,)))
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


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
def test_leakage_demo_seed_k_uses_table_seed_plus_k_and_train_seed_plus_k():
    synth = SynthSpec(16, 4, 8, (20, 40), sigma_id=2.0, sigma_obs=0.5, seed=7)
    cfg = TrainConfig(epochs=3, hidden_dims=(8,), seed=100)
    rep = leakage_demo(LeakageParams(synth=synth, train=cfg, n_seeds=2))
    method = MethodConfig(family="cross-entropy")
    expected = {MODE_RANDOM: [], MODE_SUBJECT_EXCLUSIVE: []}
    for table_seed, train_seed in ((7, 100), (8, 101)):
        table = generate_synthetic(dataclasses.replace(synth, seed=table_seed))
        for mode, maes in expected.items():
            split = make_split(table, mode, SplitConfig().fractions, table_seed)
            [[run]] = train(table, [split], [method], [dataclasses.replace(cfg, seed=train_seed)])
            maes.append(float(evaluate_mae(run, table, split.test)))
    assert rep.seeds == (7, 8)
    assert rep.random_mae == tuple(expected[MODE_RANDOM])
    assert rep.subject_exclusive_mae == tuple(expected[MODE_SUBJECT_EXCLUSIVE])


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
def test_leakage_demo_trains_both_splits_of_a_seed_in_one_call(monkeypatch):
    """One train() call per seed, and a split's failure still surfaces."""
    calls = []

    def recording_train(table, splits, methods, cfgs):
        calls.append([split.mode for split in splits])
        outcomes = train(table, splits, methods, cfgs)
        return outcomes if len(calls) < 2 else [outcomes[0], [ValueError("second seed failed")]]

    monkeypatch.setattr(harness, "train", recording_train)
    synth = SynthSpec(16, 4, 8, (20, 40), sigma_id=2.0, sigma_obs=0.5, seed=7)
    params = LeakageParams(synth=synth, train=TrainConfig(epochs=2, hidden_dims=(8,)), n_seeds=2)
    with pytest.raises(ValueError, match="second seed failed"):
        leakage_demo(params)
    assert calls == [[MODE_RANDOM, MODE_SUBJECT_EXCLUSIVE]] * 2
