"""Experiment grid driving: configs, records, matrices, the leakage probe."""

import csv
import dataclasses
import json

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
from ordibench.splitting import MODE_RANDOM, MODE_SUBJECT_EXCLUSIVE
from ordibench.methods import MethodConfig
from ordibench.prediction import decode_output
from ordibench.stats import load_result_matrix
from ordibench.training import forward

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

    def capturing_train(table, split, method, train_cfg, **kwargs):
        run = original_train(table, split, method, train_cfg, **kwargs)
        runs[(table.name, method.display_name)] = run
        tables[table.name] = table
        return run

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


def test_failed_cell_is_isolated(tmp_path):
    cfg = config_for(tmp_path, {"train": {"epochs": 2, "seed": 0,
                                          "hidden_dims": [16],
                                          "learning_rate": 1e200}})
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_experiment(cfg, jobs=1)
    assert result.failures
    assert result.mean_matrix is None
    assert (tmp_path / "runs" / "failures.txt").exists()
    assert not (tmp_path / "runs" / "mae_mean.csv").exists()


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
