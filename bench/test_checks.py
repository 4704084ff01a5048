"""Each benchmark check passes on good outputs and fails on a corrupted copy.

Run with `python3 -m pytest bench/test_checks.py` from the repository root.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks

DATASETS = ["A", "B"]
METHODS = ["m1", "m2", "m3"]
N_SPLITS = 3


def _records() -> list[dict]:
    rng = np.random.default_rng(0)
    out = []
    for ctx in checks.contexts(DATASETS):
        for j, m in enumerate(METHODS):
            for s in range(N_SPLITS):
                out.append({"dataset": ctx, "method": m, "split": s, "seed": s,
                            "val_mae": 3.0 + j, "test_mae": float(3.0 + j + rng.random()),
                            "selected_epoch": 1 + s})
    return out


def _write_records(path, records) -> None:
    lines = ["dataset,method,split,seed,val_mae,test_mae,selected_epoch"]
    lines += [f"{r['dataset']},{r['method']},{r['split']},{r['seed']},{r['val_mae']!r},"
              f"{r['test_mae']!r},{r['selected_epoch']}" for r in records]
    path.write_text("\n".join(lines) + "\n")


def _write_matrix(path, names, values) -> None:
    lines = ["dataset," + ",".join(METHODS)]
    lines += [n + "," + ",".join(repr(float(v)) for v in row) for n, row in zip(names, values)]
    path.write_text("\n".join(lines) + "\n")


def _mean_matrix(records):
    names = checks.contexts(DATASETS)
    means = checks.method_means(records)
    return names, np.asarray([[means[(c, m)] for m in METHODS] for c in names])


def _plain_friedman(values: np.ndarray) -> float:
    """The textbook formula on average ranks, with no tie correction."""
    from scipy.stats import rankdata

    n, k = values.shape
    avg = rankdata(values, axis=1).mean(axis=0)
    return 12.0 * n / (k * (k + 1)) * (float(np.sum(avg ** 2)) - k * (k + 1) ** 2 / 4.0)


# ----------------------------------------------------------------- records

def test_complete_records_pass():
    assert checks.check_records(_records(), DATASETS, METHODS, N_SPLITS) == []


def test_dropped_record_fails():
    records = _records()
    del records[4]
    problems = checks.check_records(records, DATASETS, METHODS, N_SPLITS)
    assert len(problems) == 1 and "missing record" in problems[0]


def test_duplicated_record_fails():
    records = _records()
    records.append(dict(records[0]))
    assert checks.check_records(records, DATASETS, METHODS, N_SPLITS)


def test_records_round_trip_through_csv(tmp_path):
    records = _records()
    _write_records(tmp_path / "run_records.csv", records)
    assert checks.read_records(tmp_path / "run_records.csv") == [
        {**r, "seed": str(r["seed"])} for r in records]


# ------------------------------------------------------------ mean matrix

def test_mean_matrix_pass(tmp_path):
    records = _records()
    _write_matrix(tmp_path / "mae_mean.csv", *_mean_matrix(records))
    assert checks.check_mean_matrix(records, tmp_path / "mae_mean.csv") == []


def test_shifted_mean_fails(tmp_path):
    records = _records()
    names, values = _mean_matrix(records)
    values[1, 2] += 1e-6
    _write_matrix(tmp_path / "mae_mean.csv", names, values)
    problems = checks.check_mean_matrix(records, tmp_path / "mae_mean.csv")
    assert len(problems) == 1 and names[1] in problems[0]


# --------------------------------------------------------------- friedman

@pytest.mark.parametrize("tied", [False, True])
def test_friedman_matches_plain_formula(tmp_path, tied):
    values = np.random.default_rng(1).random((6, 3))
    if tied:
        values[0, 1] = values[0, 0]
        values[3, :] = 0.5
    _write_matrix(tmp_path / "mae_splits.csv", [f"r{i}" for i in range(6)], values)
    (tmp_path / "rank.json").write_text(json.dumps({"chi2_f": _plain_friedman(values)}))
    assert checks.check_friedman(tmp_path / "mae_splits.csv", tmp_path / "rank.json") == []


def test_wrong_friedman_fails(tmp_path):
    values = np.random.default_rng(1).random((6, 3))
    _write_matrix(tmp_path / "mae_splits.csv", [f"r{i}" for i in range(6)], values)
    (tmp_path / "rank.json").write_text(json.dumps({"chi2_f": _plain_friedman(values) * 1.001}))
    assert checks.check_friedman(tmp_path / "mae_splits.csv", tmp_path / "rank.json")


# ----------------------------------------------------------------- ranges

def test_ranges_pass():
    assert checks.check_ranges(_records(), label_span=40, epochs=3) == []


@pytest.mark.parametrize("field, value", [("test_mae", -0.1), ("val_mae", 40.5),
                                          ("selected_epoch", 0), ("selected_epoch", 4)])
def test_out_of_range_fails(field, value):
    records = _records()
    records[2][field] = value
    assert len(checks.check_ranges(records, label_span=40, epochs=3)) == 1


# --------------------------------------------------------------- baseline

def _baseline_inputs():
    # A: ages 20..59 cycling; train on even rows, test on odd rows
    manifest = {f"s{i}": (f"id{i // 2}", 20 + i % 40) for i in range(80)}
    split = {"train": [f"s{i}" for i in range(0, 80, 2)], "val": [],
             "test": [f"s{i}" for i in range(1, 80, 2)]}
    return {"A": manifest}, {"A": [split]}


def test_median_baseline_by_hand():
    manifests, splits = _baseline_inputs()
    train = [20 + i % 40 for i in range(0, 80, 2)]
    test = np.asarray([20 + i % 40 for i in range(1, 80, 2)])
    expected = float(np.mean(np.abs(test - np.median(train))))
    assert checks.median_baselines(manifests, splits) == {"A": pytest.approx(expected)}


def test_method_losing_to_median_fails():
    manifests, splits = _baseline_inputs()
    base = checks.median_baselines(manifests, splits)["A"]
    good = [{"dataset": "A", "method": "m1", "test_mae": base - 1.0},
            {"dataset": "A", "method": "m2", "test_mae": base + 3.0}]
    problems, notes = checks.check_beats_baseline(good, {"A": base})
    assert problems == [] and len(notes) == 1 and "m2" in notes[0]
    bad = [dict(r, test_mae=r["test_mae"] + 1.0) for r in good]
    problems, notes = checks.check_beats_baseline(bad, {"A": base})
    assert len(problems) == 1 and len(notes) == 2


# ----------------------------------------------------------------- splits

def _split_inputs():
    """20 identities of 5 rows; identities 0-11 train, 12-15 val, 16-19 test."""
    manifest = {f"p{i}_{j}": (f"p{i}", 20 + (i * 5 + j) % 10) for i in range(20) for j in range(5)}
    fold_of = {f"p{i}": "train" if i < 12 else "val" if i < 16 else "test" for i in range(20)}
    split = {"mode": "subject-exclusive", "train": [], "val": [], "test": []}
    for sid, (ident, _) in manifest.items():
        split[fold_of[ident]].append(sid)
    return manifest, split


def test_good_split_passes():
    manifest, split = _split_inputs()
    assert checks.check_split(manifest, split, (0.6, 0.2, 0.2)) == []


def test_identity_in_two_folds_fails():
    manifest, split = _split_inputs()
    split["train"].remove("p0_0")
    split["test"].append("p0_0")
    problems = checks.check_split(manifest, split, (0.6, 0.2, 0.2))
    assert any("identities in both train and test" in p for p in problems)


@pytest.mark.parametrize("corrupt", ["twice", "dropped"])
def test_sample_not_in_exactly_one_fold_fails(corrupt):
    manifest, split = _split_inputs()
    if corrupt == "twice":
        split["val"].append(split["val"][0])
    else:
        split["test"].pop()
    assert checks.check_split(manifest, split, (0.6, 0.2, 0.2))


def test_fraction_drift_fails():
    manifest, split = _split_inputs()
    moved = [s for s in split["val"] if s.startswith("p12_")]
    split["val"] = [s for s in split["val"] if s not in moved]
    split["train"] += moved
    assert any("of the samples" in p for p in checks.check_split(manifest, split, (0.6, 0.2, 0.2)))


def test_audit_disagreement_fails():
    manifest, split = _split_inputs()
    audit = {"overlap_counts": {"train/val": 0}, "fold_sizes": {f: len(split[f]) for f in checks.FOLDS},
             "max_bin_deviation": checks.max_bin_deviation(manifest, split)}
    assert checks.check_audit(manifest, split, audit) == []
    assert checks.check_audit(manifest, split, {**audit, "max_bin_deviation": 0.3})
    assert checks.check_audit(manifest, split, {**audit, "overlap_counts": {"train/val": 1}})


def test_bin_deviation_by_hand():
    # one bin per label (3 labels); train holds only 20s, test only 22s
    manifest = {"a": ("x", 20), "b": ("y", 21), "c": ("z", 22)}
    split = {"train": ["a"], "val": ["b"], "test": ["c"]}
    assert checks.max_bin_deviation(manifest, split) == pytest.approx(2 / 3)


# ------------------------------------------------------------ determinism

def test_identical_outputs(tmp_path):
    for name in ("r0", "r1"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "run_records.csv").write_text("a,b\n1,2\n")
    assert checks.check_identical(tmp_path / "r0", tmp_path / "r1", ["run_records.csv"]) == []
    (tmp_path / "r1" / "run_records.csv").write_text("a,b\n1,3\n")
    assert checks.check_identical(tmp_path / "r0", tmp_path / "r1", ["run_records.csv"])
