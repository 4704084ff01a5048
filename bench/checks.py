"""Correctness checks on what a benchmark run wrote.

Every check reads files (manifests, split JSON, `ordibench run` outputs) and
recomputes what it needs with numpy or scipy, apart from the program. Each
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.stats import friedmanchisquare, rankdata

GRID_FILES = ("run_records.csv", "mae_mean.csv", "mae_std.csv", "mae_splits.csv",
              "rank_report.txt", "rank_report.json")
FOLDS = ("train", "val", "test")
# the split audit's age bins: one per label up to 32 labels, else 10 equal-width
MAX_EXACT_BINS = 32
COARSE_BINS = 10
FRACTION_TOL = 0.02
BIN_DEV_TOL = 0.05
REL_TOL = 1e-9


# ------------------------------------------------------------------ reading

def read_manifest(path) -> dict[str, tuple[str, int]]:
    """sample_id -> (identity_id, age), straight from the CSV columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: (row[1], int(row[2])) for row in reader if row}


def read_records(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r["split"] = int(r["split"])
        r["selected_epoch"] = int(r["selected_epoch"])
        r["val_mae"] = float(r["val_mae"])
        r["test_mae"] = float(r["test_mae"])
    return rows


def read_matrix(path) -> tuple[list[str], list[str], np.ndarray]:
    """(row names, method names, values) of a `dataset,<method>,...` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    methods = rows[0][1:]
    names = [r[0] for r in rows[1:]]
    values = np.asarray([[float(v) for v in r[1:]] for r in rows[1:]])
    return names, methods, values


def contexts(datasets: list[str]) -> list[str]:
    """Evaluation contexts of a grid: each dataset, then train->held-out pairs."""
    return [d for d in datasets] + [f"{a}->{b}" for a in datasets for b in datasets if a != b]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------- grid checks

def check_records(records, datasets, methods, n_splits) -> list[str]:
    """Every attempted cell produced exactly one record per evaluation context."""
    want = {(c, m, s) for c in contexts(datasets) for m in methods for s in range(n_splits)}
    seen: dict[tuple, int] = {}
    for r in records:
        key = (r["dataset"], r["method"], r["split"])
        seen[key] = seen.get(key, 0) + 1
    problems = [f"missing record {k}" for k in sorted(want - set(seen))]
    problems += [f"unexpected record {k}" for k in sorted(set(seen) - want)]
    problems += [f"{n} records for {k}" for k, n in sorted(seen.items()) if n > 1]
    return problems


def check_mean_matrix(records, mean_csv) -> list[str]:
    """mae_mean.csv equals the numpy mean over splits of run_records.csv."""
    names, methods, values = read_matrix(mean_csv)
    problems = []
    for i, ctx in enumerate(names):
        for j, m in enumerate(methods):
            maes = [r["test_mae"] for r in records if r["dataset"] == ctx and r["method"] == m]
            if not maes:
                problems.append(f"mae_mean has {ctx}/{m} but no record does")
            elif not _close(float(np.mean(maes)), float(values[i, j])):
                problems.append(f"mae_mean {ctx}/{m} = {float(values[i, j])!r}, "
                                f"records give {float(np.mean(maes))!r}")
    return problems


def untied_friedman(matrix: np.ndarray) -> float:
    """Friedman chi-square without the tie correction, from scipy's statistic.

    scipy divides by c = 1 - sum(t^3 - t) / (n k (k^2 - 1)) over tie groups;
    the rank report uses the plain formula, so multiply c back in.
    """
    n, k = matrix.shape
    statistic = friedmanchisquare(*matrix.T).statistic
    ties = 0.0
    for row in rankdata(matrix, axis=1):
        _, counts = np.unique(row, return_counts=True)
        ties += float(np.sum(counts ** 3 - counts))
    return float(statistic) * (1.0 - ties / (n * k * (k * k - 1)))


def check_friedman(splits_csv, report_json) -> list[str]:
    """`ordibench compare`'s chi-square matches scipy's on mae_splits.csv."""
    _, _, values = read_matrix(splits_csv)
    expected = untied_friedman(values)
    got = json.loads(Path(report_json).read_text())["chi2_f"]
    if not _close(expected, got):
        return [f"rank report chi2_F {got!r}, scipy gives {expected!r}"]
    return []


def check_ranges(records, label_span: float, epochs: int) -> list[str]:
    """MAEs lie in [0, label span]; the selected epoch in [1, epochs]."""
    problems = []
    for r in records:
        key = (r["dataset"], r["method"], r["split"])
        for field in ("val_mae", "test_mae"):
            if not 0.0 <= r[field] <= label_span:
                problems.append(f"{field} {r[field]!r} of {key} is outside [0, {label_span}]")
        if not 1 <= r["selected_epoch"] <= epochs:
            problems.append(f"selected_epoch {r['selected_epoch']} of {key} is outside [1, {epochs}]")
    return problems


def median_baselines(manifests: dict, splits: dict) -> dict[str, float]:
    """Test MAE of predicting the train-fold median age, per evaluation context.

    manifests maps a dataset to {sample_id: (identity, age)}, splits maps it
    to its list of split payloads. Held-out contexts score every row of the
    other dataset, as the harness does.
    """
    out = {}
    for name, series in splits.items():
        ages = {sid: age for sid, (_, age) in manifests[name].items()}
        per_ctx: dict[str, list[float]] = {}
        for split in series:
            median = float(np.median([ages[s] for s in split["train"]]))
            test = np.asarray([ages[s] for s in split["test"]], dtype=float)
            per_ctx.setdefault(name, []).append(float(np.mean(np.abs(test - median))))
            for other, rows in manifests.items():
                if other != name:
                    held = np.asarray([age for _, age in rows.values()], dtype=float)
                    per_ctx.setdefault(f"{name}->{other}", []).append(
                        float(np.mean(np.abs(held - median))))
        out.update({ctx: float(np.mean(v)) for ctx, v in per_ctx.items()})
    return out


def method_means(records) -> dict[tuple[str, str], float]:
    """Mean test MAE over splits per (context, method)."""
    acc: dict[tuple[str, str], list[float]] = {}
    for r in records:
        acc.setdefault((r["dataset"], r["method"]), []).append(r["test_mae"])
    return {k: float(np.mean(v)) for k, v in acc.items()}


def check_beats_baseline(records, baselines: dict[str, float]) -> tuple[list[str], list[str]]:
    """In every context the best method has a lower MAE than the median predictor.

    Returns (problems, notes); the notes name every method that does not
    beat the median, which is worth knowing but not a benchmark failure.
    """
    means = method_means(records)
    problems, notes = [], []
    for ctx, base in sorted(baselines.items()):
        scores = {m: v for (c, m), v in means.items() if c == ctx}
        if not scores:
            problems.append(f"no records for context {ctx}")
            continue
        best = min(scores, key=scores.get)
        if not scores[best] < base:
            problems.append(f"{ctx}: best method {best} ({scores[best]:.3f}) does not beat "
                            f"the train-fold median ({base:.3f})")
        notes += [f"{ctx}: {m} ({v:.3f}) does not beat the train-fold median ({base:.3f})"
                  for m, v in sorted(scores.items()) if not v < base]
    return problems, notes


# ------------------------------------------------------------ split checks

def bin_index(ages: np.ndarray, labels: list[int]) -> np.ndarray:
    if len(labels) <= MAX_EXACT_BINS:
        return np.searchsorted(np.asarray(labels), ages)
    edges = np.linspace(labels[0], labels[-1], COARSE_BINS + 1)
    return np.clip(np.searchsorted(edges, ages, side="right") - 1, 0, COARSE_BINS - 1)


def check_split(manifest: dict, split: dict, fractions) -> list[str]:
    """Subject exclusivity, coverage, fractions and age-bin deviation of one split.

    Identities and ages come from the manifest, never from the program.
    """
    problems = []
    if split["mode"] != "subject-exclusive":
        problems.append(f"split mode {split['mode']!r}, expected 'subject-exclusive'")
    placed: dict[str, int] = {}
    for fold in FOLDS:
        for sid in split[fold]:
            placed[sid] = placed.get(sid, 0) + 1
    twice = sorted(s for s, n in placed.items() if n > 1)
    unknown = sorted(set(placed) - set(manifest))
    missing = sorted(set(manifest) - set(placed))
    for label, ids in (("in more than one fold", twice), ("not in the manifest", unknown),
                       ("in no fold", missing)):
        if ids:
            problems.append(f"{len(ids)} samples {label}, e.g. {ids[0]}")
    if unknown:
        return problems

    idents = {f: {manifest[s][0] for s in split[f]} for f in FOLDS}
    for i, a in enumerate(FOLDS):
        for b in FOLDS[i + 1:]:
            shared = idents[a] & idents[b]
            if shared:
                problems.append(f"{len(shared)} identities in both {a} and {b}, "
                                f"e.g. {sorted(shared)[0]}")

    n = len(manifest)
    for fold, want in zip(FOLDS, fractions):
        got = len(split[fold]) / n
        if abs(got - want) > FRACTION_TOL:
            problems.append(f"{fold} holds {got:.4f} of the samples, asked {want}")

    dev = max_bin_deviation(manifest, split)
    if dev > BIN_DEV_TOL + 1e-9:
        problems.append(f"age-bin deviation {dev:.4f} exceeds {BIN_DEV_TOL}")
    return problems


def max_bin_deviation(manifest: dict, split: dict) -> float:
    """Largest gap between a fold's and the whole table's age-bin shares."""
    labels = sorted({age for _, age in manifest.values()})
    all_ages = np.asarray([age for _, age in manifest.values()])
    n_bins = len(labels) if len(labels) <= MAX_EXACT_BINS else COARSE_BINS
    whole = np.bincount(bin_index(all_ages, labels), minlength=n_bins) / len(all_ages)
    dev = 0.0
    for fold in FOLDS:
        ages = np.asarray([manifest[s][1] for s in split[fold]])
        if len(ages):
            share = np.bincount(bin_index(ages, labels), minlength=n_bins) / len(ages)
            dev = max(dev, float(np.max(np.abs(share - whole))))
    return dev


def check_audit(manifest: dict, split: dict, audit: dict) -> list[str]:
    """The program's audit agrees with the recomputed overlap, sizes and deviation."""
    problems = []
    if any(audit["overlap_counts"].values()):
        problems.append(f"audit reports overlap {audit['overlap_counts']}")
    for fold in FOLDS:
        if audit["fold_sizes"][fold] != len(split[fold]):
            problems.append(f"audit size of {fold} is {audit['fold_sizes'][fold]}, "
                            f"split has {len(split[fold])}")
    dev = max_bin_deviation(manifest, split)
    if not _close(dev, audit["max_bin_deviation"]):
        problems.append(f"audit bin deviation {audit['max_bin_deviation']!r}, recomputed {dev!r}")
    return problems


# ------------------------------------------------------------- determinism

def check_identical(dir_a, dir_b, names) -> list[str]:
    """Named files of two output directories are byte-identical."""
    problems = []
    for name in names:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        if not a.exists() or not b.exists():
            problems.append(f"{name} missing in {a.parent.name} or {b.parent.name}")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"{name} differs between {a.parent.name} and {b.parent.name}")
    return problems


# ------------------------------------------------------------ whole runs

def check_grid_run(result: dict, workload, config: dict) -> tuple[list[str], list[str]]:
    """All checks of a grid workload, on the outputs of one timed child.

    Returns (problems, notes), as check_beats_baseline does.
    """
    inputs = result["check_inputs"]
    datasets = [d["name"] for d in config["datasets"]]
    first = Path(result["rounds"][0]["dir"])
    problems = []
    traced = result["trace"]["rounds"] if "trace" in result else []
    for other in [r["dir"] for r in result["rounds"][1:] + traced]:
        problems += check_identical(first, other, GRID_FILES)
    if not (first / "run_records.csv").exists():
        return problems + [f"no run_records.csv in {first}"], []
    records = read_records(first / "run_records.csv")
    problems += check_records(records, datasets, workload.methods, workload.n_splits)
    problems += check_mean_matrix(records, first / "mae_mean.csv")
    problems += check_friedman(first / "mae_splits.csv", first / "rank_report.json")
    lo = min(r[0] for r in inputs["label_ranges"].values())
    hi = max(r[1] for r in inputs["label_ranges"].values())
    problems += check_ranges(records, hi - lo, workload.epochs)
    manifests = {name: read_manifest(p) for name, p in inputs["manifests"].items()}
    splits = {name: [json.loads(Path(p).read_text()) for p in paths]
              for name, paths in inputs["splits"].items()}
    beaten, notes = check_beats_baseline(records, median_baselines(manifests, splits))
    return problems + beaten, notes


def check_split_run(result: dict, fractions) -> tuple[list[str], list[str]]:
    """All checks of the split workload, on the outputs of one timed child."""
    paths = result["check_inputs"]["manifests"]
    problems = []
    pairs = [(result["rounds"][0], result["repeat"])]
    if "trace" in result:
        pairs += list(zip(result["rounds"], result["trace"]["rounds"]))
    for timed, other in pairs:
        names = sorted(p.name for p in Path(timed["dir"]).glob("*.json"))
        problems += check_identical(timed["dir"], other["dir"], names)
    for rnd in result["rounds"]:
        manifest = read_manifest(paths[rnd["table"]])
        folder = Path(rnd["dir"])
        splits = sorted(folder.glob("split_*.json"))
        if len(splits) != rnd["ops"]:
            problems.append(f"{folder.name}: {len(splits)} split files for {rnd['ops']} splits")
        for path in splits:
            split = json.loads(path.read_text())
            audit = json.loads((folder / path.name.replace("split_", "audit_")).read_text())
            where = f"{folder.name}/{path.name}"
            problems += [f"{where}: {p}" for p in check_split(manifest, split, fractions)]
            problems += [f"{where}: {p}" for p in check_audit(manifest, split, audit)]
    return problems, []
