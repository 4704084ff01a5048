"""Seeded inputs and settings of the three benchmark workloads.

This module needs only numpy. The manifests it writes are made by the
benchmark, not by the program under test: the program receives them as CSV
files, as it would receive a real face-age manifest. grid-se is the one
exception, on purpose: its table is the program's own synthetic recipe,
because that is the criterion-10 protocol the workload reproduces.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FAMILIES = (
    "cross-entropy", "regression", "or-cnn", "coral", "dldl",
    "dldl-v2", "sord", "mean-variance", "unimodal",
)
FRACTIONS = (0.6, 0.2, 0.2)


@dataclass(frozen=True)
class Workload:
    """What one round of a workload does and how big it is.

    kind "grid" runs `ordibench run` followed by `ordibench compare`;
    kind "split" makes and audits a series of subject-exclusive splits.
    One operation is one grid cell, or one split.
    """

    name: str
    kind: str
    jobs: int = 1
    methods: tuple[str, ...] = ()
    n_splits: int = 0
    epochs: int = 0
    split_mode: str = "se"


WORKLOADS = {
    # the criterion-10 grid: 9 families x 5 subject-exclusive splits, 40 epochs
    "grid-se": Workload("grid-se", "grid", jobs=1, methods=FAMILIES, n_splits=5, epochs=40),
    # one split per operation; a round is SPLITS_PER_ROUND audited split(s) of one table
    "split-se": Workload("split-se", "split"),
    # one family per head kind: softmax, dense threshold, shared-score threshold, scalar
    "cross-rs": Workload(
        "cross-rs", "grid", jobs=2,
        methods=("cross-entropy", "or-cnn", "coral", "regression"),
        n_splits=3, epochs=10, split_mode="rs",
    ),
}

# grid-se: the synthetic recipe of criterion 10; only the seed varies.
GRID_SYNTH = {
    "n_identities": 60, "samples_per_identity": 4, "dimension": 16,
    "age_range": [20, 60], "sigma_id": 2.0, "sigma_obs": 0.5,
}

# split-se: SPLIT_TABLES manifests; round r makes SPLITS_PER_ROUND split(s)
# of table r mod SPLIT_TABLES. The cost of one split swings with its split
# seed (the repair takes from one to about ten passes), and splits of one
# table with neighbouring seeds do not average that out, so a run spreads
# its splits over as many tables and seeds as it can: one split per round,
# one new split seed per round, the next table each round. In each table the
# identity sizes 1..8 occur equally often and base ages are stratified over
# the range, so every seed gives the same row count and age profile but a
# different arrangement.
SPLIT_TABLES = 48
SPLIT_IDENTITIES = 120
SPLIT_AGES = (16, 80)
SPLIT_DIM = 8
SPLITS_PER_ROUND = 1
TRACED_SPLIT_ROUNDS = 8  # split rounds the traced run repeats

# cross-rs: two sites with the same identity-to-feature model, 300
# identities x 4 rows each. Every age of CROSS_AGES appears in both tables,
# so the label set that load_dataset infers is the same for both.
CROSS_SITES = ("siteA", "siteB")
CROSS_IDENTITIES = 300
CROSS_PER_IDENTITY = 4
CROSS_AGES = (20, 60)
CROSS_DIM = 16


def _features(rng, ages: np.ndarray, offsets: np.ndarray, mix: np.ndarray,
              lo: int, hi: int, sigma_obs: float) -> np.ndarray:
    """Cubic age response through a linear map, plus identity offset and noise."""
    t = (ages - lo) / (hi - lo)
    basis = np.stack([t, t * t, t ** 3], axis=1)
    return basis @ mix + offsets + rng.normal(scale=sigma_obs, size=offsets.shape)


def write_manifest(path: Path, identities: list[str], ages: np.ndarray,
                   features: np.ndarray) -> Path:
    """Write sample_id, identity_id, age, f0..f{d-1} with round-trip floats."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "identity_id", "age"]
                        + [f"f{i}" for i in range(features.shape[1])])
        counters: dict[str, int] = {}
        for ident, age, row in zip(identities, ages, features):
            j = counters.get(ident, 0)
            counters[ident] = j + 1
            writer.writerow([f"{ident}_{j:02d}", ident, int(age)]
                            + [repr(float(v)) for v in row])
    return path


def uneven_manifest(path: Path, seed: int, index: int) -> Path:
    """One split-se table: SPLIT_IDENTITIES identities of 1..8 rows, wide age range."""
    rng = np.random.default_rng([seed, 1, index])
    lo, hi = SPLIT_AGES
    sizes = np.tile(np.arange(1, 9), SPLIT_IDENTITIES // 8)
    rng.shuffle(sizes)
    strata = (rng.permutation(SPLIT_IDENTITIES) + rng.random(SPLIT_IDENTITIES)) / SPLIT_IDENTITIES
    bases = lo + (strata * (hi - lo + 1)).astype(int)
    mix = rng.normal(size=(3, SPLIT_DIM)) * 2.0
    identities, ages, offsets = [], [], []
    for i, (size, base) in enumerate(zip(sizes, bases)):
        offset = rng.normal(scale=2.0, size=SPLIT_DIM)
        for _ in range(size):
            identities.append(f"p{i:05d}")
            ages.append(int(np.clip(base + rng.integers(-2, 3), lo, hi)))
            offsets.append(offset)
    ages_arr = np.asarray(ages, dtype=float)
    feats = _features(rng, ages_arr, np.asarray(offsets), mix, lo, hi, 0.5)
    return write_manifest(path, identities, ages_arr, feats)


def cross_manifests(out_dir: Path, seed: int) -> list[Path]:
    """cross-rs inputs: one CSV per site, one shared label set."""
    lo, hi = CROSS_AGES
    labels = np.arange(lo, hi + 1)
    mix = np.random.default_rng([seed, 2]).normal(size=(3, CROSS_DIM)) * 2.0
    paths = []
    for s, site in enumerate(CROSS_SITES):
        rng = np.random.default_rng([seed, 3, s])
        shift = rng.normal(scale=0.3, size=CROSS_DIM)  # mild site effect
        # base ages cycle through every label, so each label is some
        # identity's first row in both tables
        base = np.resize(rng.permutation(labels), CROSS_IDENTITIES)
        identities, ages, offsets = [], [], []
        for i, b in enumerate(base):
            offset = rng.normal(scale=2.0, size=CROSS_DIM) + shift
            for j in range(CROSS_PER_IDENTITY):
                jitter = 0 if j == 0 else int(rng.integers(-1, 2))
                identities.append(f"{site}_p{i:04d}")
                ages.append(int(np.clip(b + jitter, lo, hi)))
                offsets.append(offset)
        ages_arr = np.asarray(ages, dtype=float)
        feats = _features(rng, ages_arr, np.asarray(offsets), mix, lo, hi, 0.5)
        paths.append(write_manifest(out_dir / f"{site}.csv", identities, ages_arr, feats))
    return paths


def grid_config(workload: Workload, seed: int, work: Path) -> Path:
    """Write the `ordibench run` config of a grid workload; returns its path."""
    if workload.name == "grid-se":
        datasets = [{"name": "synthA", "synth": {**GRID_SYNTH, "seed": seed}}]
    else:
        datasets = [{"name": p.stem, "path": p.name} for p in cross_manifests(work, seed)]
    payload = {
        "datasets": datasets,
        "methods": [{"family": f} for f in workload.methods],
        "split": {"mode": workload.split_mode, "n_splits": workload.n_splits,
                  "fractions": list(FRACTIONS), "base_seed": seed},
        "train": {"epochs": workload.epochs, "seed": seed},
        "output_dir": "grid",
    }
    path = work / "experiment.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def make_inputs(workload: Workload, seed: int, work: Path) -> None:
    """Write the workload's inputs into work."""
    if workload.kind == "grid":
        grid_config(workload, seed, work)
    else:
        for t in range(SPLIT_TABLES):
            uneven_manifest(work / f"part_{t:02d}.csv", seed, t)
