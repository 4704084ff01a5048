#!/usr/bin/env python3
"""
Run a small benchmark grid and rank the methods.

Three loss families, one synthetic dataset, five subject-exclusive splits.
Each (dataset, split) pair is one row of the result matrix; the Friedman
test then asks whether the per-row rankings are consistent enough to call
the methods different, and the critical difference says which pairs are.
"""

import tempfile
from pathlib import Path

from ordibench.harness import ExperimentConfig, run_experiment
from ordibench.stats import friedman_test, load_result_matrix, write_rank_report


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig.from_dict({
            "datasets": [{
                "name": "synthA",
                "synth": {"n_identities": 60, "samples_per_identity": 4,
                          "dimension": 16, "age_range": [20, 60],
                          "sigma_id": 2.0, "sigma_obs": 0.5, "seed": 11},
            }],
            "methods": [
                {"family": "cross-entropy"},
                {"family": "sord"},
                {"family": "regression"},
            ],
            "split": {"mode": "se", "n_splits": 5,
                      "fractions": [0.6, 0.2, 0.2], "base_seed": 0},
            "train": {"epochs": 40, "seed": 0},
            "output_dir": str(Path(tmp) / "out"),
        }, base_dir=tmp)

        print("=== Running 3 methods x 5 splits ===")
        result = run_experiment(cfg, jobs=1)
        print(f"{len(result.records)} runs, {len(result.failures)} failures")

        matrix = load_result_matrix(Path(tmp) / "out" / "mae_splits.csv")
        summary = friedman_test(matrix, alpha=0.05)
        txt_path, _ = write_rank_report(summary, Path(tmp) / "out" / "rank_report.txt")

        print()
        print(txt_path.read_text())
        verdict = ("differences are significant"
                   if summary.p_value < summary.alpha
                   else "no significant differences")
        print(f"p = {summary.p_value:.4f}: {verdict} at alpha {summary.alpha}")


if __name__ == "__main__":
    main()
