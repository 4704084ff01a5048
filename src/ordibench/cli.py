"""Command-line harness.

Subcommands: synth, split, audit, run, compare, leakage-demo. Exit codes:
0 success, 1 an analysis-level failure (identity leakage found, grid cells
failed), 2 usage or validation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .data import SynthSpec, ValidationError, generate_synthetic, load_dataset, save_dataset
from .harness import ExperimentConfig, LeakageParams, leakage_demo, run_experiment
from .splitting import (
    SplitConfig, audit_split, load_split, make_split_series, save_split,
)
from .stats import friedman_test, load_result_matrix, write_rank_report
from .training import TrainingDiverged

__all__ = ["main"]


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError("fractions must be three comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise ValidationError(f"could not parse fractions {text!r}") from None


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return jobs


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        n_identities=args.identities,
        samples_per_identity=args.per_identity,
        dimension=args.dim,
        age_range=(args.age_min, args.age_max),
        sigma_id=args.sigma_id,
        sigma_obs=args.sigma_obs,
        seed=args.seed,
    )
    table = generate_synthetic(spec)
    out = save_dataset(table, args.out)
    print(f"wrote {len(table)} samples ({args.identities} identities) to {out}")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    cfg = SplitConfig(args.mode, _parse_fractions(args.fractions), args.n, args.base_seed)
    splits = make_split_series(load_dataset(args.dataset), cfg.mode, cfg.fractions,
                               cfg.base_seed, cfg.n_splits)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, split in enumerate(splits):
        path = save_split(split, out_dir / f"split_{i:02d}.json")
        print(f"wrote {path}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    table = load_dataset(args.dataset)
    split = load_split(args.split)
    report = audit_split(table, split)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return 0 if report.is_subject_exclusive else 1


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.output_dir:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    result = run_experiment(config, jobs=args.jobs)
    print(f"{len(result.records)} records -> {result.files['records']}")
    for name in ("mae_mean", "mae_splits"):
        if name in result.files:
            print(f"{name} -> {result.files[name]}")
    if result.failures:
        for key, msg in result.failures:
            print(f"FAILED {key}: {msg}", file=sys.stderr)
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    matrix = load_result_matrix(args.matrix)
    summary = friedman_test(matrix, alpha=args.alpha)
    out = Path(args.out) if args.out else Path(args.matrix).parent / "rank_report.txt"
    text_path, json_path = write_rank_report(summary, out)
    print(text_path.read_text(), end="")
    verdict = "rejected" if summary.p_value < summary.alpha else "not rejected"
    print(f"# null hypothesis (all methods equivalent): {verdict} at alpha={summary.alpha}")
    print(f"report -> {text_path} and {json_path}")
    return 0


def _cmd_leakage_demo(args: argparse.Namespace) -> int:
    defaults = LeakageParams()
    params = LeakageParams(
        synth=dataclasses.replace(
            defaults.synth,
            n_identities=args.identities,
            samples_per_identity=args.per_identity,
            dimension=args.dim,
            sigma_id=args.sigma_id,
            sigma_obs=args.sigma_obs,
            seed=args.base_seed,
        ),
        train=dataclasses.replace(defaults.train, epochs=args.epochs, seed=args.base_seed),
        n_seeds=args.seeds,
    )
    try:
        report = leakage_demo(params)
    except TrainingDiverged as exc:  # an analysis-level failure, as a failed cell of run is
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.to_text())
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "leakage_report.txt").write_text(report.to_text() + "\n")
        (out_dir / "leakage_report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"report -> {out_dir / 'leakage_report.txt'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordibench",
        description="Benchmark ordinal-regression loss families under leak-free splits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leak = LeakageParams()
    split = SplitConfig()

    p = sub.add_parser("synth", help="generate a synthetic identity-correlated dataset")
    p.add_argument("--identities", type=int, default=50)  # the leakage demo's recipe uses 60
    p.add_argument("--per-identity", type=int, default=leak.synth.samples_per_identity)
    p.add_argument("--dim", type=int, default=leak.synth.dimension)
    p.add_argument("--age-min", type=int, default=leak.synth.age_range[0])
    p.add_argument("--age-max", type=int, default=leak.synth.age_range[1])
    p.add_argument("--sigma-id", type=float, default=leak.synth.sigma_id)
    p.add_argument("--sigma-obs", type=float, default=leak.synth.sigma_obs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="manifest CSV to write")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="write a series of split files for a dataset")
    p.add_argument("dataset", help="manifest CSV")
    p.add_argument("--mode", default=split.mode, help="se (subject-exclusive) or rs (random)")
    p.add_argument("--fractions", default=",".join(map(str, split.fractions)))
    p.add_argument("--n", type=int, default=split.n_splits, help="number of splits")
    p.add_argument("--base-seed", type=int, default=split.base_seed)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("audit", help="check a split for identity leakage and stratification")
    p.add_argument("split", help="split JSON file")
    p.add_argument("dataset", help="manifest CSV")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("run", help="run a methods x datasets x splits grid from a JSON config")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=1,
        help="worker processes for the tasks; each dataset's splits are cut into "
             "min(splits, ceil(jobs / datasets)) tasks that each train in lockstep, and "
             "there are never more workers than tasks (default: 1)",
    )
    p.add_argument("--output-dir", default=None, help="override the config's output_dir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="rank methods from an error-matrix CSV")
    p.add_argument("matrix", help="CSV matrix: dataset rows x method columns")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", default=None, help="report path (default: rank_report.txt beside the matrix)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("leakage-demo", help="show how random splits flatter identity-correlated data")
    # --base-seed sets both the table and the training seed
    p.add_argument("--seeds", type=int, default=leak.n_seeds)
    p.add_argument("--base-seed", type=int, default=leak.synth.seed)
    p.add_argument("--identities", type=int, default=leak.synth.n_identities)
    p.add_argument("--per-identity", type=int, default=leak.synth.samples_per_identity)
    p.add_argument("--dim", type=int, default=leak.synth.dimension)
    p.add_argument("--sigma-id", type=float, default=leak.synth.sigma_id)
    p.add_argument("--sigma-obs", type=float, default=leak.synth.sigma_obs)
    p.add_argument("--epochs", type=int, default=leak.train.epochs)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_leakage_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
