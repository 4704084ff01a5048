"""One child process of a benchmark run.

    python3 bench/phase.py setup --workload W --work DIR --out FILE
    python3 bench/phase.py timed --workload W --work DIR --out FILE --seed N --seconds S [--trace]

`setup` imports ordibench from the checkout's src/ and builds or loads the
workload's input tables, and reports how long that took. `timed` does the
same, then runs whole rounds of the workload until --seconds have been
measured (and at least two rounds), optionally the first round(s) again
with the tracer on, and finally, untimed, writes what the correctness checks need.
Both write one JSON object to --out. run.py starts them; the ordibench
import happens here only, never in run.py, so that it is timed in a fresh
process.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before numpy or ordibench is imported

import argparse
import json
import resource
import statistics
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ordibench.cli  # noqa: F401  (imports every pipeline module)

    package = sys.modules["ordibench"]
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"ordibench was imported from {package.__file__}, not from {src}")
    return package


def load_tables(package, workload, work: Path) -> list:
    if workload.kind == "grid":
        config = package.harness.ExperimentConfig.from_json(work / "experiment.json")
        return [entry.load() for entry in config.datasets]
    return [package.data.load_dataset(p) for p in sorted(work.glob("part_*.csv"))]


def _cpu() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _grid_round(package, workload, tables, work: Path, out: Path, tracer=None) -> dict:
    cli = package.cli
    cells = len(workload.methods) * workload.n_splits * len(tables)
    start, cpu = time.perf_counter(), _cpu()
    cli.main(["run", str(work / "experiment.json"), "--jobs", str(workload.jobs),
              "--output-dir", str(out)])
    with tracer.span("stats.compare") if tracer else nullcontext():
        cli.main(["compare", str(out / "mae_splits.csv"), "--out", str(out / "rank_report.txt")])
    wall, cpu = time.perf_counter() - start, _cpu() - cpu
    failures = out / "failures.txt"
    failed = len(failures.read_text().splitlines()) if failures.exists() else 0
    return {"dir": str(out), "key": 0, "ops": cells, "failed": failed, "wall": wall, "cpu": cpu}


def _split_round(package, tables, seed: int, index: int, out: Path) -> dict:
    from inputs import FRACTIONS, SPLITS_PER_ROUND

    splitting = package.splitting
    table = tables[index % len(tables)]
    base_seed = seed * 1000 + index * SPLITS_PER_ROUND
    start, cpu = time.perf_counter(), _cpu()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fraction drift is judged by the checks
        splits = splitting.make_split_series(
            table, splitting.MODE_SUBJECT_EXCLUSIVE, FRACTIONS, base_seed, SPLITS_PER_ROUND)
    reports = [splitting.audit_split(table, s) for s in splits]
    wall, cpu = time.perf_counter() - start, _cpu() - cpu
    out.mkdir(parents=True, exist_ok=True)
    for i, (split, report) in enumerate(zip(splits, reports)):
        splitting.save_split(split, out / f"split_{i:02d}.json")
        (out / f"audit_{i:02d}.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return {"dir": str(out), "key": index, "table": table.name, "ops": len(splits), "failed": 0,
            "wall": wall, "cpu": cpu}


def run_round(package, workload, tables, seed: int, work: Path, index: int,
              out: Path, tracer=None) -> dict:
    if workload.kind == "grid":
        return _grid_round(package, workload, tables, work, out, tracer)
    return _split_round(package, tables, seed, index, out)


def check_inputs(package, workload, tables, work: Path) -> dict:
    """Untimed: the tables as CSV and the grid's splits, regenerated."""
    ranges = {t.name: [t.label_set.min_label, t.label_set.max_label] for t in tables}
    if workload.kind != "grid":
        return {"manifests": {t.name: str(work / f"{t.name}.csv") for t in tables},
                "label_ranges": ranges}
    config = package.harness.ExperimentConfig.from_json(work / "experiment.json")
    manifests, splits = {}, {}
    for table, entry in zip(tables, config.datasets):
        if entry.path is None:
            manifests[table.name] = str(package.data.save_dataset(table, work / f"{table.name}.csv"))
        else:
            manifests[table.name] = entry.path
        series = package.splitting.make_split_series(
            table, config.split_mode, config.fractions, config.base_seed, config.n_splits)
        folder = work / "regenerated" / table.name
        folder.mkdir(parents=True, exist_ok=True)
        splits[table.name] = [
            str(package.splitting.save_split(s, folder / f"split_{i:02d}.json"))
            for i, s in enumerate(series)
        ]
    return {"manifests": manifests, "splits": splits, "label_ranges": ranges}


def traced_round(package, workload, tables, seed: int, work: Path, rounds: list) -> dict:
    """The work of the first timed round(s) again with the tracer on; per-layer metrics.

    A grid round is retraced once. A split round is a single split, too short
    a sample on its own, so the first TRACED_SPLIT_ROUNDS split rounds are.
    """
    import tracer as tracing
    from inputs import TRACED_SPLIT_ROUNDS

    n = 1 if workload.kind == "grid" else min(TRACED_SPLIT_ROUNDS, len(rounds))
    tracer = tracing.Tracer(work / "trace")
    tracer.install(package)
    try:
        traced = [run_round(package, workload, tables, seed, work, i,
                            work / f"traced_{i:02d}", tracer) for i in range(n)]
    finally:
        tracer.uninstall()
    spans, sums, counts = tracer.merged()
    layers = tracing.layer_metrics(spans, sums, counts, workload.jobs)
    devs = [package.splitting.audit_split(t, s).max_bin_deviation for t, s in tracer.splits]
    layers["splitting.max_bin_dev"] = max(devs, default=0.0)
    layers["harness.test_mae_mean"], layers["harness.test_mae_worst"] = _test_mae(work / "traced_00")
    # untraced reference: per traced round, the median of the timed rounds that did its work
    reference = sum(statistics.median(r["wall"] for r in rounds if r["key"] == t["key"])
                    for t in traced)
    wall = sum(t["wall"] for t in traced)
    layers["trace.overhead_s"] = wall - reference
    layers["trace.overhead_share"] = (wall - reference) / reference
    return {"rounds": traced, "layers": layers}


def _test_mae(out: Path) -> tuple[float, float]:
    """Mean test MAE over all records, and the worst per-method mean."""
    import checks

    path = out / "run_records.csv"
    if not path.exists():
        return 0.0, 0.0
    by_method: dict[str, list[float]] = {}
    for r in checks.read_records(path):
        by_method.setdefault(r["method"], []).append(r["test_mae"])
    values = [v for vs in by_method.values() for v in vs]
    return statistics.fmean(values), max(statistics.fmean(vs) for vs in by_method.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "timed"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    work = Path(args.work)
    sys.path.insert(0, str(HERE))

    package = import_package()
    import_s = time.perf_counter() - T0
    from inputs import WORKLOADS

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    tables = load_tables(package, workload, work)
    load_s = time.perf_counter() - start
    result = {"setup_s": time.perf_counter() - T0, "import_s": import_s, "load_s": load_s,
              "rows": sum(len(t) for t in tables)}
    if args.mode == "timed":
        rounds: list[dict] = []
        while len(rounds) < 2 or sum(r["wall"] for r in rounds) < args.seconds:
            index = len(rounds)
            rounds.append(run_round(package, workload, tables, args.seed, work, index,
                                    work / f"round_{index:02d}"))
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(rounds=rounds, peak_rss_mb=peak_kb / 1024.0)
        if workload.kind == "split":
            # same seeds as round 0, for the determinism check
            result["repeat"] = run_round(package, workload, tables, args.seed, work, 0,
                                         work / "repeat")
        if args.trace:
            result["trace"] = traced_round(package, workload, tables, args.seed, work, rounds)
        result["check_inputs"] = check_inputs(package, workload, tables, work)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
