"""ordibench benchmark: one run of one workload.

    python3 bench/run.py --workload grid-se|split-se|cross-rs --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run writes the workload's inputs from
the seed into .bench_out/<workload>/, times the set-up (import plus input
tables) in three fresh processes, runs the timed phase in one more fresh
process, checks every output, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the timed process also reruns its
first round(s) traced and the metrics are the per-layer ones. Details: README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
# One thread per BLAS pool: the reference machine has two cores and cross-rs already
# runs two worker processes.
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}


def _child(args: list[str], out: Path, timeout: float) -> dict:
    """Run bench/phase.py in a fresh interpreter; its chatter goes to stderr."""
    env = {**os.environ, **PINNED}
    env.pop("PYTHONPATH", None)
    subprocess.run(
        [sys.executable, str(HERE / "phase.py"), *args, "--out", str(out)],
        env=env, cwd=ROOT, stdout=sys.stderr, check=True, timeout=timeout,
    )
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ordibench" / "__init__.py").is_file():
        print(f"error: no ordibench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import checks
    from inputs import FRACTIONS, WORKLOADS, make_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    make_inputs(workload, args.seed, work)

    common = ["--workload", workload.name, "--work", str(work)]
    setups = [_child(["setup", *common], work / f"setup_{i}.json", CHILD_TIMEOUT_S)["setup_s"]
              for i in range(SETUP_PROBES)]
    timed_args = ["timed", *common, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    result = _child(timed_args + (["--trace"] if args.trace else []),
                    work / "timed.json", CHILD_TIMEOUT_S)

    if workload.kind == "grid":
        config = json.loads((work / "experiment.json").read_text())
        problems, notes = checks.check_grid_run(result, workload, config)
    else:
        problems, notes = checks.check_split_run(result, FRACTIONS)
    for note in notes:
        print(f"NOTE: {note}", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    rounds = result["rounds"]
    ops = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wall = sum(r["wall"] for r in rounds)
    if args.trace:
        layers = {"cli.import_s": result["import_s"], "data.load_s": result["load_s"],
                  "data.rows": float(result["rows"]), **result["trace"]["layers"]}
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": (ops - failed) / wall, "unit": "1/s"},
            "cpu_s": {"value": sum(r["cpu"] for r in rounds) / ops, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
