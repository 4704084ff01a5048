"""Spans and counters recorded around calls into the ordibench modules.

Nothing inside the package is edited. The tracer replaces, for the length of
the traced rounds, the module attributes through which one layer calls
another (for example `ordibench.harness.train`, the name the harness calls
the trainer by) with wrappers that time the call. Coarse calls become spans
with a start and an end; the per-row calls in the training hot path (loss,
decode) are only summed, per enclosing span, to keep the trace small.

Pool workers are forked from the traced process, so they inherit the
wrappers. Each worker writes what it recorded to `spans_<pid>.json` after
every span it closes, because a pool worker exits without running atexit
hooks. Span times come from `time.perf_counter`, a system-wide monotonic
clock on Linux, so spans from different processes line up.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, span name): calls that become spans
SPAN_PATCHES = (
    ("harness", "generate_synthetic", "data.load"),
    ("harness", "load_dataset", "data.load"),
    ("splitting", "make_split", "splitting.make_split"),
    ("splitting", "audit_split", "splitting.audit"),
    ("harness", "train", "training.train"),
    ("harness", "evaluate_mae", "training.evaluate"),
    ("cli", "run_experiment", "harness.run"),
)
# (module, attribute, sum name): per-row calls that are summed, not kept
SUM_PATCHES = (
    ("training", "loss_eval", "methods.loss"),
    ("training", "decode_output", "prediction.decode"),
)
# spans that are the work of one grid cell
CELL_SPANS = ("training.train", "training.evaluate")


def _rows(head_out) -> int:
    return 1 if np.ndim(head_out) <= 1 else int(np.shape(head_out)[0])


def _macs(model) -> int:
    """Multiply-adds of one forward pass of one row, from the layer shapes."""
    return sum(int(w.shape[0]) * int(w.shape[1]) for w in model.weights)


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[tuple[str, float, float, int]] = []
        self.sums: dict[str, list] = {}  # "name|parent" -> [seconds, calls, rows]
        self.counts = {"steps": 0, "flop": 0}
        self.splits: list = []  # (table, split) made while tracing
        self._stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._worker = False
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------ recording

    @contextmanager
    def span(self, name: str):
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, start, end, os.getpid()))
            if self._worker:
                self._flush()

    def _add_sum(self, name: str, seconds: float, rows: int) -> None:
        key = f"{name}|{self._stack[-1] if self._stack else ''}"
        acc = self.sums.setdefault(key, [0.0, 0, 0])
        acc[0] += seconds
        acc[1] += 1
        acc[2] += rows

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == "splitting.make_split":
                tracer.splits.append((args[0], result))
            return result

        return traced

    def _sum_wrapper(self, name: str, fn):
        tracer = self

        def traced(config, head_out, *args, **kwargs):
            start = time.perf_counter()
            result = fn(config, head_out, *args, **kwargs)
            tracer._add_sum(name, time.perf_counter() - start, _rows(head_out))
            return result

        return traced

    def _count_wrapper(self, fn, flop_per_mac: int, step: bool):
        tracer = self

        def counted(model, x, *args, **kwargs):
            result = fn(model, x, *args, **kwargs)
            n = 1 if np.ndim(x) == 1 else len(x)
            tracer.counts["flop"] += flop_per_mac * n * _macs(model)
            tracer.counts["steps"] += step
            return result

        return counted

    # --------------------------------------------------- install / collect

    def install(self, package) -> None:
        """Wrap the cross-module call sites of an imported ordibench package."""
        mods = {name: getattr(package, name) for name in ("cli", "harness", "splitting", "training")}

        def patch(mod_name: str, attr: str, wrapper) -> None:
            mod = mods[mod_name]
            self._patches.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

        for mod_name, attr, name in SPAN_PATCHES:
            patch(mod_name, attr, self._span_wrapper(name, getattr(mods[mod_name], attr)))
        for mod_name, attr, name in SUM_PATCHES:
            patch(mod_name, attr, self._sum_wrapper(name, getattr(mods[mod_name], attr)))
        training = mods["training"]
        # forward + backward of a step: 2 flop per multiply-add forward, 4 backward
        patch("training", "batch_loss_and_grads",
              self._count_wrapper(training.batch_loss_and_grads, 6, step=True))
        patch("training", "forward", self._count_wrapper(training.forward, 2, step=False))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _after_fork(self) -> None:
        if not self._patches:
            return
        self._worker = True
        self.spans, self.sums, self.splits = [], {}, []
        self.counts = {"steps": 0, "flop": 0}

    def _flush(self) -> None:
        payload = {"spans": self.spans, "sums": self.sums, "counts": self.counts}
        path = self.out_dir / f"spans_{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)

    def merged(self) -> tuple[list, dict, dict]:
        """Spans, sums and counts of this process plus every worker file."""
        spans = list(self.spans)
        sums = {k: list(v) for k, v in self.sums.items()}
        counts = dict(self.counts)
        for path in sorted(self.out_dir.glob("spans_*.json")):
            data = json.loads(path.read_text())
            spans.extend(tuple(s) for s in data["spans"])
            for key, (sec, calls, rows) in data["sums"].items():
                acc = sums.setdefault(key, [0.0, 0, 0])
                acc[0] += sec
                acc[1] += calls
                acc[2] += rows
            for key, value in data["counts"].items():
                counts[key] += value
        return spans, sums, counts


# ---------------------------------------------------------------- summary

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans, sums, counts, jobs: int) -> dict[str, float]:
    """Per-layer times and counts of the traced rounds."""
    def total(name: str) -> float:
        return float(sum(e - s for n, s, e, _ in spans if n == name))

    def count(name: str) -> float:
        return float(sum(1 for n, *_ in spans if n == name))

    def summed(name: str, parent: str | None = None, field: int = 0) -> float:
        return float(sum(v[field] for k, v in sums.items()
                         if k.split("|")[0] == name and parent in (None, k.split("|")[1])))

    runs = [(s, e) for n, s, e, _ in spans if n == "harness.run"]
    run_s = total("harness.run")
    children = [(s, e) for n, s, e, _ in spans if n not in ("harness.run", "stats.compare")]
    harness_self = float(sum((e - s) - covered(children, s, e) for s, e in runs))
    busy = 0.0
    for pid in {p for n, _, _, p in spans if n in CELL_SPANS}:
        cell = [(s, e) for n, s, e, p in spans if p == pid and n in CELL_SPANS]
        busy += sum(covered(cell, s, e) for s, e in runs)

    train_s = total("training.train")
    in_train = summed("methods.loss", "training.train") + summed("prediction.decode", "training.train")
    evaluate_s = total("training.evaluate")
    gflop = counts["flop"] / 1e9
    return {
        "splitting.make_split_s": total("splitting.make_split"),
        "splitting.audit_s": total("splitting.audit"),
        "splitting.splits": count("splitting.make_split"),
        "methods.loss_s": summed("methods.loss"),
        "methods.loss_calls": summed("methods.loss", field=1),
        "methods.loss_rows": summed("methods.loss", field=2),
        "prediction.decode_s": summed("prediction.decode"),
        "prediction.decode_calls": summed("prediction.decode", field=1),
        "prediction.decode_rows": summed("prediction.decode", field=2),
        "training.train_s": train_s,
        "training.self_s": train_s - in_train,
        "training.evaluate_s": evaluate_s,
        "training.steps": float(counts["steps"]),
        "training.gflop": gflop,
        "training.gflop_per_s": gflop / (train_s + evaluate_s) if train_s + evaluate_s > 0 else 0.0,
        "harness.run_s": run_s,
        "harness.self_s": harness_self,
        "harness.worker_busy_share": busy / (jobs * run_s) if run_s > 0 else 0.0,
        "harness.cells": count("training.train"),
        "stats.compare_s": total("stats.compare"),
    }
