"""Self time, busy share and sums of the tracer's summary, on hand-made spans.

Run with `python3 -m pytest bench/test_tracer.py` from the repository root.
"""

from __future__ import annotations

import pytest

import tracer


def test_covered_merges_overlaps_and_clips():
    assert tracer.covered([(1, 3), (2, 5), (7, 12)], 0, 10) == pytest.approx(7)
    assert tracer.covered([], 0, 10) == 0


def test_layer_metrics_by_hand():
    spans = [
        ("harness.run", 0.0, 10.0, 1),
        ("data.load", 0.0, 0.5, 1),
        ("training.train", 1.0, 4.0, 2),
        ("training.evaluate", 4.0, 5.0, 2),
        ("training.train", 2.0, 8.0, 3),
        ("stats.compare", 10.0, 10.5, 1),
    ]
    sums = {"methods.loss|training.train": [1.5, 30, 30],
            "prediction.decode|training.train": [0.5, 10, 10],
            "prediction.decode|training.evaluate": [0.25, 5, 5]}
    counts = {"steps": 3, "flop": 2_000_000_000}
    m = tracer.layer_metrics(spans, sums, counts, jobs=2)
    assert m["harness.run_s"] == 10
    assert m["harness.self_s"] == pytest.approx(10 - 0.5 - 7)  # outside load and [1, 8]
    assert m["harness.worker_busy_share"] == pytest.approx((4 + 6) / (2 * 10))
    assert m["training.train_s"] == 9
    assert m["training.self_s"] == pytest.approx(9 - 1.5 - 0.5)
    assert m["prediction.decode_s"] == pytest.approx(0.75)
    assert m["prediction.decode_rows"] == 15
    assert m["harness.cells"] == 2
    assert m["training.gflop_per_s"] == pytest.approx(2 / 10)
    assert m["stats.compare_s"] == pytest.approx(0.5)
