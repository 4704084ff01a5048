"""The benchmark's tracer wraps package functions by module and name
(bench/tracer.py). Installing it here makes a rename of any wrapped name fail
this suite, not only a traced benchmark run."""

from pathlib import Path

import ordibench
import ordibench.cli  # noqa: F401  (the tracer wraps a cli name too)
from ordibench.harness import ExperimentConfig
from ordibench.splitting import make_split_series

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs_and_uninstalls_on_the_package(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    names = [(m, a) for m, a, _ in tracer.SPAN_PATCHES + tracer.SUM_PATCHES]
    names += [("training", "batch_loss_and_grads"), ("training", "forward")]
    originals = {(m, a): getattr(getattr(ordibench, m), a) for m, a in names}
    t = tracer.Tracer(tmp_path)
    t.install(ordibench)
    try:
        wrapped = {(m, a) for (m, a), fn in originals.items()
                   if getattr(getattr(ordibench, m), a) is not fn}
    finally:
        t.uninstall()
    assert wrapped == set(originals)
    assert all(getattr(getattr(ordibench, m), a) is fn for (m, a), fn in originals.items())


def test_bench_tracer_sees_the_training_hot_path(tmp_path, monkeypatch):
    """One traced train() span per task, one task per dataset under jobs=1;
    one summed loss call per method and lockstep minibatch, and one decode
    call per method and epoch plus one per scored cell."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    epochs, batch_size = 3, 16
    cfg = ExperimentConfig.from_dict({
        "datasets": [{"name": "synthA", "synth": {
            "n_identities": 30, "samples_per_identity": 4, "dimension": 8,
            "age_range": [20, 40], "sigma_id": 1.5, "sigma_obs": 0.4, "seed": 5}}],
        "methods": [{"family": "cross-entropy"}, {"family": "coral"}],
        "split": {"mode": "se", "n_splits": 2, "fractions": [0.6, 0.2, 0.2], "base_seed": 0},
        "train": {"epochs": epochs, "batch_size": batch_size, "seed": 0, "hidden_dims": [16]},
        "output_dir": str(tmp_path / "runs"),
    })
    t = tracer.Tracer(tmp_path / "trace")
    t.install(ordibench)
    try:
        result = ordibench.harness.run_experiment(cfg, jobs=1)
    finally:
        t.uninstall()
    assert not result.failures
    layers = tracer.layer_metrics(*t.merged(), jobs=1)

    table = cfg.datasets[0].load()
    splits = make_split_series(table, cfg.split.mode, cfg.split.fractions,
                               cfg.split.base_seed, cfg.split.n_splits)
    methods = len(cfg.methods)
    stacks = {(len(s.train), len(s.val)) for s in splits}  # splits with equal folds share one
    minibatches = sum(epochs * -(-n_train // batch_size) for n_train, _ in stacks)
    assert layers["harness.cells"] == 1  # one training.train span per task
    assert layers["methods.loss_calls"] == methods * minibatches
    assert layers["prediction.decode_calls"] == methods * (epochs * len(stacks) + len(splits))
    assert layers["training.steps"] > 0
