"""The acceptance gate: ten criteria, each reported as one pass/fail line.

Every test records its verdict in _REPORT; the conftest terminal-summary
hook prints the block after the run so the lines appear even on success.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gradcheck import fd_grad, flatten_params, rel_err, set_params
from oracles import brute_force_bayes, grid_search_alignment_residual
from ordibench.alignment import (
    DEFAULT_TEMPLATE_256,
    LandmarkSet,
    SimilarityTransform,
    alignment_residual,
    similarity_align,
)
from ordibench.data import LabelSet, SynthSpec, generate_synthetic
from ordibench.harness import ExperimentConfig, LeakageParams, leakage_demo, run_experiment
from ordibench.methods import (
    FAMILIES,
    MethodConfig,
    encode_targets,
    loss_eval,
    soft_targets,
    softmax,
)
from ordibench import methods
from ordibench.prediction import bayes_mae_predict
from ordibench.splitting import MODE_SUBJECT_EXCLUSIVE, audit_split, make_split, make_split_series
from ordibench.stats import (
    ResultMatrix,
    chi2_cdf,
    critical_difference,
    friedman_test,
    load_result_matrix,
)
from ordibench.training import (
    ModelStack,
    TrainConfig,
    batch_loss_and_grads,
    forward,
    init_model,
    train,
)
from ordibench.util import rng_from_seed

_REPORT = {}


def _finish(n, label, ok, detail):
    _REPORT[n] = (label, bool(ok), detail)
    assert ok, f"criterion {n} failed: {label} ({detail})"


@contextmanager
def _criterion(n, label):
    try:
        yield
    except BaseException as exc:
        if n not in _REPORT or _REPORT[n][1]:
            _REPORT[n] = (label, False, f"{type(exc).__name__}: {exc}")
        raise


# ---------------------------------------------------------------- 1

def _random_head_point(rng, family):
    k = int(rng.integers(3, 26))
    ls = LabelSet(tuple(range(k)))
    age = float(rng.integers(0, k))
    cfg = MethodConfig(family=family)
    z = rng.normal(size=cfg.head_size(k)) * 2.0
    return cfg, ls, age, z


def _near_kink(cfg, ls, age, z):
    if cfg.family == "regression":
        return abs(float(z[0]) - ls.normalize(age)) < 1e-4
    if cfg.family == "dldl-v2":
        return abs(methods._moments(softmax(z), ls)[0] - age) < 1e-4
    if cfg.family == "unimodal":
        return bool(np.any(np.abs(np.diff(softmax(z))) < 1e-5))
    return False


def test_criterion_1_gradient_suite():
    label = "analytic gradients match central differences for all 9 families"
    with _criterion(1, label):
        t0 = time.time()
        worst_head = 0.0
        rng = rng_from_seed(1001)
        for family in FAMILIES:
            done = 0
            while done < 200:
                cfg, ls, age, z = _random_head_point(rng, family)
                if _near_kink(cfg, ls, age, z):
                    continue
                got = loss_eval(cfg, z, encode_targets(cfg, age, ls), ls)
                fd = fd_grad(lambda v: loss_eval(cfg, v, encode_targets(cfg, age, ls), ls).value, z)
                worst_head = max(worst_head, rel_err(got.grad, fd))
                done += 1

        worst_e2e = 0.0
        ls = LabelSet(tuple(range(20, 29)))
        k = len(ls.values)
        xs = rng.normal(size=(6, 5))
        ages = np.array([20, 22, 24, 25, 27, 28], dtype=float)
        for family in FAMILIES:
            cfg = MethodConfig(family=family)
            model = init_model(5, (8,), cfg.head_size(k), seed=3,
                               head_width=1 if FAMILIES[cfg.family].head == "shared" else None)
            stack = ModelStack([model])
            batch_loss_and_grads(stack, xs, [encode_targets(cfg, ages, ls)], [cfg], ls)
            grads = stack._members(stack.grad)[0]
            gw, gb = grads.weights, grads.biases
            analytic = np.concatenate([g.ravel() for g in gw]
                                      + [g.ravel() for g in gb])

            def batch_value(vec):
                m = set_params(model, vec)
                out = forward(m, xs)
                return sum(loss_eval(cfg, out[r], encode_targets(cfg, float(ages[r]), ls), ls).value
                           for r in range(len(xs))) / len(xs)

            fd = fd_grad(batch_value, flatten_params(model))
            worst_e2e = max(worst_e2e, rel_err(analytic, fd))
        elapsed = time.time() - t0
        ok = worst_head <= 1e-5 and worst_e2e <= 1e-4 and elapsed < 30
        _finish(1, label, ok,
                f"head rel err {worst_head:.2e} (tol 1e-5), "
                f"end-to-end {worst_e2e:.2e} (tol 1e-4), {elapsed:.1f}s")


# ---------------------------------------------------------------- 2

def test_criterion_2_bayes_oracle():
    label = "median decoder equals brute-force search on 10k posteriors"
    with _criterion(2, label):
        rng = rng_from_seed(1002)
        t0 = time.time()
        mismatches = 0
        for trial in range(10_000):
            k = int(rng.integers(2, 81))
            lo = int(rng.integers(0, 30))
            ls = LabelSet(tuple(range(lo, lo + k)))
            style = trial % 3
            if style == 0:
                p = rng.dirichlet(np.full(k, 0.3))
            elif style == 1:
                p = rng.dirichlet(np.full(k, 4.0))
            else:
                z = rng.normal(size=k) * 3
                p = np.exp(z - z.max())
                p /= p.sum()
            if bayes_mae_predict(p, ls) != brute_force_bayes(p, ls):
                mismatches += 1
        elapsed = time.time() - t0
        ok = mismatches == 0 and elapsed < 10
        _finish(2, label, ok, f"{mismatches} mismatches in 10000, {elapsed:.1f}s")


# ---------------------------------------------------------------- 3

def test_criterion_3_target_encodings():
    label = "soft targets normalize, are unimodal at the label, and keep symmetry"
    with _criterion(3, label):
        rng = rng_from_seed(1003)
        worst_sum = 0.0
        bad_mode = 0
        bad_sym = 0
        for kind in ("dldl", "sord"):
            for _ in range(1000):
                k = int(rng.integers(2, 40))
                ls = LabelSet(tuple(range(k)))
                t = int(rng.integers(0, k))
                if kind == "dldl":
                    cfg = MethodConfig(family="dldl", sigma=float(rng.uniform(0.2, 6.0)))
                else:
                    cfg = MethodConfig(family="sord", alpha=float(rng.uniform(0.1, 4.0)))
                q = soft_targets(cfg, t, ls)
                worst_sum = max(worst_sum, abs(float(q.sum()) - 1.0))
                if int(q.argmax()) != t:
                    bad_mode += 1
                if np.any(np.diff(q[: t + 1]) < -1e-15) or \
                        np.any(np.diff(q[t:]) > 1e-15):
                    bad_mode += 1
                # symmetric grid: centre label of an odd-sized set
                if k % 2 == 1 and t == k // 2:
                    if not np.allclose(q, q[::-1], atol=1e-14):
                        bad_sym += 1
        ok = worst_sum < 1e-12 and bad_mode == 0 and bad_sym == 0
        _finish(3, label, ok,
                f"worst |sum-1| {worst_sum:.1e}, {bad_mode} mode violations, "
                f"{bad_sym} symmetry violations")


# ---------------------------------------------------------------- 4

def test_criterion_4_split_quality():
    label = "subject-exclusive splits: no leakage, counts within 2%, bins within 0.05"
    with _criterion(4, label):
        spec = SynthSpec(n_identities=50, samples_per_identity=4, dimension=16,
                         age_range=(20, 60), sigma_id=2.0, sigma_obs=0.5, seed=3)
        tab = generate_synthetic(spec)
        fractions = (0.6, 0.2, 0.2)
        overlaps = 0
        worst_frac = 0.0
        worst_bin = 0.0
        for seed in range(20):
            split = make_split(tab, MODE_SUBJECT_EXCLUSIVE, fractions, seed)
            rep = audit_split(tab, split)
            overlaps += sum(rep.overlap_counts.values())
            for got, want in zip(rep.achieved_fractions, fractions):
                worst_frac = max(worst_frac, abs(got - want))
            worst_bin = max(worst_bin, rep.max_bin_deviation)
        ok = overlaps == 0 and worst_frac <= 0.02 and worst_bin <= 0.05 + 1e-9
        _finish(4, label, ok,
                f"total overlap {overlaps}, worst fraction drift {worst_frac:.3f}, "
                f"worst bin deviation {worst_bin:.3f} over 20 seeds")


# ---------------------------------------------------------------- 5

def test_criterion_5_leakage_demonstration():
    label = "random splits flatter identity-heavy data; effect vanishes without it"
    with _criterion(5, label):
        t0 = time.time()
        params = LeakageParams()
        leaky = leakage_demo(params)
        control = leakage_demo(dataclasses.replace(
            params, synth=dataclasses.replace(params.synth, sigma_id=0.0)))
        elapsed = time.time() - t0
        flat_ok = leaky.n_random_lower >= 4
        ctrl_ok = abs(control.mean_gap) < 2.0 * control.std_gap
        ok = flat_ok and ctrl_ok and elapsed < 120
        _finish(5, label, ok,
                f"random lower in {leaky.n_random_lower}/5 seeds, "
                f"control |gap| {abs(control.mean_gap):.3f} < "
                f"2x std {2 * control.std_gap:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------- 6

def test_criterion_6_statistics_oracles():
    label = "rank statistics reproduce the hand-derived oracle values"
    with _criterion(6, label):
        forced = ResultMatrix(
            datasets=("d0", "d1", "d2", "d3"),
            methods=("a", "b", "c"),
            mae=np.array([[1.0, 2.0, 3.0],
                          [1.5, 2.5, 3.5],
                          [0.2, 0.4, 0.6],
                          [5.0, 6.0, 7.0]]),
        )
        s = friedman_test(forced)
        chi2_ok = abs(s.friedman_chi2 - 8.0) < 1e-12
        cdf_ok = abs(chi2_cdf(8.0, 2) - (1.0 - math.exp(-4.0))) < 1e-6
        cd = critical_difference(5, 7, alpha=0.05)
        cd_ok = abs(cd - 2.306) < 1e-3
        tied = friedman_test(ResultMatrix(
            datasets=("d0", "d1", "d2"), methods=("a", "b", "c"),
            mae=np.ones((3, 3))))
        tied_ok = tied.p_value == 1.0 and not tied.significant_pairs
        ok = chi2_ok and cdf_ok and cd_ok and tied_ok
        _finish(6, label, ok,
                f"chi2={s.friedman_chi2}, chi2_cdf(8,2) err "
                f"{abs(chi2_cdf(8.0, 2) - (1 - math.exp(-4))):.1e}, "
                f"CD(5,7)={cd:.4f}, tied p={tied.p_value}")


# ---------------------------------------------------------------- 7

def test_criterion_7_statistics_invariances():
    label = "rank outputs survive monotone row transforms and column permutation"
    with _criterion(7, label):
        rng = rng_from_seed(1007)
        violations = 0
        for trial in range(100):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(3, 7))
            vals = rng.uniform(1.0, 9.0, size=(n, k))
            names = tuple(f"m{j}" for j in range(k))
            ref = friedman_test(ResultMatrix(
                datasets=tuple(f"d{i}" for i in range(n)),
                methods=names, mae=vals))

            warped = vals.copy()
            for r in range(n):
                warped[r] = float(rng.uniform(0.1, 5.0)) * warped[r] \
                    + float(rng.uniform(0.0, 3.0))
            if trial % 2:
                warped = np.exp(warped / warped.max())
            alt = friedman_test(ResultMatrix(
                datasets=tuple(f"d{i}" for i in range(n)),
                methods=names, mae=warped))
            if alt.avg_ranks != ref.avg_ranks \
                    or abs(alt.friedman_chi2 - ref.friedman_chi2) > 1e-9 \
                    or abs(alt.p_value - ref.p_value) > 1e-9 \
                    or alt.significant_pairs != ref.significant_pairs:
                violations += 1

            perm = rng.permutation(k)
            per = friedman_test(ResultMatrix(
                datasets=tuple(f"d{i}" for i in range(n)),
                methods=tuple(names[j] for j in perm), mae=vals[:, perm]))
            if abs(per.friedman_chi2 - ref.friedman_chi2) > 1e-9 \
                    or abs(per.p_value - ref.p_value) > 1e-9 \
                    or abs(per.cd - ref.cd) > 1e-12 \
                    or any(abs(per_rank - ref.avg_ranks[names.index(m)]) > 1e-9
                           for m, per_rank in zip(per.methods, per.avg_ranks)):
                violations += 1
        ok = violations == 0
        _finish(7, label, ok, f"{violations} violations over 100 random matrices")


# ---------------------------------------------------------------- 8

def test_criterion_8_alignment_oracles():
    label = "alignment recovers constructed transforms and beats grid search"
    with _criterion(8, label):
        rng = rng_from_seed(1008)
        base = np.asarray(DEFAULT_TEMPLATE_256.points)
        worst_exact = 0.0
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            for _ in range(50):
                truth = SimilarityTransform(
                    scale=float(rng.uniform(0.3, 3.0)),
                    rotation=float(rng.uniform(-math.pi, math.pi)),
                    tx=float(rng.uniform(-80, 80)),
                    ty=float(rng.uniform(-80, 80)),
                )
                src = truth.inverse().apply(base)
                t = similarity_align(LandmarkSet(points=src), DEFAULT_TEMPLATE_256)
                worst_exact = max(worst_exact,
                                  float(np.abs(t.apply(src) - base).max()))

            beaten = 0
            for _ in range(100):
                src = base + rng.normal(size=base.shape) * 12
                lm = LandmarkSet(points=src)
                t = similarity_align(lm, DEFAULT_TEMPLATE_256)
                ours = alignment_residual(t, lm, DEFAULT_TEMPLATE_256)
                oracle = grid_search_alignment_residual(src, base)
                if ours > oracle + 1e-9:
                    beaten += 1
        ok = worst_exact < 1e-8 and beaten == 0
        _finish(8, label, ok,
                f"worst exact-recovery error {worst_exact:.1e}, "
                f"grid oracle beat us {beaten}/100 times")


# ---------------------------------------------------------------- 9

def _tiny_config(tmp_path, out):
    return ExperimentConfig.from_dict({
        "datasets": [{
            "name": "synthA",
            "synth": {"n_identities": 30, "samples_per_identity": 4,
                      "dimension": 8, "age_range": [20, 40],
                      "sigma_id": 1.5, "sigma_obs": 0.4, "seed": 5},
        }],
        "methods": [{"family": "cross-entropy"}, {"family": "regression"}],
        "split": {"mode": "se", "n_splits": 2, "fractions": [0.6, 0.2, 0.2],
                  "base_seed": 0},
        "train": {"epochs": 5, "seed": 0, "hidden_dims": [16]},
        "output_dir": str(tmp_path / out),
    }, base_dir=tmp_path)


def test_criterion_9_determinism_and_test_fold_isolation(tmp_path):
    label = "reruns are byte-identical and training never reads the test fold"
    with _criterion(9, label):
        run_experiment(_tiny_config(tmp_path, "r1"), jobs=1)
        run_experiment(_tiny_config(tmp_path, "r2"), jobs=1)
        same = (tmp_path / "r1" / "run_records.csv").read_bytes() == \
               (tmp_path / "r2" / "run_records.csv").read_bytes()

        spec = SynthSpec(n_identities=30, samples_per_identity=4, dimension=8,
                         age_range=(20, 40), sigma_id=1.5, sigma_obs=0.4, seed=5)
        tab = generate_synthetic(spec)
        split = make_split(tab, MODE_SUBJECT_EXCLUSIVE, (0.6, 0.2, 0.2), 0)
        requested = []
        orig_feat, orig_ages = tab.features_for, tab.ages_for
        tab.features_for = lambda ids: (requested.extend(ids), orig_feat(ids))[1]
        tab.ages_for = lambda ids: (requested.extend(ids), orig_ages(ids))[1]
        try:
            train(tab, [split], [MethodConfig(family="cross-entropy")],
                  [TrainConfig(epochs=3, seed=0, hidden_dims=(16,))])
        finally:
            del tab.features_for
            del tab.ages_for
        touched_test = set(requested) & set(split.test)
        within = set(requested) <= set(split.train) | set(split.val)
        ok = same and within and not touched_test and bool(requested)
        _finish(9, label, ok,
                f"byte-identical={same}, trainer touched "
                f"{len(touched_test)} test samples")


# ---------------------------------------------------------------- 10

@pytest.fixture(scope="module")
def grid_10(tmp_path_factory):
    """The criterion-10 grid, run once: (config, result, seconds, output dir)."""
    out = tmp_path_factory.mktemp("grid10") / "grid"
    cfg = ExperimentConfig.from_dict({
        "datasets": [{
            "name": "synthA",
            "synth": {"n_identities": 60, "samples_per_identity": 4,
                      "dimension": 16, "age_range": [20, 60],
                      "sigma_id": 2.0, "sigma_obs": 0.5, "seed": 11},
        }],
        "methods": [{"family": f} for f in FAMILIES],
        "split": {"mode": "se", "n_splits": 5,
                  "fractions": [0.6, 0.2, 0.2], "base_seed": 0},
        "train": {"epochs": 40, "seed": 0},
        "output_dir": str(out),
    })
    t0 = time.time()
    result = run_experiment(cfg, jobs=1)
    return cfg, result, time.time() - t0, out


def test_criterion_10_full_grid_and_rank_report(grid_10):
    label = "9-method grid completes under budget and yields a full rank report"
    with _criterion(10, label):
        _, result, elapsed, out = grid_10

        complete = not result.failures and len(result.records) == 45
        splits = load_result_matrix(out / "mae_splits.csv")
        summary = friedman_test(splits, alpha=0.05)
        report_ok = (
            len(summary.avg_ranks) == 9
            and all(np.isfinite(r) for r in summary.avg_ranks)
            and np.isfinite(summary.cd)
            and 0.0 <= summary.p_value <= 1.0
        )
        verdict = "rejected" if summary.p_value < 0.05 else "not rejected"
        ok = complete and report_ok and elapsed < 600
        _finish(10, label, ok,
                f"45 records in {elapsed:.0f}s, p={summary.p_value:.4f}, "
                f"null {verdict}, CD={summary.cd:.2f}")


def test_every_family_beats_the_train_fold_median_on_the_grid(grid_10):
    """Mean test MAE per family over the 5 splits, against predicting the
    train fold's median age for every test sample of the same splits."""
    cfg, result, _, _ = grid_10
    table = cfg.datasets[0].load()
    splits = make_split_series(table, cfg.split.mode, cfg.split.fractions,
                               cfg.split.base_seed, cfg.split.n_splits)
    median = np.mean([
        np.mean(np.abs(table.ages_for(s.test) - np.median(table.ages_for(s.train))))
        for s in splits
    ])
    means = {m: np.mean([r.test_mae for r in result.records if r.method == m])
             for m in {r.method for r in result.records}}
    assert len(means) == 9 and len(result.records) == 45
    losers = {m: round(v, 3) for m, v in means.items() if not v < median}
    assert not losers, f"no better than the train-fold median ({median:.3f}): {losers}"
