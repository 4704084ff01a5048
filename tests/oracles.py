"""Independent brute-force references used by several test modules."""

import csv
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np


def grid_search_alignment_residual(src, dst, final_step=1e-3):
    """Best sum-of-squares residual over (rotation, scale, tx, ty) found by
    coarse-to-fine exhaustive search, refined until every axis step drops
    below final_step.

    Knows nothing about the closed-form solver; it only evaluates candidate
    transforms. The x and y translation axes decouple in the objective
    (||e||^2 = sum ex^2 + sum ey^2), which keeps the sweep 2x2-separable
    and cheap.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    span = max(np.abs(src).max(), np.abs(dst).max(), 1.0)
    t_half = 3.0 * span

    theta = np.linspace(-np.pi, np.pi, 25)
    scale = np.geomspace(0.05, 8.0, 17)
    txs = np.linspace(-t_half, t_half, 17)
    tys = np.linspace(-t_half, t_half, 17)

    best = np.inf
    for _ in range(40):
        ct = np.cos(theta)
        st = np.sin(theta)
        rx = (src[:, 0][None, None, :] * ct[:, None, None]
              - src[:, 1][None, None, :] * st[:, None, None]) * scale[None, :, None]
        ry = (src[:, 0][None, None, :] * st[:, None, None]
              + src[:, 1][None, None, :] * ct[:, None, None]) * scale[None, :, None]
        ex = rx[:, :, None, :] + txs[None, None, :, None] - dst[:, 0]
        ey = ry[:, :, None, :] + tys[None, None, :, None] - dst[:, 1]
        sx = (ex ** 2).sum(-1)            # (n_theta, n_scale, n_tx)
        sy = (ey ** 2).sum(-1)            # (n_theta, n_scale, n_ty)
        total = sx[:, :, :, None] + sy[:, :, None, :]
        idx = np.unravel_index(int(total.argmin()), total.shape)
        best = float(total[idx])

        th0, s0, x0, y0 = theta[idx[0]], scale[idx[1]], txs[idx[2]], tys[idx[3]]
        dth = (theta[1] - theta[0]) if len(theta) > 1 else 0.0
        ds = max(scale[min(idx[1] + 1, len(scale) - 1)] - s0,
                 s0 - scale[max(idx[1] - 1, 0)])
        dx = (txs[1] - txs[0]) if len(txs) > 1 else 0.0
        dy = (tys[1] - tys[0]) if len(tys) > 1 else 0.0
        if max(dth, ds, dx, dy) <= final_step:
            break
        theta = np.linspace(th0 - dth, th0 + dth, 11)
        scale = np.linspace(max(s0 - ds, 1e-6), s0 + ds, 11)
        txs = np.linspace(x0 - dx, x0 + dx, 11)
        tys = np.linspace(y0 - dy, y0 + dy, 11)
    return best


def reference_objective(fold_counts, fold_hists, targets, hist_targets, global_norm):
    """(total count gap, worst normalized bin deviation, total histogram gap)
    of one (3,) / (3, bins) fold state."""
    count_gap = float(np.abs(fold_counts - targets).sum())
    safe = np.maximum(fold_counts, 1.0)
    max_dev = float(np.abs(fold_hists / safe[:, None] - global_norm).max())
    hist_gap = float(np.abs(fold_hists - hist_targets).sum())
    return count_gap, max_dev, hist_gap


def reference_repair(assignment, idents, groups, ident_hist, fold_counts,
                     fold_hists, targets, hist_targets, max_passes=200):
    """Split repair as one objective() call per candidate step, in place.

    Scans every move (identity by identity, target folds ascending; a fold
    keeps at least one identity) and then every swap of identities i < j in
    different folds, row by row, and takes the best step of the scan: a
    candidate replaces the running best only when better() says so, so ties
    go to the earliest. One step per pass, until no step improves.
    assignment maps identity -> fold and is updated, as are fold_counts and
    fold_hists; groups[k] needs only a length (the identity's sample count)
    and ident_hist[k] is its age histogram.
    """
    total = float(fold_counts.sum())
    global_norm = hist_targets.sum(axis=0) / total

    def objective() -> tuple[float, float, float]:
        return reference_objective(fold_counts, fold_hists, targets, hist_targets, global_norm)

    def better(new: tuple[float, float, float], old: tuple[float, float, float]) -> bool:
        for a, b in zip(new, old):
            if a < b - 1e-9:
                return True
            if a > b + 1e-9:
                return False
        return False

    fold_members = [sum(1 for f in assignment.values() if f == k) for k in range(3)]

    def apply_move(ident: str, f1: int) -> None:
        f0 = assignment[ident]
        c, h = len(groups[ident]), ident_hist[ident]
        fold_counts[f0] -= c
        fold_counts[f1] += c
        fold_hists[f0] -= h
        fold_hists[f1] += h
        assignment[ident] = f1
        fold_members[f0] -= 1
        fold_members[f1] += 1

    def apply_swap(a: str, b: str) -> None:
        fa, fb = assignment[a], assignment[b]
        ca, ha = len(groups[a]), ident_hist[a]
        cb, hb = len(groups[b]), ident_hist[b]
        fold_counts[fa] += cb - ca
        fold_counts[fb] += ca - cb
        fold_hists[fa] += hb - ha
        fold_hists[fb] += ha - hb
        assignment[a], assignment[b] = fb, fa

    for _ in range(max_passes):
        current = objective()
        best_step = None
        best_obj = current
        for ident in idents:
            f0 = assignment[ident]
            if fold_members[f0] <= 1:
                continue  # never empty a fold
            c = len(groups[ident])
            h = ident_hist[ident]
            for f1 in range(3):
                if f1 == f0:
                    continue
                fold_counts[f0] -= c
                fold_counts[f1] += c
                fold_hists[f0] -= h
                fold_hists[f1] += h
                cand = objective()
                fold_counts[f0] += c
                fold_counts[f1] -= c
                fold_hists[f0] += h
                fold_hists[f1] -= h
                if better(cand, best_obj):
                    best_obj = cand
                    best_step = ("move", ident, f1)
        for i, a in enumerate(idents):
            fa = assignment[a]
            ca, ha = len(groups[a]), ident_hist[a]
            for b in idents[i + 1:]:
                fb = assignment[b]
                if fa == fb:
                    continue
                cb, hb = len(groups[b]), ident_hist[b]
                fold_counts[fa] += cb - ca
                fold_counts[fb] += ca - cb
                fold_hists[fa] += hb - ha
                fold_hists[fb] += ha - hb
                cand = objective()
                fold_counts[fa] -= cb - ca
                fold_counts[fb] -= ca - cb
                fold_hists[fa] -= hb - ha
                fold_hists[fb] -= ha - hb
                if better(cand, best_obj):
                    best_obj = cand
                    best_step = ("swap", a, b)
        if best_step is None:
            break
        if best_step[0] == "move":
            apply_move(best_step[1], best_step[2])
        else:
            apply_swap(best_step[1], best_step[2])


def reference_sigmoid(x):
    """Logistic function in its two-branch form: exp(-x) where x >= 0,
    exp(x) elsewhere, each scattered through a boolean mask."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_greedy(sizes, hists, count_targets, hist_targets):
    """Greedy first assignment of a subject-exclusive split, all in numpy:
    each identity, in the given order, goes to the fold whose count gap plus
    histogram gap grows least; np.argmin breaks ties toward the lowest fold.
    Returns the (n,) fold array."""
    fold_counts = np.zeros(3)
    fold_hists = np.zeros_like(hist_targets)
    count_now = np.abs(fold_counts - count_targets)
    gap_now = np.abs(fold_hists - hist_targets).sum(axis=1)
    fold = np.empty(len(sizes), dtype=np.intp)
    for i, (c, h) in enumerate(zip(sizes, hists)):
        count_next = np.abs(fold_counts + c - count_targets)
        gap_next = np.abs(fold_hists + h - hist_targets).sum(axis=1)
        f = int(np.argmin((count_next - count_now) + (gap_next - gap_now)))
        fold[i] = f
        fold_counts[f] += c
        fold_hists[f] += h
        count_now[f] = count_next[f]
        gap_now[f] = gap_next[f]
    return fold


@dataclass(eq=False)
class _ReferenceSample:
    sample_id: str
    identity_id: str
    age: int
    features: np.ndarray


def reference_table(label_set, dimension, rows):
    """Table validation one row at a time, as DatasetTable did before it
    worked on columns. rows are (sample_id, identity_id, age, features)
    tuples. Returns a namespace with the table's columns; raises, for the
    first faulty row, what that code raised."""
    from ordibench.data import ValidationError

    samples = tuple(_ReferenceSample(*row) for row in rows)
    if dimension <= 0:
        raise ValidationError("dimension must be positive")
    seen: set[str] = set()
    codes: dict[str, int] = {}  # identity -> its first-appearance rank
    row_codes = []
    for s in samples:
        if s.sample_id in seen:
            raise ValidationError(f"duplicate sample_id {s.sample_id!r}")
        seen.add(s.sample_id)
        if not s.identity_id:
            raise ValidationError(f"sample {s.sample_id!r} has an empty identity_id")
        row_codes.append(codes.setdefault(s.identity_id, len(codes)))
        s.age = int(s.age)
        if s.age not in label_set:
            raise ValidationError(
                f"sample {s.sample_id!r}: age {s.age} is outside the label set"
            )
        feats = np.array(s.features, dtype=float)
        if feats.shape != (dimension,):
            raise ValidationError(
                f"sample {s.sample_id!r}: expected {dimension} features, "
                f"got shape {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
            raise ValidationError(f"sample {s.sample_id!r}: non-finite feature value")
        feats.flags.writeable = False
        s.features = feats
    if samples:
        mat = np.stack([s.features for s in samples]).astype(float)
    else:
        mat = np.zeros((0, dimension))
    return SimpleNamespace(
        label_set=label_set,
        sample_ids=tuple(s.sample_id for s in samples),
        identities=tuple(codes),
        identity_codes=np.array(row_codes, dtype=np.intp),
        feature_matrix=mat,
        ages=np.asarray([s.age for s in samples], dtype=float),
    )


def reference_load(path, label_set=None):
    """A CSV manifest read one row at a time, with one float() per cell, as
    load_dataset did before it read columns."""
    from ordibench.data import LabelSet, ParseError

    _FIXED_COLUMNS = ["sample_id", "identity_id", "age"]
    path = Path(path)
    with path.open("r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty manifest")
    header = rows[0]
    if header[: len(_FIXED_COLUMNS)] != _FIXED_COLUMNS:
        raise ParseError(f"{path}: header must start with {','.join(_FIXED_COLUMNS)}")
    dimension = len(header) - len(_FIXED_COLUMNS)
    if dimension < 1:
        raise ParseError(f"{path}: no feature columns")
    expected = [f"f{i}" for i in range(dimension)]
    if header[len(_FIXED_COLUMNS):] != expected:
        raise ParseError(f"{path}: feature columns must be f0..f{dimension - 1} in order")

    samples: list[tuple] = []
    ages: list[int] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}: row {lineno}: expected {len(header)} fields, got {len(row)}")
        sid, ident, age_text = row[0], row[1], row[2]
        try:
            age = int(age_text)
        except ValueError:
            raise ParseError(f"{path}: row {lineno}: age {age_text!r} is not an integer") from None
        try:
            feats = np.asarray([float(v) for v in row[3:]], dtype=float)
        except ValueError:
            raise ParseError(f"{path}: row {lineno}: non-numeric feature value") from None
        samples.append((sid, ident, age, feats))
        ages.append(age)

    if label_set is None:
        if not ages:
            raise ParseError(f"{path}: manifest has a header but no rows")
        label_set = LabelSet(tuple(sorted(set(ages))))
    return reference_table(label_set, dimension, samples)


def reference_matrices(records, contexts, methods, n_splits):
    """The mean, spread and per-split matrices of a complete grid, one cell
    at a time: the mean and sample standard deviation (0.0 for one split)
    of each (context, method) list of test MAEs, and one row per context and
    split, context-major."""
    by_cell = {}
    for r in records:
        by_cell.setdefault((r.dataset, r.method), {})[r.split_index] = r.test_mae
    mean = np.zeros((len(contexts), len(methods)))
    std = np.zeros_like(mean)
    for i, c in enumerate(contexts):
        for j, m in enumerate(methods):
            vals = np.asarray([by_cell[(c, m)][s] for s in range(n_splits)], dtype=float)
            mean[i, j] = float(vals.mean())
            std[i, j] = float(vals.std(ddof=1)) if n_splits > 1 else 0.0
    splits = np.asarray([[by_cell[(c, m)][s] for m in methods]
                         for c in contexts for s in range(n_splits)])
    return mean, std, splits
