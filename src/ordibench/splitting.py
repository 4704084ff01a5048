"""Train/val/test splitting with identity hygiene, plus split audits.

Two modes are supported. "random" scatters individual samples across folds,
which is exactly the protocol that lets identity information leak between
training and evaluation. "subject-exclusive" keeps every identity inside a
single fold and stratifies by age, so the evaluation measures generalization
to unseen people.
"""

from __future__ import annotations

import json
import warnings
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import DatasetTable, ParseError, ValidationError, _from_json, _read_json
from .util import rng_from_seed

__all__ = [
    "MODE_SUBJECT_EXCLUSIVE",
    "MODE_RANDOM",
    "FOLD_NAMES",
    "parse_mode",
    "SplitConfig",
    "SplitSpec",
    "AuditReport",
    "make_split",
    "make_split_series",
    "audit_split",
    "save_split",
    "load_split",
    "age_bin_edges",
]

MODE_SUBJECT_EXCLUSIVE = "subject-exclusive"
MODE_RANDOM = "random"
_MODES = (MODE_SUBJECT_EXCLUSIVE, MODE_RANDOM)
_MODE_ALIASES = {"se": MODE_SUBJECT_EXCLUSIVE, MODE_SUBJECT_EXCLUSIVE: MODE_SUBJECT_EXCLUSIVE,
                 "rs": MODE_RANDOM, MODE_RANDOM: MODE_RANDOM}
FOLD_NAMES = ("train", "val", "test")

# One bin per distinct label while the label set is small; coarse fixed-width
# binning beyond that so stratification targets stay estimable.
_MAX_EXACT_BINS = 32
_COARSE_BINS = 10
_FRACTION_WARN_TOL = 0.02


def parse_mode(text) -> str:
    """The split mode named by se, rs or a full mode name, in any case."""
    mode = _MODE_ALIASES.get(str(text).lower())
    if mode is None:
        raise ValidationError(f"unknown mode {text!r}; use se or rs")
    return mode


def _check_fractions(fractions) -> tuple[float, float, float]:
    fr = tuple(float(f) for f in fractions)
    if len(fr) != 3:
        raise ValidationError("fractions must have exactly three entries")
    if any(not (0.0 < f < 1.0) for f in fr):
        raise ValidationError("each fraction must lie strictly between 0 and 1")
    if abs(sum(fr) - 1.0) > 1e-9:
        raise ValidationError("fractions must sum to 1")
    return fr  # type: ignore[return-value]


@dataclass(frozen=True)
class SplitConfig:
    """How a grid splits each dataset, and the defaults wherever a config or
    command leaves a setting out: split i is made with seed base_seed + i."""

    mode: str = MODE_SUBJECT_EXCLUSIVE
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    n_splits: int = 5
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", parse_mode(self.mode))
        object.__setattr__(self, "fractions", _check_fractions(self.fractions))
        if self.n_splits < 1:
            raise ValidationError("n_splits must be >= 1")


@dataclass(frozen=True)
class SplitSpec:
    """A concrete three-way partition of sample ids: three non-empty folds
    with no id twice."""

    mode: str
    seed: int
    fractions: tuple[float, float, float]
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValidationError(f"unknown split mode {self.mode!r}")
        object.__setattr__(self, "fractions", _check_fractions(self.fractions))
        folds = [tuple(self.train), tuple(self.val), tuple(self.test)]
        members = [set(fold) for fold in folds]
        for name, fold, seen in zip(FOLD_NAMES, folds, members):
            if not fold:
                raise ValidationError(f"fold {name!r} is empty")
            if len(seen) != len(fold):
                raise ValidationError(f"fold {name!r} contains duplicate sample ids")
        object.__setattr__(self, "train", folds[0])
        object.__setattr__(self, "val", folds[1])
        object.__setattr__(self, "test", folds[2])
        for i in range(3):
            for j in range(i + 1, 3):
                both = members[i] & members[j]
                if both:
                    raise ValidationError(
                        f"folds {FOLD_NAMES[i]!r} and {FOLD_NAMES[j]!r} share sample ids: "
                        f"{sorted(both)[:5]}"
                    )

    def folds(self) -> dict[str, tuple[str, ...]]:
        return {"train": self.train, "val": self.val, "test": self.test}

    def __len__(self) -> int:
        return len(self.train) + len(self.val) + len(self.test)


def age_bin_edges(label_values: tuple[int, ...]) -> np.ndarray | None:
    """Edges for age histograms; None means one bin per distinct label."""
    if len(label_values) <= _MAX_EXACT_BINS:
        return None
    return np.linspace(label_values[0], label_values[-1], _COARSE_BINS + 1)


# each table's (row bins, bin count), kept while the table lives: a series of
# splits and their audits bin the same ages once
_AGE_BINS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _age_bins(table: DatasetTable) -> tuple[np.ndarray, int]:
    """Each row's age-bin index (read-only) and the number of bins."""
    bins = _AGE_BINS.get(table)
    if bins is None:
        edges = age_bin_edges(table.label_set.values)
        if edges is None:
            idx, n_bins = table.label_set.indices_of(table.ages), len(table.label_set)
        else:
            idx = np.clip(np.searchsorted(edges, table.ages, side="right") - 1, 0, len(edges) - 2)
            idx, n_bins = idx.astype(int), len(edges) - 1
        idx.flags.writeable = False
        bins = _AGE_BINS[table] = (idx, n_bins)
    return bins


def _target_counts(n: int, fractions: tuple[float, float, float]) -> list[int]:
    """Integer fold sizes by largest-remainder apportionment."""
    raw = [n * f for f in fractions]
    base = [int(np.floor(r)) for r in raw]
    remainder = n - sum(base)
    order = sorted(range(3), key=lambda i: (raw[i] - base[i]), reverse=True)
    for i in order[:remainder]:
        base[i] += 1
    return base


def make_split(table: DatasetTable, mode: str, fractions, seed: int) -> SplitSpec:
    """Partition a table into train/val/test folds.

    In random mode a seeded permutation deals the rows out to the folds.
    In subject-exclusive mode whole identities are assigned greedily, largest
    first, to the fold where they least overshoot the target sample count and
    most improve the fold's age histogram match. Ties in identity size are
    broken by a seeded shuffle and cost ties by fold order, so equal seeds
    give equal splits; every fold gets at least one identity.
    """
    if mode not in _MODES:
        raise ValidationError(f"unknown split mode {mode!r}")
    fr = _check_fractions(fractions)
    n = len(table)
    if n == 0:
        raise ValidationError("cannot split an empty table")
    targets = _target_counts(n, fr)
    if min(targets) < 1:
        raise ValidationError("degenerate fractions: a fold would receive zero samples")
    rng = rng_from_seed(seed)

    if mode == MODE_RANDOM:
        sample_fold = np.empty(n, dtype=np.intp)
        sample_fold[rng.permutation(n)] = np.repeat([0, 1, 2], targets)
    else:
        sample_fold = _subject_exclusive_folds(table, fr, targets, rng)
        achieved = (np.bincount(sample_fold, minlength=3) / n).tolist()
        worst = max(abs(a - f) for a, f in zip(achieved, fr))
        if worst > _FRACTION_WARN_TOL:
            warnings.warn(
                f"subject-exclusive split deviates from requested fractions by {worst:.3f} "
                "(identity sizes may not permit a closer fit)",
                stacklevel=2,
            )
    ids = table.sample_ids
    folds = [tuple(ids[r] for r in np.flatnonzero(sample_fold == f).tolist()) for f in range(3)]
    return SplitSpec(mode, int(seed), fr, *folds)


def _subject_exclusive_folds(table: DatasetTable, fr: tuple[float, float, float],
                             targets: list[int], rng: np.random.Generator) -> np.ndarray:
    """The fold of each row when whole identities are assigned to folds."""
    codes = table.identity_codes
    n_idents = len(table.identities())
    if n_idents < 3:
        raise ValidationError(
            f"subject-exclusive split needs at least 3 identities, got {n_idents}"
        )
    bin_idx, n_bins = _age_bins(table)
    global_hist = np.bincount(bin_idx, minlength=n_bins).astype(float)

    counts = np.bincount(codes, minlength=n_idents)
    size_of = counts.tolist()
    idents = list(range(n_idents))
    rng.shuffle(idents)
    idents.sort(key=lambda k: -size_of[k])  # stable: seeded order breaks ties

    sizes = counts[idents].astype(float)
    position = np.empty(n_idents, dtype=np.intp)
    position[idents] = np.arange(n_idents)
    owner = position[codes]
    hists = np.bincount(owner * n_bins + bin_idx, minlength=n_idents * n_bins)
    hists = hists.reshape(n_idents, n_bins).astype(float)
    count_targets = np.asarray(targets, dtype=float)
    hist_targets = np.outer(fr, global_hist)
    fold = _greedy_assignment(sizes, hists, count_targets, hist_targets)
    # repair never fills a fold that greedy left empty: move into it the
    # last-assigned (smallest) identity of the fold with the most identities
    while (members := np.bincount(fold, minlength=3)).min() == 0:
        fold[np.flatnonzero(fold == members.argmax())[-1]] = members.argmin()
    _repair_assignment(sizes, hists, fold, count_targets, hist_targets)
    return fold[owner]


def _greedy_assignment(sizes: np.ndarray, hists: np.ndarray, count_targets: np.ndarray,
                       hist_targets: np.ndarray) -> np.ndarray:
    """Fold of each identity, given in assignment order: the fold whose
    count gap plus histogram gap grows least (drops most), the lowest fold on
    a tie.

    The histogram gaps are numpy sums over one (3, bins) scratch; the count
    gaps and the choice are Python float arithmetic, the same IEEE
    operations in the same order as the array form (np.argmin included).
    """
    targets = count_targets.tolist()
    fold_counts = [0.0, 0.0, 0.0]
    fold_hists = np.zeros_like(hist_targets)
    scratch = np.empty_like(hist_targets)
    # each fold's count gap and histogram gap so far, which for an empty
    # fold are its targets; an assignment changes only the chosen fold's,
    # to its *_next value
    count_now = list(targets)
    gap_now = hist_targets.sum(axis=1).tolist()
    fold = np.empty(len(sizes), dtype=np.intp)
    for i, c in enumerate(sizes.tolist()):
        h = hists[i]
        # marginal change of each fold's histogram gap: negative while the
        # identity's age bins still have room under the fold's target
        np.add(fold_hists, h, out=scratch)
        scratch -= hist_targets
        # np.add.reduce is ndarray.sum without its Python wrapper
        gap_next = np.add.reduce(np.abs(scratch, out=scratch), axis=1).tolist()
        # marginal change of each fold's count gap: -c while below target,
        # +c once the identity would overshoot it
        count_next = [abs(fold_counts[g] + c - targets[g]) for g in range(3)]
        cost = [(count_next[g] - count_now[g]) + (gap_next[g] - gap_now[g]) for g in range(3)]
        f = cost.index(min(cost))
        fold[i] = f
        fold_counts[f] += c
        fold_hists[f] += h
        count_now[f] = count_next[f]
        gap_now[f] = gap_next[f]
    return fold


# Candidate steps enumerated per sweep of a repair pass (1-D index arrays
# only), and candidate steps scored per block: a block's scratch is about
# _REPAIR_CHUNK x 3 x bins floats, whatever the number of identities.
_SCAN_CHUNK = 1 << 13
_REPAIR_CHUNK = 1024
_OTHER_FOLDS = np.array([[1, 2], [0, 2], [0, 1]])
_TOL = 1e-9
_MAX_PASSES = 200  # a repair stops after this many passes, improving or not


def _repair_assignment(sizes: np.ndarray, hists: np.ndarray, fold: np.ndarray,
                       targets: np.ndarray, hist_targets: np.ndarray) -> None:
    """Hill-climb the greedy assignment with moves and swaps, in place.

    sizes (n,) and hists (n, bins) are the identities' sample counts and age
    histograms; fold (n,) is the fold of each and is updated; targets (3,)
    are whole-number fold sizes. A step is accepted when it
    lexicographically improves (total count gap, worst normalized bin
    deviation, total histogram gap) by more than 1e-9; equal-size swaps
    leave counts untouched and exist purely to trade ages between folds.
    Each pass scores every move (identity by identity, target folds
    ascending, never emptying a fold) and then every swap of identities
    i < j in different folds (row by row), and takes the best improving
    step; ties go to the earliest in that scan order, so the result is
    deterministic.

    Only candidates that can still win are scored in full. A pass walks the
    candidates in sweeps of up to _SCAN_CHUNK and computes each one's count
    gap from the two fold counts it changes. The candidates of a sweep whose
    gap is at most the running best's gap + 1e-9 survive; their histograms
    are built and scored in blocks of up to _REPAIR_CHUNK, and each block
    is filtered again against the best as it stands when the block is
    reached. This drops nothing that could be taken: counts and targets are
    whole numbers, so every count gap is exact, a new best never has a
    larger gap than the old one, and a candidate whose gap exceeds the
    best's loses on the first key whatever its histograms. Blocks keep scan
    order, so the steps taken are those of scoring every candidate in turn.
    """
    goals = (targets, hist_targets, hist_targets.sum(axis=0) / float(sizes.sum()))
    for _ in range(_MAX_PASSES):
        # counts and histograms are whole numbers: any summation order is exact
        fold_counts = np.bincount(fold, weights=sizes, minlength=3)
        fold_hists = np.zeros_like(hist_targets)
        np.add.at(fold_hists, fold, hists)
        current = _objectives(fold_counts[None], fold_hists[None].copy(), *goals)
        best = tuple(float(v[0]) for v in current)
        gap_now, fold_gaps = best[0], np.abs(fold_counts - targets)
        step = None
        for a, b, dst in _candidate_chunks(fold):
            src = fold[a]
            dc = sizes[a] if b is None else sizes[a] - sizes[b]
            src_count, dst_count = fold_counts[src] - dc, fold_counts[dst] + dc
            count_gap = (gap_now - fold_gaps[src] - fold_gaps[dst]
                         + np.abs(src_count - targets[src]) + np.abs(dst_count - targets[dst]))
            survivors = np.flatnonzero(count_gap <= best[0] + _TOL)
            for s in range(0, len(survivors), _REPAIR_CHUNK):
                keep = survivors[s:s + _REPAIR_CHUNK]
                keep = keep[count_gap[keep] <= best[0] + _TOL]
                if keep.size == 0:
                    continue
                ka, ksrc, kdst = a[keep], src[keep], dst[keep]
                kb = None if b is None else b[keep]
                states = _candidate_states(hists, fold_counts, fold_hists, ka, kb, ksrc, kdst,
                                           src_count[keep], dst_count[keep])
                objs = _objectives(*states, *goals)
                k = _first_better(objs, best, 0)
                while k >= 0:
                    best = tuple(float(v[k]) for v in objs)
                    step = (ka[k], -1 if kb is None else kb[k], kdst[k])
                    k = _first_better(objs, best, k + 1)
        if step is None:
            break
        i, j, f1 = step
        if j >= 0:
            fold[j] = fold[i]
        fold[i] = f1


def _candidate_chunks(fold: np.ndarray):
    """The steps of one repair pass in scan order, in sweeps of up to
    _SCAN_CHUNK.

    Yields (a, b, dst) index arrays: identity a goes to fold dst; b is None
    for moves, and for swaps the identity that goes the other way.
    """
    members = np.bincount(fold, minlength=3)
    movable = np.flatnonzero(members[fold] > 1)
    a = np.repeat(movable, 2)
    dst = _OTHER_FOLDS[fold[movable]].ravel()
    for s in range(0, len(a), _SCAN_CHUNK):
        yield a[s:s + _SCAN_CHUNK], None, dst[s:s + _SCAN_CHUNK]
    # pair p of the row-major upper triangle is (i, j) with
    # row_start[i] <= p < row_start[i + 1]
    n = len(fold)
    row_len = np.arange(n - 1, 0, -1)
    row_start = np.concatenate(([0], np.cumsum(row_len)))
    n_pairs = int(row_start[-1])
    for p0 in range(0, n_pairs, _SCAN_CHUNK):
        p1 = min(p0 + _SCAN_CHUNK, n_pairs)
        # the sweep's pairs lie in rows r0 .. r1
        r0, r1 = np.searchsorted(row_start, [p0, p1 - 1], side="right") - 1
        i = np.repeat(np.arange(r0, r1 + 1), row_len[r0:r1 + 1])
        i = i[p0 - row_start[r0]:p1 - row_start[r0]]
        j = np.arange(p0, p1) - row_start[i] + i + 1
        to = fold[j]
        cross = np.flatnonzero(fold[i] != to)
        if cross.size:
            yield i[cross], j[cross], to[cross]


def _candidate_states(hists, fold_counts, fold_hists, a, b, src, dst, src_count, dst_count):
    """Fold counts (m, 3) and histograms (m, 3, bins) after each candidate
    step, given the new counts of the two folds it changes."""
    rows = np.arange(len(a))
    counts = np.repeat(fold_counts[None], len(a), axis=0)
    counts[rows, src] = src_count
    counts[rows, dst] = dst_count
    dh = hists[a] if b is None else hists[a] - hists[b]
    cand = np.repeat(fold_hists[None], len(a), axis=0)
    cand[rows, src] -= dh
    cand[rows, dst] += dh
    return counts, cand


def _objectives(counts, cand, targets, hist_targets, global_norm):
    """(count gap, max bin deviation, histogram gap) of each candidate state.

    The same elementwise operations as for a single (3, bins) state, a
    maximum is exact in any order, and the histogram gap is a sum over a
    contiguous 3 * bins row, which numpy adds in the same pairwise order as
    the flat sum of one state: every value is bitwise what scoring the
    candidates one by one gives. Overwrites cand.
    """
    count_gap = np.abs(counts - targets).sum(axis=1)
    dev = cand / np.maximum(counts, 1.0)[:, :, None]
    dev -= global_norm
    max_dev = np.abs(dev, out=dev).reshape(len(dev), -1).max(axis=1)
    cand -= hist_targets
    hist_gap = np.abs(cand, out=cand).reshape(len(cand), -1).sum(axis=1)
    return count_gap, max_dev, hist_gap


def _first_better(objs, best, start: int) -> int:
    """Index of the first candidate from start on that lexicographically beats
    best by more than _TOL, or -1."""
    count_gap, max_dev, hist_gap = (v[start:] for v in objs)
    c, d, h = best
    better = (count_gap < c - _TOL) | (
        (count_gap <= c + _TOL)
        & ((max_dev < d - _TOL) | ((max_dev <= d + _TOL) & (hist_gap < h - _TOL)))
    )
    hits = np.flatnonzero(better)
    return start + int(hits[0]) if hits.size else -1


def make_split_series(table: DatasetTable, mode: str, fractions, base_seed: int, n: int) -> list[SplitSpec]:
    """n independent splits with seeds base_seed .. base_seed + n - 1."""
    if n < 1:
        raise ValidationError("series length must be >= 1")
    return [make_split(table, mode, fractions, base_seed + i) for i in range(n)]


@dataclass(frozen=True)
class AuditReport:
    """Leakage and stratification diagnostics for one split of one table."""

    fold_sizes: dict[str, int]
    achieved_fractions: tuple[float, float, float]
    overlap_counts: dict[str, int]
    overlap_identities: dict[str, tuple[str, ...]]
    age_histograms: dict[str, tuple[float, ...]]
    global_histogram: tuple[float, ...]
    max_bin_deviation: float

    @property
    def total_overlap(self) -> int:
        return sum(self.overlap_counts.values())

    @property
    def is_subject_exclusive(self) -> bool:
        return self.total_overlap == 0

    def to_dict(self) -> dict:
        return {
            "fold_sizes": dict(self.fold_sizes),
            "achieved_fractions": list(self.achieved_fractions),
            "overlap_counts": dict(self.overlap_counts),
            "overlap_identities": {k: list(v) for k, v in self.overlap_identities.items()},
            "age_histograms": {k: list(v) for k, v in self.age_histograms.items()},
            "global_histogram": list(self.global_histogram),
            "max_bin_deviation": self.max_bin_deviation,
            "is_subject_exclusive": self.is_subject_exclusive,
        }

    def to_text(self) -> str:
        lines = ["split audit"]
        lines.append(
            "  fold sizes: "
            + ", ".join(f"{k}={self.fold_sizes[k]}" for k in FOLD_NAMES)
        )
        lines.append(
            "  achieved fractions: "
            + ", ".join(f"{f:.4f}" for f in self.achieved_fractions)
        )
        for pair, count in self.overlap_counts.items():
            detail = ""
            if count:
                names = ", ".join(self.overlap_identities[pair][:8])
                detail = f" ({names})"
            lines.append(f"  identity overlap {pair}: {count}{detail}")
        lines.append(f"  max age-bin deviation: {self.max_bin_deviation:.4f}")
        verdict = "subject-exclusive" if self.is_subject_exclusive else "LEAKY"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def audit_split(table: DatasetTable, split: SplitSpec) -> AuditReport:
    """Measure identity overlap between folds and age-histogram fidelity.

    Raises ValidationError when the split references sample ids the table
    does not contain.
    """
    folds = split.folds()
    rows = {name: table.rows_for(ids) for name, ids in folds.items()}

    names = table.identities()
    ident_codes = {name: np.unique(table.identity_codes[rows[name]]) for name in FOLD_NAMES}
    overlap_counts: dict[str, int] = {}
    overlap_identities: dict[str, tuple[str, ...]] = {}
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = FOLD_NAMES[i], FOLD_NAMES[j]
            both = np.intersect1d(ident_codes[a], ident_codes[b], assume_unique=True)
            shared = sorted(names[c] for c in both.tolist())
            key = f"{a}/{b}"
            overlap_counts[key] = len(shared)
            overlap_identities[key] = tuple(shared)

    bin_idx, n_bins = _age_bins(table)
    global_counts = np.bincount(bin_idx, minlength=n_bins).astype(float)
    global_hist = global_counts / len(table)

    histograms: dict[str, tuple[float, ...]] = {}
    max_dev = 0.0
    for name in FOLD_NAMES:
        idx = rows[name]
        hist = np.bincount(bin_idx[idx], minlength=n_bins).astype(float) / len(idx)
        histograms[name] = tuple(float(h) for h in hist)
        max_dev = max(max_dev, float(np.max(np.abs(hist - global_hist))))

    sizes = {name: int(len(rows[name])) for name in FOLD_NAMES}
    achieved = tuple(sizes[name] / len(split) for name in FOLD_NAMES)
    return AuditReport(
        fold_sizes=sizes,
        achieved_fractions=achieved,  # type: ignore[arg-type]
        overlap_counts=overlap_counts,
        overlap_identities=overlap_identities,
        age_histograms=histograms,
        global_histogram=tuple(float(h) for h in global_hist),
        max_bin_deviation=max_dev,
    )


def save_split(split: SplitSpec, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(asdict(split), indent=2) + "\n")
    return path


def load_split(path) -> SplitSpec:
    """Read a split file: a JSON object with exactly SplitSpec's fields.

    Raises ParseError when the file is not a UTF-8 JSON object, and
    ValidationError, naming the key, for an unknown or missing key or a
    value of the wrong type, and naming the fold, for an empty fold or an id
    in two places; every message starts with the path. Whether the ids
    belong to a table, and whether its identities leak between folds, is
    audit_split's to check.
    """
    path = Path(path)
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: a split file must be a JSON object")
    try:
        return _from_json(SplitSpec, "split", payload)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
