"""Split construction, stratification quality, audits, and the JSON sidecar."""

import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    reference_greedy, reference_objective, reference_random_folds, reference_repair,
    reference_split_json,
)

from ordibench import splitting
from ordibench.data import LabelSet, ParseError, DatasetTable, ValidationError
from ordibench.splitting import (
    FOLD_NAMES,
    MODE_RANDOM,
    MODE_SUBJECT_EXCLUSIVE,
    SplitSpec,
    age_bin_edges,
    audit_split,
    load_split,
    make_split,
    make_split_series,
    save_split,
)

FRACTIONS = (0.6, 0.2, 0.2)


def tiny_table(n_idents=3, per=1, ages=None):
    ages = ages or [20, 30, 40]
    n = n_idents * per
    return DatasetTable("tiny", LabelSet(tuple(sorted(set(ages)))), 2,
                        [f"s{i}_{j}" for i in range(n_idents) for j in range(per)],
                        [f"p{i}" for i in range(n_idents) for _ in range(per)],
                        [ages[k % len(ages)] for k in range(n)], np.zeros((n, 2)))


def identity_of_fold(table, split):
    names = table.identities()
    return {fold: {names[c] for c in table.identity_codes[table.rows_for(ids)]}
            for fold, ids in split.folds().items()}


def test_spec_validation_rejects_overlap_and_bad_fractions():
    with pytest.raises(ValidationError):
        SplitSpec(mode=MODE_RANDOM, seed=0, fractions=(0.5, 0.2, 0.2),
                  train=("a",), val=("b",), test=("c",))
    with pytest.raises(ValidationError):
        SplitSpec(mode=MODE_RANDOM, seed=0, fractions=FRACTIONS,
                  train=("a", "b"), val=("b",), test=("c",))
    with pytest.raises(ValidationError):
        SplitSpec(mode="bogus", seed=0, fractions=FRACTIONS,
                  train=("a",), val=("b",), test=("c",))
    for fold in ("train", "val", "test"):
        folds = {"train": ("a",), "val": ("b",), "test": ("c",), fold: ()}
        with pytest.raises(ValidationError, match=f"fold '{fold}' is empty"):
            SplitSpec(mode=MODE_RANDOM, seed=0, fractions=FRACTIONS, **folds)


def test_random_split_partitions_every_sample(small_table):
    split = make_split(small_table, MODE_RANDOM, FRACTIONS, seed=0)
    members = split.train + split.val + split.test
    assert sorted(members) == sorted(small_table.sample_ids)
    assert len(split.train) == 120 and len(split.val) == 40 and len(split.test) == 40


def test_random_split_is_deterministic(small_table):
    a = make_split(small_table, MODE_RANDOM, FRACTIONS, seed=5)
    b = make_split(small_table, MODE_RANDOM, FRACTIONS, seed=5)
    assert a == b
    c = make_split(small_table, MODE_RANDOM, FRACTIONS, seed=6)
    assert a != c


def test_random_split_usually_splits_an_identity(small_table):
    hits = 0
    for seed in range(5):
        split = make_split(small_table, MODE_RANDOM, FRACTIONS, seed=seed)
        rep = audit_split(small_table, split)
        if rep.total_overlap > 0:
            hits += 1
    assert hits >= 4


def test_three_singleton_identities_forced_assignment():
    tab = tiny_table(3, 1)
    split = make_split(tab, MODE_SUBJECT_EXCLUSIVE, (1 / 3, 1 / 3, 1 / 3), seed=2)
    folds = identity_of_fold(tab, split)
    assert all(len(v) == 1 for v in folds.values())
    assert folds["train"] | folds["val"] | folds["test"] == {"p0", "p1", "p2"}


def test_subject_exclusive_never_splits_identities(small_table):
    for seed in range(20):
        split = make_split(small_table, MODE_SUBJECT_EXCLUSIVE, FRACTIONS, seed=seed)
        folds = identity_of_fold(small_table, split)
        assert not folds["train"] & folds["val"]
        assert not folds["train"] & folds["test"]
        assert not folds["val"] & folds["test"]


def test_subject_exclusive_counts_within_two_percent(small_table):
    n = len(small_table)
    for seed in range(20):
        split = make_split(small_table, MODE_SUBJECT_EXCLUSIVE, FRACTIONS, seed=seed)
        for fold, frac in zip(FOLD_NAMES, FRACTIONS):
            got = len(split.folds()[fold]) / n
            assert abs(got - frac) <= 0.02, (seed, fold, got)


def test_subject_exclusive_age_histograms_track_global(small_table):
    for seed in range(20):
        split = make_split(small_table, MODE_SUBJECT_EXCLUSIVE, FRACTIONS, seed=seed)
        rep = audit_split(small_table, split)
        assert rep.max_bin_deviation <= 0.05 + 1e-9, (seed, rep.max_bin_deviation)


def test_bin_edges_one_per_label_until_32():
    assert age_bin_edges(tuple(range(20, 26))) is None
    coarse = age_bin_edges(tuple(range(0, 101)))
    assert coarse is not None and len(coarse) == 11
    assert coarse[0] == 0 and coarse[-1] == 100


def test_fraction_drift_warns():
    """One oversized identity forces the train fold far from 60%."""
    tab = DatasetTable("lumpy", LabelSet(tuple(range(20, 26))), 2,
                       [f"big{j}" for j in range(5)] + ["a", "b"],
                       ["whale"] * 5 + ["p1", "p2"], [20, 21, 22, 23, 24, 21, 22],
                       np.zeros((7, 2)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        make_split(tab, MODE_SUBJECT_EXCLUSIVE, FRACTIONS, seed=0)
    drift = [w for w in caught if "fraction" in str(w.message).lower()]
    assert drift
    # the warning points at make_split's caller, not at splitting.py
    assert all(w.filename == __file__ for w in drift)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        make_split(tab, MODE_RANDOM, FRACTIONS, seed=0)
    assert not caught


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
@pytest.mark.parametrize("sizes", [(10, 1, 1), (20, 1, 1, 1, 1)])
def test_subject_exclusive_split_leaves_no_fold_empty(sizes):
    """Greedy puts the big identity in train and every singleton, each of its
    own age, in val; repair moves no identity into an empty fold. A split
    with no empty fold exists, and every seed must find one."""
    ages = [20 + 10 * i for i in range(len(sizes))]
    tab = DatasetTable("uneven", LabelSet(tuple(ages)), 2,
                       [f"p{i}_{j}" for i, size in enumerate(sizes) for j in range(size)],
                       [f"p{i}" for i, size in enumerate(sizes) for _ in range(size)],
                       [age for age, size in zip(ages, sizes) for _ in range(size)],
                       np.zeros((sum(sizes), 2)))
    for seed in range(20):
        split = make_split(tab, MODE_SUBJECT_EXCLUSIVE, FRACTIONS, seed=seed)
        assert all(split.folds().values()), (seed, [len(f) for f in split.folds().values()])
        assert audit_split(tab, split).is_subject_exclusive


def test_series_first_element_matches_single_call(small_table):
    series = make_split_series(small_table, MODE_SUBJECT_EXCLUSIVE, FRACTIONS,
                               base_seed=7, n=3)
    assert len(series) == 3
    assert series[0] == make_split(small_table, MODE_SUBJECT_EXCLUSIVE, FRACTIONS, seed=7)
    assert series[0] != series[1]


def test_series_n1_is_singleton(small_table):
    series = make_split_series(small_table, MODE_RANDOM, FRACTIONS, base_seed=4, n=1)
    assert series == [make_split(small_table, MODE_RANDOM, FRACTIONS, seed=4)]


def test_audit_flags_planted_overlap():
    tab = tiny_table(2, 2, ages=[20, 30])
    split = SplitSpec(mode=MODE_RANDOM, seed=0, fractions=(0.5, 0.25, 0.25),
                      train=("s0_0", "s1_0"), val=("s0_1",), test=("s1_1",))
    rep = audit_split(tab, split)
    assert rep.total_overlap >= 2
    assert not rep.is_subject_exclusive
    assert "p0" in rep.overlap_identities["train/val"]
    assert "p1" in rep.overlap_identities["train/test"]


def test_audit_clean_on_subject_exclusive(small_table):
    split = make_split(small_table, MODE_SUBJECT_EXCLUSIVE, FRACTIONS, seed=1)
    rep = audit_split(small_table, split)
    assert rep.total_overlap == 0
    assert rep.is_subject_exclusive
    assert sum(rep.fold_sizes.values()) == len(small_table)
    text = rep.to_text()
    assert "train" in text and "overlap" in text


def test_split_round_trip(tmp_path, small_table):
    split = make_split(small_table, MODE_SUBJECT_EXCLUSIVE, FRACTIONS, seed=9)
    path = save_split(split, tmp_path / "s.json")
    back = load_split(path)
    assert back == split


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_SUBJECT_EXCLUSIVE])
def test_save_split_bytes_match_hand_built_payload(tmp_path, small_table, mode):
    for seed in range(3):
        split = make_split(small_table, mode, FRACTIONS, seed=seed)
        path = save_split(split, tmp_path / "s.json")
        assert path.read_text() == reference_split_json(split)


@pytest.mark.parametrize("n", [7, 31, 121])
def test_random_split_matches_permutation_cut(n):
    tab = tiny_table(n, 1, ages=list(range(20, 20 + n)))
    for fractions in [FRACTIONS, (0.5, 0.3, 0.2)]:
        for seed in range(6):
            split = make_split(tab, MODE_RANDOM, fractions, seed=seed)
            targets = [len(fold) for fold in (split.train, split.val, split.test)]
            assert targets == splitting._target_counts(n, fractions)
            assert (split.train, split.val, split.test) == reference_random_folds(
                tab.sample_ids, targets, seed)


def test_load_split_round_trips_a_random_split(tmp_path, small_table):
    split = make_split(small_table, MODE_RANDOM, FRACTIONS, seed=0)
    path = save_split(split, tmp_path / "s.json")
    assert load_split(path) == split


def test_load_split_rejects_overlapping_folds(tmp_path, small_table):
    split = make_split(small_table, MODE_RANDOM, FRACTIONS, seed=0)
    path = save_split(split, tmp_path / "s.json")
    payload = json.loads(path.read_text())
    payload["val"][0] = payload["train"][0]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError):
        load_split(path)


@pytest.mark.parametrize("edit, named", [
    (lambda payload: {**payload, "table": "synthA"}, r"unknown .*\['table'\]"),
    (lambda payload: {k: v for k, v in payload.items() if k != "seed"}, r"lacks .*\['seed'\]"),
], ids=["unknown", "missing"])
def test_load_split_refuses_unknown_and_missing_keys(tmp_path, small_table, edit, named):
    split = make_split(small_table, MODE_RANDOM, FRACTIONS, seed=0)
    path = save_split(split, tmp_path / "s.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValidationError, match=named):
        load_split(path)


def test_load_split_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_split(p)


def repair_table(n_idents, seed, ages=(20, 40), sizes=(1, 8)):
    """n_idents identities of sizes[0]..sizes[1] rows each, ages clustered per
    identity within the label set ages[0]..ages[1]."""
    rng = np.random.default_rng(seed)
    lo, hi = ages
    sample_ids, identity_ids, row_ages = [], [], []
    for i in range(n_idents):
        base = int(rng.integers(lo, hi + 1))
        for j in range(int(rng.integers(sizes[0], sizes[1] + 1))):
            sample_ids.append(f"s{i}_{j}")
            identity_ids.append(f"p{i}")
            row_ages.append(int(np.clip(base + rng.integers(-2, 3), lo, hi)))
    return DatasetTable("repair", LabelSet(tuple(range(lo, hi + 1))), 2, sample_ids,
                        identity_ids, row_ages, np.zeros((len(sample_ids), 2)))


def oracle_repair(sizes, hists, fold, targets, hist_targets, max_passes=200):
    """reference_repair behind the array signature of _repair_assignment."""
    idents = [f"i{k}" for k in range(len(sizes))]
    groups = {k: range(int(c)) for k, c in zip(idents, sizes)}
    ident_hist = dict(zip(idents, hists))
    assignment = dict(zip(idents, fold.tolist()))
    fold_counts = np.zeros(3)
    fold_hists = np.zeros_like(hist_targets)
    for k, f in assignment.items():
        fold_counts[f] += len(groups[k])
        fold_hists[f] += ident_hist[k]
    reference_repair(assignment, idents, groups, ident_hist, fold_counts, fold_hists,
                     targets, hist_targets, max_passes)
    fold[:] = [assignment[k] for k in idents]


def _repair_cases():
    """(table, split seed, fractions): exact bins (<= 32 labels) and coarse
    bins, sizes 1-8 and all equal, tables of 3-5 identities (folds of one
    identity, which no move may empty), and two tables of 120 identities."""
    thirds = (1 / 3, 1 / 3, 1 / 3)
    # in the first three, moving a fold's only identity out would improve the
    # objective: only the guard keeps the fold
    tiny = [repair_table(3, 303), repair_table(3, 310, ages=(16, 80)),
            repair_table(4, 411, ages=(16, 80), sizes=(2, 8))]
    tiny += [repair_table(n, 100 * n + t, ages=(20, 40) if t % 2 else (16, 80), sizes=(2, 8))
             for n in (3, 4, 5) for t in range(3)]
    for tab in tiny:
        for seed in range(3):
            yield tab, seed, FRACTIONS
            yield tab, seed, thirds
    for n in (8, 14, 24, 36):
        for t, (ages, sizes) in enumerate([((20, 40), (1, 8)), ((16, 80), (1, 8)),
                                           ((20, 51), (3, 3)), ((16, 80), (2, 2))]):
            tab = repair_table(n, 1000 * n + t, ages=ages, sizes=sizes)
            for seed in range(8):
                yield tab, seed, FRACTIONS if seed % 2 else thirds
    yield repair_table(120, 7, ages=(16, 80)), 1000, FRACTIONS
    yield repair_table(120, 8, ages=(20, 40)), 1001, FRACTIONS


@pytest.mark.parametrize("n_bins", [1, 5, 10, 17, 32])
def test_candidate_objectives_are_bitwise_those_of_one_state(n_bins):
    rng = np.random.default_rng(n_bins)
    n = 40
    sizes = rng.integers(1, 9, n).astype(float)
    hists = np.zeros((n, n_bins))
    for i, c in enumerate(sizes):
        np.add.at(hists[i], rng.integers(0, n_bins, int(c)), 1.0)
    fold = rng.integers(0, 3, n)
    targets = np.array([60.0, 50.0, 70.0])
    hist_targets = np.outer([0.3, 0.25, 0.45], hists.sum(axis=0) + 0.1)
    global_norm = hist_targets.sum(axis=0) / sizes.sum()
    fold_counts = np.bincount(fold, weights=sizes, minlength=3)
    fold_hists = np.zeros((3, n_bins))
    np.add.at(fold_hists, fold, hists)
    for a, b, dst in splitting._candidate_chunks(fold):
        src = fold[a]
        dc = sizes[a] if b is None else sizes[a] - sizes[b]
        counts, cand = splitting._candidate_states(hists, fold_counts, fold_hists, a, b, src, dst,
                                                   fold_counts[src] - dc, fold_counts[dst] + dc)
        states = list(zip(counts.copy(), cand.copy()))
        objs = splitting._objectives(counts, cand, targets, hist_targets, global_norm)
        for k, (c, h) in enumerate(states):
            got = tuple(float(v[k]) for v in objs)
            assert got == reference_objective(c, h, targets, hist_targets, global_norm)


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
def test_repair_matches_one_step_per_scan_oracle(monkeypatch):
    """The array repair picks the same step as scoring each candidate in a
    loop, on every pass: equal assignments and equal splits."""
    new_repair = splitting._repair_assignment
    n_cases = 0
    for tab, seed, fr in _repair_cases():
        seen = []

        def oracle(sizes, hists, fold, targets, hist_targets):
            seen.append((sizes, hists, fold.copy(), targets, hist_targets))
            oracle_repair(sizes, hists, fold, targets, hist_targets)
            seen.append(fold.copy())

        monkeypatch.setattr(splitting, "_repair_assignment", oracle)
        expected = make_split(tab, MODE_SUBJECT_EXCLUSIVE, fr, seed)
        monkeypatch.setattr(splitting, "_repair_assignment", new_repair)
        assert make_split(tab, MODE_SUBJECT_EXCLUSIVE, fr, seed) == expected, (len(tab), seed)

        (sizes, hists, fold, targets, hist_targets), oracle_fold = seen
        new_repair(sizes, hists, fold, targets, hist_targets)
        np.testing.assert_array_equal(fold, oracle_fold)
        n_cases += 1
    assert n_cases >= 200


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
def test_repair_in_small_sweeps_and_blocks_matches_the_oracle(monkeypatch):
    """Sweeps of 64 candidates scored in blocks of 5: many sweeps and blocks
    a pass, and the best changes between blocks of one sweep. The folds are
    the oracle's, and every block holds only candidates whose count gap can
    still win: at most the best gap found before the block."""
    repair, objectives, chunks = (splitting._repair_assignment, splitting._objectives,
                                  splitting._candidate_chunks)
    monkeypatch.setattr(splitting, "_SCAN_CHUNK", 64)
    monkeypatch.setattr(splitting, "_REPAIR_CHUNK", 5)
    state = {"sweeping": False, "best": None, "blocks": 0, "sweeps": 0}

    def checking_objectives(counts, *rest):
        objs = objectives(counts, *rest)
        if state["sweeping"]:  # a block; the best gap is the least scored so far
            assert 0 < len(counts) <= 5
            assert objs[0].max() <= state["best"] + 1e-9
            state["best"] = min(state["best"], float(objs[0].min()))
            state["blocks"] += 1
        else:  # the state a pass starts from
            state["best"] = float(objs[0][0])
        return objs

    def counting_chunks(fold):
        state["sweeping"] = True
        for sweep in chunks(fold):
            assert 0 < len(sweep[0]) <= 64
            state["sweeps"] += 1
            yield sweep
        state["sweeping"] = False

    captured = []
    monkeypatch.setattr(splitting, "_repair_assignment", lambda *args: captured.append(args))
    for tab, seed, fr in _repair_cases():
        make_split(tab, MODE_SUBJECT_EXCLUSIVE, fr, seed)
    monkeypatch.setattr(splitting, "_objectives", checking_objectives)
    monkeypatch.setattr(splitting, "_candidate_chunks", counting_chunks)
    for sizes, hists, greedy, targets, hist_targets in captured:
        fold, ref = greedy.copy(), greedy.copy()
        repair(sizes, hists, fold, targets, hist_targets)
        oracle_repair(sizes, hists, ref, targets, hist_targets)
        np.testing.assert_array_equal(fold, ref)
    assert len(captured) >= 200
    assert state["blocks"] > 2 * len(captured) and state["sweeps"] > 2 * len(captured)


def test_repair_respects_max_passes(monkeypatch):
    """Pass budget as in the oracle: each pass takes at most one step."""
    repair = splitting._repair_assignment
    captured = []
    monkeypatch.setattr(splitting, "_repair_assignment", lambda *args: captured.append(args))
    make_split(repair_table(24, 5, ages=(20, 40)), MODE_SUBJECT_EXCLUSIVE, FRACTIONS, 3)
    sizes, hists, greedy, targets, hist_targets = captured[0]
    for passes in (0, 1, 2, 5):
        fold, ref = greedy.copy(), greedy.copy()
        repair(sizes, hists, fold, targets, hist_targets, max_passes=passes)
        oracle_repair(sizes, hists, ref, targets, hist_targets, max_passes=passes)
        np.testing.assert_array_equal(fold, ref)
        assert (fold != greedy).sum() <= 2 * passes


@pytest.mark.parametrize("n_idents,ages,limit_mb", [
    (120, (20, 51), 2.0),   # 32 labels: one bin per label, the widest candidate rows
    (600, (16, 80), 3.0),   # an n x n float array alone would be 2.9 MB
])
def test_split_peak_memory_is_bounded(n_idents, ages, limit_mb):
    """The repair scores candidates in fixed-size chunks, so a split's peak
    allocation does not grow with the square of the identity count."""
    tab = repair_table(n_idents, 0, ages=ages)
    tracemalloc.start()
    try:
        make_split(tab, MODE_SUBJECT_EXCLUSIVE, FRACTIONS, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6, peak


def test_repair_scores_fewer_candidates_than_it_scans(monkeypatch):
    """Once the folds sit at their target counts, every step that changes a
    count loses on the first objective key: the repair scans it but never
    builds or scores its histograms."""
    objectives, chunks = splitting._objectives, splitting._candidate_chunks
    scored, scanned = [], []

    def counting_objectives(counts, *rest):
        scored.append(len(counts))
        return objectives(counts, *rest)

    def counting_chunks(fold):
        for a, b, dst in chunks(fold):
            scanned.append(len(a))
            yield a, b, dst

    monkeypatch.setattr(splitting, "_objectives", counting_objectives)
    monkeypatch.setattr(splitting, "_candidate_chunks", counting_chunks)
    make_split(repair_table(120, 7, ages=(16, 80)), MODE_SUBJECT_EXCLUSIVE, FRACTIONS, 1000)
    # 868 of 14419 here; without the count-gap filter every scanned step is scored
    assert 0 < 4 * sum(scored) < sum(scanned)


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
def test_repair_matches_the_oracle_while_counts_miss_their_targets(monkeypatch):
    """Identities of 3 rows cannot meet fold sizes that are not multiples of
    3, so the greedy assignment leaves a count gap, and the repair still
    takes steps that change counts at an equal gap: the same steps as the
    oracle's."""
    repair = splitting._repair_assignment
    captured = []
    monkeypatch.setattr(splitting, "_repair_assignment", lambda *args: captured.append(args))
    for n in (13, 15, 17):
        for seed in range(4):
            make_split(repair_table(n, 50 + n, sizes=(3, 3)), MODE_SUBJECT_EXCLUSIVE,
                       (0.5, 0.25, 0.25), seed)
    counts_changed = 0
    for sizes, hists, greedy, targets, hist_targets in captured:
        greedy_counts = np.bincount(greedy, weights=sizes, minlength=3)
        assert np.abs(greedy_counts - targets).sum() > 0
        fold, ref = greedy.copy(), greedy.copy()
        repair(sizes, hists, fold, targets, hist_targets)
        oracle_repair(sizes, hists, ref, targets, hist_targets)
        np.testing.assert_array_equal(fold, ref)
        counts_changed += not np.array_equal(np.bincount(fold, weights=sizes, minlength=3),
                                             greedy_counts)
    assert counts_changed >= 3


def test_repair_closes_a_count_gap_that_only_moves_can_close():
    """With equal sizes no swap changes a count: the moves into the folds
    below target are the only steps that improve, and they are taken."""
    sizes = np.full(10, 3.0)
    hists = 3.0 * np.eye(5)[np.arange(10) % 5]  # identity k's rows all in bin k % 5
    fold = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])  # counts 12, 9, 9
    targets = np.asarray(splitting._target_counts(30, FRACTIONS), dtype=float)  # 18, 6, 6
    hist_targets = np.outer(FRACTIONS, hists.sum(axis=0))
    ref = fold.copy()
    splitting._repair_assignment(sizes, hists, fold, targets, hist_targets)
    oracle_repair(sizes, hists, ref, targets, hist_targets)
    np.testing.assert_array_equal(fold, ref)
    np.testing.assert_array_equal(np.bincount(fold, weights=sizes, minlength=3), targets)


def _greedy_cases():
    """(table, split seed, fractions): exact bins (<= 32 labels) and coarse
    bins at 0.6/0.2/0.2 and 0.5/0.25/0.25, and tables of equal-size
    identities, some of a single age, where fold costs tie."""
    for t, (n, ages, sizes) in enumerate([(30, (20, 40), (1, 8)), (120, (20, 51), (1, 8)),
                                          (60, (16, 80), (1, 8)), (120, (16, 80), (1, 8)),
                                          (48, (20, 40), (3, 3)), (90, (16, 80), (2, 2)),
                                          (36, (30, 30), (2, 2)), (45, (30, 30), (1, 1))]):
        tab = repair_table(n, 500 + t, ages=ages, sizes=sizes)
        for seed in range(3):
            for fr in (FRACTIONS, (0.5, 0.25, 0.25), (1 / 3, 1 / 3, 1 / 3)):
                yield tab, seed, fr


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
def test_greedy_assignment_matches_the_numpy_reference(monkeypatch):
    """The greedy first assignment, Python floats for the count gaps and the
    choice, gives the folds of the all-numpy loop, ties included."""
    captured = []
    monkeypatch.setattr(splitting, "_repair_assignment", lambda *args: captured.append(args))
    for tab, seed, fr in _greedy_cases():
        make_split(tab, MODE_SUBJECT_EXCLUSIVE, fr, seed)
    for sizes, hists, greedy, targets, hist_targets in captured:
        np.testing.assert_array_equal(greedy, reference_greedy(sizes, hists, targets, hist_targets))
    # 45 one-row identities of one age at equal fractions: the folds below
    # target tie on every identity, and the lowest of them wins
    sizes, hists, greedy, targets, hist_targets = captured[-1]
    assert sizes.tolist() == [1.0] * 45 and hists.shape == (45, 1)
    assert greedy.tolist() == [0] * 15 + [1] * 15 + [2] * 15


# sha256 of the folds of PINNED_CASES, computed with the splitter as it was
# before sweeps, scalar greedy arithmetic and identity codes: those changes
# keep every split
PINNED_SPLITS = "1f134430f8035d9a7cc29f42e37cbd31a0ecad022993563ab5b5057385c1acbf"
PINNED_CASES = [  # (identities, table and split seed, ages, sizes, fractions)
    (3, 303, (20, 40), (1, 8), FRACTIONS),
    (5, 11, (16, 80), (2, 8), (0.5, 0.25, 0.25)),
    (14, 12, (20, 40), (1, 8), FRACTIONS),
    (24, 13, (16, 80), (1, 8), (0.5, 0.25, 0.25)),
    (36, 14, (20, 51), (3, 3), FRACTIONS),
    (40, 15, (16, 80), (2, 2), (0.5, 0.25, 0.25)),
    (60, 16, (20, 40), (1, 8), FRACTIONS),
    (90, 17, (20, 51), (1, 8), (0.5, 0.25, 0.25)),
    (120, 7, (16, 80), (1, 8), FRACTIONS),
    (120, 8, (20, 40), (1, 8), FRACTIONS),
    (150, 19, (16, 80), (4, 4), (0.5, 0.25, 0.25)),
    (200, 20, (16, 80), (1, 8), FRACTIONS),
]


@pytest.mark.filterwarnings("ignore:subject-exclusive split deviates")
def test_split_digest_is_pinned():
    digest = hashlib.sha256()
    for n, seed, ages, sizes, fr in PINNED_CASES:
        split = make_split(repair_table(n, seed, ages=ages, sizes=sizes),
                           MODE_SUBJECT_EXCLUSIVE, fr, seed)
        digest.update(json.dumps([split.train, split.val, split.test]).encode())
    assert digest.hexdigest() == PINNED_SPLITS


def test_audit_names_overlapping_identities_sorted_by_name():
    """Identities appear as p2, p0, p1 but the overlap lists them by name."""
    idents = ("p2", "p0", "p1")
    tab = DatasetTable("leaky", LabelSet((20, 21, 22)), 2,
                       [f"{ident}_{k}" for ident in idents for k in range(3)],
                       [ident for ident in idents for _ in range(3)],
                       [20 + k for _ in idents for k in range(3)], np.zeros((9, 2)))
    split = SplitSpec(mode=MODE_RANDOM, seed=0, fractions=FRACTIONS,
                      train=("p2_0", "p0_0", "p1_0"), val=("p2_1", "p1_1"),
                      test=("p2_2", "p0_1", "p0_2", "p1_2"))
    rep = audit_split(tab, split)
    assert rep.overlap_identities == {"train/val": ("p1", "p2"),
                                      "train/test": ("p0", "p1", "p2"),
                                      "val/test": ("p1", "p2")}
    assert rep.overlap_counts == {"train/val": 2, "train/test": 3, "val/test": 2}
