"""Tables, label sets, the synthetic generator, and the CSV manifest format."""

import numpy as np
import pytest

from ordibench.data import (
    DatasetTable,
    LabelSet,
    ParseError,
    Sample,
    SynthSpec,
    ValidationError,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from ordibench.util import rng_from_seed


def make_table(rows, dim=2, label_set=None):
    samples = tuple(
        Sample(sample_id=sid, identity_id=ident, age=age,
               features=np.asarray(feats, dtype=float))
        for sid, ident, age, feats in rows
    )
    if label_set is None:
        label_set = LabelSet(tuple(sorted({int(s.age) for s in samples})))
    return DatasetTable(name="t", label_set=label_set, dimension=dim, samples=samples)


def test_label_set_requires_strictly_increasing_ints():
    ls = LabelSet((20, 25, 30))
    assert ls.min_label == 20 and ls.max_label == 30
    assert ls.span == 10
    with pytest.raises(ValidationError):
        LabelSet((20, 20, 30))
    with pytest.raises(ValidationError):
        LabelSet((30, 20))
    with pytest.raises(ValidationError):
        LabelSet(())


def test_label_set_lookup_and_normalization():
    ls = LabelSet(tuple(range(0, 101)))
    assert ls.index_of(57) == 57
    assert ls.normalize(0) == 0.0
    assert ls.normalize(100) == 1.0
    assert ls.denormalize(0.5) == 50.0
    for age in (0, 13, 99, 100):
        assert ls.denormalize(ls.normalize(age)) == pytest.approx(age)
    with pytest.raises(ValidationError):
        ls.index_of(101)


def test_label_set_indices_of_matches_index_of():
    ls = LabelSet((16, 18, 19, 25, 40, 41, 80))
    ages = np.array([16, 80, 18.0, 19.9, 25.5, 41, 40, 16.2, 80.5, 18])
    np.testing.assert_array_equal(ls.indices_of(ages), [ls.index_of(int(a)) for a in ages])
    for outside in (17, 15.5, 81, 24.9, -16):
        with pytest.raises(ValidationError, match="not in the label set"):
            ls.indices_of(np.append(ages, outside))


def test_label_set_contains_and_array():
    ls = LabelSet((1, 3, 9))
    assert 3 in ls and 2 not in ls
    np.testing.assert_array_equal(ls.as_array(), [1.0, 3.0, 9.0])


def test_table_rejects_duplicate_sample_ids():
    with pytest.raises(ValidationError, match="duplicate"):
        make_table([("a", "p1", 20, [0, 0]), ("a", "p2", 25, [1, 1])])


def test_table_rejects_age_outside_label_set():
    ls = LabelSet((20, 25))
    with pytest.raises(ValidationError, match="outside"):
        make_table([("a", "p1", 30, [0, 0])], label_set=ls)


def test_table_rejects_bad_feature_shape_and_nonfinite():
    with pytest.raises(ValidationError):
        make_table([("a", "p1", 20, [0, 0, 0])], dim=2)
    with pytest.raises(ValidationError, match="non-finite"):
        make_table([("a", "p1", 20, [0, np.nan])], dim=2)


def test_table_accessors_and_immutability():
    tab = make_table([
        ("a", "p1", 20, [0.0, 1.0]),
        ("b", "p1", 25, [2.0, 3.0]),
        ("c", "p2", 30, [4.0, 5.0]),
    ])
    assert len(tab) == 3
    assert tab.sample_ids == ("a", "b", "c")
    assert tab.row_of("b") == 1
    np.testing.assert_array_equal(tab.features_for(("c", "a")), [[4, 5], [0, 1]])
    np.testing.assert_array_equal(tab.ages_for(("b",)), [25.0])
    assert tab.identities() == ("p1", "p2")
    assert tab.by_identity()["p1"] == (0, 1)
    with pytest.raises(ValueError):
        tab.feature_matrix[0, 0] = 99.0
    with pytest.raises(ValidationError):
        tab.row_of("nope")
    with pytest.raises(ValidationError, match="unknown sample_id 'nope'"):
        tab.rows_for(("a", "nope"))


def test_identity_codes_follow_first_appearance():
    tab = make_table([(f"s{k}", ident, 20 + k, [0.0, 0.0])
                      for k, ident in enumerate(["p2", "p1", "p2", "p3", "p1"])])
    assert tab.identities() == ("p2", "p1", "p3")
    codes = tab.identity_codes
    assert codes.dtype == np.intp
    assert codes.tolist() == [0, 1, 0, 2, 1]
    with pytest.raises(ValueError):
        codes[0] = 1
    assert tab.by_identity() == {"p2": (0, 2), "p1": (1, 4), "p3": (3,)}
    empty = DatasetTable(name="e", label_set=LabelSet((20,)), dimension=2, samples=())
    assert empty.identity_codes.shape == (0,) and empty.identities() == ()
    assert empty.by_identity() == {}


def test_identity_index_matches_a_walk_over_the_samples():
    rng = np.random.default_rng(4)
    idents = [f"id{int(k)}" for k in rng.integers(0, 40, 300)]
    tab = make_table([(f"s{k}", ident, 20 + int(rng.integers(0, 5)), [0.0, 0.0])
                      for k, ident in enumerate(idents)])
    walk: dict[str, list[int]] = {}
    for row, s in enumerate(tab.samples):
        walk.setdefault(s.identity_id, []).append(row)
    assert tab.identities() == tuple(walk)
    assert tab.by_identity() == {k: tuple(v) for k, v in walk.items()}
    assert [tab.identities()[c] for c in tab.identity_codes] == idents
    assert tab.sample_ids == tuple(s.sample_id for s in tab.samples)


def test_synth_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(n_identities=0, samples_per_identity=4, dimension=4,
                  age_range=(20, 60), sigma_id=1.0, sigma_obs=0.1, seed=0)
    with pytest.raises(ValidationError):
        SynthSpec(n_identities=2, samples_per_identity=1, dimension=4,
                  age_range=(60, 20), sigma_id=1.0, sigma_obs=0.1, seed=0)
    with pytest.raises(ValidationError):
        SynthSpec(n_identities=2, samples_per_identity=1, dimension=4,
                  age_range=(20, 60), sigma_id=-1.0, sigma_obs=0.1, seed=0)


def test_generate_counts_and_ranges():
    spec = SynthSpec(n_identities=50, samples_per_identity=4, dimension=16,
                     age_range=(20, 60), sigma_id=2.0, sigma_obs=0.5, seed=0)
    tab = generate_synthetic(spec)
    assert len(tab) == 200
    assert len(tab.identities()) == 50
    assert all(len(rows) == 4 for rows in tab.by_identity().values())
    assert tab.ages.min() >= 20 and tab.ages.max() <= 60
    assert tab.label_set.values == tuple(range(20, 61))


def test_generate_is_deterministic():
    spec = SynthSpec(n_identities=5, samples_per_identity=3, dimension=8,
                     age_range=(20, 40), sigma_id=1.0, sigma_obs=0.2, seed=11)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    np.testing.assert_array_equal(a.feature_matrix, b.feature_matrix)
    np.testing.assert_array_equal(a.ages, b.ages)
    assert a.sample_ids == b.sample_ids
    c = generate_synthetic(SynthSpec(n_identities=5, samples_per_identity=3,
                                     dimension=8, age_range=(20, 40),
                                     sigma_id=1.0, sigma_obs=0.2, seed=12))
    assert not np.array_equal(a.feature_matrix, c.feature_matrix)


def test_zero_noise_features_are_a_function_of_age():
    """With both noise terms off, same age implies same feature vector."""
    spec = SynthSpec(n_identities=2, samples_per_identity=2, dimension=6,
                     age_range=(20, 30), sigma_id=0.0, sigma_obs=0.0, seed=4)
    tab = generate_synthetic(spec)
    by_age = {}
    for s in tab.samples:
        if s.age in by_age:
            np.testing.assert_array_equal(s.features, by_age[s.age])
        else:
            by_age[s.age] = s.features


def test_identity_jitter_keeps_ages_near_base():
    spec = SynthSpec(n_identities=30, samples_per_identity=5, dimension=4,
                     age_range=(20, 60), sigma_id=1.0, sigma_obs=0.1, seed=9)
    tab = generate_synthetic(spec)
    for ident, rows in tab.by_identity().items():
        ages = tab.ages[list(rows)]
        assert ages.max() - ages.min() <= 2


def test_same_identity_nearest_neighbor_majority():
    """Identity noise dominating observation noise makes same-identity samples cluster."""
    spec = SynthSpec(n_identities=50, samples_per_identity=4, dimension=16,
                     age_range=(20, 60), sigma_id=2.0, sigma_obs=0.5, seed=3)
    tab = generate_synthetic(spec)
    x = tab.feature_matrix
    idents = np.array([s.identity_id for s in tab.samples])
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    nn = d2.argmin(axis=1)
    same = float((idents[nn] == idents).mean())
    assert same > 0.5


def test_manifest_round_trip(tmp_path):
    spec = SynthSpec(n_identities=6, samples_per_identity=3, dimension=5,
                     age_range=(25, 45), sigma_id=1.5, sigma_obs=0.3, seed=21)
    tab = generate_synthetic(spec)
    path = save_dataset(tab, tmp_path / "d.csv")
    back = load_dataset(path, label_set=tab.label_set)
    assert back.sample_ids == tab.sample_ids
    assert back.label_set.values == tab.label_set.values
    np.testing.assert_array_equal(back.feature_matrix, tab.feature_matrix)
    np.testing.assert_array_equal(back.ages, tab.ages)
    assert [s.identity_id for s in back.samples] == [s.identity_id for s in tab.samples]


def test_small_manifest_infers_label_set(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(
        "sample_id,identity_id,age,f0,f1\n"
        "a,p1,20,0.0,1.0\n"
        "b,p2,25,1.0,0.0\n"
        "c,p3,30,0.5,0.5\n"
    )
    tab = load_dataset(p)
    assert len(tab) == 3
    assert tab.label_set.values == (20, 25, 30)


def test_load_declared_label_set_rejects_stray_age(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("sample_id,identity_id,age,f0\na,p1,20,0.0\nb,p2,33,1.0\n")
    with pytest.raises(ValidationError):
        load_dataset(p, label_set=LabelSet((20, 25, 30)))


def test_load_rejects_duplicate_ids(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("sample_id,identity_id,age,f0\na,p1,20,0.0\na,p2,25,1.0\n")
    with pytest.raises(ValidationError, match="duplicate"):
        load_dataset(p)


def test_load_names_the_bad_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("sample_id,identity_id,age,f0\na,p1,20,0.0\nb,p2,25,oops\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(p)
    assert "3" in str(exc.value) or "b" in str(exc.value)


def test_load_rejects_wrong_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("id,who,age,f0\na,p1,20,0.0\n")
    with pytest.raises(ParseError):
        load_dataset(p)


def test_save_floats_survive_exactly(tmp_path):
    rng = rng_from_seed(8)
    rows = [("s%d" % i, "p%d" % i, 20 + i, rng.normal(size=3)) for i in range(5)]
    tab = make_table(rows, dim=3, label_set=LabelSet(tuple(range(20, 26))))
    back = load_dataset(save_dataset(tab, tmp_path / "f.csv"),
                        label_set=tab.label_set)
    assert np.array_equal(back.feature_matrix, tab.feature_matrix)
