"""Tables, label sets, the synthetic generator, the CSV manifest format, and
the config reader."""

import dataclasses
import json

import numpy as np
import pytest

from ordibench.data import (
    DatasetTable,
    LabelSet,
    ParseError,
    SynthSpec,
    ValidationError,
    _from_json,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from ordibench.harness import DatasetEntry, ExperimentConfig
from ordibench.methods import MethodConfig
from ordibench.splitting import MODE_RANDOM, SplitConfig
from ordibench.training import TrainConfig
from ordibench.util import rng_from_seed
from oracles import reference_load, reference_table


def columns(rows):
    """(sample_id, identity_id, age, features) rows as the four columns."""
    return [list(col) for col in zip(*rows)] if rows else [[], [], [], []]


def make_table(rows, dim=2, label_set=None):
    if label_set is None:
        label_set = LabelSet(tuple(sorted({int(age) for _, _, age, _ in rows})))
    return DatasetTable("t", label_set, dim, *columns(rows))


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
    assert ls.indices_of(57) == 57
    assert ls.normalize(0) == 0.0
    assert ls.normalize(100) == 1.0
    assert ls.denormalize(0.5) == 50.0
    for age in (0, 13, 99, 100):
        assert ls.denormalize(ls.normalize(age)) == pytest.approx(age)
    with pytest.raises(ValidationError):
        ls.indices_of(101)


def test_label_set_indices_of_truncates_to_the_labels_of_a_gapped_set():
    ls = LabelSet((16, 18, 19, 25, 40, 41, 80))
    ages = np.array([16, 80, 18.0, 19.9, 25.5, 41, 40, 16.2, 80.5, 18])
    np.testing.assert_array_equal(ls.indices_of(ages), [0, 6, 1, 2, 3, 5, 4, 0, 6, 1])
    assert ls.indices_of(25.9) == 3
    for outside in (17, 15.5, 81, 24.9, -16):
        with pytest.raises(ValidationError, match="not in the label set"):
            ls.indices_of(np.append(ages, outside))


def test_label_set_as_array():
    ls = LabelSet((1, 3, 9))
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
    assert tab.rows_for(("b",)).tolist() == [1]
    np.testing.assert_array_equal(tab.features_for(("c", "a")), [[4, 5], [0, 1]])
    np.testing.assert_array_equal(tab.ages_for(("b",)), [25.0])
    assert tab.identities() == ("p1", "p2")
    with pytest.raises(ValueError):
        tab.feature_matrix[0, 0] = 99.0
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
    empty = DatasetTable("e", LabelSet((20,)), 2, [], [], [], [])
    assert empty.identity_codes.shape == (0,) and empty.identities() == ()
    assert empty.feature_matrix.shape == (0, 2) and empty.ages.shape == (0,)


def test_identity_index_matches_a_walk_over_the_samples():
    rng = np.random.default_rng(4)
    idents = [f"id{int(k)}" for k in rng.integers(0, 40, 300)]
    rows = [(f"s{k}", ident, 20 + int(rng.integers(0, 5)), [0.0, 0.0])
            for k, ident in enumerate(idents)]
    tab = make_table(rows)
    assert tab.identities() == tuple(dict.fromkeys(idents))
    assert [tab.identities()[c] for c in tab.identity_codes] == idents
    assert tab.sample_ids == tuple(sid for sid, *_ in rows)


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["sigma_id", "sigma_obs"])
def test_synth_spec_refuses_a_non_finite_noise_scale(field, value):
    """NaN passes a `< 0` check, and a NaN scale used to generate as if it were 0."""
    with pytest.raises(ValidationError, match="noise scales must be finite"):
        SynthSpec(2, 1, 4, (20, 60), **{field: value})


def test_generate_counts_and_ranges():
    spec = SynthSpec(n_identities=50, samples_per_identity=4, dimension=16,
                     age_range=(20, 60), sigma_id=2.0, sigma_obs=0.5, seed=0)
    tab = generate_synthetic(spec)
    assert len(tab) == 200
    assert len(tab.identities()) == 50
    assert np.bincount(tab.identity_codes).tolist() == [4] * 50
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
    for age, feats in zip(tab.ages.tolist(), tab.feature_matrix):
        np.testing.assert_array_equal(feats, by_age.setdefault(age, feats))


def test_identity_jitter_keeps_ages_near_base():
    spec = SynthSpec(n_identities=30, samples_per_identity=5, dimension=4,
                     age_range=(20, 60), sigma_id=1.0, sigma_obs=0.1, seed=9)
    tab = generate_synthetic(spec)
    for code in range(len(tab.identities())):
        ages = tab.ages[tab.identity_codes == code]
        assert ages.max() - ages.min() <= 2


def test_same_identity_nearest_neighbor_majority():
    """Identity noise dominating observation noise makes same-identity samples cluster."""
    spec = SynthSpec(n_identities=50, samples_per_identity=4, dimension=16,
                     age_range=(20, 60), sigma_id=2.0, sigma_obs=0.5, seed=3)
    tab = generate_synthetic(spec)
    x = tab.feature_matrix
    idents = tab.identity_codes
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
    assert back.identities() == tab.identities()
    np.testing.assert_array_equal(back.identity_codes, tab.identity_codes)


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



def test_table_owns_its_rows():
    """A table copies its columns, leaves the caller's features array
    writeable, and its own arrays are read-only."""
    sample_ids, identity_ids = ["a", "b"], ["p1", "p2"]
    ages, features = [20, np.int64(25)], np.array([[1.0, 2.0], [3.0, 4.0]])
    t = DatasetTable("t", LabelSet((20, 25)), 2, sample_ids, identity_ids, ages, features)
    u = DatasetTable("u", LabelSet((20, 25)), 2, sample_ids, identity_ids, ages, features)
    assert features.flags.writeable and type(ages[1]) is np.int64
    assert not np.shares_memory(t.feature_matrix, features)
    assert not np.shares_memory(t.feature_matrix, u.feature_matrix)
    features[0, 0] = 9.0
    sample_ids[0], identity_ids[0], ages[0] = "z", "p9", 25
    assert t.sample_ids == ("a", "b") and t.identities() == ("p1", "p2")
    np.testing.assert_array_equal(t.feature_matrix, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(t.ages, [20.0, 25.0])
    for array in (t.feature_matrix, t.ages, t.identity_codes):
        with pytest.raises(ValueError):
            array[0] = 0
    float_ages = DatasetTable("f", LabelSet((20, 25)), 2, ["a"], ["p1"], [25.9], [[0.0, 0.0]])
    assert float_ages.ages.tolist() == [25.0]


@pytest.mark.parametrize("short", range(4), ids=["sample_ids", "identity_ids", "ages", "features"])
def test_table_refuses_columns_of_unequal_length(short):
    cols = columns([("a", "p1", 20, [0.0, 1.0]), ("b", "p2", 21, [2.0, 3.0]),
                    ("c", "p3", 20, [4.0, 5.0])])
    cols[short] = cols[short][:2]
    lengths = [3, 3, 3, 3]
    lengths[short] = 2
    with pytest.raises(ValidationError) as exc:
        DatasetTable("t", LabelSet((20, 21)), 2, *cols)
    assert str(exc.value) == ("columns of unequal length: {} sample ids, {} identity ids, "
                              "{} ages, {} feature rows".format(*lengths))


# --- the column loader against the per-row reference (tests/oracles.py)

_HEADER = "sample_id,identity_id,age,f0,f1,f2"


def _uneven_manifest(path, seed=0, identities=24, dim=8):
    """Identities of 1..8 rows over a wide age range, features written with
    round-trip floats: the shape of the split benchmark's manifests."""
    rng = np.random.default_rng(seed)
    lines = ["sample_id,identity_id,age," + ",".join(f"f{i}" for i in range(dim))]
    for i, size in enumerate(rng.permutation(np.tile(np.arange(1, 9), identities // 8))):
        base = int(rng.integers(16, 81))
        offset = rng.normal(scale=2.0, size=dim)
        for j in range(size):
            feats = offset + rng.normal(scale=0.5, size=dim)
            lines.append(f"p{i:05d}_{j:02d},p{i:05d},{int(np.clip(base + rng.integers(-2, 3), 16, 80))},"
                         + ",".join(repr(float(v)) for v in feats))
    path.write_text("\n".join(lines) + "\n")
    return path


def _assert_same_table(new, ref):
    assert new.feature_matrix.tobytes() == ref.feature_matrix.tobytes()
    assert new.feature_matrix.shape == ref.feature_matrix.shape
    assert new.ages.tobytes() == ref.ages.tobytes()
    assert new.sample_ids == ref.sample_ids
    assert new.identity_codes.tobytes() == ref.identity_codes.tobytes()
    assert new.identities() == ref.identities
    assert new.label_set == ref.label_set


@pytest.mark.parametrize("text", [
    "uneven",
    # quoted ids holding a comma, a quote and a newline; blank lines
    _HEADER + '\n"a,1","p""1",20,0.5,1,2\n\n"b\nc",p2,21,3,4,5\n\n\nd,"p,2",22,6,7,8\n',
    # cells float() reads: signed zero, the smallest subnormal, the largest
    # double, underscores, padding
    _HEADER + "\na,p1,20,-0.0,5e-324,1.7976931348623157e308\nb,p2, 21 ,1_0, 2 ,-5e-324\n",
], ids=["uneven", "quoting-and-blank-lines", "float-cells"])
@pytest.mark.parametrize("declared", [False, True], ids=["inferred", "declared"])
def test_loader_matches_the_per_row_reference(tmp_path, text, declared):
    path = tmp_path / "m.csv"
    if text == "uneven":
        _uneven_manifest(path, seed=5)
    else:
        path.write_text(text)
    label_set = LabelSet(tuple(range(10, 90))) if declared else None
    ref = reference_load(path, label_set=label_set)
    new = load_dataset(path, label_set=label_set)
    _assert_same_table(new, ref)
    assert new.name == "m"
    if text != "uneven":
        assert len(new) == len(ref.sample_ids) > 1


def test_loader_reads_a_declared_label_set_with_no_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(_HEADER + "\n\n")
    _assert_same_table(load_dataset(path, label_set=LabelSet((20, 21))),
                       reference_load(path, label_set=LabelSet((20, 21))))


def _row(sid, ident="p", age="20", feats=("0", "1", "2")):
    return ",".join([sid, ident, age, *feats])


# Each manifest holds two faults, at data rows j = 3 and k = 5 (file rows 4
# and 6); the error must name the first. A blank line before row j shifts the
# row numbers the way csv.reader counts them.
_LOAD_FAULTS = {
    "field-count": (_row("j") + ",9", _row("k", feats=("0", "1"))),
    "integer-age": (_row("j", age="2.5"), _row("k", age="x")),
    "numeric-feature": (_row("j", feats=("0", "abc", "2")), _row("k", feats=("", "1", "2"))),
    "finite-feature": (_row("j", feats=("nan", "1", "2")), _row("k", feats=("0", "1", "inf"))),
    "duplicate-id": (_row("r0"), _row("r4")),
    "empty-identity": (_row("j", ident=""), _row("k", ident="")),
    "age-in-label-set": (_row("j", age="19"), _row("k", age="99")),
    # a parse fault comes first, whatever the row of a validation fault
    "parse-before-validation": (_row("r0"), _row("k", feats=("0", "x", "2"))),
}


@pytest.mark.parametrize("kind", list(_LOAD_FAULTS))
def test_loader_raises_what_the_reference_raises_for_the_first_fault(tmp_path, kind):
    first, second = _LOAD_FAULTS[kind]
    lines = [_HEADER, _row("r0"), _row("r1"), "", _row("r2"), first, _row("r4"), second]
    path = tmp_path / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    label_set = LabelSet((20, 21))
    with pytest.raises((ParseError, ValidationError)) as ref:
        reference_load(path, label_set=label_set)
    with pytest.raises(type(ref.value)) as new:
        load_dataset(path, label_set=label_set)
    assert type(new.value) is type(ref.value)
    assert str(new.value) == str(ref.value)
    named = "row 8" if kind == "parse-before-validation" else (
        "row 6" if isinstance(ref.value, ParseError) else repr(first.split(",")[0]))
    assert named in str(new.value)


def _sample(sid, ident="p", age=20, feats=(0.0, 1.0)):
    return (sid, ident, age, np.asarray(feats))


_TABLE_FAULTS = {
    "width": (_sample("j", feats=(0.0, 1.0, 2.0)), _sample("k", feats=(0.0,))),
    "same-wrong-width": (_sample("j", feats=(0.0, 1.0, 2.0)), _sample("k", feats=(0.0, 1.0, 2.0))),
    "integer-age": (_sample("j", age="2x"), _sample("k", age=None)),
    "finite-feature": (_sample("j", feats=(np.inf, 0.0)), _sample("k", feats=(0.0, np.nan))),
    "duplicate-id": (_sample("r0"), _sample("r4")),
    "empty-identity": (_sample("j", ident=""), _sample("k", ident="")),
    "age-in-label-set": (_sample("j", age=22), _sample("k", age=19)),
}


@pytest.mark.parametrize("kind", list(_TABLE_FAULTS))
def test_table_raises_what_the_reference_raises_for_the_first_fault(kind):
    first, second = _TABLE_FAULTS[kind]
    rows = [_sample("r0"), _sample("r1"), _sample("r2"), first, _sample("r4"), second]
    if kind == "same-wrong-width":  # every row equally wide: the matrix builds, its shape is wrong
        rows = [first, second]
    label_set = LabelSet((20, 21))
    with pytest.raises((TypeError, ValueError)) as ref:
        reference_table(label_set, 2, rows)
    with pytest.raises(type(ref.value)) as new:
        DatasetTable("t", label_set, 2, *columns(rows))
    assert type(new.value) is type(ref.value)
    assert str(new.value) == str(ref.value)
    if isinstance(ref.value, ValidationError):
        assert repr(first[0]) in str(new.value)


@pytest.mark.parametrize("config, section, out_of_range", [
    (SynthSpec(n_identities=7, samples_per_identity=2, dimension=3, age_range=(18, 30),
               sigma_id=1.5, seed=4), "synth", [{"n_identities": 0}]),
    (TrainConfig(epochs=12, seed=9, hidden_dims=(32,), learning_rate=3e-4), "train",
     [{"epochs": 0}, {"learning_rate": -1.0}]),
    (MethodConfig(family="dldl", sigma=2.5), "method", [{"family": "not-a-family"}]),
    (SplitConfig(MODE_RANDOM, (0.5, 0.25, 0.25), 3, 7), "split", [{"n_splits": 0}]),
    (ExperimentConfig(
        datasets=(DatasetEntry("a", path="a.csv"),
                  DatasetEntry("b", synth=SynthSpec(5, 2, 3, (20, 30)))),
        methods=(MethodConfig("sord", name="s1"), MethodConfig("sord", alpha=2.0, name="s2")),
        split=SplitConfig(n_splits=2), train=TrainConfig(hidden_dims=(8,)), output_dir="out"),
     "config", [{"output_dir": ""}]),
], ids=["SynthSpec", "TrainConfig", "MethodConfig", "SplitConfig", "ExperimentConfig"])
def test_config_round_trips_through_json(config, section, out_of_range):
    """asdict -> JSON -> _from_json gives the instance back; a value of the
    right type but out of range is still refused by the dataclass itself."""
    payload = json.loads(json.dumps(dataclasses.asdict(config)))
    assert _from_json(type(config), section, payload) == config
    for bad in out_of_range:
        with pytest.raises(ValidationError, match=next(iter(bad))):
            _from_json(type(config), section, {**payload, **bad})
