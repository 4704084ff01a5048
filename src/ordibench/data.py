"""Dataset model: ordered label sets, sample tables, manifest I/O, and
synthetic identity-correlated data generation.

A table row is one observation of one identity. Identity structure is what
makes split hygiene interesting: observations of the same person are highly
correlated, so letting an identity span folds leaks information.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import NoReturn, Union, get_args, get_origin, get_type_hints

import numpy as np

from .util import rng_from_seed

__all__ = [
    "ParseError",
    "ValidationError",
    "LabelSet",
    "DatasetTable",
    "SynthSpec",
    "generate_synthetic",
    "save_dataset",
    "load_dataset",
]


class ParseError(ValueError):
    """Malformed manifest content: bad header, wrong field count, non-numeric cell."""


class ValidationError(ValueError):
    """Well-formed input that violates a structural invariant."""


_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a finite number"),
               str: (str, "a string")}


def _is_kind(value, hint) -> bool:
    """Whether a JSON value has the type of a field annotation: int, float
    (any finite number), str, a dataclass (an object), or tuple[...], a list
    of the tuple's length (any length for tuple[x, ...])."""
    if is_dataclass(hint):
        return isinstance(value, dict)
    if get_origin(hint) is tuple:
        items = get_args(hint)
        return (isinstance(value, (list, tuple))
                and (items[-1] is Ellipsis or len(value) == len(items))
                and all(_is_kind(v, items[0]) for v in value))
    if hint is float and isinstance(value, float) and not math.isfinite(value):
        return False  # json reads NaN and Infinity
    return isinstance(value, _JSON_TYPES[hint][0]) and not isinstance(value, bool)


def _kind_text(hint) -> str:
    if get_origin(hint) is tuple:
        items = get_args(hint)
        count = "" if items[-1] is Ellipsis else f"{len(items)} "
        return f"a list of {count}{_kind_text(items[0]).split(' ', 1)[1]}s"
    return "an object" if is_dataclass(hint) else _JSON_TYPES[hint][1]


def _read_json(path: Path):
    """The JSON value in a file; ParseError, naming it, if it is not UTF-8 JSON."""
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None


def _from_json(cls, section: str, payload, path: str = ""):
    """Build a config dataclass (ExperimentConfig and its sections) or a
    split file's SplitSpec from a JSON object, using only its fields.

    A field whose annotation is a dataclass, or Optional[...] or
    tuple[..., ...] of one, is read the same way, recursively; a list
    becomes a tuple for a tuple[...] field, and null for an Optional field
    means the key was left out. Refuses, naming the key, a payload that is
    not an object, an unknown key, a value of the wrong type and a missing
    required field. Messages name the top object by section and a nested
    one by its path from there, such as datasets[1].synth; so does a nested
    object's own refusal, such as "methods[3]: sigma must be positive"."""
    name = path or section
    if not isinstance(payload, dict):
        raise ValidationError(f"{name} must be an object, got {payload!r}")
    hints = get_type_hints(cls)
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise ValidationError(f"unknown {name} key(s): {sorted(unknown)}")
    values = {}
    for key, value in payload.items():
        hint, at = hints[key], f"{path}.{key}" if path else key
        if get_origin(hint) is Union:  # Optional[...]
            if value is None:
                continue
            hint = get_args(hint)[0]
        item = get_args(hint)[0] if get_origin(hint) is tuple else None
        if is_dataclass(item) and isinstance(value, list):  # each entry names its own faults
            values[key] = tuple(_from_json(item, section, v, f"{at}[{i}]")
                                for i, v in enumerate(value))
        elif not _is_kind(value, hint):
            raise ValidationError(f"{name} key {key!r} must be {_kind_text(hint)}, got {value!r}")
        elif is_dataclass(hint):
            values[key] = _from_json(hint, section, value, at)
        else:
            values[key] = value if item is None else tuple(value)
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
    if missing:
        raise ValidationError(f"{name} lacks key(s): {missing}")
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") if path else exc


@dataclass(frozen=True)
class LabelSet:
    """Strictly increasing tuple of integer age labels."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(int(v) for v in self.values)
        if not values:
            raise ValidationError("label set is empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValidationError("label values must be strictly increasing")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def indices_of(self, ages) -> np.ndarray:
        """The label index of each age, or of one age, truncated to whole
        years; raises ValidationError for an age outside the label set."""
        y = self.as_array()
        years = np.trunc(ages)
        idx = np.searchsorted(y, years)
        found = y[np.minimum(idx, len(y) - 1)] == years
        missing = np.ravel(years)[~np.ravel(found)]
        if missing.size:
            raise ValidationError(f"age {missing[0]:g} is not in the label set")
        return idx

    @property
    def min_label(self) -> int:
        return self.values[0]

    @property
    def max_label(self) -> int:
        return self.values[-1]

    @property
    def span(self) -> int:
        return self.values[-1] - self.values[0]

    def as_array(self, dtype=float) -> np.ndarray:
        return np.asarray(self.values, dtype=dtype)

    def normalize(self, age):
        """Map an age in years (or an array of ages) onto [0, 1] over the label range."""
        age = np.asarray(age, dtype=float)
        unit = (age - self.values[0]) / self.span if self.span else np.zeros_like(age)
        return float(unit) if unit.ndim == 0 else unit

    def denormalize(self, unit):
        age = self.values[0] + np.asarray(unit, dtype=float) * self.span
        return float(age) if age.ndim == 0 else age


def _raise_first_fault(label_set: LabelSet, dimension: int, rows) -> NoReturn:
    """Check (sample_id, identity_id, age, features) rows one at a time and
    raise for the first faulty one. Runs only once the column checks have
    failed, to name the row they cannot."""
    seen: set[str] = set()
    for sample_id, identity_id, age, features in rows:
        if sample_id in seen:
            raise ValidationError(f"duplicate sample_id {sample_id!r}")
        seen.add(sample_id)
        if not identity_id:
            raise ValidationError(f"sample {sample_id!r} has an empty identity_id")
        age = int(age)
        if age not in label_set.values:
            raise ValidationError(f"sample {sample_id!r}: age {age} is outside the label set")
        feats = np.array(features, dtype=float)
        if feats.shape != (dimension,):
            raise ValidationError(
                f"sample {sample_id!r}: expected {dimension} features, got shape {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
            raise ValidationError(f"sample {sample_id!r}: non-finite feature value")
    raise AssertionError("the column checks failed but every row passes")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class DatasetTable:
    """Validated rows sharing one label set and feature width, kept as
    columns: sample ids, identity codes, ages and a feature matrix.

    The constructor takes the columns, one entry per row. It copies the
    features and turns the ages into ints, so the caller's objects are never
    changed or frozen; the table's own arrays are read-only. It checks whole
    columns at once: equal lengths, unique ids, non-empty identities, ages in
    the label set, the feature width and finite features. On a failure the
    row checks raise for the first faulty row.
    """

    def __init__(self, name: str, label_set: LabelSet, dimension: int, sample_ids,
                 identity_ids, ages, features) -> None:
        if dimension <= 0:
            raise ValidationError("dimension must be positive")
        n = len(sample_ids)
        if not n == len(identity_ids) == len(ages) == len(features):
            raise ValidationError(
                f"columns of unequal length: {n} sample ids, {len(identity_ids)} identity ids, "
                f"{len(ages)} ages, {len(features)} feature rows")
        try:
            int_ages = [int(age) for age in ages]
            matrix = np.array(features, dtype=float) if n else np.zeros((0, dimension))
        except (TypeError, ValueError, OverflowError):
            int_ages = matrix = None  # the row checks name the culprit
        row_index = {sid: i for i, sid in enumerate(sample_ids)}
        codes: dict[str, int] = {}  # identity -> its first-appearance rank
        row_codes = [codes.setdefault(ident, len(codes)) for ident in identity_ids]
        if (len(row_index) != n or not all(codes) or int_ages is None
                or not set(int_ages) <= set(label_set.values)
                or matrix.shape != (n, dimension) or not np.isfinite(matrix).all()):
            _raise_first_fault(label_set, dimension,
                               zip(sample_ids, identity_ids, ages, features))
        self.name = name
        self.label_set = label_set
        self.dimension = dimension
        self._row = row_index
        self._sample_ids = tuple(sample_ids)
        self._identities = tuple(codes)
        self._identity_codes = _read_only(np.array(row_codes, dtype=np.intp))
        self._features = _read_only(matrix)
        self._ages = _read_only(np.array(int_ages, dtype=float))

    def __len__(self) -> int:
        return len(self._sample_ids)

    @property
    def sample_ids(self) -> tuple[str, ...]:
        return self._sample_ids

    @property
    def identity_codes(self) -> np.ndarray:
        """(n,) intp array, read-only: each row's identity as its index in
        identities()."""
        return self._identity_codes

    @property
    def feature_matrix(self) -> np.ndarray:
        """(n, dimension) float64 matrix, read-only, in table order."""
        return self._features

    @property
    def ages(self) -> np.ndarray:
        return self._ages

    def rows_for(self, sample_ids) -> np.ndarray:
        try:
            return np.asarray([self._row[sid] for sid in sample_ids], dtype=int)
        except KeyError as exc:
            raise ValidationError(f"unknown sample_id {exc.args[0]!r}") from None

    def features_for(self, sample_ids) -> np.ndarray:
        return self._features[self.rows_for(sample_ids)]

    def ages_for(self, sample_ids) -> np.ndarray:
        return self._ages[self.rows_for(sample_ids)]

    def identities(self) -> tuple[str, ...]:
        """Distinct identity ids in first-appearance order."""
        return self._identities


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic identity-correlated generator.

    sigma_id controls how strongly observations of one identity cluster in
    feature space; sigma_obs is per-observation noise. With sigma_id well
    above sigma_obs, nearest neighbours of a sample are typically other
    samples of the same identity, which is the regime where split leakage
    becomes visible.
    """

    n_identities: int
    samples_per_identity: int
    dimension: int
    age_range: tuple[int, int]
    sigma_id: float = 0.0
    sigma_obs: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_identities < 1:
            raise ValidationError("n_identities must be >= 1")
        if self.samples_per_identity < 1:
            raise ValidationError("samples_per_identity must be >= 1")
        if self.dimension < 1:
            raise ValidationError("dimension must be >= 1")
        lo, hi = (int(self.age_range[0]), int(self.age_range[1]))
        if lo >= hi:
            raise ValidationError("age_range must satisfy min < max")
        object.__setattr__(self, "age_range", (lo, hi))
        if not (math.isfinite(self.sigma_id) and math.isfinite(self.sigma_obs)):
            raise ValidationError("noise scales must be finite")
        if self.sigma_id < 0 or self.sigma_obs < 0:
            raise ValidationError("noise scales must be non-negative")


# Gain applied to the age signal so that, at the default noise scales, age
# remains recoverable from many identities while a single identity's offset
# still dominates any one feature.
_SIGNAL_GAIN = 2.0


def _age_basis(age: float, lo: int, hi: int) -> np.ndarray:
    t = (float(age) - lo) / (hi - lo)
    return np.array([t, t * t, t ** 3])


def generate_synthetic(spec: SynthSpec, name: str = "synthetic") -> DatasetTable:
    """Deterministically generate an identity-correlated table.

    Each identity draws a base age uniformly over the range; its samples
    jitter that age by at most one year (clamped). Features are a fixed
    cubic age response mapped through a random linear map, plus a shared
    per-identity offset (scale sigma_id) and per-sample noise (sigma_obs).
    Equal specs produce bitwise-equal tables.
    """
    rng = rng_from_seed(spec.seed)
    lo, hi = spec.age_range
    mix = rng.normal(size=(3, spec.dimension)) * _SIGNAL_GAIN
    sample_ids: list[str] = []
    identity_ids: list[str] = []
    ages: list[int] = []
    rows: list[np.ndarray] = []
    for i in range(spec.n_identities):
        base_age = int(rng.integers(lo, hi + 1))
        offset = rng.normal(scale=spec.sigma_id, size=spec.dimension) if spec.sigma_id > 0 else np.zeros(spec.dimension)
        for j in range(spec.samples_per_identity):
            age = int(np.clip(base_age + int(rng.integers(-1, 2)), lo, hi))
            noise = rng.normal(scale=spec.sigma_obs, size=spec.dimension) if spec.sigma_obs > 0 else np.zeros(spec.dimension)
            rows.append(_age_basis(age, lo, hi) @ mix + offset + noise)
            sample_ids.append(f"s{i:04d}_{j:02d}")
            identity_ids.append(f"id{i:04d}")
            ages.append(age)
    label_set = LabelSet(tuple(range(lo, hi + 1)))
    return DatasetTable(name, label_set, spec.dimension, sample_ids, identity_ids, ages, rows)


_FIXED_COLUMNS = ["sample_id", "identity_id", "age"]


def save_dataset(table: DatasetTable, path) -> Path:
    """Write a table as a CSV manifest: sample_id, identity_id, age, f0..f{d-1}.

    Feature values are written with full round-trip precision, so saving and
    reloading reproduces the table exactly. The label set itself is not part
    of the manifest; pass it to load_dataset explicitly when it is wider than
    the ages actually present.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIXED_COLUMNS + [f"f{i}" for i in range(table.dimension)])
        names = table.identities()
        for sid, code, age, feats in zip(table.sample_ids, table.identity_codes.tolist(),
                                         table.ages.tolist(), table.feature_matrix.tolist()):
            writer.writerow([sid, names[code], int(age)] + [repr(v) for v in feats])
    return path


def _raise_first_parse_fault(path: Path, rows: list[list[str]], width: int) -> NoReturn:
    """Parse the manifest's data rows one at a time and raise for the first
    malformed one. Runs only once the column parse has failed, to name the
    row it cannot. Rows count from the header's 1, blank rows included."""
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"{path}: row {lineno}: expected {width} fields, got {len(row)}")
        try:
            int(row[2])
        except ValueError:
            raise ParseError(f"{path}: row {lineno}: age {row[2]!r} is not an integer") from None
        try:
            [float(v) for v in row[3:]]
        except ValueError:
            raise ParseError(f"{path}: row {lineno}: non-numeric feature value") from None
    raise AssertionError("the column parse failed but every row parses")


def load_dataset(path, name: str | None = None, label_set: LabelSet | None = None) -> DatasetTable:
    """Read a CSV manifest back into a DatasetTable.

    The data rows are parsed as columns: ages with Python int, and all
    feature cells at once into one float64 matrix, each cell with Python
    float semantics (so "1_0", " 2 " and "inf" read as float() reads them).
    Blank lines are skipped. A malformed or invalid manifest raises for its
    first faulty row in file order, as ParseError (with the row number) or
    ValidationError (with the sample id).

    When label_set is omitted it is inferred as the sorted distinct ages in
    the file; when given, rows with ages outside it are rejected.
    """
    path = Path(path)
    try:
        with path.open("r", newline="") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:  # csv.Error is not a ValueError
        raise ParseError(f"{path}: {exc}") from None
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

    records = [row for row in rows[1:] if row]
    if not set(map(len, records)) <= {len(header)}:
        _raise_first_parse_fault(path, rows[1:], len(header))
    try:
        ages = [int(row[2]) for row in records]
        features = np.array([row[3:] for row in records], dtype=float)
    except ValueError:
        _raise_first_parse_fault(path, rows[1:], len(header))

    if label_set is None:
        if not ages:
            raise ParseError(f"{path}: manifest has a header but no rows")
        label_set = LabelSet(tuple(sorted(set(ages))))
    return DatasetTable(
        name if name is not None else path.stem, label_set, dimension,
        [row[0] for row in records], [row[1] for row in records], ages, features,
    )
