"""Dataset model: ordered label sets, sample tables, manifest I/O, and
synthetic identity-correlated data generation.

A table row is one observation of one identity. Identity structure is what
makes split hygiene interesting: observations of the same person are highly
correlated, so letting an identity span folds leaks information.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .util import rng_from_seed

__all__ = [
    "ParseError",
    "ValidationError",
    "LabelSet",
    "Sample",
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


_JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a finite number"),
               "str": (str, "a string"), "object": (dict, "an object"), "list": (list, "a list")}


def _is_kind(value, kind: str) -> bool:
    """Whether a JSON value has the type a field annotation names: int,
    float (any finite number), str, object, list, Optional[...] or tuple[...], a
    list of the tuple's length (any length for tuple[x, ...])."""
    if kind.startswith("Optional["):
        kind = kind[len("Optional["):-1]
    if kind.startswith("tuple["):
        items = [k.strip() for k in kind[len("tuple["):-1].split(",")]
        return (isinstance(value, (list, tuple))
                and (items[-1] == "..." or len(value) == len(items))
                and all(_is_kind(v, items[0]) for v in value))
    if kind == "float" and isinstance(value, float) and not math.isfinite(value):
        return False  # json reads NaN and Infinity
    return isinstance(value, _JSON_TYPES[kind][0]) and not isinstance(value, bool)


def _kind_text(kind: str) -> str:
    if kind.startswith("Optional["):
        return _kind_text(kind[len("Optional["):-1])
    if kind.startswith("tuple["):
        items = [k.strip() for k in kind[len("tuple["):-1].split(",")]
        count = "" if items[-1] == "..." else f"{len(items)} "
        return f"a list of {count}{_JSON_TYPES[items[0]][1].split(' ', 1)[1]}s"
    return _JSON_TYPES[kind][1]


def _check_types(section: str, payload: dict, kinds: dict[str, str]) -> None:
    """Refuse, naming the key, a value whose type differs from its kind."""
    for key, value in payload.items():
        if key in kinds and not _is_kind(value, kinds[key]):
            raise ValidationError(
                f"{section} key {key!r} must be {_kind_text(kinds[key])}, got {value!r}")


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

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.values)}

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, age: object) -> bool:
        try:
            return int(age) in self._pos  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False

    def index_of(self, age: int) -> int:
        try:
            return self._pos[int(age)]
        except KeyError:
            raise ValidationError(f"age {age} is not in the label set") from None

    def indices_of(self, ages) -> np.ndarray:
        """index_of for an array of ages at once: each age, truncated to whole
        years, must be in the label set."""
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

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def normalize(self, age):
        """Map an age in years (or an array of ages) onto [0, 1] over the label range."""
        age = np.asarray(age, dtype=float)
        unit = (age - self.values[0]) / self.span if self.span else np.zeros_like(age)
        return float(unit) if unit.ndim == 0 else unit

    def denormalize(self, unit):
        age = self.values[0] + np.asarray(unit, dtype=float) * self.span
        return float(age) if age.ndim == 0 else age


@dataclass(eq=False)
class Sample:
    sample_id: str
    identity_id: str
    age: int
    features: np.ndarray


@dataclass(eq=False)
class DatasetTable:
    """Validated collection of samples sharing one label set and feature width.

    Construction copies every feature vector to float64 and freezes it, so a
    table cannot be mutated through aliased input arrays afterwards.
    """

    name: str
    label_set: LabelSet
    dimension: int
    samples: tuple[Sample, ...]

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValidationError("dimension must be positive")
        samples = tuple(self.samples)
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
            if s.age not in self.label_set:
                raise ValidationError(
                    f"sample {s.sample_id!r}: age {s.age} is outside the label set"
                )
            feats = np.array(s.features, dtype=float)
            if feats.shape != (self.dimension,):
                raise ValidationError(
                    f"sample {s.sample_id!r}: expected {self.dimension} features, "
                    f"got shape {feats.shape}"
                )
            if not np.all(np.isfinite(feats)):
                raise ValidationError(f"sample {s.sample_id!r}: non-finite feature value")
            feats.flags.writeable = False
            s.features = feats
        self.samples = samples
        self._row = {s.sample_id: i for i, s in enumerate(samples)}
        self._sample_ids = tuple(s.sample_id for s in samples)
        self._identities = tuple(codes)
        identity_codes = np.array(row_codes, dtype=np.intp)
        identity_codes.flags.writeable = False
        self._identity_codes = identity_codes
        if samples:
            mat = np.stack([s.features for s in samples]).astype(float)
        else:
            mat = np.zeros((0, self.dimension))
        mat.flags.writeable = False
        self._features = mat
        ages = np.asarray([s.age for s in samples], dtype=float)
        ages.flags.writeable = False
        self._ages = ages

    def __len__(self) -> int:
        return len(self.samples)

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

    def sample(self, sample_id: str) -> Sample:
        return self.samples[self.row_of(sample_id)]

    def row_of(self, sample_id: str) -> int:
        try:
            return self._row[sample_id]
        except KeyError:
            raise ValidationError(f"unknown sample_id {sample_id!r}") from None

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

    def by_identity(self) -> dict[str, tuple[int, ...]]:
        """Row indices grouped by identity, identities in first-appearance order."""
        rows = np.argsort(self._identity_codes, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self._identity_codes, minlength=len(self._identities)))
        starts = [0, *ends[:-1].tolist()]
        return {k: tuple(rows[a:b]) for k, a, b in zip(self._identities, starts, ends.tolist())}


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
    samples: list[Sample] = []
    for i in range(spec.n_identities):
        base_age = int(rng.integers(lo, hi + 1))
        offset = rng.normal(scale=spec.sigma_id, size=spec.dimension) if spec.sigma_id > 0 else np.zeros(spec.dimension)
        for j in range(spec.samples_per_identity):
            age = int(np.clip(base_age + int(rng.integers(-1, 2)), lo, hi))
            noise = rng.normal(scale=spec.sigma_obs, size=spec.dimension) if spec.sigma_obs > 0 else np.zeros(spec.dimension)
            feats = _age_basis(age, lo, hi) @ mix + offset + noise
            samples.append(
                Sample(
                    sample_id=f"s{i:04d}_{j:02d}",
                    identity_id=f"id{i:04d}",
                    age=age,
                    features=feats,
                )
            )
    label_set = LabelSet(tuple(range(lo, hi + 1)))
    return DatasetTable(name=name, label_set=label_set, dimension=spec.dimension, samples=tuple(samples))


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
        for s in table.samples:
            writer.writerow([s.sample_id, s.identity_id, s.age] + [repr(float(v)) for v in s.features])
    return path


def load_dataset(path, name: str | None = None, label_set: LabelSet | None = None) -> DatasetTable:
    """Read a CSV manifest back into a DatasetTable.

    When label_set is omitted it is inferred as the sorted distinct ages in
    the file; when given, rows with ages outside it are rejected.
    """
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

    samples: list[Sample] = []
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
        samples.append(Sample(sample_id=sid, identity_id=ident, age=age, features=feats))
        ages.append(age)

    if label_set is None:
        if not ages:
            raise ParseError(f"{path}: manifest has a header but no rows")
        label_set = LabelSet(tuple(sorted(set(ages))))
    return DatasetTable(
        name=name if name is not None else path.stem,
        label_set=label_set,
        dimension=dimension,
        samples=tuple(samples),
    )
