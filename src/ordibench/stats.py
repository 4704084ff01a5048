"""Rank statistics for comparing methods across datasets.

Given a datasets-by-methods error matrix, methods are ranked per dataset
(average ranks on ties), the Friedman statistic tests whether the methods
differ at all, the less conservative Iman-Davenport F form supplies the
p-value, and the Nemenyi critical difference says how far two average ranks
must be apart before the difference counts as significant.

Rule: scipy is imported inside the function that needs it, never at module
level. Importing scipy.special after numpy takes 0.23-0.26 s on a 2-CPU
machine, more than numpy's own 0.13-0.15 s; every command, demo and pool
worker imports this module, and only f_cdf, chi2_cdf and nemenyi_qalpha use it.

References
----------
Demsar, "Statistical comparisons of classifiers over multiple data sets",
JMLR 7, 2006.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import fmt_float

__all__ = [
    "ResultMatrix",
    "RankSummary",
    "rank_rows",
    "friedman_test",
    "nemenyi_qalpha",
    "critical_difference",
    "f_cdf",
    "chi2_cdf",
    "save_result_matrix",
    "load_result_matrix",
    "write_rank_report",
]


@dataclass(frozen=True)
class ResultMatrix:
    """Error matrix: one row per dataset (or evaluation context), one column
    per method. Lower is better."""

    datasets: tuple[str, ...]
    methods: tuple[str, ...]
    mae: np.ndarray

    def __post_init__(self) -> None:
        mae = np.asarray(self.mae, dtype=float)
        if mae.shape != (len(self.datasets), len(self.methods)):
            raise ValueError(
                f"matrix shape {mae.shape} does not match "
                f"{len(self.datasets)} datasets x {len(self.methods)} methods"
            )
        if len(set(self.datasets)) != len(self.datasets):
            raise ValueError("duplicate dataset names")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method names")
        if not np.all(np.isfinite(mae)) or np.any(mae < 0):
            raise ValueError("errors must be finite and non-negative")
        mae = mae.copy()
        mae.flags.writeable = False
        object.__setattr__(self, "mae", mae)


def rank_rows(mae) -> np.ndarray:
    """Per-row ranks, 1 = best (lowest error); ties get averaged ranks.

    rank = (entries below) + (entries tied, itself included, + 1) / 2 is an
    exact half-integer, bitwise equal to scipy's rankdata(method="average").
    """
    mat = np.asarray(mae, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 2:
        raise ValueError("need a 2-d matrix with at least 2 columns")
    if not np.all(np.isfinite(mat)):
        raise ValueError("errors must be finite")
    below = (mat[:, None, :] < mat[:, :, None]).sum(axis=2)
    tied = (mat[:, None, :] == mat[:, :, None]).sum(axis=2)
    return below + (tied + 1) / 2


def f_cdf(x: float, d1: float, d2: float) -> float:
    """CDF of the F distribution via the regularized incomplete beta."""
    from scipy.special import betainc
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = float(x)
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return 0.0
    return float(betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2)))


def chi2_cdf(x: float, df: float) -> float:
    """CDF of the chi-squared distribution via the regularized lower gamma."""
    from scipy.special import gammainc
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = float(x)
    if x < 0:
        raise ValueError("x must be non-negative")
    return float(gammainc(df / 2.0, x / 2.0))


def nemenyi_qalpha(k: int, alpha: float = 0.05) -> float:
    """Nemenyi's q_alpha: the 1 - alpha quantile of the range of k standard
    normals (the studentized range with infinite dof), divided by sqrt(2).

    P(range <= q) = k * int phi(z) (Phi(z) - Phi(z - q))^(k-1) dz is summed on
    801 points of [-10, 10], and q is found by 60 halvings of [0, 20].
    """
    from scipy.special import ndtr
    if int(k) != k or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    z, dz = np.linspace(-10.0, 10.0, 801, retstep=True)
    phi, cdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi), ndtr(z)
    lo, hi = 0.0, 20.0
    for _ in range(60):
        q = 0.5 * (lo + hi)
        below = k * dz * np.sum(phi * (cdf - ndtr(z - q)) ** (k - 1)) < 1.0 - alpha
        lo, hi = (q, hi) if below else (lo, q)
    return 0.5 * (lo + hi) / math.sqrt(2.0)


def critical_difference(k: int, n: int, alpha: float = 0.05) -> float:
    """Minimum average-rank gap that is significant for k methods, n rows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return nemenyi_qalpha(k, alpha) * math.sqrt(k * (k + 1) / (6.0 * n))


@dataclass(frozen=True)
class RankSummary:
    """Everything the omnibus-plus-post-hoc comparison produces."""

    methods: tuple[str, ...]
    avg_ranks: tuple[float, ...]
    n_datasets: int
    alpha: float
    friedman_chi2: float
    iman_davenport_f: float
    p_value: float
    cd: float
    significant_pairs: frozenset[tuple[str, str]]

    def is_significant(self, a: str, b: str) -> bool:
        """Order-independent lookup of a method pair."""
        return (a, b) in self.significant_pairs or (b, a) in self.significant_pairs

    def to_dict(self) -> dict:
        f_f = self.iman_davenport_f
        return {
            "n_datasets": self.n_datasets,
            "n_methods": len(self.methods),
            "alpha": self.alpha,
            "chi2_f": self.friedman_chi2,
            "iman_davenport_f": None if math.isinf(f_f) else f_f,
            "p_value": self.p_value,
            "cd": self.cd,
            "avg_ranks": {m: r for m, r in zip(self.methods, self.avg_ranks)},
            "significant_pairs": sorted(list(p) for p in self.significant_pairs),
        }


def friedman_test(matrix: ResultMatrix, alpha: float = 0.05) -> RankSummary:
    """Friedman omnibus with Iman-Davenport p-value and Nemenyi CD.

    Rows are the N independent comparison contexts, columns the k methods.
    chi2_F = 12N / (k(k+1)) * (sum_j Rbar_j^2 - k(k+1)^2 / 4) on the average
    ranks; F_F = (N-1) chi2_F / (N(k-1) - chi2_F) is referred to the
    F(k-1, (k-1)(N-1)) distribution. Perfectly consistent rankings drive the
    F denominator to zero, reported as an infinite F with p = 0. An all-tied
    matrix gives chi2_F = 0, p = 1 and no significant pairs.
    """
    n, k = matrix.mae.shape
    if n < 2:
        raise ValueError("need at least 2 rows (datasets) for the omnibus test")
    if k < 2:
        raise ValueError("need at least 2 methods")
    ranks = rank_rows(matrix.mae)
    avg = ranks.mean(axis=0)
    chi2 = (12.0 * n / (k * (k + 1))) * (float(np.sum(avg ** 2)) - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)  # guard tiny negative round-off

    denom = n * (k - 1) - chi2
    if chi2 <= 1e-12:
        f_f = 0.0
        p = 1.0
    elif denom <= 1e-9:
        f_f = math.inf
        p = 0.0
    else:
        f_f = (n - 1) * chi2 / denom
        p = 1.0 - f_cdf(f_f, k - 1, (k - 1) * (n - 1))
    p = min(max(p, 0.0), 1.0)

    cd = critical_difference(k, n, alpha)
    pairs = set()
    for i in range(k):
        for j in range(i + 1, k):
            if abs(avg[i] - avg[j]) >= cd - 1e-12:
                pairs.add((matrix.methods[i], matrix.methods[j]))
    return RankSummary(
        methods=matrix.methods,
        avg_ranks=tuple(float(r) for r in avg),
        n_datasets=n,
        alpha=float(alpha),
        friedman_chi2=float(chi2),
        iman_davenport_f=f_f,
        p_value=float(p),
        cd=float(cd),
        significant_pairs=frozenset(pairs),
    )


def save_result_matrix(matrix: ResultMatrix, path) -> Path:
    """CSV with a dataset column followed by one full-precision column per method."""
    path = Path(path)
    lines = ["dataset," + ",".join(matrix.methods)]
    for i, ds in enumerate(matrix.datasets):
        lines.append(ds + "," + ",".join(fmt_float(v) for v in matrix.mae[i]))
    path.write_text("\n".join(lines) + "\n")
    return path


def load_result_matrix(path) -> ResultMatrix:
    path = Path(path)
    try:
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(lines) < 2:
        raise ValueError(f"{path}: need a header and at least one row")
    header = lines[0].split(",")
    if header[0] != "dataset" or len(header) < 3:
        raise ValueError(f"{path}: header must be dataset,<method>,<method>,...")
    methods = tuple(header[1:])
    datasets: list[str] = []
    rows: list[list[float]] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: row {ln!r} has {len(parts)} fields, expected {len(header)}")
        datasets.append(parts[0])
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise ValueError(f"{path}: non-numeric value in row {parts[0]!r}") from None
    return ResultMatrix(datasets=tuple(datasets), methods=methods, mae=np.asarray(rows))


def write_rank_report(summary: RankSummary, path) -> tuple[Path, Path]:
    """Emit the rank report as text plus a JSON twin next to it.

    The text form has a commented header block with the test quantities and
    then one method,avg_rank line per method, sorted best first. The JSON
    twin holds the same content machine-readably (an infinite F is null).
    Raises ValueError, before writing anything, for a path that is its own
    twin (one ending in .json).
    """
    path = Path(path)
    json_path = path.with_name(path.stem + ".json")
    if json_path == path:
        raise ValueError(f"rank report {path} would be overwritten by its JSON twin; "
                         "give it a suffix other than .json")
    f_text = "inf" if math.isinf(summary.iman_davenport_f) else fmt_float(summary.iman_davenport_f)
    lines = [
        f"# N={summary.n_datasets} k={len(summary.methods)} alpha={fmt_float(summary.alpha)}",
        f"# chi2_F={fmt_float(summary.friedman_chi2)} F_F={f_text} "
        f"p={fmt_float(summary.p_value)} CD={fmt_float(summary.cd)}",
        "method,avg_rank",
    ]
    order = np.argsort(summary.avg_ranks, kind="stable")
    for i in order:
        lines.append(f"{summary.methods[i]},{fmt_float(summary.avg_ranks[i])}")
    if summary.significant_pairs:
        lines.append("# significant pairs at alpha:")
        for a, b in sorted(summary.significant_pairs):
            lines.append(f"#   {a} vs {b}")
    path.write_text("\n".join(lines) + "\n")
    json_path.write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
    return path, json_path
