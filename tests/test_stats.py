"""Rank statistics: the omnibus test, its post hoc, and the report formats."""

import json
import math

import numpy as np
import pytest
from scipy.stats import rankdata

from ordibench.stats import (
    ResultMatrix,
    aggregate_splits,
    chi2_cdf,
    critical_difference,
    f_cdf,
    friedman_test,
    load_result_matrix,
    nemenyi_qalpha,
    rank_rows,
    save_result_matrix,
    write_rank_report,
)
from ordibench.util import rng_from_seed


def matrix_of(values, methods=None, datasets=None):
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    return ResultMatrix(
        datasets=tuple(datasets or (f"d{i}" for i in range(n))),
        methods=tuple(methods or (f"m{j}" for j in range(k))),
        mae=values,
    )


def test_rank_rows_hand_cases():
    np.testing.assert_array_equal(rank_rows([[2.0, 3.0, 1.0]]), [[2, 3, 1]])
    np.testing.assert_array_equal(rank_rows([[5.0, 5.0, 7.0]]), [[1.5, 1.5, 3]])
    np.testing.assert_array_equal(rank_rows([[4.0] * 4]), [[2.5] * 4])


def test_rank_rows_equals_scipy_rankdata_bitwise():
    rng = rng_from_seed(606)
    mats = []
    for k in range(2, 13):
        mats.append(rng.uniform(0.0, 10.0, size=(7, k)))
        mats.append(rng.integers(0, 3, size=(9, k)).astype(float))  # many ties
        mats.append(np.full((3, k), 2.5))  # all tied
    for mat in mats:
        got = rank_rows(mat)
        want = np.vstack([rankdata(row, method="average") for row in mat])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_rows_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        rank_rows([[1.0, bad, 2.0]])


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix_of([[1.0, 2.0]], methods=("a", "a"))
    with pytest.raises(ValueError):
        ResultMatrix(datasets=("d",), methods=("a", "b"), mae=np.ones((2, 2)))
    with pytest.raises(ValueError):
        matrix_of([[1.0, np.nan]])
    mat = matrix_of([[1.0, 2.0]])
    with pytest.raises(ValueError):
        mat.mae[0, 0] = 5.0


def test_forced_ranking_matrix():
    """Four rows all ordering the three methods identically."""
    mat = matrix_of([[1.0, 2.0, 3.0],
                     [1.5, 2.5, 3.5],
                     [0.2, 0.4, 0.6],
                     [5.0, 6.0, 7.0]])
    s = friedman_test(mat)
    assert s.avg_ranks == (1.0, 2.0, 3.0)
    assert s.friedman_chi2 == pytest.approx(8.0)
    assert math.isinf(s.iman_davenport_f)
    assert s.p_value == 0.0


def test_all_tied_matrix():
    mat = matrix_of(np.ones((4, 3)))
    s = friedman_test(mat)
    assert s.friedman_chi2 == pytest.approx(0.0)
    assert s.p_value == 1.0
    assert not s.significant_pairs


def test_chi2_cdf_hand_values():
    assert chi2_cdf(8.0, 2) == pytest.approx(1.0 - math.exp(-4.0), abs=1e-6)
    assert chi2_cdf(0.0, 5) == 0.0
    assert chi2_cdf(1e9, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        chi2_cdf(-1.0, 2)


def test_f_cdf_median_for_equal_dof():
    for d in (2, 5, 11):
        assert f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-6)
    assert f_cdf(0.0, 3, 4) == 0.0


def test_q_alpha_table_values():
    assert nemenyi_qalpha(2, 0.05) == pytest.approx(1.960, abs=1e-3)
    assert nemenyi_qalpha(3, 0.05) == pytest.approx(2.343, abs=1e-3)
    assert nemenyi_qalpha(5, 0.05) == pytest.approx(2.728, abs=1e-3)
    with pytest.raises(ValueError):
        nemenyi_qalpha(11, 0.05)
    with pytest.raises(ValueError):
        nemenyi_qalpha(5, 0.03)


def test_critical_difference_hand_value():
    cd = critical_difference(5, 7, alpha=0.05)
    assert cd == pytest.approx(2.728 * math.sqrt(30.0 / 42.0), abs=1e-9)
    assert cd == pytest.approx(2.306, abs=1e-3)


def test_aggregate_splits():
    assert aggregate_splits([3.0]) == (3.0, 0.0)
    mean, std = aggregate_splits([1, 2, 3, 4, 5])
    assert mean == pytest.approx(3.0)
    assert std == pytest.approx(math.sqrt(2.5))
    assert aggregate_splits([7.0, 7.0, 7.0])[1] == 0.0


def test_friedman_requires_enough_rows_and_columns():
    with pytest.raises(ValueError):
        friedman_test(matrix_of([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        friedman_test(matrix_of(np.ones((4, 1))))


def test_rank_outputs_invariant_under_monotone_row_transforms():
    rng = rng_from_seed(41)
    for trial in range(100):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(3, 7))
        base = rng.uniform(1.0, 9.0, size=(n, k))
        ref = friedman_test(matrix_of(base))

        warped = base.copy()
        for r in range(n):
            a = float(rng.uniform(0.1, 5.0))
            b = float(rng.uniform(0.0, 3.0))
            warped[r] = a * warped[r] + b
        if trial % 2:
            warped = np.exp(warped / warped.max())
        out = friedman_test(matrix_of(warped))
        assert out.avg_ranks == ref.avg_ranks
        assert out.friedman_chi2 == pytest.approx(ref.friedman_chi2)
        assert out.p_value == pytest.approx(ref.p_value)
        assert out.cd == pytest.approx(ref.cd)
        assert out.significant_pairs == ref.significant_pairs


def test_column_permutation_permutes_ranks():
    rng = rng_from_seed(42)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(3, 7))
        vals = rng.uniform(0.5, 4.0, size=(n, k))
        names = tuple(f"m{j}" for j in range(k))
        ref = friedman_test(matrix_of(vals, methods=names))
        perm = rng.permutation(k)
        out = friedman_test(matrix_of(vals[:, perm],
                                      methods=tuple(names[j] for j in perm)))
        assert out.friedman_chi2 == pytest.approx(ref.friedman_chi2)
        assert out.p_value == pytest.approx(ref.p_value)
        assert out.cd == pytest.approx(ref.cd)
        for name in names:
            assert out.rank_of(name) == pytest.approx(ref.rank_of(name))
        assert {frozenset(p) for p in out.significant_pairs} == \
               {frozenset(p) for p in ref.significant_pairs}


def test_significant_pairs_follow_cd():
    # strong separation: first method always best, last always worst
    rng = rng_from_seed(43)
    vals = np.tile(np.arange(1.0, 6.0), (12, 1)) + rng.normal(size=(12, 5)) * 0.01
    s = friedman_test(matrix_of(vals))
    assert s.p_value < 0.05
    best, worst = "m0", "m4"
    assert s.is_significant(best, worst)
    assert s.is_significant(worst, best)
    for a, b in s.significant_pairs:
        assert abs(s.rank_of(a) - s.rank_of(b)) >= s.cd - 1e-12


def test_matrix_round_trip(tmp_path):
    rng = rng_from_seed(44)
    mat = matrix_of(rng.uniform(1, 5, size=(3, 4)))
    back = load_result_matrix(save_result_matrix(mat, tmp_path / "m.csv"))
    assert back.datasets == mat.datasets
    assert back.methods == mat.methods
    assert np.array_equal(back.mae, mat.mae)


def test_rank_report_files(tmp_path):
    mat = matrix_of([[1.0, 2.0, 3.0],
                     [1.1, 2.1, 3.1],
                     [0.9, 1.9, 2.9],
                     [1.2, 2.2, 3.2]],
                    methods=("alpha", "beta", "gamma"))
    summary = friedman_test(mat)
    txt_path, json_path = write_rank_report(summary, tmp_path / "report.txt")
    text = txt_path.read_text()
    assert "alpha" in text.splitlines()[3]  # best method listed first
    assert "chi2_F=8.0" in text
    payload = json.loads(json_path.read_text())
    assert payload["avg_ranks"] == {"alpha": 1.0, "beta": 2.0, "gamma": 3.0}
    assert payload["iman_davenport_f"] is None  # inf encoded as null
    assert payload["n_datasets"] == 4
    assert payload["chi2_f"] == 8.0
