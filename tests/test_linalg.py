import numpy as np
import pytest

from grwlab import linalg as la
from grwlab.errors import InvalidArgumentError, RankDeficientError


def test_gram_identity_columns():
    assert np.allclose(la.gram(np.eye(2)), np.eye(2))


def test_gram_single_column_norm_squared():
    g = la.gram(np.array([[1.0], [1.0]]))
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_gram_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    f = rng.standard_normal((3, 3))
    g = la.gram(f)
    # Independent O(n^2 p) oracle: explicit dot products, one pair at a time.
    for i in range(3):
        for j in range(3):
            ref = sum(f[k, i] * f[k, j] for k in range(3))
            assert g[i, j] == pytest.approx(ref, abs=1e-12)


def test_gram_is_symmetric_psd_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
        g = la.gram(f)
        assert np.array_equal(g, g.T)
        v = rng.standard_normal(g.shape[0])
        assert v @ g @ v >= -1e-10


def test_gram_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        la.gram(np.array([[np.nan, 1.0]]))


def test_extreme_eigenvalues_diagonal_exact():
    lam_max, lam_min = la.extreme_eigenvalues(np.diag([3.0, 1.0]))
    assert (lam_max, lam_min) == (3.0, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = rng.standard_normal(rng.integers(1, 9))
        lam_max, lam_min = la.extreme_eigenvalues(np.diag(d))
        assert lam_max == pytest.approx(d.max(), abs=1e-12)
        assert lam_min == pytest.approx(d.min(), abs=1e-12)


def test_extreme_eigenvalues_known_2x2():
    lam_max, lam_min = la.extreme_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert lam_max == pytest.approx(3.0, abs=1e-12)
    assert lam_min == pytest.approx(1.0, abs=1e-12)


def test_extreme_eigenvalues_vs_characteristic_polynomial():
    # Gram of a small sample set, checked against root-finding on the
    # characteristic polynomial (an entirely different algorithm).
    rng = np.random.default_rng(42)
    x = rng.random((20, 6))
    g = la.gram(x)
    lam_max, lam_min = la.extreme_eigenvalues(g, 1e-12)
    roots = np.sort(np.roots(np.poly(g)).real)
    assert lam_max == pytest.approx(roots[-1], abs=1e-8)
    assert lam_min == pytest.approx(roots[0], abs=1e-8)


def test_extreme_eigenvalues_large_matrix_power_iteration():
    rng = np.random.default_rng(9)
    s = rng.standard_normal((90, 90))
    s = s + s.T
    lam_max, lam_min = la.extreme_eigenvalues(s, 1e-11)
    ref = np.linalg.eigvalsh(s)
    assert lam_max == pytest.approx(ref[-1], rel=1e-10)
    assert lam_min == pytest.approx(ref[0], rel=1e-10)


@pytest.mark.parametrize("n", [96, 200])
def test_extreme_eigenvalues_known_spectrum(n):
    # Q diag(lam) Q^T with a random orthogonal Q: the extremes are known
    # without any eigensolver.
    rng = np.random.default_rng(n)
    qmat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.5, 4.0, n)
    lam[:2] = [4.5, 0.25]
    s = (qmat * lam) @ qmat.T
    s = 0.5 * (s + s.T)
    lam_max, lam_min = la.extreme_eigenvalues(s, 1e-12)
    assert lam_max == pytest.approx(4.5, rel=1e-10)
    assert lam_min == pytest.approx(0.25, rel=1e-10)


def test_extreme_eigenvalues_rejects_asymmetric():
    with pytest.raises(InvalidArgumentError):
        la.extreme_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_norm_span_solve_single_sample():
    theta = la.min_norm_span_solve(np.array([[1.0], [0.0]]), np.array([2.0]))
    assert np.allclose(theta, [2.0, 0.0])


def test_min_norm_span_solve_identity():
    theta = la.min_norm_span_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(theta, [1.0, 2.0, 3.0])


def test_min_norm_span_solve_projection_identity():
    # theta must satisfy the targets and equal the span projection of any
    # vector generating them.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, 4))
    v = rng.standard_normal(10)
    r = x.T @ v
    theta = la.min_norm_span_solve(x, r)
    assert np.linalg.norm(x.T @ theta - r) < 1e-9
    # Projection oracle via an orthonormal basis (QR, independent route).
    qmat, _ = np.linalg.qr(x)
    proj = qmat @ (qmat.T @ v)
    assert np.linalg.norm(theta - proj) < 1e-9


def test_min_norm_span_solve_output_stays_in_span():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = rng.standard_normal((12, rng.integers(1, 6)))
        r = rng.standard_normal(x.shape[1])
        theta = la.min_norm_span_solve(x, r)
        norm = np.linalg.norm(theta)
        assert la.span_residual(theta, x) <= 1e-9 * max(1.0, norm)


def test_min_norm_span_solve_rank_deficient():
    x = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(RankDeficientError):
        la.min_norm_span_solve(x, np.array([1.0, 1.0]))


def test_require_full_rank_is_the_one_rank_test():
    from grwlab.trainer import safe_learning_rate

    lam_max, lam_min = la.require_full_rank(np.diag([4.0, 1.0]))
    assert (lam_max, lam_min) == (4.0, 1.0)
    x = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    with pytest.raises(RankDeficientError, match="dataset columns are not linearly independent"):
        la.require_full_rank(la.gram(x), "dataset columns")
    # The trainer's step-size bound reports through the same test.
    with pytest.raises(RankDeficientError, match="lambda_min="):
        safe_learning_rate(x, 0.5)


def test_span_residual_orthogonal_vector():
    assert la.span_residual(np.array([0.0, 1.0]), np.array([[1.0], [0.0]])) == pytest.approx(1.0)


def test_span_residual_in_span_vector():
    x = np.random.default_rng(2).standard_normal((6, 3))
    assert la.span_residual(x[:, 0], x) <= 1e-10


def test_span_residual_constructed_distance():
    # Build v = span element + 0.5 * orthogonal unit via Gram-Schmidt.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 3))
    inside = x @ rng.standard_normal(3)
    w = rng.standard_normal(8)
    qmat, _ = np.linalg.qr(x)
    w_perp = w - qmat @ (qmat.T @ w)
    w_perp /= np.linalg.norm(w_perp)
    v = inside + 0.5 * w_perp
    assert la.span_residual(v, x) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 6, 24, 48, 64, 96])
def test_solves_match_scipy_cho_solve(n):
    # scipy.linalg is the reference here only: the package solves through
    # numpy and does not import scipy.linalg.
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        x = rng.standard_normal((n + 8, n)) / np.sqrt(n + 8)
        g = x.T @ x
        factor = cho_factor(g, lower=True)
        r = rng.standard_normal(n)
        ref = x @ cho_solve(factor, r)
        np.testing.assert_allclose(la.min_norm_span_solve(x, r), ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())
        v = rng.standard_normal(n + 8)
        ref = float(np.linalg.norm(v - x @ cho_solve(factor, x.T @ v)))
        assert la.span_residual(v, x) == pytest.approx(ref, rel=1e-10)
