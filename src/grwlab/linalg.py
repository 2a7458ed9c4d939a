"""Dense real linear algebra on small and medium matrices.

This is the substrate for every oracle and safeguard in the package: Gram
matrices, extreme eigenvalues, the rank test and span solves and projections.
Matrices are plain row-major float64 ``numpy`` arrays (2-D), vectors are 1-D
arrays; every entry must be finite.  All functions are pure and never mutate
their inputs, so they are safe to call concurrently.

Each public entry point checks each of its array arguments once, on entry,
through ``as_matrix`` or ``as_vector`` (one ``isfinite(...).all()`` pass),
and raises InvalidArgumentError on a NaN or an infinity.  An entry point
that calls another is checked again by it: no internal path skips the
checks.  Finite columns whose Gram matrix overflows raise
InvalidArgumentError too, from the rank test's check of that matrix.  The
infinite-width kernel oracles check their two points through the
covariances <x, x> and <x', x'> they compute anyway, so an overflowing
point raises there as well.

The factorizations are LAPACK's, through numpy only: symmetric eigenvalues
from ``numpy.linalg.eigvalsh`` and the solves from ``numpy.linalg.solve``.
Both are direct, finite algorithms, so no result here depends on an
iteration cap or a stopping tolerance.  ``scipy.linalg`` is not imported: it would add
about 6 MiB of resident memory and 0.1 s to every process for one solve.

Everything runs in 64-bit floats.  No extended precision is used anywhere:
long classification runs are expected to saturate double precision and that
saturation is treated as documented behavior, not an error.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, RankDeficientError

# lambda_min below RANK_TOL * lambda_max counts as rank-deficient.  The
# interpolation and max-margin results assume linearly independent inputs, so
# violations must be detected instead of silently solving an ill-posed system.
RANK_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, validating shape and entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidArgumentError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise InvalidArgumentError(f"{name} must be a non-empty 1-D array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return v


def gram(f) -> np.ndarray:
    """Gram matrix of the columns of ``f``: result[i, j] = <col_i, col_j>.

    The result is symmetrized exactly, so it is symmetric PSD up to round-off.
    """
    f = as_matrix(f, "feature matrix")
    g = f.T @ f
    return 0.5 * (g + g.T)


def _check_symmetric(s: np.ndarray, tol: float = 1e-10) -> None:
    if s.shape[0] != s.shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got shape {s.shape}")
    scale = max(1.0, float(np.abs(s).max()))
    if float(np.abs(s - s.T).max()) > tol * scale:
        raise InvalidArgumentError("matrix is not symmetric within tolerance")


def extreme_eigenvalues(s, tol: float = 1e-10) -> tuple[float, float]:
    """(lambda_max, lambda_min) of a symmetric matrix, from LAPACK's eigvalsh.

    The eigenvalues come from ``numpy.linalg.eigvalsh`` (a direct symmetric
    eigensolver with no iteration cap), so they are accurate to round-off at
    every size.  ``tol`` is kept because callers pass it positionally; it no
    longer changes the result.
    """
    s = as_matrix(s, "symmetric matrix")
    _check_symmetric(s)
    eig = np.linalg.eigvalsh(s)
    return float(eig[-1]), float(eig[0])


def require_full_rank(g, what: str = "columns") -> tuple[float, float]:
    """(lambda_max, lambda_min) of the Gram matrix g of some columns; raises
    RankDeficientError unless lambda_min >= RANK_TOL * lambda_max > 0."""
    lam_max, lam_min = extreme_eigenvalues(g)
    if lam_max <= 0.0 or lam_min < RANK_TOL * lam_max:
        raise RankDeficientError(
            f"{what} are not linearly independent (lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e})"
        )
    return lam_max, lam_min


def min_norm_span_solve(x, r) -> np.ndarray:
    """Unique v in span{columns of x} with x^T v = r, i.e. x (x^T x)^{-1} r."""
    x = as_matrix(x, "input matrix")
    r = as_vector(r, "targets")
    if r.shape[0] != x.shape[1]:
        raise InvalidArgumentError("target length does not match the number of columns")
    g = gram(x)
    # Full rank makes the exactly symmetric g positive definite, so one
    # general solve follows the eigenvalue test without a Cholesky of its own.
    require_full_rank(g)
    return x @ np.linalg.solve(g, r)


def span_residual(v, x) -> float:
    """L2 norm of v minus its orthogonal projection onto span{columns of x}."""
    v = as_vector(v, "vector")
    x = as_matrix(x, "input matrix")
    if v.shape[0] != x.shape[0]:
        raise InvalidArgumentError("vector length does not match the column dimension")
    return float(np.linalg.norm(v - min_norm_span_solve(x, x.T @ v)))
