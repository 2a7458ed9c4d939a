"""Closed-form and combinatorial reference solutions.

These are the independent answers that training is predicted to reach: the
minimum-norm interpolator, the weighted-ridge optimum, the hard-margin
direction, the infinite-width kernel of the erf network, and the robust risk
summaries.  None of them runs gradient descent on the model being checked;
the hard margin is solved exactly, as a least-distance program through one
Lawson-Hanson NNLS, and ships a subset-enumeration twin so the two routes
can be cross-validated on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    NoConvergenceError,
    NotSeparableError,
    UnsupportedError,
    as_int,
)
from .linalg import as_matrix, as_vector, gram, min_norm_span_solve
from .models import ACTIVATIONS
from .reweighting import GroupInfo, cvar_weights, group_means

_MARGIN_TOL = 1e-12
# Samples whose margin is within this relative distance of the minimum form
# the support set.
_SUPPORT_RTOL = 1e-6


def min_norm_interpolator(x, y, theta0, f0) -> np.ndarray:
    """The unique interpolator whose displacement from theta0 lies in span{x_i}.

    Solves <theta, x_i> shifted by the initial outputs: theta = theta0 +
    span-solve(x, y - f0(x)).  For a plain linear model f0 = x^T theta0,
    so the result satisfies x^T theta = y exactly.  Never reads any weights:
    two runs with different weight histories are predicted to land here
    regardless.
    """
    x = as_matrix(x, "data matrix")
    y = as_vector(y, "targets")
    theta0 = as_vector(theta0, "theta0")
    f0 = as_vector(f0, "initial outputs")
    if y.shape != f0.shape or y.shape[0] != x.shape[1] or theta0.shape[0] != x.shape[0]:
        raise InvalidArgumentError("inconsistent shapes for interpolator solve")
    return theta0 + min_norm_span_solve(x, y - f0)


def ridge_closed_form(x, y, q, mu: float, theta0, f0) -> np.ndarray:
    """Global optimum of the weighted squared loss plus (mu/2)||theta-theta0||^2.

    Computed in the n-dimensional dual form theta = theta0 +
    X Q (X^T X Q + mu I)^{-1} (y - f0), avoiding any d x d system.  The
    result satisfies the stationarity equation X Q (X^T delta - r) +
    mu delta = 0 with delta = theta - theta0 and r = y - f0.
    """
    if not (mu > 0):
        raise InvalidArgumentError("mu must be positive")
    x = as_matrix(x, "data matrix")
    y = as_vector(y, "targets")
    q = as_vector(q, "weights")
    theta0 = as_vector(theta0, "theta0")
    f0 = as_vector(f0, "initial outputs")
    n = x.shape[1]
    if not (y.shape[0] == q.shape[0] == f0.shape[0] == n) or theta0.shape[0] != x.shape[0]:
        raise InvalidArgumentError("inconsistent shapes for ridge solve")
    if np.any(q < 0) or abs(q.sum() - 1.0) > 1e-9:
        raise InvalidArgumentError("weights must lie on the probability simplex")
    r = y - f0
    system = gram(x) * q[None, :] + mu * np.eye(n)
    coef = np.linalg.solve(system, r)
    return theta0 + x @ (q * coef)


@dataclass(frozen=True)
class MarginSolution:
    """Hard-margin solution: unit direction, its margin, and the dual certificate.

    direction = sum_i alphas[i] * y_i * x_i with alphas >= 0, and margin =
    min_i y_i <direction, x_i>.  support_set holds the samples at that
    minimum margin; unlike the dual alphas, which need not be unique (two
    identical signed points can share their weight in any split), this set
    is determined by the data.
    """

    direction: np.ndarray
    margin: float
    support_set: tuple[int, ...]
    alphas: np.ndarray


def _solution_from_dual(z: np.ndarray, alpha: np.ndarray, w: np.ndarray) -> MarginSolution:
    """The solution along w = z @ alpha (up to round-off) with dual alpha."""
    norm = float(np.linalg.norm(w))
    if norm < _MARGIN_TOL:
        raise NotSeparableError("degenerate margin")
    direction = w / norm
    margins = z.T @ direction
    margin = float(margins.min())
    if margin < _MARGIN_TOL:
        raise NotSeparableError(f"degenerate margin {margin:.3e}")
    support = tuple(int(i) for i in np.nonzero(margins <= margin * (1.0 + _SUPPORT_RTOL))[0])
    cleaned = np.where(alpha > 1e-8 * alpha.max(), alpha / norm, 0.0)
    return MarginSolution(direction=direction, margin=margin, support_set=support, alphas=cleaned)


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||a u - b|| over u >= 0 by the Lawson-Hanson active-set method.

    Each outer step frees the bound variable with the largest positive
    gradient; the inner loop solves the least-squares problem on the free
    set and steps back to the feasible boundary while any free variable is
    not positive.  Both loops are bounded; NoConvergenceError if a bound is hit.
    """
    m, n = a.shape
    tol = 10.0 * max(m, n) * np.finfo(float).eps * max(1.0, float(np.abs(a).sum(axis=0).max()))
    u = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 1):
        grad = a.T @ (b - a @ u)
        grad[free] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            return u
        free[j] = True
        for _ in range(3 * n + 1):
            s = np.zeros(n)
            s[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            if s[free].min() > 0.0:
                u = s
                break
            blocking = free & (s <= 0.0)
            ub, drop = u[blocking], u[blocking] - s[blocking]
            step = float(np.min(np.divide(ub, drop, out=np.zeros_like(ub), where=drop > 0.0)))
            u = u + step * (s - u)
            free &= u > tol
            u[~free] = 0.0
        else:
            raise NoConvergenceError("NNLS inner loop hit its bound")
    raise NoConvergenceError("NNLS outer loop hit its bound")


def max_margin_direction(x, y) -> MarginSolution:
    """Unit vector maximizing the minimum label margin over the samples.

    Solves min ||w|| s.t. z_i^T w >= 1 (z_i = y_i x_i) exactly, as the
    least-distance program of Lawson & Hanson (1974, ch. 23): one NNLS,
    u = argmin ||[Z; 1^T] u - e_{d+1}|| over u >= 0.  The constraints are
    feasible, i.e. the data are separable through the origin, exactly when
    1 - sum(u) > 0; then alpha = u / (1 - sum(u)) is the hard-margin dual and
    w = Z alpha.  Use max_margin_bruteforce to cross-check results on n <= 10.
    """
    x = as_matrix(x, "data matrix")
    y = as_vector(y, "labels")
    if y.shape[0] != x.shape[1]:
        raise InvalidArgumentError("label count does not match the number of columns")
    if not np.all(np.abs(y) == 1.0):
        raise InvalidArgumentError("labels must be exactly -1 or +1")
    z = x * y[None, :]
    e = np.zeros(z.shape[0] + 1)
    e[-1] = 1.0
    u = _nnls(np.vstack([z, np.ones((1, z.shape[1]))]), e)
    slack = 1.0 - float(u.sum())
    if not slack > 0.0:
        raise NotSeparableError("the margin constraints are infeasible: data is not separable")
    # Z u has norm about the margin while u is O(1), so forming w from it
    # loses digits on small margins.  The support NNLS found fixes w exactly:
    # the minimum-norm w with z_i^T w = 1 on it, solved directly.
    free = u > 0.0
    w = np.linalg.lstsq(z[:, free].T, np.ones(int(free.sum())), rcond=None)[0]
    return _solution_from_dual(z, u / slack, w)


def max_margin_bruteforce(x, y) -> MarginSolution:
    """Exact hard-margin solution by support-subset enumeration (n <= 10).

    For every candidate support set S, solves the equal-margin system
    G_S a = 1; a candidate is kept when its dual coefficients are
    non-negative and every sample attains margin >= 1.  The optimum is the
    feasible candidate of minimum norm.
    """
    x = as_matrix(x, "data matrix")
    y = as_vector(y, "labels")
    n = x.shape[1]
    if n > 10:
        raise InvalidArgumentError("brute-force enumeration is limited to n <= 10")
    if not np.all(np.abs(y) == 1.0):
        raise InvalidArgumentError("labels must be exactly -1 or +1")
    z = x * y[None, :]
    g = gram(z)
    best_norm = math.inf
    best = best_w = None
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = np.ix_(subset, subset)
            try:
                a = np.linalg.solve(g[sub], np.ones(size))
            except np.linalg.LinAlgError:
                continue
            # Round-off in a and in the margins grows with the size of the
            # solve (the margin scaling makes ||w|| = 1 / margin), so both
            # tolerances are relative to it.
            if np.any(a < -1e-10 * max(1.0, float(a.max()))):
                continue
            alpha = np.zeros(n)
            alpha[list(subset)] = np.maximum(a, 0.0)
            w = z @ alpha
            norm = float(np.linalg.norm(w))
            if norm < _MARGIN_TOL:
                continue
            if float((z.T @ w).min()) < 1.0 - 1e-9 * max(1.0, norm):
                continue
            if norm < best_norm - 1e-12:
                best_norm = norm
                best, best_w = alpha, w
    if best is None:
        raise NotSeparableError("no feasible support subset: data is not separable")
    return _solution_from_dual(z, best, best_w)


@dataclass(frozen=True)
class KernelSpec:
    """Depth, bias scale and activation of the infinite-width kernel.

    depth is an int >= 1 (a numpy integer is taken, a bool is not), beta is
    finite and >= 0, and activation is one of ``models.ACTIVATIONS``; only
    erf has the closed form, tanh has the Monte-Carlo kernel.
    """

    depth: int
    beta: float
    activation: str = "erf"

    def __post_init__(self):
        object.__setattr__(self, "depth", as_int(self.depth, "depth"))
        if self.depth < 1:
            raise InvalidArgumentError("depth must be >= 1")
        if not (0 <= self.beta < math.inf):
            raise InvalidArgumentError(f"beta must be finite and >= 0, got {self.beta!r}")
        if self.activation not in ACTIVATIONS:
            raise InvalidArgumentError(f"unknown activation {self.activation!r}")


def _erf_pair_expectation(s11: float, s12: float, s22: float) -> float:
    # E[erf(u) erf(v)] for (u, v) centered Gaussian with covariance
    # [[s11, s12], [s12, s22]].
    denom = math.sqrt((1.0 + 2.0 * s11) * (1.0 + 2.0 * s22))
    arg = min(1.0, max(-1.0, 2.0 * s12 / denom))
    return (2.0 / math.pi) * math.asin(arg)


def _input_covariances(spec: KernelSpec, x, xp) -> tuple[float, float, float]:
    """s11, s12, s22: <x, x>, <x, x'> and <x', x'> over d0, plus beta^2.

    The points are checked through their covariances instead of entry by
    entry: <x, x> is finite exactly when every entry of x is finite and no
    square overflows, so a NaN, an infinity or an overflowing point raises.
    """
    x, xp = np.asarray(x, dtype=np.float64), np.asarray(xp, dtype=np.float64)
    for name, v in (("x", x), ("xp", xp)):
        if v.ndim != 1 or v.shape[0] < 1:
            raise InvalidArgumentError(f"{name} must be a non-empty 1-D array, got shape {v.shape}")
    if x.shape != xp.shape:
        raise InvalidArgumentError("points must have the same dimension")
    d0, b2 = x.shape[0], spec.beta**2
    # ndarray.dot runs the same BLAS dot as @, so the bits are the same, at
    # half the call cost of the matmul ufunc.
    s11, s12, s22 = float(x.dot(x)) / d0 + b2, float(x.dot(xp)) / d0 + b2, float(xp.dot(xp)) / d0 + b2
    for name, s in (("x", s11), ("xp", s22)):
        if not math.isfinite(s):
            raise InvalidArgumentError(f"{name} is not finite or its squared norm overflows")
    return s11, s12, s22


def ntk_limiting_kernel(spec: KernelSpec, x, xp) -> float:
    """Infinite-width tangent kernel of the zero-output-init erf network.

    Runs the layer covariance recursion starting from
    s = <x, x'>/d0 + beta^2 and finishes with the Gaussian expectation of
    the activations plus beta^2 (the only blocks with nonzero gradient at a
    zero-initialized output layer are the output weights and bias).
    """
    if spec.activation != "erf":
        raise UnsupportedError(
            f"closed form exists only for erf; use ntk_limiting_kernel_mc for {spec.activation!r}"
        )
    b2 = spec.beta**2
    s11, s12, s22 = _input_covariances(spec, x, xp)
    for _ in range(spec.depth - 1):
        new11 = _erf_pair_expectation(s11, s11, s11) + b2
        new12 = _erf_pair_expectation(s11, s12, s22) + b2
        new22 = _erf_pair_expectation(s22, s22, s22) + b2
        s11, s12, s22 = new11, new12, new22
    return _erf_pair_expectation(s11, s12, s22) + b2


def ntk_limiting_kernel_mc(
    spec: KernelSpec, x, xp, samples: int = 1_000_000, seed: int = 0
) -> float:
    """Monte-Carlo estimate of the limiting kernel (any activation; approximate).

    Propagates the three covariance entries through the layers, estimating
    every Gaussian expectation from ``samples`` draws.  Deterministic for a
    fixed seed; accuracy is O(1/sqrt(samples)).
    """
    act = ACTIVATIONS[spec.activation][0]
    b2 = spec.beta**2
    s11, s12, s22 = _input_covariances(spec, x, xp)
    rng = np.random.default_rng(seed)
    chunk = 1_000_000

    def expectations(a11: float, a12: float, a22: float) -> tuple[float, float, float]:
        acc = np.zeros(3)
        done = 0
        while done < samples:
            k = min(chunk, samples - done)
            z = rng.standard_normal((2, k))
            u = math.sqrt(max(a11, 0.0)) * z[0]
            if a11 > 0:
                c = a12 / a11
                resid = max(a22 - a12 * a12 / a11, 0.0)
                v = c * u + math.sqrt(resid) * z[1]
            else:
                v = math.sqrt(max(a22, 0.0)) * z[1]
            su, sv = act(u), act(v)
            acc += np.array([np.sum(su * su), np.sum(su * sv), np.sum(sv * sv)])
            done += k
        return tuple(acc / samples)

    for _ in range(spec.depth - 1):
        e11, e12, e22 = expectations(s11, s12, s22)
        s11, s12, s22 = e11 + b2, e12 + b2, e22 + b2
    _, e12, _ = expectations(s11, s12, s22)
    return e12 + b2


def robust_risks(per_sample_losses, groups: GroupInfo, alpha: float):
    """(worst_group, cvar, balanced) summaries of a per-sample loss vector;
    cvar is the loss under ``cvar_weights``, the CVaR scheme's top-m rule."""
    losses = as_vector(per_sample_losses, "losses")
    means = group_means(losses, groups)
    return float(means.max()), float(cvar_weights(losses, alpha).q @ losses), float(means.mean())
