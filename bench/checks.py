"""Output checks computed apart from grwlab, with numpy only.

Each check takes what the program produced plus the inputs it was given and
returns a list of failure messages; an empty list means the output passed.
None of them calls into grwlab, so a fault in the program cannot hide itself
by also breaking its check.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance on eigenvalues: the Jacobi path reaches ~1e-13.
EIG_RTOL = 1e-10
# Oracle-vs-reference tolerance for the direct linear solves.
SOLVE_RTOL = 1e-8


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return bool(np.all(np.isfinite(a))) and float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


def report_assertions(report: dict) -> list[str]:
    """Every assertion in a grwlab report.json passes."""
    items = report.get("assertions") or []
    if not items:
        return ["report has no assertions"]
    failures = [f"assertion failed: {a['name']} (value={a['value']})" for a in items if not a["passed"]]
    if not report.get("passed", False) and not failures:
        failures.append("report is marked failed")
    return failures


def min_norm_gap_bound(x, y, theta_norm: float, risk: float) -> float:
    """Upper bound on ||theta - theta*|| from a run's final risk and norm.

    theta* is the minimum-norm interpolator of x^T theta = y (start at 0),
    found here with lstsq.  For residual r = x^T theta - y,
    P theta = theta* + x G^-1 r with G = x^T x, so
    ||theta - theta*||^2 <= ||r||^2 / lambda_min(G) + ||theta||^2 - ||P theta||^2
    and ||P theta|| >= ||theta*|| - ||r|| / sqrt(lambda_min(G)).
    The risk is mean(r^2 / 2), so ||r||^2 = 2 n risk.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    star = np.linalg.lstsq(x.T, y, rcond=None)[0]
    lam_min = float(np.linalg.eigvalsh(x.T @ x)[0])
    if not (lam_min > 0 and math.isfinite(risk) and risk >= 0 and math.isfinite(theta_norm)):
        return math.inf
    delta = math.sqrt(2.0 * x.shape[1] * risk / lam_min)
    proj = max(0.0, float(np.linalg.norm(star)) - delta)
    return math.sqrt(delta**2 + max(0.0, theta_norm**2 - proj**2))


def fig1_final_rows(x, y, finals: dict, risk_tol: float = 1e-10, gap_tol: float = 1e-3) -> list[str]:
    """Each scheme's final iterate interpolates and sits at the min-norm interpolator.

    ``finals`` maps scheme -> (risk, theta_norm) from the last trace row.
    """
    failures = []
    if not finals:
        return ["no traces"]
    for scheme, (risk, theta_norm) in finals.items():
        if not risk < risk_tol:
            failures.append(f"{scheme}: final risk {risk!r} not below {risk_tol:g}")
        bound = min_norm_gap_bound(x, y, theta_norm, risk)
        if not bound < gap_tol:
            failures.append(f"{scheme}: gap to the min-norm interpolator may be {bound:.3g}")
    return failures


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float(lx @ (ly - ly.mean()) / (lx @ lx))


def approx_scaling_report(report: dict, widths, targets, max_slope: float = -0.2) -> list[str]:
    """The paired-net study's claims, recomputed from its report metrics.

    Median sup gaps fall strictly with width with a log-log slope at most
    ``max_slope``; the regularization-tracking risks and gaps shrink with mu;
    every final risk is finite and below the initial risk.  The output layer
    starts at zero, so the initial output is one constant c for every input
    and the initial risk is at least min_c mean((c - y)^2 / 2) = var(y) / 2.
    """
    metrics = report.get("metrics", {})
    failures = []
    try:
        medians = [float(metrics[f"median_sup_gap[width={w}]"]) for w in widths]
        risks = [float(r) for w in widths for r in metrics[f"final_risks[width={w}]"]]
        tracking = metrics["reg_tracking"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report lacks a metric: {exc}"]
    if not all(b < a for a, b in zip(medians, medians[1:])):
        failures.append(f"median gaps do not decrease with width: {medians}")
    if not all(m > 0 for m in medians):
        failures.append(f"median gaps must be positive: {medians}")
    elif not loglog_slope(widths, medians) <= max_slope:
        failures.append(f"log-log slope {loglog_slope(widths, medians):.3f} above {max_slope}")
    initial_floor = 0.5 * float(np.var(np.asarray(targets, dtype=float)))
    bad = [r for r in risks if not (math.isfinite(r) and r < initial_floor)]
    if bad:
        failures.append(f"final risks not finite and below the initial risk {initial_floor:g}: {bad}")
    r_mu, g_mu = tracking.get("risks", []), tracking.get("test_gaps", [])
    if not (len(r_mu) == 2 and r_mu[1] < r_mu[0]):
        failures.append(f"regularized risk does not shrink with mu: {r_mu}")
    if not (len(g_mu) == 2 and g_mu[1] < g_mu[0]):
        failures.append(f"tracking gap does not shrink with mu: {g_mu}")
    return failures


def jacobian_matches_fd(predict, jac: np.ndarray, theta: np.ndarray, coords, directions,
                        h: float = 1e-5, rtol: float = 1e-6) -> list[str]:
    """Jacobian columns and directional derivatives against central differences.

    ``predict(theta)`` gives the outputs at the fixed inputs; ``jac`` is the
    p x m Jacobian claimed at ``theta``.
    """
    scale = max(1.0, float(np.abs(jac).max()))
    failures = []
    for i in coords:
        e = np.zeros_like(theta)
        e[i] = h
        fd = (predict(theta + e) - predict(theta - e)) / (2 * h)
        if not np.allclose(jac[i], fd, rtol=0, atol=rtol * scale):
            failures.append(f"d f / d theta[{i}] differs from central differences")
    for k, v in enumerate(directions):
        fd = (predict(theta + h * v) - predict(theta - h * v)) / (2 * h)
        if not np.allclose(jac.T @ v, fd, rtol=0, atol=rtol * scale * max(1.0, float(np.abs(v).sum()))):
            failures.append(f"directional derivative {k} differs from central differences")
    return failures


def min_norm(theta, x, y, theta0, f0) -> list[str]:
    """theta = theta0 + the least-norm solution of x^T delta = y - f0."""
    ref = np.asarray(theta0, dtype=float) + np.linalg.lstsq(np.asarray(x).T, np.asarray(y) - np.asarray(f0), rcond=None)[0]
    return [] if _close(theta, ref, SOLVE_RTOL) else ["min-norm interpolator differs from lstsq"]


def ridge(theta, x, y, q, mu, theta0, f0) -> list[str]:
    """theta matches the primal d x d solve and satisfies stationarity."""
    x, q = np.asarray(x, dtype=float), np.asarray(q, dtype=float)
    r = np.asarray(y, dtype=float) - np.asarray(f0, dtype=float)
    d = x.shape[0]
    delta_ref = np.linalg.solve((x * q) @ x.T + mu * np.eye(d), (x * q) @ r)
    delta = np.asarray(theta, dtype=float) - np.asarray(theta0, dtype=float)
    failures = []
    if not _close(delta, delta_ref, SOLVE_RTOL):
        failures.append("ridge optimum differs from the primal solve")
    stationarity = x @ (q * (x.T @ delta - r)) + mu * delta
    if not float(np.linalg.norm(stationarity)) <= SOLVE_RTOL * max(1.0, float(np.linalg.norm(x @ (q * r)))):
        failures.append("ridge optimum violates stationarity")
    return failures


def max_margin_kkt(direction, margin, alphas, x, y, tol: float = 1e-6) -> list[str]:
    """KKT certificate of the hard-margin direction.

    alphas >= 0 and not all zero; the direction is parallel to
    sum_i alpha_i y_i x_i; the reported margin is the minimum label margin;
    every sample with alpha_i > 0 sits at that minimum.  These conditions are
    sufficient for optimality of the convex hard-margin problem.
    """
    direction = np.asarray(direction, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    z = np.asarray(x, dtype=float) * np.asarray(y, dtype=float)[None, :]
    failures = []
    if not abs(float(np.linalg.norm(direction)) - 1.0) <= 1e-9:
        failures.append("direction is not a unit vector")
    if np.any(alphas < 0) or not np.any(alphas > 0):
        failures.append("dual coefficients are not non-negative and nonzero")
        return failures
    w = z @ alphas
    cos = float(w @ direction) / float(np.linalg.norm(w))
    if not cos >= 1.0 - 1e-9:
        failures.append(f"direction is not parallel to sum alpha_i y_i x_i (cos={cos!r})")
    margins = z.T @ direction
    if not (margin > 0 and abs(float(margins.min()) - margin) <= tol * margin):
        failures.append(f"reported margin {margin!r} is not the minimum margin {margins.min()!r}")
    support = alphas > 0
    if not float(np.abs(margins[support] - margins.min()).max()) <= tol * margin:
        failures.append("a support point is not at the minimum margin")
    return failures


def erf_ntk(x, xp, depth: int, beta: float) -> float:
    """Infinite-width erf NTK of the zero-output-init net, by the arcsin recursion.

    E[erf(u) erf(v)] = (2/pi) asin(2 s12 / sqrt((1 + 2 s11)(1 + 2 s22))).
    """
    x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
    b2 = beta * beta
    cov = np.array([[x @ x, x @ xp], [xp @ x, xp @ xp]]) / x.shape[0] + b2

    def expect(c):
        denom = np.sqrt(np.outer(1.0 + 2.0 * np.diag(c), 1.0 + 2.0 * np.diag(c)))
        return (2.0 / np.pi) * np.arcsin(np.clip(2.0 * c / denom, -1.0, 1.0))

    for _ in range(depth - 1):
        cov = expect(cov) + b2
    return float(expect(cov)[0, 1] + b2)


def ntk_matrix(kernel, points, depth: int, beta: float, tol: float = 1e-12) -> list[str]:
    m = points.shape[1]
    ref = np.array([[erf_ntk(points[:, i], points[:, j], depth, beta) for j in range(m)]
                    for i in range(m)])
    return [] if _close(kernel, ref, tol) else [f"depth-{depth} NTK differs from the arcsin recursion"]


def extreme_eigenvalues(result, s, rtol: float = EIG_RTOL) -> list[str]:
    """(lambda_max, lambda_min) within a relative rtol of eigvalsh."""
    ev = np.linalg.eigvalsh(np.asarray(s, dtype=float))
    failures = []
    for label, got, ref in (("max", result[0], ev[-1]), ("min", result[1], ev[0])):
        if not abs(got - ref) <= rtol * abs(ref):
            failures.append(f"lambda_{label} {got!r} vs eigvalsh {ref!r} "
                            f"(relative error {abs(got - ref) / abs(ref):.2e} > {rtol:g})")
    return failures


def span_residual(result, v, x, rtol: float = 1e-9) -> list[str]:
    """Residual of v off span{x} against an lstsq projection."""
    v, x = np.asarray(v, dtype=float), np.asarray(x, dtype=float)
    ref = float(np.linalg.norm(v - x @ np.linalg.lstsq(x, v, rcond=None)[0]))
    if abs(result - ref) <= rtol * max(1.0, float(np.linalg.norm(v))):
        return []
    return [f"span residual {result!r} vs lstsq {ref!r}"]
