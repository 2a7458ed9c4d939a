"""Each output check passes the right answer and fails a perturbed one.

    python3 -m pytest bench/test_checks.py

The right answers are built here with numpy, so these tests do not need
grwlab.
"""

from __future__ import annotations

import math
import sys
import types

import numpy as np
import pytest

import checks
import micro


def _ball(rng, d, n):
    x = rng.standard_normal((d, n))
    return x / np.linalg.norm(x, axis=0).max()


def _gram(x):
    g = x.T @ x
    return 0.5 * (g + g.T)


def test_micro_metrics_of_a_gone_target_read_none(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(sys.modules, "grwlab", types.ModuleType("grwlab"))
    assert micro.run_all(tmp_path) == {}
    assert "micro benchmark losses.squared.us is missing" in capsys.readouterr().err


def test_report_assertions():
    good = {"passed": True, "assertions": [{"name": "a", "passed": True, "value": 1}]}
    assert checks.report_assertions(good) == []
    bad = {"passed": False, "assertions": [{"name": "a", "passed": False, "value": 1}]}
    assert checks.report_assertions(bad)
    assert checks.report_assertions({"passed": True, "assertions": []})


def test_fig1_final_rows():
    rng = np.random.default_rng(0)
    x = _ball(rng, 96, 6)
    y = np.array([0.0] * 5 + [1.0])
    star = np.linalg.lstsq(x.T, y, rcond=None)[0]
    norm = float(np.linalg.norm(star))
    assert checks.fig1_final_rows(x, y, {"erm": (1e-30, norm)}) == []
    # Interpolating but off the span by 0.01: the norm grows by ~0.01^2 / 2 / norm.
    off = math.sqrt(norm**2 + 0.01**2)
    assert checks.fig1_final_rows(x, y, {"erm": (1e-30, off)})
    assert checks.fig1_final_rows(x, y, {"erm": (1e-9, norm)})


def _approx_report(medians=(0.04, 0.02, 0.01), risks=(0.01, 0.005), gaps=(0.2, 0.1), final=0.01):
    widths = (64, 256, 1024)
    metrics = {f"median_sup_gap[width={w}]": m for w, m in zip(widths, medians)}
    metrics.update({f"final_risks[width={w}]": [final] * 5 for w in widths})
    metrics["reg_tracking"] = {"risks": list(risks), "test_gaps": list(gaps)}
    return {"metrics": metrics}, widths


@pytest.mark.parametrize("perturb", [
    dict(medians=(0.04, 0.05, 0.01)),   # not decreasing
    dict(medians=(0.04, 0.039, 0.038)),  # slope too shallow
    dict(risks=(0.01, 0.02)),
    dict(gaps=(0.1, 0.2)),
    dict(final=0.2),                     # not below the initial risk
    dict(final=float("nan")),
])
def test_approx_scaling_report(perturb):
    targets = [0.0, 0.0, 1.0, 1.0]
    report, widths = _approx_report()
    assert checks.approx_scaling_report(report, widths, targets) == []
    report, widths = _approx_report(**perturb)
    assert checks.approx_scaling_report(report, widths, targets)


def test_jacobian_matches_fd():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 5))

    def predict(t):
        return np.tanh(a @ t)

    theta = rng.standard_normal(5)
    jac = (a * (1 - np.tanh(a @ theta) ** 2)[:, None]).T
    dirs = rng.standard_normal((2, 5))
    assert checks.jacobian_matches_fd(predict, jac, theta, range(5), dirs) == []
    wrong = jac.copy()
    wrong[2, 1] += 1e-3
    assert checks.jacobian_matches_fd(predict, wrong, theta, [2], []) != []
    assert checks.jacobian_matches_fd(predict, wrong, theta, [], dirs) != []


def test_min_norm_and_ridge():
    rng = np.random.default_rng(2)
    x = _ball(rng, 20, 5)
    y = rng.standard_normal(5)
    theta0 = 0.1 * rng.standard_normal(20)
    f0 = x.T @ theta0
    theta = theta0 + x @ np.linalg.solve(_gram(x), y - f0)
    assert checks.min_norm(theta, x, y, theta0, f0) == []
    assert checks.min_norm(theta + 1e-6 * rng.standard_normal(20), x, y, theta0, f0)
    q = rng.dirichlet(np.ones(5))
    mu = 0.1
    coef = np.linalg.solve(_gram(x) * q[None, :] + mu * np.eye(5), y - f0)
    ridge = theta0 + x @ (q * coef)
    assert checks.ridge(ridge, x, y, q, mu, theta0, f0) == []
    assert checks.ridge(ridge * (1 + 1e-6), x, y, q, mu, theta0, f0)


def test_max_margin_kkt():
    # Symmetric pair: the max-margin direction is e1 with margin 0.5.
    x = np.array([[0.5, -0.5, 0.9], [0.1, 0.1, 0.0]])
    y = np.array([1.0, -1.0, 1.0])
    alphas = np.array([1.0, 1.0, 0.0])
    direction = np.array([1.0, 0.0])
    assert checks.max_margin_kkt(direction, 0.5, alphas, x, y) == []
    tilted = np.array([math.cos(0.01), math.sin(0.01)])
    assert checks.max_margin_kkt(tilted, float(((x * y).T @ tilted).min()), alphas, x, y)
    assert checks.max_margin_kkt(direction, 0.5, np.array([1.0, 1.0, 0.5]), x, y)
    assert checks.max_margin_kkt(direction, 0.5, np.array([1.0, -1.0, 0.0]), x, y)
    assert checks.max_margin_kkt(direction, 0.6, alphas, x, y)


def test_ntk_matrix():
    # Depth 1 has a closed form: (2/pi) asin(2 s12 / sqrt((1+2 s11)(1+2 s22))) + beta^2.
    pts = np.array([[0.6, 0.0], [0.0, 0.8]])
    beta = 0.5
    s = pts.T @ pts / 2 + beta**2
    ref = (2 / math.pi) * np.arcsin(2 * s / np.sqrt(np.outer(1 + 2 * np.diag(s), 1 + 2 * np.diag(s)))) + beta**2
    assert checks.ntk_matrix(ref, pts, 1, beta) == []
    assert checks.ntk_matrix(ref + 1e-9, pts, 1, beta)
    assert checks.ntk_matrix(ref, pts, 2, beta)


def test_extreme_eigenvalues():
    s = _gram(_ball(np.random.default_rng(3), 12, 8))
    ev = np.linalg.eigvalsh(s)
    assert checks.extreme_eigenvalues((ev[-1], ev[0]), s) == []
    assert checks.extreme_eigenvalues((ev[-1], ev[0] * (1 + 1e-8)), s)
    assert checks.extreme_eigenvalues((ev[-1] * (1 - 1e-8), ev[0]), s)


def test_span_residual():
    rng = np.random.default_rng(4)
    x = _ball(rng, 10, 3)
    inside = x @ rng.standard_normal(3)
    normal = rng.standard_normal(10)
    normal -= x @ np.linalg.lstsq(x, normal, rcond=None)[0]
    v = inside + normal
    assert checks.span_residual(float(np.linalg.norm(normal)), v, x) == []
    assert checks.span_residual(float(np.linalg.norm(normal)) + 1e-6, v, x)
