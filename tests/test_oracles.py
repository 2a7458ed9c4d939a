import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grwlab.errors import InvalidArgumentError, NotSeparableError, UnsupportedError
from grwlab.models import Architecture, linearize, nn_grad_batch, nn_init
from grwlab.oracles import (
    KernelSpec,
    _nnls,
    max_margin_bruteforce,
    max_margin_direction,
    min_norm_interpolator,
    ntk_limiting_kernel,
    ntk_limiting_kernel_mc,
    ridge_closed_form,
    robust_risks,
)
from grwlab.reweighting import GroupInfo
from grwlab import linalg as la


# -- minimum-norm interpolator ------------------------------------------------


def test_interpolator_single_sample():
    theta = min_norm_interpolator(np.array([[1.0], [0.0]]), [2.0], np.zeros(2), [0.0])
    assert np.allclose(theta, [2.0, 0.0])


def test_interpolator_with_offset_start():
    # Start orthogonal to the span: the displacement stays in the span and
    # interpolation holds for the shifted targets.
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    theta0 = np.array([0.0, 0.0, 3.0])
    y = np.array([1.0, -1.0])
    theta = min_norm_interpolator(x, y, theta0, x.T @ theta0)
    assert np.allclose(x.T @ theta, y)
    assert la.span_residual(theta - theta0, x) <= 1e-10


def test_interpolator_never_reads_weights():
    # Operational uniqueness: identical output whatever scheme produced the
    # run, because the signature has no weight argument at all.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((15, 5))
    y = rng.standard_normal(5)
    theta0 = rng.standard_normal(15)
    a = min_norm_interpolator(x, y, theta0, x.T @ theta0)
    b = min_norm_interpolator(x, y, theta0, x.T @ theta0)
    assert np.array_equal(a, b)
    assert np.allclose(x.T @ a, y, atol=1e-9)


# -- ridge closed form ----------------------------------------------------------


def test_ridge_scalar_example():
    theta = ridge_closed_form(np.array([[1.0], [0.0]]), [1.0], [1.0], 1.0, np.zeros(2), [0.0])
    assert np.allclose(theta, [0.5, 0.0])


def test_ridge_huge_mu_shrinks_to_start():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 4)) / 4
    y = rng.standard_normal(4)
    q = np.full(4, 0.25)
    theta = ridge_closed_form(x, y, q, 1e9, np.zeros(8), np.zeros(4))
    assert np.linalg.norm(theta) <= 1e-8


def test_ridge_matches_primal_solve():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d, n = 20, 5
        x = rng.standard_normal((d, n)) / np.sqrt(d)
        y = rng.standard_normal(n)
        q = rng.dirichlet(np.ones(n))
        mu = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
        theta0 = rng.standard_normal(d) * 0.1
        f0 = x.T @ theta0
        theta = ridge_closed_form(x, y, q, mu, theta0, f0)
        # Primal oracle: the d x d normal equations solved directly.
        primal = theta0 + np.linalg.solve(
            x @ np.diag(q) @ x.T + mu * np.eye(d), x @ (q * (y - f0))
        )
        assert np.linalg.norm(theta - primal) <= 1e-9


def test_ridge_stationarity_residual():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(3, 30))
        n = int(rng.integers(1, min(d, 8) + 1))
        x = rng.standard_normal((d, n)) / np.sqrt(d)
        y = rng.standard_normal(n)
        q = rng.dirichlet(np.ones(n))
        mu = float(10 ** rng.uniform(-2, 1))
        theta0 = rng.standard_normal(d) * 0.2
        f0 = x.T @ theta0
        theta = ridge_closed_form(x, y, q, mu, theta0, f0)
        delta = theta - theta0
        residual = x @ (q * (x.T @ delta - (y - f0))) + mu * delta
        assert np.linalg.norm(residual) <= 1e-9


def test_ridge_rejects_bad_mu():
    # An infinite mu would give an all-NaN theta: (0 * inf) in the dual solve.
    x = np.eye(3)[:, :2]
    for mu in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidArgumentError, match="mu"):
            ridge_closed_form(x, [1.0, 1.0], [0.5, 0.5], mu, np.zeros(3), [0.0, 0.0])


# -- hard margin ----------------------------------------------------------------


@pytest.mark.parametrize("shape", [(9, 4), (6, 6), (4, 12), (65, 200)])
def test_nnls_matches_scipy(shape):
    # scipy.optimize.nnls is the reference here only: the package itself
    # does not import scipy.optimize.
    from scipy.optimize import nnls

    rng = np.random.default_rng(shape[1])
    for _ in range(20):
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        u = _nnls(a, b)
        ref, ref_res = nnls(a, b, maxiter=10 * shape[1])
        assert np.all(u >= 0)
        assert np.linalg.norm(a @ u - b) == pytest.approx(ref_res, rel=1e-9, abs=1e-12)
        assert np.allclose(u, ref, atol=1e-9)


def test_max_margin_symmetric_pair():
    x = np.array([[1.0, -1.0], [0.0, 0.0]])
    y = np.array([1.0, -1.0])
    sol = max_margin_direction(x, y)
    assert np.allclose(sol.direction, [1.0, 0.0], atol=1e-9)
    assert sol.margin == pytest.approx(1.0, abs=1e-9)
    assert set(sol.support_set) == {0, 1}


def test_max_margin_single_point():
    sol = max_margin_direction(np.array([[0.0], [1.0]]), np.array([1.0]))
    assert np.allclose(sol.direction, [0.0, 1.0], atol=1e-10)
    assert sol.margin == pytest.approx(1.0, abs=1e-10)


def _random_separable(rng, n, d, min_margin=0.1):
    while True:
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        x = rng.standard_normal((d, n))
        x /= max(1.0, np.linalg.norm(x, axis=0).max())
        margins = x.T @ w
        if np.all(np.abs(margins) >= min_margin):
            return x, np.sign(margins)


def test_max_margin_dual_matches_bruteforce():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        x, y = _random_separable(rng, n, int(rng.integers(2, 11)))
        dual = max_margin_direction(x, y)
        brute = max_margin_bruteforce(x, y)
        assert dual.margin == pytest.approx(brute.margin, abs=1e-8)
        assert float(dual.direction @ brute.direction) > 1.0 - 1e-8


def _assert_kkt_and_unbeaten(x, y, sol, rng):
    margins = (x * y[None, :]).T @ sol.direction
    # Complementary slackness at the returned scaling.
    assert np.all(sol.alphas >= 0)
    assert np.all(np.abs(sol.alphas * (margins - sol.margin)) <= 1e-8)
    # Reconstruction: direction = sum alphas_i y_i x_i.
    assert np.allclose((x * y[None, :]) @ sol.alphas, sol.direction, atol=1e-8)
    # No random unit direction beats it.
    probes = rng.standard_normal((x.shape[0], 10_000))
    probes /= np.linalg.norm(probes, axis=0, keepdims=True)
    probe_margins = ((x * y[None, :]).T @ probes).min(axis=0)
    assert probe_margins.max() <= sol.margin + 1e-12


def test_max_margin_kkt_and_probabilistic_optimality():
    rng = np.random.default_rng(21)
    x, y = _random_separable(rng, 6, 10)
    _assert_kkt_and_unbeaten(x, y, max_margin_direction(x, y), rng)


def test_max_margin_small_margin_set_matches_bruteforce():
    # Margin 2.1e-4 on 8 points in R^5: the hard-margin dual is badly
    # conditioned, and brute force is still cheap.
    fixed = np.random.default_rng(2577)
    x = fixed.standard_normal((5, 8))
    x /= np.linalg.norm(x, axis=0).max()
    y = fixed.choice([-1.0, 1.0], 8)
    sol = max_margin_direction(x, y)
    brute = max_margin_bruteforce(x, y)
    assert sol.margin == pytest.approx(2.1e-4, rel=0.05)
    assert sol.margin == pytest.approx(brute.margin, rel=1e-8)
    assert float(sol.direction @ brute.direction) > 1.0 - 1e-12
    assert sol.support_set == brute.support_set
    _assert_kkt_and_unbeaten(x, y, sol, np.random.default_rng(22))


def test_max_margin_bruteforce_accepts_tiny_margin_set():
    # Draw 128 of this stream is a 3 x 8 set with margin 7.3e-5: at the
    # margin-1 scaling ||w|| is about 1.4e4, so the computed margins of its
    # own support fall short of 1 by more than an absolute tolerance allows.
    rng = np.random.default_rng(0)
    for _ in range(129):
        d = rng.integers(2, 12)
        n = rng.integers(1, 10)
        x = rng.standard_normal((d, n))
        x /= np.linalg.norm(x, axis=0).max()
        y = rng.choice([-1.0, 1.0], n)
    assert x.shape == (3, 8)
    brute = max_margin_bruteforce(x, y)
    sol = max_margin_direction(x, y)
    assert brute.margin == pytest.approx(7.3e-5, rel=0.01)
    assert brute.margin == pytest.approx(sol.margin, rel=1e-8)
    assert brute.support_set == sol.support_set == (3, 5, 7)


def test_max_margin_many_samples():
    # n = 200 > 10: beyond brute force, so the KKT certificate and random
    # probes are the oracle.
    rng = np.random.default_rng(31)
    d, n = 64, 200
    w = rng.standard_normal(d)
    x = rng.standard_normal((d, n))
    x /= np.linalg.norm(x, axis=0).max()
    y = np.sign(x.T @ w)
    sol = max_margin_direction(x, y)
    assert sol.margin > 0
    assert float(sol.direction @ w) > 0
    _assert_kkt_and_unbeaten(x, y, sol, rng)


_FOOTPRINT_PROBE = """
import inspect
import sys

import numpy as np

import grwlab
import grwlab.cli
from grwlab import linalg, oracles
from grwlab.models import LinearModel
from grwlab.reweighting import GroupInfo, parse_scheme
from grwlab.trainer import TrainConfig, train

x = np.array([[0.5, -0.2, 0.1], [0.1, 0.4, -0.3], [-0.2, 0.1, 0.5], [0.3, 0.3, 0.2]])
y, labels = np.array([1.0, -1.0, 1.0]), np.array([1.0, -1.0, 1.0])
groups = GroupInfo([0, 0, 1])
theta0 = np.zeros(4)
spec = oracles.KernelSpec(depth=1, beta=0.1)
# An erf net loads scipy.special on its first forward pass (see the next
# probe); the Monte-Carlo kernel is checked here on a tanh net, and the
# closed-form kernel of the erf net needs no SciPy.
tanh = oracles.KernelSpec(depth=1, beta=0.1, activation="tanh")
called = {
    "min_norm_interpolator": lambda: oracles.min_norm_interpolator(x, y, theta0, x.T @ theta0),
    "ridge_closed_form": lambda: oracles.ridge_closed_form(x, y, np.full(3, 1 / 3), 0.1, theta0,
                                                           x.T @ theta0),
    "max_margin_direction": lambda: oracles.max_margin_direction(x, labels),
    "max_margin_bruteforce": lambda: oracles.max_margin_bruteforce(x, labels),
    "ntk_limiting_kernel": lambda: oracles.ntk_limiting_kernel(spec, x[:, 0], x[:, 1]),
    "ntk_limiting_kernel_mc": lambda: oracles.ntk_limiting_kernel_mc(tanh, x[:, 0], x[:, 1], 1000),
    "robust_risks": lambda: oracles.robust_risks(np.array([0.1, 0.2, 0.3]), groups, 0.5),
}
exported = {name for name, f in vars(oracles).items()
            if inspect.isfunction(f) and f.__module__ == oracles.__name__ and hasattr(grwlab, name)}
assert set(called) == exported, exported ^ set(called)
g = linalg.gram(x)
called_linalg = {
    "as_matrix": lambda: linalg.as_matrix(x),
    "as_vector": lambda: linalg.as_vector(y),
    "gram": lambda: linalg.gram(x),
    "extreme_eigenvalues": lambda: linalg.extreme_eigenvalues(g),
    "require_full_rank": lambda: linalg.require_full_rank(g),
    "min_norm_span_solve": lambda: linalg.min_norm_span_solve(x, y),
    "span_residual": lambda: linalg.span_residual(np.ones(4), x),
}
public = {name for name, f in vars(linalg).items()
          if inspect.isfunction(f) and f.__module__ == linalg.__name__ and not name.startswith("_")}
assert set(called_linalg) == public, public ^ set(called_linalg)
for fn in (*called.values(), *called_linalg.values()):
    fn()

data = grwlab.Dataset(X=x, Y=y, groups=groups, provenance="probe")
cfgs = [TrainConfig(eta=0.5, epochs=3, loss=grwlab.Squared(), scheme=parse_scheme(s))
        for s in ("erm", "iw", "gdro:0.1", "cvar:0.5")]
assert [t.epochs_run for _, t in train(LinearModel(4), data, cfgs)] == [3] * 4

loaded = sorted(m for m in ("scipy.linalg", "scipy.optimize") if m in sys.modules)
assert not loaded, f"imported {loaded}"
scipy_modules = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not scipy_modules, f"imported {scipy_modules}"
"""

_LAZY_SCIPY_PROBE = """
import sys
import tempfile
from pathlib import Path

import numpy as np

import grwlab.cli
from grwlab.losses import Logistic, loss_kernels
from grwlab.models import Architecture, ModelParams, WideNet

with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "fig1.cfg"
    cfg.write_text("experiment = fig1\\nschemes = erm, iw\\nloss = squared\\nmodel = linear\\n"
                   "eta = 0.5\\nepochs = 1000\\nstop_risk = 0\\nrecord_every = 250\\n"
                   "dataset = blobs\\nsynth_d = 8\\nsynth_sizes = 3,1\\n")
    code = grwlab.cli.main(["fig1", "--config", str(cfg), "--out", tmp, "--synthetic"])
    assert code == 0, code
    assert (Path(tmp) / "fig1" / "report.json").is_file()
assert "scipy.special" not in sys.modules, "fig1 imported scipy.special"

rng = np.random.default_rng(3)


def logistic_kernel():
    yhat, y = rng.standard_normal(7) * 4, rng.choice([-1.0, 1.0], 7)
    _, grad = loss_kernels(Logistic())(yhat, y)
    assert "scipy.special" in sys.modules
    from scipy.special import expit

    assert np.array_equal(grad, -y * expit(-(yhat * y)))


def erf_net():
    net = WideNet(Architecture(3, (16,), beta=0.1))
    theta = rng.standard_normal(net.n_params)
    xs = rng.standard_normal((3, 5)) / 3
    values = net.predict(theta, xs)
    assert "scipy.special" in sys.modules
    from scipy.special import erf

    p = ModelParams(theta, net.layout)
    h = p.weight(0) @ xs
    h /= np.sqrt(3)
    h += 0.1 * p.bias(0)[:, None]
    out = p.weight(1) @ erf(h)
    out /= np.sqrt(16)
    out += 0.1 * p.bias(1)[:, None]
    assert np.array_equal(values, out[0])


# The first of the two loads scipy.special; both give SciPy's bits.
first, second = (logistic_kernel, erf_net) if sys.argv[1] == "loss" else (erf_net, logistic_kernel)
first()
second()
"""


def _run_probe(source: str, *args: str) -> None:
    import grwlab

    env = {**os.environ, "PYTHONPATH": str(Path(grwlab.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", source, *args], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


def test_import_path_leaves_out_scipy_linalg_and_optimize():
    # In every process, importing scipy.linalg costs about 6 MiB of resident
    # memory and 0.1 s, scipy.optimize about 15 MiB and 0.2 s, and
    # scipy.special about 0.2 s.  The package, its exported oracles, its
    # linalg functions and a squared-loss linear batch load no SciPy module.
    _run_probe(_FOOTPRINT_PROBE)


@pytest.mark.parametrize("first", ["loss", "net"])
def test_scipy_special_loads_on_first_erf_or_expit(first):
    # A squared-loss linear fig1 run through the CLI leaves scipy.special
    # unloaded; the logistic kernel and an erf net each load it on first use
    # and give the same bits as calling it directly.
    _run_probe(_LAZY_SCIPY_PROBE, first)


def test_max_margin_rejects_inseparable():
    x = np.array([[1.0, 1.0], [0.0, 0.0]])
    y = np.array([1.0, -1.0])
    with pytest.raises(NotSeparableError):
        max_margin_direction(x, y)
    with pytest.raises(NotSeparableError):
        max_margin_bruteforce(x, y)


# -- limiting kernel --------------------------------------------------------------


def test_kernel_zero_input_chain():
    spec = KernelSpec(depth=3, beta=0.0)
    assert ntk_limiting_kernel(spec, np.zeros(2), np.zeros(2)) == pytest.approx(0.0, abs=1e-15)


def test_kernel_zero_input_with_bias():
    # x = x' = 0: the covariance chain starts at beta^2 and every value is a
    # closed-form arcsine evaluated by hand.
    beta = 0.5
    spec = KernelSpec(depth=1, beta=beta)
    s1 = beta**2
    expected = (2.0 / math.pi) * math.asin(2 * s1 / (1 + 2 * s1)) + beta**2
    value = ntk_limiting_kernel(spec, np.zeros(3), np.zeros(3))
    assert value == pytest.approx(expected, abs=1e-15)


def test_kernel_depth1_hand_value():
    spec = KernelSpec(depth=1, beta=0.5)
    x = np.array([1.0, 0.0])
    value = ntk_limiting_kernel(spec, x, x)
    # Sigma1 = 1/2 + 1/4 = 3/4; asin argument = 1.5/2.5.
    assert value == pytest.approx((2.0 / math.pi) * math.asin(0.6) + 0.25, abs=1e-15)


def test_kernel_monte_carlo_agreement():
    spec = KernelSpec(depth=1, beta=0.5)
    x, xp = np.array([1.0, 0.0]), np.array([0.3, 0.4])
    cf = ntk_limiting_kernel(spec, x, xp)
    mc = ntk_limiting_kernel_mc(spec, x, xp, samples=2_000_000, seed=11)
    assert mc == pytest.approx(cf, abs=2e-3)


def test_kernel_monte_carlo_agreement_depth2():
    spec = KernelSpec(depth=2, beta=0.3)
    x, xp = np.array([0.5, 0.1, -0.2]), np.array([-0.2, 0.8, 0.1])
    cf = ntk_limiting_kernel(spec, x, xp)
    mc = ntk_limiting_kernel_mc(spec, x, xp, samples=2_000_000, seed=12)
    assert mc == pytest.approx(cf, abs=2e-3)


def test_kernel_symmetric_and_psd_on_point_set():
    spec = KernelSpec(depth=2, beta=0.4)
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((4, 7))
    pts /= np.maximum(np.linalg.norm(pts, axis=0, keepdims=True), 1.0)
    k = np.array([
        [ntk_limiting_kernel(spec, pts[:, i], pts[:, j]) for j in range(7)] for i in range(7)
    ])
    assert np.allclose(k, k.T, atol=1e-14)
    assert np.linalg.eigvalsh(k).min() >= -1e-8


def test_kernel_rejects_tanh_closed_form_but_mc_works():
    spec = KernelSpec(depth=1, beta=0.2, activation="tanh")
    with pytest.raises(UnsupportedError):
        ntk_limiting_kernel(spec, np.zeros(2), np.zeros(2))
    value = ntk_limiting_kernel_mc(spec, np.array([0.5, 0.0]), np.array([0.5, 0.0]),
                                   samples=200_000, seed=3)
    assert value > 0.0


@pytest.mark.parametrize("samples", [0, -5, 2.5, True])
def test_mc_kernel_rejects_a_sample_count_below_one_or_not_an_int(samples):
    # 0 draws gave NaN, -5 gave beta^2, True ran one draw, 2.5 a bare TypeError.
    x = np.array([0.5, 0.5])
    with pytest.raises(InvalidArgumentError, match="samples"):
        ntk_limiting_kernel_mc(KernelSpec(1, 0.5, "tanh"), x, x, samples=samples)


@pytest.mark.parametrize("kwargs", [
    {"depth": 1, "beta": np.nan},
    {"depth": 1, "beta": np.inf},
    {"depth": 1, "beta": -0.5},
    {"depth": 2.5, "beta": 0.5},
    {"depth": 2.0, "beta": 0.5},
    {"depth": True, "beta": 0.5},
    {"depth": "2", "beta": 0.5},
    {"depth": 0, "beta": 0.5},
    {"depth": 1, "beta": 0.5, "activation": "ERF"},
    {"depth": 1, "beta": 0.5, "activation": "relu"},
], ids=["beta-nan", "beta-inf", "beta-negative", "depth-2.5", "depth-float", "depth-bool",
        "depth-str", "depth-0", "activation-case", "activation-unknown"])
def test_kernel_spec_rejects_what_it_cannot_use(kwargs):
    with pytest.raises(InvalidArgumentError):
        KernelSpec(**kwargs)


def test_kernel_spec_takes_numpy_integers_and_tanh():
    spec = KernelSpec(depth=np.int64(2), beta=np.float64(0.5))
    assert spec == KernelSpec(depth=2, beta=0.5)
    assert type(spec.depth) is int
    assert KernelSpec(depth=1, beta=0.0, activation="tanh").activation == "tanh"


@pytest.mark.parametrize("kernel", [ntk_limiting_kernel, ntk_limiting_kernel_mc])
def test_kernels_reject_points_of_different_dimensions(kernel):
    with pytest.raises(InvalidArgumentError, match="same dimension"):
        kernel(KernelSpec(depth=1, beta=0.2), np.zeros(2), np.zeros(3))


# -- empirical kernel ------------------------------------------------------------


def test_empirical_ntk_self_is_norm_squared():
    arch = Architecture(3, (32,), beta=0.3)
    params = nn_init(arch, 2)
    x = np.array([0.4, -0.1, 0.2])
    kernel = la.gram(linearize(arch, params, x[:, None]).features)
    g = nn_grad_batch(arch, params, x[:, None])[1][:, 0]
    assert kernel[0, 0] == pytest.approx(float(g @ g), rel=1e-12)
    assert kernel[0, 0] >= 0.0


def test_empirical_ntk_converges_with_width():
    spec = KernelSpec(depth=1, beta=0.5)
    rng = np.random.default_rng(5)
    x, xp = rng.standard_normal(4) / 3, rng.standard_normal(4) / 3
    limit = ntk_limiting_kernel(spec, x, xp)
    errors = []
    for width in (64, 256, 1024):
        per_seed = []
        for seed in range(10):
            arch = Architecture(4, (width,), beta=0.5)
            params = nn_init(arch, 1000 * width + seed)
            lin = linearize(arch, params, np.stack([x, xp], axis=1))
            per_seed.append(abs(la.gram(lin.features)[0, 1] - limit))
        errors.append(np.median(per_seed))
    assert errors[0] > errors[1] > errors[2]


# -- robust risks ------------------------------------------------------------------


def test_robust_risks_equal_losses():
    groups = GroupInfo([0, 0, 1])
    worst, cvar, balanced = robust_risks([2.0, 2.0, 2.0], groups, 0.5)
    assert worst == cvar == balanced == 2.0


def test_robust_risks_imbalanced_example():
    groups = GroupInfo([0] * 5 + [1])
    worst, cvar, balanced = robust_risks([0.0, 0.0, 0.0, 0.0, 0.0, 6.0], groups, 1.0 / 6.0)
    assert worst == 6.0
    assert cvar == 6.0
    assert balanced == 3.0


def test_robust_risks_cvar_full_support_is_mean():
    rng = np.random.default_rng(9)
    losses = rng.random(7)
    groups = GroupInfo([0, 0, 0, 1, 1, 2, 2])
    _, cvar, _ = robust_risks(losses, groups, 1.0)
    assert cvar == pytest.approx(losses.mean(), abs=1e-15)


def test_robust_risks_ordering_invariant():
    rng = np.random.default_rng(10)
    for _ in range(50):
        labels = rng.integers(0, 3, size=9)
        labels[:3] = [0, 1, 2]
        groups = GroupInfo(labels)
        losses = rng.random(9)
        worst, _, balanced = robust_risks(losses, groups, 0.3)
        means = [losses[labels == k].mean() for k in range(3)]
        assert worst >= balanced >= min(means)
