import math

import numpy as np
import pytest
from scipy.special import erf

from grwlab.errors import InvalidArgumentError
from grwlab.models import (
    ACTIVATIONS,
    Architecture,
    LinearizedNet,
    LinearModel,
    ModelParams,
    WideNet,
    layout_for,
    linearize,
    nn_forward_batch,
    nn_grad_batch,
    nn_init,
    nn_pullback,
    parse_model,
)


def _unit(v):
    return v / np.linalg.norm(v)


def test_layout_partitions_parameter_vector():
    arch = Architecture(3, (5, 4), beta=0.2)
    lay = layout_for(arch)
    # W0: 5x3, b0: 5, W1: 4x5, b1: 4, W2: 1x4, b2: 1
    assert lay.size == 15 + 5 + 20 + 4 + 4 + 1
    params = ModelParams(np.arange(lay.size, dtype=float), lay)
    seen = np.concatenate(
        [params.weight(l).ravel() for l in range(3)] + [params.bias(l) for l in range(3)]
    )
    assert sorted(seen.tolist()) == list(range(lay.size))


def test_init_zero_output_layer_and_determinism():
    arch = Architecture(4, (16, 8), beta=0.3)
    p1 = nn_init(arch, 42)
    p2 = nn_init(arch, 42)
    assert np.array_equal(p1.flat, p2.flat)
    assert np.all(p1.weight(2) == 0.0)
    assert np.any(p1.weight(0) != 0.0)
    p3 = nn_init(arch, 43)
    assert not np.array_equal(p1.flat, p3.flat)


def test_init_constant_function_equals_beta_times_output_bias():
    rng = np.random.default_rng(0)
    for seed in range(50):
        arch = Architecture(3, (12,), beta=0.25, activation="tanh" if seed % 2 else "erf")
        params = nn_init(arch, seed)
        x = rng.standard_normal(3)
        x /= 2.0 * np.linalg.norm(x)
        value = nn_forward_batch(arch, params, x[:, None])[0][0]
        assert abs(value - 0.25 * params.bias(1)[0]) <= 1e-12


def test_init_gaussian_moments():
    arch = Architecture(2, (1000,), beta=0.1)
    entries = []
    for seed in range(20):
        entries.append(nn_init(arch, seed).weight(0).ravel())
    pooled = np.concatenate(entries)
    # Sample mean of N(0,1) entries concentrates like 1/sqrt(N).
    assert abs(pooled.mean()) <= 3.0 / math.sqrt(pooled.size)
    assert abs(pooled.std() - 1.0) <= 0.02


def test_forward_zero_params_zero_output():
    arch = Architecture(2, (3,), beta=0.0)
    lay = layout_for(arch)
    params = ModelParams(np.zeros(lay.size), lay)
    value = nn_forward_batch(arch, params, np.array([[0.5], [-0.2]]))[0][0]
    assert value == 0.0


def test_forward_hand_computed_example():
    # One hidden unit, hand-set weights, 1/sqrt(d) scalings applied by hand.
    arch = Architecture(2, (1,), beta=1.0, activation="erf")
    lay = layout_for(arch)
    params = ModelParams(np.zeros(lay.size), lay)
    params.weight(0)[:] = [[1.0, 0.0]]
    params.bias(0)[:] = [0.0]
    params.weight(1)[:] = [[2.0]]
    params.bias(1)[:] = [0.5]
    values, cache = nn_forward_batch(arch, params, np.array([[1.0], [0.0]]))
    h1 = 1.0 / math.sqrt(2.0)
    assert cache.preacts[0][0, 0] == pytest.approx(h1, abs=1e-15)
    assert values[0] == pytest.approx(2.0 * erf(h1) / math.sqrt(1.0) + 0.5, abs=1e-15)


def test_forward_warns_outside_unit_ball():
    arch = Architecture(2, (3,), beta=0.1)
    params = nn_init(arch, 0)
    with pytest.warns(UserWarning):
        nn_forward_batch(arch, params, np.array([[2.0], [0.0]]))


def test_forward_rejects_dimension_mismatch():
    arch = Architecture(3, (4,), beta=0.1)
    params = nn_init(arch, 0)
    with pytest.raises(InvalidArgumentError):
        nn_forward_batch(arch, params, np.array([[1.0], [0.0]]))


def test_grad_output_layer_blocks():
    arch = Architecture(3, (8, 6), beta=0.4, activation="erf")
    params = nn_init(arch, 5)
    rng = np.random.default_rng(1)
    params.flat[:] += 0.5 * rng.standard_normal(params.flat.shape)
    x = _unit(rng.standard_normal(3)) * 0.8
    g = nn_grad_batch(arch, params, x[:, None])[1][:, 0]
    _, cache = nn_forward_batch(arch, params, x[:, None])
    lay = params.layout
    # Output bias path carries exactly beta.
    assert g[lay.bias_offsets[2]] == pytest.approx(0.4, abs=1e-15)
    # Output weight path is the last hidden activation over sqrt(d_L).
    expected = erf(cache.preacts[1][:, 0]) / math.sqrt(6.0)
    assert np.allclose(g[lay.weight_offsets[2] : lay.weight_offsets[2] + 6], expected, atol=1e-14)


@pytest.mark.parametrize("activation", ["erf", "tanh"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_grad_matches_finite_differences(activation, depth):
    arch = Architecture(4, (7,) * depth, beta=0.3, activation=activation)
    params = nn_init(arch, 3)
    rng = np.random.default_rng(depth * 10 + (activation == "erf"))
    params.flat[:] += 0.6 * rng.standard_normal(params.flat.shape)
    x = _unit(rng.standard_normal(4)) * 0.9
    g = nn_grad_batch(arch, params, x[:, None])[1][:, 0]
    h = 1e-5
    idx = rng.choice(params.layout.size, size=min(100, params.layout.size), replace=False)
    for i in idx:
        up = params.flat.copy()
        up[i] += h
        down = params.flat.copy()
        down[i] -= h
        vu = nn_forward_batch(arch, ModelParams(up, params.layout), x[:, None])[0][0]
        vd = nn_forward_batch(arch, ModelParams(down, params.layout), x[:, None])[0][0]
        fd = (vu - vd) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_activation_derivative_bounds():
    # Both activations have bounded, Lipschitz first derivatives.
    z = np.linspace(-12, 12, 4001)
    erf_prime = (2.0 / np.sqrt(np.pi)) * np.exp(-(z**2))
    tanh_prime = 1.0 - np.tanh(z) ** 2
    assert erf_prime.max() <= 2.0 / np.sqrt(np.pi) + 1e-12
    assert tanh_prime.max() <= 1.0 + 1e-12
    h = z[1] - z[0]
    assert np.abs(np.diff(erf_prime) / h).max() < 1.0
    assert np.abs(np.diff(tanh_prime) / h).max() < 0.8


def test_linearized_predict_basics():
    arch = Architecture(3, (10,), beta=0.2)
    params0 = nn_init(arch, 9)
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((3, 5))
    pts /= np.linalg.norm(pts, axis=0) * 1.3
    lin = linearize(arch, params0, pts)
    # Zero displacement reproduces the initial function.
    for j in range(5):
        assert lin.predict(params0.flat, pts)[j] == pytest.approx(lin.f0[j], abs=1e-14)
    # Displacement orthogonal to a feature leaves that output unchanged.
    feats = lin.jacobian(params0.flat, pts)
    direction = rng.standard_normal(params0.flat.shape)
    direction -= feats[:, 0] * (direction @ feats[:, 0]) / (feats[:, 0] @ feats[:, 0])
    moved = params0.flat + direction
    assert lin.predict(moved, pts)[0] == pytest.approx(lin.f0[0], abs=1e-9)
    # Generic displacement matches the explicit dot-product formula.
    theta = params0.flat + 0.3 * rng.standard_normal(params0.flat.shape)
    for j in range(5):
        ref = lin.f0[j] + (theta - params0.flat) @ feats[:, j]
        assert lin.predict(theta, pts)[j] == pytest.approx(ref, abs=1e-12)


def test_linear_model_jacobian_is_data():
    model = LinearModel(4)
    xs = np.random.default_rng(2).standard_normal((4, 6)) / 4.0
    assert model.jacobian(np.zeros(4), xs) is xs


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p,m", [(96, 6), (3, 5)], ids=["fig1-shape", "wide-data"])
@pytest.mark.parametrize("runs", [None, 1, 3], ids=["1d", "one-column", "three-columns"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_linear_model_products_equal_matmul_bit_for_bit(p, m, runs, order):
    # predict, vjp and the pullback use ndarray.dot, which for C- or
    # F-contiguous float64 operands calls the same BLAS routine as @: every
    # bit must agree.
    rng = np.random.default_rng([p, m, runs or 0])
    xs = rng.standard_normal((p, m)) / np.sqrt(p)
    shape = (p,) if runs is None else (p, runs)
    theta = np.asarray(rng.standard_normal(shape), order=order)
    model = LinearModel(p)
    values, pullback = model.vjp(theta, xs)
    _same_bits(values, xs.T @ theta)
    _same_bits(model.predict(theta, xs), xs.T @ theta)
    for k in (m, m - 2, 1):
        v = np.asarray(rng.standard_normal((k,) + shape[1:]), order=order)
        _same_bits(pullback(v), xs[:, :k] @ v)
    with pytest.raises(InvalidArgumentError, match="cotangents"):
        pullback(np.ones((m + 1,) + shape[1:]))


def test_linearized_jacobian_single_column_equals_grad():
    arch = Architecture(2, (6,), beta=0.5)
    params0 = nn_init(arch, 1)
    x = np.array([0.3, -0.4])
    lin = linearize(arch, params0, x[:, None])
    g = nn_grad_batch(arch, params0, x[:, None])[1][:, 0]
    assert np.allclose(lin.jacobian(params0.flat, lin.points)[:, 0], g, atol=1e-14)


def test_linearized_net_is_exactly_linear_training():
    # Training the linearization under any weight sequence reproduces linear
    # regression over the frozen features, step by step.
    from grwlab.losses import Squared, loss_grad as lg

    arch = Architecture(3, (12,), beta=0.2)
    params0 = nn_init(arch, 21)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((3, 4))
    xs /= np.linalg.norm(xs, axis=0) * 1.2
    ys = rng.standard_normal(4)
    lin = linearize(arch, params0, xs)
    feats = lin.jacobian(params0.flat, xs)
    theta_lin = params0.flat.copy()
    phi = np.zeros(feats.shape[0])  # linear model over the feature map
    eta = 0.05
    for t in range(200):
        q = rng.dirichlet(np.ones(4))
        out_lin = lin.predict(theta_lin, xs)
        out_phi = lin.f0 + feats.T @ phi
        assert np.allclose(out_lin, out_phi, atol=1e-12)
        g1 = np.asarray(lg(Squared(), out_lin, ys))
        theta_lin = theta_lin - eta * (feats @ (q * g1))
        g2 = np.asarray(lg(Squared(), out_phi, ys))
        phi = phi - eta * (feats @ (q * g2))
        assert np.allclose(theta_lin - params0.flat, phi, atol=1e-12)


def test_parse_model():
    assert parse_model("linear") == "linear"
    arch = parse_model("mlp:4:64x2:0.5:erf")
    assert arch == Architecture(4, (64, 64), beta=0.5, activation="erf")
    with pytest.raises(InvalidArgumentError):
        parse_model("mlp:4:64:0.5:erf")
    with pytest.raises(InvalidArgumentError):
        parse_model("cnn:3")
    for beta in ("nan", "inf", "-0.5"):
        with pytest.raises(InvalidArgumentError, match="beta"):
            parse_model(f"mlp:4:64x2:{beta}:erf")


@pytest.mark.parametrize("input_dim,widths", [
    (4, (64.7,)),
    (4, (64.0,)),
    (4, (True,)),
    (4, (np.bool_(True),)),
    (4, (16, "8")),
    (4.5, (16,)),
    (4.0, (16,)),
    (True, (16,)),
], ids=["width-fraction", "width-float", "width-bool", "width-numpy-bool", "width-str",
        "input-fraction", "input-float", "input-bool"])
def test_architecture_rejects_non_integer_sizes(input_dim, widths):
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        Architecture(input_dim, widths)


def test_architecture_takes_numpy_integers():
    arch = Architecture(np.int64(4), (np.int32(16), 8))
    assert arch == Architecture(4, (16, 8))
    assert all(type(n) is int for n in (arch.input_dim, *arch.hidden_widths))


@pytest.mark.parametrize("dim", [2.5, 3.0, True, np.bool_(True), "3"],
                         ids=["fraction", "float", "bool", "numpy-bool", "str"])
def test_linear_model_rejects_a_non_integer_dim(dim):
    with pytest.raises(InvalidArgumentError, match="dim must be an integer"):
        LinearModel(dim)


def test_linear_model_takes_a_numpy_integer_dim():
    model = LinearModel(np.int64(4))
    assert type(model.dim) is int and model.n_params == 4
    with pytest.raises(InvalidArgumentError, match="dim must be >= 1"):
        LinearModel(0)


def test_wide_net_adapter_consistency():
    arch = Architecture(3, (9,), beta=0.3)
    net = WideNet(arch)
    theta = net.init_params(13)
    xs = np.random.default_rng(6).standard_normal((3, 5)) / 4.0
    vals = net.predict(theta, xs)
    ref, _ = nn_forward_batch(arch, ModelParams(theta, net.layout), xs)
    assert np.array_equal(vals, ref)
    grad_vals, jac = nn_grad_batch(arch, ModelParams(theta, net.layout), xs)
    assert np.array_equal(grad_vals, ref)
    assert np.array_equal(net.jacobian(theta, xs), jac)


def _vjp_cases():
    rng = np.random.default_rng(17)
    xs = rng.standard_normal((3, 5))
    xs /= 1.1 * np.linalg.norm(xs, axis=0).max()
    yield "linear", LinearModel(3), rng.standard_normal(3), xs
    for activation in ("erf", "tanh"):
        for depth in (1, 2):
            net = WideNet(Architecture(3, (24,) * depth, beta=0.3, activation=activation))
            # Move off the zero output layer so that every block carries signal.
            theta = net.init_params(depth) + 0.3 * rng.standard_normal(net.n_params)
            yield f"widenet-{activation}-{depth}", net, theta, xs
    arch = Architecture(3, (24,), beta=0.3)
    params0 = nn_init(arch, 5)
    lin = linearize(arch, params0, xs)
    theta = params0.flat + 0.3 * rng.standard_normal(params0.flat.shape)
    yield "linearized-cached", lin, theta, xs
    yield "linearized-new-points", lin, theta, xs[:, :3].copy()


@pytest.mark.parametrize("case", list(_vjp_cases()), ids=lambda c: c[0])
def test_vjp_pullback_equals_jacobian_times_v(case):
    name, model, theta, xs = case
    v = np.random.default_rng(3).standard_normal(xs.shape[1])
    values, pullback = model.vjp(theta, xs)
    ref = model.jacobian(theta, xs) @ v
    assert np.allclose(values, model.predict(theta, xs), rtol=0, atol=1e-12)
    if name == "linear":
        assert np.array_equal(values, model.predict(theta, xs))
        assert np.array_equal(pullback(v), ref)
    else:
        assert np.allclose(pullback(v), ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


def _stack_of_runs(theta, runs=3):
    rng = np.random.default_rng(8)
    return np.column_stack([theta] + [theta + 0.1 * rng.standard_normal(theta.shape)
                                      for _ in range(runs - 1)])


@pytest.mark.parametrize("stacked", [False, True], ids=["1d", "stack"])
@pytest.mark.parametrize("case", list(_vjp_cases()), ids=lambda c: c[0])
def test_pullback_of_leading_cotangents_equals_zero_padded(case, stacked):
    # Cotangents for the leading k columns stand for zeros at the rest.
    name, model, theta, xs = case
    if stacked:
        theta = _stack_of_runs(theta)
    m = xs.shape[1]
    v = np.random.default_rng(5).standard_normal((m,) + theta.shape[1:])
    _, pullback = model.vjp(theta, xs)
    for k in sorted({1, m // 2, m}):
        padded = v.copy()
        padded[k:] = 0.0
        ref = pullback(padded)
        got = pullback(v[:k])
        assert got.shape == theta.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("case", list(_vjp_cases()), ids=lambda c: c[0])
def test_pullback_rejects_more_cotangents_than_outputs(case):
    name, model, theta, xs = case
    _, pullback = model.vjp(theta, xs)
    with pytest.raises(InvalidArgumentError, match="cotangents"):
        pullback(np.ones(xs.shape[1] + 1))


@pytest.mark.parametrize("activation", ["erf", "tanh"])
@pytest.mark.parametrize("depth", [1, 2])
def test_pullback_leaves_the_forward_cache_unchanged(activation, depth):
    arch = Architecture(3, (12,) * depth, beta=0.3, activation=activation)
    net = WideNet(arch)
    rng = np.random.default_rng(depth)
    thetas = _stack_of_runs(net.init_params(depth) + 0.3 * rng.standard_normal(net.n_params))
    params = ModelParams(thetas, net.layout)
    xs = rng.standard_normal((3, 5)) / 4.0
    _, cache = nn_forward_batch(arch, params, xs)
    before = [a.copy() for a in cache.preacts + cache.acts]
    for k in (2, 5):
        nn_pullback(arch, params, xs, cache, rng.standard_normal((k, 3)))
        for old, new in zip(before, cache.preacts + cache.acts):
            np.testing.assert_array_equal(new, old)


def test_erf_prime_is_the_flushed_derivative():
    from grwlab.models import _erf_prime

    edge = math.sqrt(690.0)
    z = np.concatenate([np.linspace(-30.0, 30.0, 6002),
                        np.nextafter(edge, [0.0, np.inf]), np.nextafter(-edge, [0.0, -np.inf]),
                        [edge, -edge]]).reshape(4, -1)
    # Entirely inside the edge, so nothing needs the flush.
    inside = np.linspace(-26.0, 26.0, 1000).reshape(2, -1)
    flushes = []
    for zs in (z, inside):
        zs_copy = zs.copy()
        z2 = zs * zs
        ref = np.where(z2 > 690.0, 0.0, 2.0 / np.sqrt(np.pi) * np.exp(-np.minimum(z2, 690.0)))
        out = _erf_prime(zs)
        assert np.array_equal(out, ref)
        assert np.array_equal(zs, zs_copy)
        assert np.all((out == 0.0) | (out >= np.finfo(np.float64).tiny))
        assert (out > 0.0).any()
        flushes.append((out == 0.0).any())
    assert flushes == [True, False]


def test_erf_equals_scipy_erf_bit_for_bit():
    # _erf evaluates SciPy's erf on |z| and restores the sign; SciPy itself
    # gives -erf(-x) for x < 0, so the bits must be SciPy's, -0.0 included.
    from grwlab.models import _erf

    fin = np.finfo(np.float64)
    edges = [0.0, 5e-324, fin.tiny, fin.max, np.inf, 27.0, 27.5, 30.0, 1e10]
    for a in (1.0, 8.0):  # where Cephes switches between its erf and erfc forms
        edges += [np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)]
    rng = np.random.default_rng(0)
    mags = np.concatenate([edges, 10.0 ** rng.uniform(-300.0, 300.0, 100_000),
                           rng.uniform(0.0, 30.0, 20_000)])
    x = np.concatenate([mags, -mags])
    rng.shuffle(x)
    wide = np.zeros((x.size, 3))
    wide[:, 1] = x
    for z in (x, wide[:, 1]):  # contiguous, and a strided view
        z_copy = z.copy()
        out = _erf(z)
        assert np.array_equal(out.view(np.int64), erf(z).view(np.int64))
        assert np.array_equal(z.view(np.int64), z_copy.view(np.int64))
    assert np.signbit(_erf(np.array([0.0, -0.0]))).tolist() == [False, True]
    assert np.isnan(_erf(np.array([np.nan, -np.nan]))).all()


def test_widenet_vjp_is_one_forward_pass(monkeypatch):
    import grwlab.models as models

    calls = []
    original = models.nn_forward_batch
    monkeypatch.setattr(models, "nn_forward_batch", lambda *a, **k: calls.append(1) or original(*a, **k))
    net = WideNet(Architecture(3, (16,), beta=0.3))
    xs = np.random.default_rng(4).standard_normal((3, 4)) / 4.0
    _, pullback = net.vjp(net.init_params(1), xs)
    pullback(np.ones(4))
    assert len(calls) == 1


@pytest.mark.parametrize("activation", ["erf", "tanh"])
@pytest.mark.parametrize("depth", [1, 2])
def test_stacked_runs_match_each_run_alone(activation, depth):
    # A p x R stack goes through batched matmuls; every column must equal
    # the 1-D computation for that run.
    arch = Architecture(3, (12,) * depth, beta=0.3, activation=activation)
    net = WideNet(arch)
    rng = np.random.default_rng(depth)
    thetas = np.column_stack([net.init_params(s) + 0.3 * rng.standard_normal(net.n_params)
                              for s in range(4)])
    xs = rng.standard_normal((3, 5))
    xs /= 1.1 * np.linalg.norm(xs, axis=0).max()
    v = rng.standard_normal((5, 4))
    values, pullback = net.vjp(thetas, xs)
    steps = pullback(v)
    grad_vals, jacs = nn_grad_batch(arch, ModelParams(thetas, net.layout), xs)
    assert values.shape == grad_vals.shape == (5, 4)
    assert steps.shape == thetas.shape
    assert jacs.shape == (4, net.n_params, 5)
    for r in range(4):
        one, one_pullback = net.vjp(thetas[:, r], xs)
        np.testing.assert_allclose(values[:, r], one, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(grad_vals[:, r], one, rtol=1e-13, atol=1e-14)
        scale = max(1.0, float(np.abs(steps[:, r]).max()))
        np.testing.assert_allclose(steps[:, r], one_pullback(v[:, r]), rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(jacs[r], net.jacobian(thetas[:, r], xs), rtol=0, atol=1e-13)


@pytest.mark.parametrize("depth", [1, 2])
def test_column_major_stack_gives_the_same_bits_through_views(depth):
    # A column-major stack keeps each run's block contiguous: the weights are
    # views into it, and outputs and pullbacks equal the row-major stack's.
    arch = Architecture(3, (12,) * depth, beta=0.3)
    net = WideNet(arch)
    rng = np.random.default_rng(7 + depth)
    rows = np.column_stack([net.init_params(s) + 0.3 * rng.standard_normal(net.n_params)
                            for s in range(4)])
    cols = np.asfortranarray(rows)
    assert not rows.flags.f_contiguous and cols.flags.f_contiguous
    for l in range(depth + 1):
        w = ModelParams(cols, net.layout).weight(l)
        assert np.shares_memory(w, cols)
        assert not np.shares_memory(ModelParams(rows, net.layout).weight(l), rows)
        np.testing.assert_array_equal(w, ModelParams(rows, net.layout).weight(l))
    xs = rng.standard_normal((3, 5))
    xs /= 1.1 * np.linalg.norm(xs, axis=0).max()
    v = rng.standard_normal((3, 4))
    row_values, row_pullback = net.vjp(rows, xs)
    col_values, col_pullback = net.vjp(cols, xs)
    np.testing.assert_array_equal(col_values, row_values)
    row_step, col_step = row_pullback(v), col_pullback(v)
    np.testing.assert_array_equal(col_step, row_step)
    assert row_step.flags.f_contiguous and col_step.flags.f_contiguous


def test_linearized_net_one_base_point_for_a_stack_of_runs():
    arch = Architecture(3, (10,), beta=0.2)
    layout = layout_for(arch)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((3, 4))
    xs /= 1.2 * np.linalg.norm(xs, axis=0).max()
    bases = np.column_stack([nn_init(arch, s).flat for s in (3, 4, 5)])
    thetas = bases + 0.2 * rng.standard_normal(bases.shape)
    shared = linearize(arch, ModelParams(bases[:, 0].copy(), layout), xs)
    values, _ = shared.vjp(thetas, xs)
    for r in range(3):
        np.testing.assert_allclose(values[:, r], shared.predict(thetas[:, r], xs), rtol=1e-13, atol=1e-14)


def test_linearize_rejects_a_stack_of_base_points():
    arch = Architecture(3, (10,), beta=0.2)
    bases = np.column_stack([nn_init(arch, s).flat for s in (3, 4)])
    xs = np.random.default_rng(12).standard_normal((3, 4)) / 4.0
    with pytest.raises(InvalidArgumentError, match="one base point"):
        linearize(arch, ModelParams(bases, layout_for(arch)), xs)


def test_linearize_makes_one_network_pass(monkeypatch):
    import grwlab.models as models

    calls = []
    original = models.nn_forward_batch
    monkeypatch.setattr(models, "nn_forward_batch", lambda *a, **k: calls.append(1) or original(*a, **k))
    arch = Architecture(3, (8,), beta=0.3)
    xs = np.random.default_rng(1).standard_normal((3, 4)) / 4.0
    lin = linearize(arch, nn_init(arch, 2), xs)
    assert len(calls) == 1
    assert isinstance(lin, LinearizedNet)
    values, _ = original(arch, nn_init(arch, 2), xs)
    np.testing.assert_array_equal(lin.f0, values)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("d,multiplies", [
    (1, True), (4, True), (64, True), (256, True), (1024, True),
    (2, False), (3, False), (48, False), (128, False),
])
def test_div_sqrt_equals_plain_division_bit_for_bit(d, multiplies):
    # The multiply by 1/sqrt(d) is exact only when sqrt(d) is a power of
    # two; everywhere the helper must give the bits of x / sqrt(d).
    from grwlab.models import _div_sqrt

    big = np.finfo(np.float64).max
    special = np.array([0.0, -0.0, 5e-324, -5e-324, big, -big, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(d)
    scaled = rng.standard_normal(4000) * 10.0 ** rng.uniform(-320.0, 308.0, 4000)
    x = np.concatenate([special, scaled, rng.standard_normal(4000)])
    want = x / np.sqrt(d)
    got = _div_sqrt(x.copy(), d)
    assert np.array_equal(_bits(got), _bits(want))
    out = np.empty_like(x)
    assert _div_sqrt(x, d, out=out) is out
    assert np.array_equal(_bits(out), _bits(want))
    # Which rule applies: a product by the rounded reciprocal moves the last
    # bit of some quotients unless sqrt(d) is a power of two.
    assert np.array_equal(_bits(x * (1.0 / np.sqrt(d))), _bits(want)) == multiplies


def _reference_forward(arch, params, xs):
    # The layer recursion with every 1/sqrt(d_l) scaling written as a plain
    # division.
    act, _ = ACTIVATIONS[arch.activation]
    dims = arch.layer_dims
    preacts, acts, a = [], [], xs
    for l in range(arch.depth + 1):
        h = params.weight(l) @ a / np.sqrt(dims[l])
        h += arch.beta * params.bias(l)[..., None]
        preacts.append(h)
        if l < arch.depth:
            a = act(h)
            acts.append(a)
    return preacts[-1][..., 0, :].T.copy(), preacts, acts


def _reference_pullback(arch, params, xs, preacts, acts, v):
    _, act_prime = ACTIVATIONS[arch.activation]
    dims, layout = arch.layer_dims, params.layout
    out = np.empty(params.flat.shape)
    k = v.shape[0]
    alpha = v.T[..., None, :]
    for l in range(arch.depth, -1, -1):
        a_prev = xs[:, :k] if l == 0 else acts[l - 1][..., :k]
        dw = alpha @ np.swapaxes(a_prev, -1, -2) / np.sqrt(dims[l])
        off_w, off_b = layout.weight_offsets[l], layout.bias_offsets[l]
        size = dw.shape[-2] * dw.shape[-1]
        out[off_w : off_w + size] = dw.ravel() if dw.ndim < 3 else dw.reshape(dw.shape[0], -1).T
        out[off_b : off_b + dw.shape[-2]] = arch.beta * (alpha @ np.ones(k)).T
        if l > 0:
            back = np.swapaxes(params.weight(l), -1, -2) @ alpha / np.sqrt(dims[l])
            alpha = back * act_prime(preacts[l - 1][..., :k])
    return out


def _reference_jacobian(arch, params, xs, preacts, acts):
    _, act_prime = ACTIVATIONS[arch.activation]
    dims, layout = arch.layer_dims, params.layout
    m = xs.shape[1]
    lead = params.flat.shape[1:][::-1]
    jac = np.empty(lead + (layout.size, m))
    alpha = np.ones(lead + (1, m))
    for l in range(arch.depth, -1, -1):
        a_prev = xs if l == 0 else acts[l - 1]
        d_out, d_in = layout.weight_shapes[l]
        off_w, off_b = layout.weight_offsets[l], layout.bias_offsets[l]
        dw = alpha[..., :, None, :] * a_prev[..., None, :, :] / np.sqrt(dims[l])
        jac[..., off_w : off_w + d_out * d_in, :] = dw.reshape(lead + (d_out * d_in, m))
        jac[..., off_b : off_b + d_out, :] = arch.beta * alpha
        if l > 0:
            alpha = act_prime(preacts[l - 1]) * (
                np.swapaxes(params.weight(l), -1, -2) @ alpha / np.sqrt(dims[l]))
    return jac


@pytest.mark.parametrize("stack", [None, "C", "F"], ids=["1d", "stack-C", "stack-F"])
@pytest.mark.parametrize("activation", ["erf", "tanh"])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("width", [64, 48])
def test_network_passes_equal_plain_division_bit_for_bit(width, depth, activation, stack):
    # Width 64 scales its hidden layers by a multiply, width 48 by a divide;
    # the input layer (d0 = 3) divides in both.  Every pass must give the
    # bits of the recursion written with / np.sqrt(d).
    arch = Architecture(3, (width,) * depth, beta=0.3, activation=activation)
    net = WideNet(arch)
    rng = np.random.default_rng([width, depth])
    theta = net.init_params(depth) + 0.3 * rng.standard_normal(net.n_params)
    if stack is not None:
        theta = np.asarray(_stack_of_runs(theta), order=stack)
    params = ModelParams(theta, net.layout)
    xs = rng.standard_normal((3, 6))
    xs /= 1.1 * np.linalg.norm(xs, axis=0).max()
    values, cache = nn_forward_batch(arch, params, xs)
    ref_values, preacts, acts = _reference_forward(arch, params, xs)
    assert np.array_equal(_bits(values), _bits(ref_values))
    for got, want in zip(cache.preacts + cache.acts, preacts + acts):
        assert np.array_equal(_bits(got), _bits(want))
    for k in (6, 4):
        v = rng.standard_normal((k,) + theta.shape[1:])
        got = nn_pullback(arch, params, xs, cache, v)
        want = _reference_pullback(arch, params, xs, preacts, acts, v)
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))
    grad_values, jac = nn_grad_batch(arch, params, xs)
    assert np.array_equal(_bits(grad_values), _bits(ref_values))
    assert np.array_equal(_bits(jac), _bits(_reference_jacobian(arch, params, xs, preacts, acts)))
