import math

import numpy as np
import pytest
from scipy.special import expit

from grwlab.errors import InvalidArgumentError
from grwlab.losses import (
    Logistic,
    PolyTailed,
    Squared,
    loss_grad,
    loss_kernels,
    loss_name,
    loss_value,
    parse_loss,
)

ALL_KINDS = [Squared(), Logistic(), PolyTailed(1.0, 0.0), PolyTailed(2.0, 0.5), PolyTailed(0.5, -1.0)]


def test_squared_values():
    assert loss_value(Squared(), 3.0, 1.0) == 2.0
    assert loss_grad(Squared(), 3.0, 1.0) == 2.0


def test_logistic_at_zero():
    assert loss_value(Logistic(), 0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert loss_grad(Logistic(), 0.0, 1.0) == -0.5


def test_polytailed_right_branch_value():
    # alpha=1, beta=0, margin 1: 1 / (1 - (0 - 1)) = 1/2.
    assert loss_value(PolyTailed(1.0, 0.0), 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_polytailed_continuous_at_beta():
    assert loss_value(PolyTailed(1.0, 0.0), 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    for alpha in (0.5, 1.0, 2.0, 3.5):
        for beta in (-2.0, -0.5, 0.0, 0.7, 2.0):
            kind = PolyTailed(alpha, beta)
            below = loss_value(kind, beta - 1e-13, 1.0)
            above = loss_value(kind, beta + 1e-13, 1.0)
            assert below == pytest.approx(above, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_grad_matches_central_differences(kind):
    rng = np.random.default_rng(123)
    h = 1e-6
    for _ in range(1000):
        yhat = float(rng.uniform(-8, 8))
        y = float(rng.uniform(-2, 2)) if isinstance(kind, Squared) else float(rng.choice([-1.0, 1.0]))
        g = loss_grad(kind, yhat, y)
        fd = (loss_value(kind, yhat + h, y) - loss_value(kind, yhat - h, y)) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-6, abs=2e-6)


@pytest.mark.parametrize("kind", [Logistic(), PolyTailed(1.0, 0.0), PolyTailed(2.0, 1.0)])
def test_classification_losses_decrease_to_zero_in_margin(kind):
    margins = np.linspace(-20.0, 40.0, 601)
    values = loss_value(kind, margins, np.ones_like(margins))
    assert np.all(np.diff(values) < 0)
    far = loss_value(kind, 1e6, 1.0)
    assert far >= 0.0
    assert far < 1e-5


def test_logistic_smoothness_bound():
    # Second difference bounded by the curvature cap 1/4 for unit labels.
    margins = np.linspace(-30.0, 30.0, 2001)
    h = margins[1] - margins[0]
    vals = loss_value(Logistic(), margins, np.ones_like(margins))
    second = np.diff(vals, 2) / h**2
    assert np.all(np.abs(second) <= 0.25 + 1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_no_overflow_for_huge_predictions(kind):
    y = 1.0 if not isinstance(kind, Squared) else 0.5
    for yhat in (-1e6, -1e3, 0.0, 1e3, 1e6):
        v = loss_value(kind, yhat, y)
        g = loss_grad(kind, yhat, y)
        assert np.isfinite(v) and v >= 0.0
        assert np.isfinite(g)


def test_values_nonnegative_everywhere():
    rng = np.random.default_rng(5)
    for kind in ALL_KINDS:
        yhat = rng.uniform(-50, 50, size=200)
        y = np.where(rng.random(200) < 0.5, -1.0, 1.0) if not isinstance(kind, Squared) else rng.uniform(-3, 3, 200)
        assert np.all(loss_value(kind, yhat, y) >= 0.0)


def test_label_validation():
    with pytest.raises(InvalidArgumentError):
        loss_value(Logistic(), 0.3, 0.5)
    with pytest.raises(InvalidArgumentError):
        loss_grad(PolyTailed(1.0, 0.0), 0.3, 0.0)


def test_polytailed_requires_positive_alpha():
    with pytest.raises(InvalidArgumentError):
        PolyTailed(0.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        PolyTailed(-1.0, 0.0)


def test_parse_loss_round_trip():
    assert parse_loss("squared") == Squared()
    assert parse_loss("logistic") == Logistic()
    assert parse_loss("polytailed:1:0") == PolyTailed(1.0, 0.0)
    assert parse_loss("polytailed:2.5:-0.5") == PolyTailed(2.5, -0.5)
    assert loss_name(parse_loss("polytailed:1:0")) == "polytailed:1:0"
    with pytest.raises(InvalidArgumentError):
        parse_loss("hinge")
    with pytest.raises(InvalidArgumentError):
        parse_loss("polytailed:1")


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(8)
    yhat = rng.uniform(-3, 3, size=17)
    y = np.where(rng.random(17) < 0.5, -1.0, 1.0)
    for kind in (Logistic(), PolyTailed(1.5, 0.2)):
        vec = loss_value(kind, yhat, y)
        for i in range(17):
            assert vec[i] == loss_value(kind, float(yhat[i]), float(y[i]))


def _kernel_inputs(kind, seed):
    # Margins m = yhat * y up to |m| = 700, a dense band around 0 and exact 0.
    rng = np.random.default_rng(seed)
    m = np.concatenate([rng.uniform(-700.0, 700.0, 4000), rng.uniform(-4.0, 4.0, 4000),
                        [-700.0, -1.0, 0.0, 1.0, 700.0]])
    if isinstance(kind, Squared):
        return m, rng.uniform(-3.0, 3.0, m.shape)
    y = rng.choice([-1.0, 1.0], m.shape)
    return m * y, y


def _logistic_formula(m):
    return np.log1p(np.exp(-np.abs(m))) + np.maximum(0.0, -m)


@pytest.mark.parametrize("kind", [Squared(), Logistic()])
def test_fused_kernel_is_bit_identical_to_the_formulas(kind):
    yhat, y = _kernel_inputs(kind, 31)
    value, grad = loss_kernels(kind)(yhat, y)
    if isinstance(kind, Squared):
        want_value, want_grad = 0.5 * (yhat - y) ** 2, yhat - y
    else:
        want_value, want_grad = _logistic_formula(yhat * y), -y * expit(-(yhat * y))
    np.testing.assert_array_equal(value, want_value)
    np.testing.assert_array_equal(grad, want_grad)


@pytest.mark.parametrize("alpha", [1.0, 4.0, 16.0])
@pytest.mark.parametrize("beta", [-1.5, 0.0, 0.5, 2.0])
def test_fused_polytailed_kernel_matches_the_formulas(alpha, beta):
    kind = PolyTailed(alpha, beta)
    yhat, y = _kernel_inputs(kind, 32)
    # Both sides of beta, right next to it too.
    yhat = np.concatenate([yhat, beta + np.array([-1e-9, 0.0, 1e-9]), [beta - 0.5, beta + 0.5]])
    y = np.concatenate([y, np.ones(5)])
    value, grad = loss_kernels(kind)(yhat, y)
    m = yhat * y
    below = m < beta
    base = m - (beta - 1.0)
    shift = 1.0 - _logistic_formula(np.float64(beta))
    assert below.any() and (~below).any()
    np.testing.assert_array_equal(value[below], _logistic_formula(m[below]) + shift)
    np.testing.assert_array_equal(value[~below], base[~below] ** -alpha)
    np.testing.assert_array_equal(grad[below], -y[below] * expit(-m[below]))
    np.testing.assert_array_equal(grad[~below], -y[~below] * alpha * base[~below] ** -(alpha + 1.0))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_squared_kernel_rounds_as_half_the_square():
    tiny = np.finfo(np.float64).smallest_subnormal
    r = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-160, 2.5e-308, 1e200, -1e200, np.nan,
                  -np.nan, 1.0, -3.0])
    with np.errstate(over="ignore"):  # 1e200 squared
        value, grad = loss_kernels(Squared())(r, np.zeros(1))
        want = 0.5 * r**2
    np.testing.assert_array_equal(_bits(value), _bits(want))
    np.testing.assert_array_equal(_bits(grad), _bits(r - 0.0))


def _two_branch_polytailed(kind, yhat, y):
    # The polytailed kernel with both branches always evaluated.
    m = yhat * y
    below = m < kind.beta
    base = np.maximum(m - (kind.beta - 1.0), 1.0)
    shift = 1.0 - _logistic_formula(np.float64(kind.beta))
    value = np.where(below, _logistic_formula(m) + shift, np.power(base, -kind.alpha))
    slope = np.where(below, expit(-m), kind.alpha * np.power(base, -(kind.alpha + 1.0)))
    return value, -y * slope


@pytest.mark.parametrize("kind", [PolyTailed(1.0, 0.0), PolyTailed(2.5, 0.5), PolyTailed(0.5, -1.0)])
def test_polytailed_kernel_with_no_margin_below_beta_matches_both_branches(kind):
    # A 6 x 3 block of runs with labels as a column: one block with margins
    # on both sides of beta, one with every margin at or above it (the
    # kernel's one-branch path), both bit for bit, sign bits included.
    rng = np.random.default_rng(17)
    y = rng.choice([-1.0, 1.0], (6, 1))
    mixed = y * (kind.beta + rng.uniform(-3.0, 3.0, (6, 3)))
    above = y * (kind.beta + np.concatenate([[[0.0, 1e-9, 700.0]], rng.uniform(0.0, 5.0, (5, 3))]))
    for yhat, any_below in ((mixed, True), (above, False)):
        assert ((yhat * y) < kind.beta).any() == any_below
        got, want = loss_kernels(kind)(yhat, y), _two_branch_polytailed(kind, yhat, y)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (6, 3)
            np.testing.assert_array_equal(_bits(g), _bits(w))
