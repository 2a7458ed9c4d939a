"""Every public entry point of linalg and oracles rejects non-finite arrays.

One table holds a valid call of each function.  The matrix puts NaN, +inf
and -inf into one entry of each array argument in turn and expects
InvalidArgumentError.  Entries of 1e200 are finite but overflow the Gram
matrix or the kernel's squared norms; the functions that form those raise
InvalidArgumentError too, never a bare numpy LinAlgError or a meaningless
value.
"""

import inspect

import numpy as np
import pytest

import grwlab
from grwlab import linalg, oracles
from grwlab.errors import InvalidArgumentError
from grwlab.reweighting import GroupInfo
from grwlab.trainer import safe_learning_rate

_X = np.array([[0.5, -0.2, 0.1], [0.1, 0.4, -0.3], [-0.2, 0.1, 0.5], [0.3, 0.3, 0.2]])
_G = linalg.gram(_X)
_Y = np.array([1.0, -1.0, 1.0])
_SPEC = oracles.KernelSpec(depth=2, beta=0.5)

# name -> (function, keyword arguments of one valid call, names of its array arguments)
CALLS = {
    "as_matrix": (linalg.as_matrix, {"a": _X}, ("a",)),
    "as_vector": (linalg.as_vector, {"a": _Y}, ("a",)),
    "gram": (linalg.gram, {"f": _X}, ("f",)),
    "extreme_eigenvalues": (linalg.extreme_eigenvalues, {"s": _G}, ("s",)),
    "require_full_rank": (linalg.require_full_rank, {"g": _G}, ("g",)),
    "min_norm_span_solve": (linalg.min_norm_span_solve, {"x": _X, "r": _Y}, ("x", "r")),
    "span_residual": (linalg.span_residual, {"v": np.ones(4), "x": _X}, ("v", "x")),
    "min_norm_interpolator": (
        oracles.min_norm_interpolator,
        {"x": _X, "y": _Y, "theta0": np.zeros(4), "f0": np.zeros(3)},
        ("x", "y", "theta0", "f0")),
    "ridge_closed_form": (
        oracles.ridge_closed_form,
        {"x": _X, "y": _Y, "q": np.full(3, 1 / 3), "mu": 0.1, "theta0": np.zeros(4),
         "f0": np.zeros(3)},
        ("x", "y", "q", "theta0", "f0")),
    "max_margin_direction": (oracles.max_margin_direction, {"x": _X, "y": _Y}, ("x", "y")),
    "max_margin_bruteforce": (oracles.max_margin_bruteforce, {"x": _X, "y": _Y}, ("x", "y")),
    "ntk_limiting_kernel": (oracles.ntk_limiting_kernel,
                            {"spec": _SPEC, "x": _X[:, 0], "xp": _X[:, 1]}, ("x", "xp")),
    "ntk_limiting_kernel_mc": (oracles.ntk_limiting_kernel_mc,
                               {"spec": _SPEC, "x": _X[:, 0], "xp": _X[:, 1], "samples": 100},
                               ("x", "xp")),
    "robust_risks": (oracles.robust_risks,
                     {"per_sample_losses": np.array([0.1, 0.2, 0.3]),
                      "groups": GroupInfo([0, 0, 1]), "alpha": 0.5},
                     ("per_sample_losses",)),
    "safe_learning_rate": (safe_learning_rate, {"x_or_features": _X, "q_star": 0.5},
                           ("x_or_features",)),
}


def _public_functions():
    names = {name for name, f in vars(linalg).items()
             if inspect.isfunction(f) and f.__module__ == linalg.__name__
             and not name.startswith("_")}
    return names | {name for name, f in vars(oracles).items()
                    if inspect.isfunction(f) and f.__module__ == oracles.__name__
                    and hasattr(grwlab, name)}


def test_the_table_covers_every_public_entry_point():
    assert _public_functions() <= set(CALLS), _public_functions() - set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_table_calls_are_valid(name):
    fn, kwargs, _ = CALLS[name]
    fn(**kwargs)


def _with_entry(kwargs, arg, value):
    bad = np.array(kwargs[arg], dtype=np.float64)
    bad.flat[0] = value
    return {**kwargs, arg: bad}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,arg", [(name, arg) for name in sorted(CALLS)
                                      for arg in CALLS[name][2]])
def test_non_finite_entries_raise(name, arg, value):
    fn, kwargs, _ = CALLS[name]
    with pytest.raises(InvalidArgumentError):
        fn(**_with_entry(kwargs, arg, value))


# The squares of 1e200 overflow; numpy warns about that before the check raises.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("name,arg", [
    ("ntk_limiting_kernel", "x"),
    ("ntk_limiting_kernel", "xp"),
    ("ntk_limiting_kernel_mc", "x"),
    ("ntk_limiting_kernel_mc", "xp"),
    ("min_norm_interpolator", "x"),
    ("span_residual", "x"),
    ("safe_learning_rate", "x_or_features"),
])
def test_overflowing_entries_raise(name, arg):
    fn, kwargs, _ = CALLS[name]
    with pytest.raises(InvalidArgumentError):
        fn(**_with_entry(kwargs, arg, 1e200))
