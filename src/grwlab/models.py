"""Model classes: linear, wide NTK-parameterized MLP, and its linearization.

The MLP follows the width-scaled recursion

    h^{l+1} = W^l x^l / sqrt(d_l) + beta * b^l,   x^{l+1} = sigma(h^{l+1})

for l = 0..L with scalar output f(x) = h^{L+1}.  Initialization draws every
entry of W^0..W^{L-1} and b^0..b^L from N(0, 1) and sets the output-layer
weight block W^L to exactly zero, so the initial function is the constant
beta * b^L.  Parameters live in one flat float64 vector with a per-layer
layout map, so the trainer and oracles treat every model uniformly as a
point in R^p.

Activations are restricted to erf and tanh: both are everywhere
differentiable with Lipschitz derivative, and erf admits a closed-form
infinite-width kernel.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import InvalidArgumentError
from .linalg import as_matrix, as_vector

_BALL_TOL = 1e-9


def _erf(z):
    return erf(z)


def _erf_prime(z):
    # Flush the underflow region to exact zero: exp(-z^2) below 1e-300 would
    # otherwise produce subnormals, which cost 10-100x on the hot path.
    z2 = np.square(z)
    out = (2.0 / np.sqrt(np.pi)) * np.exp(-np.minimum(z2, 690.0))
    return np.where(z2 > 690.0, 0.0, out)


def _tanh_prime(z):
    return 1.0 - np.square(np.tanh(z))


ACTIVATIONS = {
    "erf": (_erf, _erf_prime),
    "tanh": (np.tanh, _tanh_prime),
}


@dataclass(frozen=True)
class Architecture:
    """Shape of the fully-connected net: input_dim -> hidden_widths -> 1."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    beta: float = 0.1
    activation: str = "erf"

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1:
            raise InvalidArgumentError("input_dim must be >= 1")
        if len(self.hidden_widths) < 1 or any(w < 1 for w in self.hidden_widths):
            raise InvalidArgumentError("need at least one hidden layer, all widths >= 1")
        if self.beta < 0:
            raise InvalidArgumentError("beta must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise InvalidArgumentError(f"unknown activation {self.activation!r}")

    @property
    def depth(self) -> int:
        """Number of hidden layers L."""
        return len(self.hidden_widths)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        """(d_0, d_1, ..., d_L, 1)."""
        return (self.input_dim, *self.hidden_widths, 1)


@dataclass(frozen=True)
class ParamLayout:
    """Offsets of the flattened W^0..W^L, b^0..b^L blocks inside the flat vector."""

    weight_shapes: tuple[tuple[int, int], ...]
    weight_offsets: tuple[int, ...]
    bias_offsets: tuple[int, ...]
    size: int


def layout_for(arch: Architecture) -> ParamLayout:
    dims = arch.layer_dims
    shapes, woff, boff = [], [], []
    pos = 0
    for l in range(arch.depth + 1):
        d_in, d_out = dims[l], dims[l + 1]
        shapes.append((d_out, d_in))
        woff.append(pos)
        pos += d_out * d_in
        boff.append(pos)
        pos += d_out
    return ParamLayout(tuple(shapes), tuple(woff), tuple(boff), pos)


@dataclass
class ModelParams:
    """Flat parameter vector plus the layout needed to slice it into layers."""

    flat: np.ndarray
    layout: ParamLayout

    def weight(self, l: int) -> np.ndarray:
        """W^l as (d_out, d_in), or (R, d_out, d_in) for a p x R stack of runs."""
        shape = self.layout.weight_shapes[l]
        off = self.layout.weight_offsets[l]
        block = self.flat[off : off + shape[0] * shape[1]]
        if block.ndim == 1:
            return block.reshape(shape)
        return np.ascontiguousarray(block.T).reshape(-1, *shape)

    def bias(self, l: int) -> np.ndarray:
        """b^l as (d_out,), or (R, d_out) for a p x R stack of runs."""
        off = self.layout.bias_offsets[l]
        return self.flat[off : off + self.layout.weight_shapes[l][0]].T


def nn_init(arch: Architecture, seed: int) -> ModelParams:
    """Draw standard-normal parameters, zeroing the output-layer weights.

    Deterministic given the seed; blocks are drawn in the fixed order
    W^0, b^0, W^1, b^1, ..., with the W^L draw skipped (zeros) and b^L drawn.
    """
    layout = layout_for(arch)
    rng = np.random.default_rng(seed)
    flat = np.empty(layout.size, dtype=np.float64)
    last = arch.depth
    for l in range(last + 1):
        n_w = layout.weight_shapes[l][0] * layout.weight_shapes[l][1]
        off_w, off_b = layout.weight_offsets[l], layout.bias_offsets[l]
        if l == last:
            flat[off_w : off_w + n_w] = 0.0
        else:
            flat[off_w : off_w + n_w] = rng.standard_normal(n_w)
        flat[off_b : off_b + layout.weight_shapes[l][0]] = rng.standard_normal(
            layout.weight_shapes[l][0]
        )
    return ModelParams(flat, layout)


def _warn_ball(xs: np.ndarray) -> None:
    norms = np.linalg.norm(xs, axis=0)
    if norms.max(initial=0.0) > 1.0 + _BALL_TOL:
        warnings.warn(
            f"input norm {norms.max():.6g} exceeds the unit ball; width-scaling "
            "guarantees assume ||x|| <= 1",
            stacklevel=3,
        )


# Every network routine below takes either one flat parameter vector (p,) or
# a p x R stack whose columns are R independent runs.  Stacked layers carry
# a leading run axis, (R, d_out, m), and go through batched ``np.matmul``;
# per-input outputs come back as (m,) or (m, R).


@dataclass
class ForwardCache:
    """Pre-activations h^1..h^{L+1} and activations x^1..x^L for one batch."""

    preacts: list[np.ndarray]
    acts: list[np.ndarray]


def nn_forward_batch(arch: Architecture, params: ModelParams, xs,
                     check: bool = True) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass on a d0 x m batch; returns (values (m,) or (m, R), cache).

    ``check=False`` skips the finite-entry scan and the unit-ball warning, for
    callers that validated ``xs`` once up front.
    """
    if check:
        xs = as_matrix(xs, "inputs")
    if xs.shape[0] != arch.input_dim:
        raise InvalidArgumentError(
            f"input dimension {xs.shape[0]} does not match architecture d0={arch.input_dim}"
        )
    if check:
        _warn_ball(xs)
    act, _ = ACTIVATIONS[arch.activation]
    dims = arch.layer_dims
    preacts, acts = [], []
    a = xs
    for l in range(arch.depth + 1):
        h = params.weight(l) @ a / np.sqrt(dims[l]) + arch.beta * params.bias(l)[..., None]
        preacts.append(h)
        if l < arch.depth:
            a = act(h)
            acts.append(a)
    return preacts[-1][..., 0, :].T.copy(), ForwardCache(preacts, acts)


def nn_forward(arch: Architecture, params: ModelParams, x) -> tuple[float, ForwardCache]:
    """Forward pass on a single input vector; returns (scalar value, cache)."""
    x = as_vector(x, "input")
    values, cache = nn_forward_batch(arch, params, x[:, None])
    return float(values[0]), cache


def nn_grad_batch(arch: Architecture, params: ModelParams, xs) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and exact reverse-mode Jacobian d f(x_j) / d theta from one
    forward pass: (values, jac) with jac p x m, one column per input, or
    R x p x m for a p x R parameter stack."""
    xs = as_matrix(xs, "inputs")
    values, cache = nn_forward_batch(arch, params, xs)
    _, act_prime = ACTIVATIONS[arch.activation]
    dims = arch.layer_dims
    m = xs.shape[1]
    lead = params.flat.shape[1:][::-1]
    jac = np.empty(lead + (params.layout.size, m), dtype=np.float64)
    # alpha^{l+1} = d h^{L+1} / d h^{l+1}, started at the scalar output.
    alpha = np.ones(lead + (1, m), dtype=np.float64)
    for l in range(arch.depth, -1, -1):
        a_prev = xs if l == 0 else cache.acts[l - 1]
        shape = params.layout.weight_shapes[l]
        off_w, off_b = params.layout.weight_offsets[l], params.layout.bias_offsets[l]
        dw = alpha[..., :, None, :] * a_prev[..., None, :, :] / np.sqrt(dims[l])
        jac[..., off_w : off_w + shape[0] * shape[1], :] = dw.reshape(lead + (shape[0] * shape[1], m))
        jac[..., off_b : off_b + shape[0], :] = arch.beta * alpha
        if l > 0:
            alpha = act_prime(cache.preacts[l - 1]) * (
                np.swapaxes(params.weight(l), -1, -2) @ alpha / np.sqrt(dims[l]))
    return values, jac


def nn_pullback(arch: Architecture, params: ModelParams, xs: np.ndarray, cache: ForwardCache,
                v: np.ndarray) -> np.ndarray:
    """J @ v for the batch behind ``cache``, by backpropagating the output
    cotangents v, (m,) or (m, R), through that forward pass; J is never
    formed.  The result has the shape of ``params.flat``."""
    _, act_prime = ACTIVATIONS[arch.activation]
    dims = arch.layer_dims
    layout = params.layout
    out = np.empty(params.flat.shape, dtype=np.float64)

    def flat(block):  # (d_out, d_in) -> (d_out * d_in,); (R, d_out, d_in) -> (d_out * d_in, R)
        return block.ravel() if block.ndim < 3 else block.reshape(block.shape[0], -1).T

    # alpha^{l+1} = v-weighted d h^{L+1} / d h^{l+1}, one column per input.
    alpha = v.T[..., None, :]
    for l in range(arch.depth, -1, -1):
        a_prev = xs if l == 0 else cache.acts[l - 1]
        shape = layout.weight_shapes[l]
        off_w, off_b = layout.weight_offsets[l], layout.bias_offsets[l]
        out[off_w : off_w + shape[0] * shape[1]] = flat(alpha @ np.swapaxes(a_prev, -1, -2)) / np.sqrt(dims[l])
        out[off_b : off_b + shape[0]] = arch.beta * alpha.sum(axis=-1).T
        if l > 0:
            alpha = act_prime(cache.preacts[l - 1]) * (
                np.swapaxes(params.weight(l), -1, -2) @ alpha / np.sqrt(dims[l]))
    return out


def nn_grad(arch: Architecture, params: ModelParams, x) -> np.ndarray:
    """Gradient of the scalar output with respect to the flat parameters."""
    x = as_vector(x, "input")
    return nn_grad_batch(arch, params, x[:, None])[1][:, 0]


@dataclass
class LinearizedModel:
    """First-order Taylor model around frozen params0.

    f_lin(x; theta) = f0(x) + <theta - theta0, grad_theta f(x; theta0)>.

    The value and feature caches for the construction points are computed
    once here, from one network pass, and never mutated; queries at new
    points are computed on demand without touching the caches.  A p x R
    stack of base points gives f0 as m x R and features as R x p x m; only
    ``LinearizedNet`` reads such a stack.
    """

    arch: Architecture
    params0: ModelParams
    points: np.ndarray
    f0: np.ndarray = field(init=False)
    features: np.ndarray = field(init=False)

    def __post_init__(self):
        self.points = as_matrix(self.points, "cache points")
        self.f0, self.features = nn_grad_batch(self.arch, self.params0, self.points)

    def features_at(self, x) -> np.ndarray:
        """Feature vector grad f(x; theta0); cached column if x is an index."""
        if isinstance(x, (int, np.integer)):
            return self.features[:, int(x)]
        return nn_grad(self.arch, self.params0, x)

    def f0_at(self, x) -> float:
        if isinstance(x, (int, np.integer)):
            return float(self.f0[int(x)])
        value, _ = nn_forward(self.arch, self.params0, x)
        return value


def linearize(arch: Architecture, params0: ModelParams, points) -> LinearizedModel:
    """Build the linearized model with caches over the given points."""
    return LinearizedModel(arch, params0, points)


def linearized_forward(lin: LinearizedModel, theta, x) -> float:
    """Evaluate the linearized net at flat parameters theta.

    ``x`` is either a column index into the cached points or a raw vector.
    """
    theta = as_vector(theta, "parameters")
    disp = theta - lin.params0.flat
    return lin.f0_at(x) + float(disp @ lin.features_at(x))


def feature_matrix(lin: LinearizedModel, xs=None) -> np.ndarray:
    """Columns grad f(x_i; theta0); the cached matrix when xs is omitted."""
    if xs is None or xs is lin.points:
        return lin.features
    return nn_grad_batch(lin.arch, lin.params0, xs)[1]


def parse_model(text: str):
    """Parse "linear" or "mlp:<d0>:<width>x<depth>:<beta>:<erf|tanh>".

    Returns the string "linear" or an Architecture.
    """
    parts = text.strip().lower().split(":")
    if parts[0] == "linear" and len(parts) == 1:
        return "linear"
    if parts[0] == "mlp" and len(parts) == 5:
        d0 = int(parts[1])
        if "x" not in parts[2]:
            raise InvalidArgumentError(f"bad width spec {parts[2]!r}, expected <w>x<L>")
        w, depth = parts[2].split("x")
        return Architecture(
            input_dim=d0,
            hidden_widths=(int(w),) * int(depth),
            beta=float(parts[3]),
            activation=parts[4],
        )
    raise InvalidArgumentError(f"unknown model spec: {text!r}")


# Every trainer-facing model below offers the same four methods:
#
#   init_params(seed)     -> theta0, the flat starting parameters;
#   predict(theta, xs)    -> outputs at the columns of xs;
#   jacobian(theta, xs)   -> the p x m matrix of output gradients;
#   vjp(theta, xs)        -> (outputs, pullback) from one forward pass, where
#                            pullback(v) = jacobian(theta, xs) @ v.
#
# vjp is the training step's only model call.  It expects xs validated
# already (train() checks the data once on entry), so it skips the checks.
# vjp also takes a p x R stack of runs: outputs and cotangents are then
# m x R, and the pullback returns p x R.  A model that keeps per-run state
# (a stack of base points) also offers take(runs), the model for a subset of
# its runs; the trainer calls it when runs stop.


class LinearModel:
    """f(x) = <theta, x>; the degenerate model whose features are x itself."""

    def __init__(self, dim: int):
        if dim < 1:
            raise InvalidArgumentError("dim must be >= 1")
        self.dim = dim

    @property
    def n_params(self) -> int:
        return self.dim

    def init_params(self, seed: int = 0) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.float64)

    def predict(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return xs.T @ theta

    def jacobian(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return xs

    def vjp(self, theta: np.ndarray, xs: np.ndarray):
        return xs.T @ theta, lambda v: xs @ v


class WideNet:
    """Trainer-facing adapter around the NTK-parameterized MLP."""

    def __init__(self, arch: Architecture):
        self.arch = arch
        self.layout = layout_for(arch)

    @property
    def n_params(self) -> int:
        return self.layout.size

    def init_params(self, seed: int = 0) -> np.ndarray:
        return nn_init(self.arch, seed).flat

    def _wrap(self, theta: np.ndarray) -> ModelParams:
        return ModelParams(theta, self.layout)

    def predict(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        values, _ = nn_forward_batch(self.arch, self._wrap(theta), xs)
        return values

    def jacobian(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return nn_grad_batch(self.arch, self._wrap(theta), xs)[1]

    def vjp(self, theta: np.ndarray, xs: np.ndarray):
        params = self._wrap(theta)
        values, cache = nn_forward_batch(self.arch, params, xs, check=False)
        return values, lambda v: nn_pullback(self.arch, params, xs, cache, v)


class LinearizedNet:
    """Trainer-facing adapter for the linearization of a WideNet at theta0.

    Training this model with any weight sequence is exactly linear-model
    training over the frozen feature map.  Built from a stacked
    ``LinearizedModel`` it holds R base points, one per run, and then takes
    p x R parameters only.
    """

    def __init__(self, lin: LinearizedModel):
        self.lin = lin
        self.theta0 = lin.params0.flat
        self.f0, self.features = lin.f0, lin.features

    @property
    def n_params(self) -> int:
        return self.theta0.shape[0]

    def init_params(self, seed: int = 0) -> np.ndarray:
        return self.theta0.copy()

    def take(self, runs) -> "LinearizedNet":
        """The model for the given runs of a stack of base points."""
        if self.theta0.ndim == 1:
            return self
        sub = copy.copy(self)
        sub.theta0, sub.f0, sub.features = self.theta0[:, runs], self.f0[:, runs], self.features[runs]
        return sub

    def _f0_and_features(self, xs):
        """Cached at the construction points, computed afresh elsewhere."""
        if xs is None or xs is self.lin.points:
            return self.f0, self.features
        return nn_grad_batch(self.lin.arch, ModelParams(self.theta0, self.lin.params0.layout), xs)

    def predict(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return self.vjp(theta, xs)[0]

    def jacobian(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return self._f0_and_features(xs)[1]

    def vjp(self, theta: np.ndarray, xs: np.ndarray):
        f0, feats = self._f0_and_features(xs)
        if feats.ndim == 3:  # one base point per run: feats is R x p x m
            disp = (theta - self.theta0).T[:, :, None]
            out = f0 + (np.swapaxes(feats, 1, 2) @ disp)[:, :, 0].T
            return out, lambda v: (feats @ v.T[:, :, None])[:, :, 0].T
        theta0 = self.theta0 if theta.ndim == 1 else self.theta0[:, None]
        f0 = f0 if theta.ndim == 1 else f0[:, None]
        return f0 + feats.T @ (theta - theta0), lambda v: feats @ v
